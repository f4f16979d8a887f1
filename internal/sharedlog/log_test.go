package sharedlog

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"impeller/internal/sim"
)

func openTest(t *testing.T) *Log {
	t.Helper()
	l := Open(Config{})
	t.Cleanup(l.Close)
	return l
}

func mustAppend(t *testing.T, l *Log, payload string, tags ...Tag) LSN {
	t.Helper()
	lsn, err := l.Append(tags, []byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return lsn
}

func TestAppendAssignsDenseLSNs(t *testing.T) {
	l := openTest(t)
	for i := 0; i < 100; i++ {
		lsn := mustAppend(t, l, fmt.Sprint(i), "a")
		if lsn != LSN(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if l.Tail() != 100 {
		t.Fatalf("Tail = %d, want 100", l.Tail())
	}
}

func TestAppendRequiresTag(t *testing.T) {
	l := openTest(t)
	if _, err := l.Append(nil, []byte("x")); err == nil {
		t.Fatal("append with no tags succeeded")
	}
}

func TestSelectiveReadByTag(t *testing.T) {
	l := openTest(t)
	mustAppend(t, l, "a0", "a")
	mustAppend(t, l, "b0", "b")
	mustAppend(t, l, "a1", "a")

	rec, err := scanNext(l, 0, "a")
	if err != nil || rec == nil || string(rec.Payload) != "a0" {
		t.Fatalf("scan(a,0) = %v, %v", rec, err)
	}
	rec, err = scanNext(l, rec.LSN+1, "a")
	if err != nil || rec == nil || string(rec.Payload) != "a1" {
		t.Fatalf("scan(a,1) = %v, %v", rec, err)
	}
	rec, err = scanNext(l, rec.LSN+1, "a")
	if err != nil || rec != nil {
		t.Fatalf("scan past tail = %v, %v, want nil,nil", rec, err)
	}
}

func TestMultiTagAppendVisibleInAllSubstreams(t *testing.T) {
	// The key primitive for progress markers (§3.2): one record with
	// tags {A, B} is read by consumers of both substreams at one LSN.
	l := openTest(t)
	lsn := mustAppend(t, l, "marker", "X/2a", "X/2b", "T/1a")
	for _, tag := range []Tag{"X/2a", "X/2b", "T/1a"} {
		rec, err := scanNext(l, 0, tag)
		if err != nil || rec == nil {
			t.Fatalf("scan(%s) = %v, %v", tag, rec, err)
		}
		if rec.LSN != lsn {
			t.Fatalf("tag %s sees LSN %d, want %d", tag, rec.LSN, lsn)
		}
		if string(rec.Payload) != "marker" {
			t.Fatalf("tag %s payload = %q", tag, rec.Payload)
		}
	}
}

func TestReadPrevTail(t *testing.T) {
	l := openTest(t)
	if rec, err := l.ReadPrev("t", MaxLSN); err != nil || rec != nil {
		t.Fatalf("ReadPrev on empty = %v, %v", rec, err)
	}
	mustAppend(t, l, "m1", "t")
	mustAppend(t, l, "other", "u")
	last := mustAppend(t, l, "m2", "t")
	rec, err := l.ReadPrev("t", MaxLSN)
	if err != nil || rec == nil || rec.LSN != last {
		t.Fatalf("ReadPrev tail = %v, %v, want LSN %d", rec, err, last)
	}
	rec, err = l.ReadPrev("t", last-1)
	if err != nil || rec == nil || string(rec.Payload) != "m1" {
		t.Fatalf("ReadPrev bounded = %v, %v", rec, err)
	}
}

func TestReadExact(t *testing.T) {
	l := openTest(t)
	lsn := mustAppend(t, l, "x", "a")
	rec, err := l.Read(lsn)
	if err != nil || rec == nil || string(rec.Payload) != "x" {
		t.Fatalf("Read = %v, %v", rec, err)
	}
	rec, err = l.Read(lsn + 100)
	if err != nil || rec != nil {
		t.Fatalf("Read unassigned = %v, %v", rec, err)
	}
}

func TestReadNextBlockingWakesOnAppend(t *testing.T) {
	l := openTest(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make(chan *Record, 1)
	go func() {
		rec, err := scanNextBlocking(ctx, l, 0, "w")
		if err != nil {
			t.Errorf("blocking read: %v", err)
		}
		got <- rec
	}()
	time.Sleep(10 * time.Millisecond)
	mustAppend(t, l, "late", "w")
	select {
	case rec := <-got:
		if rec == nil || string(rec.Payload) != "late" {
			t.Fatalf("blocking read got %v", rec)
		}
	case <-ctx.Done():
		t.Fatal("blocking read never woke")
	}
}

func TestReadNextBlockingHonorsContext(t *testing.T) {
	l := openTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := scanNextBlocking(ctx, l, 0, "never")
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocking read ignored cancellation")
	}
}

func TestConditionalAppendFencesZombies(t *testing.T) {
	l := openTest(t)
	l.Meta().Set("task/1a", 1)
	if _, err := l.ConditionalAppend([]Tag{"t"}, []byte("ok"), "task/1a", 1); err != nil {
		t.Fatalf("valid conditional append: %v", err)
	}
	// Task manager restarts the task: instance number bumps to 2.
	l.Meta().Increment("task/1a")
	if _, err := l.ConditionalAppend([]Tag{"t"}, []byte("zombie"), "task/1a", 1); err != ErrCondFailed {
		t.Fatalf("zombie append err = %v, want ErrCondFailed", err)
	}
	if _, err := l.ConditionalAppend([]Tag{"t"}, []byte("new"), "task/1a", 2); err != nil {
		t.Fatalf("new instance append: %v", err)
	}
	if n := l.CountTag("t"); n != 2 {
		t.Fatalf("records with tag t = %d, want 2 (zombie excluded)", n)
	}
}

func TestConditionalAppendMissingKeyFails(t *testing.T) {
	l := openTest(t)
	if _, err := l.ConditionalAppend([]Tag{"t"}, nil, "nope", 1); err != ErrCondFailed {
		t.Fatalf("err = %v, want ErrCondFailed", err)
	}
}

func TestSetAuxRoundTrip(t *testing.T) {
	l := openTest(t)
	lsn := mustAppend(t, l, "m", "t")
	if err := l.SetAux(lsn, []byte("ckpt@42")); err != nil {
		t.Fatalf("SetAux: %v", err)
	}
	rec, err := l.Read(lsn)
	if err != nil || string(rec.Aux) != "ckpt@42" {
		t.Fatalf("aux = %q, %v", rec.Aux, err)
	}
	if err := l.SetAux(lsn+50, []byte("x")); err == nil {
		t.Fatal("SetAux at unassigned LSN succeeded")
	}
}

func TestTrimRemovesPrefix(t *testing.T) {
	l := openTest(t)
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprint(i), "a")
	}
	if err := l.Trim(5); err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if h := l.TrimHorizon(); h != 5 {
		t.Fatalf("TrimHorizon = %d, want 5", h)
	}
	if _, err := l.Read(3); err != ErrTrimmed {
		t.Fatalf("Read trimmed err = %v, want ErrTrimmed", err)
	}
	if _, err := scanNext(l, 0, "a"); err != ErrCursorInvalidated {
		t.Fatalf("scan below the horizon err = %v, want ErrCursorInvalidated", err)
	}
	rec, err := scanNext(l, l.TrimHorizon(), "a")
	if err != nil || rec == nil || rec.LSN != 5 {
		t.Fatalf("scan from the horizon = %v, %v, want LSN 5", rec, err)
	}
	// Idempotent + monotonic.
	if err := l.Trim(2); err != nil {
		t.Fatalf("backwards trim errored: %v", err)
	}
	if h := l.TrimHorizon(); h != 5 {
		t.Fatalf("TrimHorizon moved backwards: %d", h)
	}
	if n := l.CountTag("a"); n != 5 {
		t.Fatalf("CountTag = %d, want 5", n)
	}
}

func TestTrimBeyondTailClamps(t *testing.T) {
	l := openTest(t)
	mustAppend(t, l, "x", "a")
	if err := l.Trim(100); err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if h := l.TrimHorizon(); h != 1 {
		t.Fatalf("TrimHorizon = %d, want clamp to tail 1", h)
	}
}

func TestReadNextOnFullyTrimmedRangeReportsTrimmed(t *testing.T) {
	l := openTest(t)
	mustAppend(t, l, "x", "only")
	if err := l.Trim(1); err != nil {
		t.Fatal(err)
	}
	if _, err := scanNext(l, 0, "only"); err != ErrCursorInvalidated {
		t.Fatalf("err = %v, want ErrCursorInvalidated", err)
	}
}

func TestSequencerOrderingInterval(t *testing.T) {
	l := Open(Config{OrderingInterval: 2 * time.Millisecond})
	defer l.Close()
	var wg sync.WaitGroup
	lsns := make([]LSN, 20)
	for i := range lsns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.Append([]Tag{"t"}, []byte{byte(i)})
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			lsns[i] = lsn
		}(i)
	}
	wg.Wait()
	seen := make(map[LSN]bool)
	for _, lsn := range lsns {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
	if l.Tail() != 20 {
		t.Fatalf("Tail = %d, want 20", l.Tail())
	}
}

func TestCloseUnblocksPendingAppends(t *testing.T) {
	l := Open(Config{OrderingInterval: time.Hour}) // cut never fires
	errc := make(chan error, 1)
	go func() {
		_, err := l.Append([]Tag{"t"}, []byte("x"))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending append never unblocked")
	}
}

func TestOperationsAfterClose(t *testing.T) {
	l := Open(Config{})
	l.Close()
	if _, err := l.Append([]Tag{"t"}, nil); err != ErrClosed {
		t.Fatalf("Append err = %v", err)
	}
	if _, err := scanNext(l, 0, "t"); err != ErrClosed {
		t.Fatalf("scan err = %v", err)
	}
	if err := l.Trim(1); err != ErrClosed {
		t.Fatalf("Trim err = %v", err)
	}
}

func TestStorageShardCrashMakesRecordsUnavailable(t *testing.T) {
	f := sim.NewFaultInjector()
	l := Open(Config{NumShards: 4, Replication: 1, Faults: f})
	defer l.Close()
	lsn := mustAppend(t, l, "x", "a")
	// Replication 1: the single replica lives on shard lsn%4.
	f.Crash(fmt.Sprintf("shard/%d", int(lsn)%4))
	if _, err := scanNext(l, 0, "a"); err != ErrUnavailable {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestReplicationSurvivesSingleShardCrash(t *testing.T) {
	f := sim.NewFaultInjector()
	l := Open(Config{NumShards: 4, Replication: 3, Faults: f})
	defer l.Close()
	lsn := mustAppend(t, l, "x", "a")
	f.Crash(fmt.Sprintf("shard/%d", int(lsn)%4))
	rec, err := scanNext(l, 0, "a")
	if err != nil || rec == nil {
		t.Fatalf("read with 2 live replicas failed: %v, %v", rec, err)
	}
}

func TestSequencerPartitionFailsAppends(t *testing.T) {
	f := sim.NewFaultInjector()
	l := Open(Config{Faults: f})
	defer l.Close()
	f.Partition("client", "sequencer")
	if _, err := l.Append([]Tag{"t"}, nil); err != sim.ErrPartitioned {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	f.Heal("client", "sequencer")
	if _, err := l.Append([]Tag{"t"}, nil); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
}

func TestAppendLatencyCharged(t *testing.T) {
	l := Open(Config{AppendLatency: sim.FixedLatency(5 * time.Millisecond)})
	defer l.Close()
	start := time.Now()
	mustAppend(t, l, "x", "a")
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("append took %v, want >= 5ms", d)
	}
}

func TestConcurrentAppendsTotalOrder(t *testing.T) {
	l := openTest(t)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := Tag(fmt.Sprintf("w%d", w))
			for i := 0; i < per; i++ {
				if _, err := l.Append([]Tag{tag, "all"}, []byte{byte(w), byte(i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Tail() != workers*per {
		t.Fatalf("Tail = %d, want %d", l.Tail(), workers*per)
	}
	// Per-worker substreams preserve each worker's append order.
	for w := 0; w < workers; w++ {
		tag := Tag(fmt.Sprintf("w%d", w))
		var from LSN
		for i := 0; i < per; i++ {
			rec, err := scanNext(l, from, tag)
			if err != nil || rec == nil {
				t.Fatalf("worker %d read %d: %v %v", w, i, rec, err)
			}
			if int(rec.Payload[1]) != i {
				t.Fatalf("worker %d out of order at %d: got %d", w, i, rec.Payload[1])
			}
			from = rec.LSN + 1
		}
	}
	if n := l.CountTag("all"); n != workers*per {
		t.Fatalf(`CountTag("all") = %d`, n)
	}
}

// Property: for any sequence of tagged appends, scanning a tag's substream
// yields exactly the records appended with that tag, in
// append order.
func TestPropertySelectiveReadEquivalence(t *testing.T) {
	check := func(tagChoices []uint8) bool {
		l := Open(Config{})
		defer l.Close()
		want := make(map[Tag][]string)
		for i, c := range tagChoices {
			tag := Tag(fmt.Sprintf("t%d", c%5))
			payload := fmt.Sprintf("p%d", i)
			if _, err := l.Append([]Tag{tag}, []byte(payload)); err != nil {
				return false
			}
			want[tag] = append(want[tag], payload)
		}
		for tag, payloads := range want {
			var from LSN
			for _, p := range payloads {
				rec, err := scanNext(l, from, tag)
				if err != nil || rec == nil || string(rec.Payload) != p {
					return false
				}
				from = rec.LSN + 1
			}
			if rec, _ := scanNext(l, from, tag); rec != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: trim at any point never affects records above the horizon.
func TestPropertyTrimPreservesSuffix(t *testing.T) {
	check := func(n uint8, cut uint8) bool {
		l := Open(Config{})
		defer l.Close()
		total := int(n%50) + 1
		for i := 0; i < total; i++ {
			if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
				return false
			}
		}
		horizon := LSN(int(cut) % (total + 1))
		if err := l.Trim(horizon); err != nil {
			return false
		}
		rec, err := scanNext(l, horizon, "t")
		if horizon == LSN(total) {
			return err == nil && rec == nil
		}
		return err == nil && rec != nil && rec.LSN == horizon && rec.Payload[0] == byte(horizon)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaStoreBasics(t *testing.T) {
	m := NewMetaStore()
	if _, ok := m.Get("k"); ok {
		t.Fatal("missing key reported present")
	}
	m.Set("k", 7)
	if v, ok := m.Get("k"); !ok || v != 7 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if !m.CompareAndSwap("k", 7, 8) {
		t.Fatal("CAS with correct old failed")
	}
	if m.CompareAndSwap("k", 7, 9) {
		t.Fatal("CAS with stale old succeeded")
	}
	if v := m.Increment("k"); v != 9 {
		t.Fatalf("Increment = %d, want 9", v)
	}
	if v := m.Increment("fresh"); v != 1 {
		t.Fatalf("Increment fresh = %d, want 1", v)
	}
	m.Delete("k")
	if _, ok := m.Get("k"); ok {
		t.Fatal("deleted key present")
	}
}

func TestMetaStoreConcurrentIncrementsUnique(t *testing.T) {
	m := NewMetaStore()
	const n = 100
	results := make(chan uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- m.Increment("inst")
		}()
	}
	wg.Wait()
	close(results)
	seen := make(map[uint64]bool)
	for v := range results {
		if seen[v] {
			t.Fatalf("duplicate instance number %d", v)
		}
		seen[v] = true
	}
}

func TestRecordCopyIsolation(t *testing.T) {
	l := openTest(t)
	payload := []byte("mutate-me")
	lsn, err := l.Append([]Tag{"t"}, payload)
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // caller mutates its buffer after append
	rec, _ := l.Read(lsn)
	if string(rec.Payload) != "mutate-me" {
		t.Fatalf("log stored aliased payload: %q", rec.Payload)
	}
}
