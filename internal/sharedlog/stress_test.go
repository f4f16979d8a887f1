package sharedlog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"impeller/internal/sim"
)

// TestStressConcurrentLogOperations hammers every plane at once:
// parallel appenders (plain and conditional), multi-tag blocking
// readers, concurrent prefix trims, aux attachment, and fault-injected
// shard crashes. Run under -race this is the refactor's main safety
// net: the committed-read plane takes no global lock, so any unsound
// publication order shows up here as a race or a torn read.
func TestStressConcurrentLogOperations(t *testing.T) {
	f := sim.NewFaultInjector()
	l := Open(Config{NumShards: 4, Replication: 3, Faults: f})
	defer l.Close()
	l.Meta().Set("inst/stress", 1)

	const (
		appenders = 4
		perApp    = 400
		readers   = 4
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	appendersDone := make(chan struct{})

	// Appenders: each writes its own tag plus the shared "all" tag, a
	// conditional append every 8th record.
	var appendWG sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		appendWG.Add(1)
		go func(a int) {
			defer wg.Done()
			defer appendWG.Done()
			tag := Tag(fmt.Sprintf("app/%d", a))
			for i := 0; i < perApp; i++ {
				payload := []byte{byte(a), byte(i), byte(i >> 8)}
				var err error
				if i%8 == 0 {
					_, err = l.ConditionalAppend([]Tag{tag, "all"}, payload, "inst/stress", 1)
				} else {
					_, err = l.Append([]Tag{tag, "all"}, payload)
				}
				if err != nil {
					t.Errorf("appender %d: %v", a, err)
					return
				}
			}
		}(a)
	}
	go func() { appendWG.Wait(); close(appendersDone) }()

	// Blocking readers: each follows two appender tags through one
	// cursor, tolerating trims (skip to horizon) and shard crashes
	// (retry) — exactly what the task read loop does.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tags := []Tag{
				Tag(fmt.Sprintf("app/%d", r%appenders)),
				Tag(fmt.Sprintf("app/%d", (r+1)%appenders)),
			}
			var cursor LSN
			var prev LSN
			seen := 0
			for seen < perApp { // plenty before ctx timeout ends it
				rctx, rcancel := context.WithTimeout(ctx, 50*time.Millisecond)
				rec, err := scanNextBlocking(rctx, l, cursor, tags...)
				rcancel()
				if ctx.Err() != nil {
					return
				}
				switch {
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					select {
					case <-appendersDone:
						return // drained
					default:
						continue
					}
				case errors.Is(err, ErrCursorInvalidated):
					cursor = l.TrimHorizon()
					continue
				case errors.Is(err, ErrUnavailable):
					continue // crashed shard; retry
				case err != nil:
					t.Errorf("reader %d: %v", r, err)
					return
				case rec == nil:
					continue
				}
				if seen > 0 && rec.LSN <= prev {
					t.Errorf("reader %d: LSN went backwards: %d after %d", r, rec.LSN, prev)
					return
				}
				prev = rec.LSN
				cursor = rec.LSN + 1
				seen++
			}
		}(r)
	}

	// Trimmer: advances the horizon behind the tail, with one final trim
	// after the appenders drain so short runs still exercise it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		trim := func() bool {
			tail := l.Tail()
			if tail <= 64 {
				return true
			}
			if err := l.Trim(tail - 64); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("trim: %v", err)
				return false
			}
			return true
		}
		for {
			select {
			case <-appendersDone:
				trim()
				return
			case <-time.After(500 * time.Microsecond):
			}
			if !trim() {
				return
			}
		}
	}()

	// Aux setter: annotates recent records, tolerating trims.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-appendersDone:
				return
			case <-time.After(time.Millisecond):
			}
			tail := l.Tail()
			if tail == 0 {
				continue
			}
			err := l.SetAux(tail-1, []byte("aux"))
			if err != nil && !errors.Is(err, ErrTrimmed) && !errors.Is(err, ErrClosed) {
				// The LSN came from Tail, so "unassigned" is impossible.
				t.Errorf("SetAux: %v", err)
				return
			}
		}
	}()

	// Chaos: crash and recover one shard at a time. Replication is 3 of
	// 4, so a single crash never makes records unavailable — readers
	// should keep flowing (ErrUnavailable tolerated above anyway).
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-appendersDone:
				return
			case <-time.After(3 * time.Millisecond):
			}
			name := fmt.Sprintf("shard/%d", i%4)
			f.Crash(name)
			time.Sleep(time.Millisecond)
			f.Recover(name)
			i++
		}
	}()

	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("stress test timed out")
	}

	// The total order stayed dense: every append got a unique LSN.
	if got, want := l.Tail(), LSN(appenders*perApp); got != want {
		t.Fatalf("Tail = %d, want %d", got, want)
	}
	s := l.Stats()
	if s.Appends != uint64(appenders*perApp) {
		t.Fatalf("Stats.Appends = %d, want %d", s.Appends, appenders*perApp)
	}
	if s.Trims == 0 {
		t.Fatal("trimmer never advanced the horizon")
	}
}

// TestPropertyTagIndexMatchesFullScan asserts the sharded tag index is
// read-equivalent to the naive implementation: scanning every committed
// LSN and filtering by tag membership (DESIGN.md §5's property list).
func TestPropertyTagIndexMatchesFullScan(t *testing.T) {
	check := func(choices []uint16, trimAt uint8) bool {
		l := Open(Config{})
		defer l.Close()
		tagsOf := func(c uint16) []Tag {
			// 1–3 distinct tags per record drawn from a pool of 6.
			n := int(c%3) + 1
			seen := map[Tag]bool{}
			out := make([]Tag, 0, n)
			for i := 0; i < n; i++ {
				tag := Tag(fmt.Sprintf("t%d", (int(c)>>uint(2*i))%6))
				if !seen[tag] {
					seen[tag] = true
					out = append(out, tag)
				}
			}
			return out
		}
		for i, c := range choices {
			if _, err := l.Append(tagsOf(c), []byte{byte(i)}); err != nil {
				return false
			}
		}
		horizon := LSN(0)
		if len(choices) > 0 {
			horizon = LSN(int(trimAt) % (len(choices) + 1))
			if err := l.Trim(horizon); err != nil {
				return false
			}
		}
		// Naive plane: full scan of live LSNs, filter by tag membership.
		naive := make(map[Tag][]LSN)
		for lsn := horizon; lsn < l.Tail(); lsn++ {
			rec, err := l.Read(lsn)
			if err != nil || rec == nil {
				return false
			}
			for _, tag := range rec.Tags {
				naive[tag] = append(naive[tag], lsn)
			}
		}
		// Index plane: a forward scan per tag, plus CountTag.
		for d := 0; d < 6; d++ {
			tag := Tag(fmt.Sprintf("t%d", d))
			var got []LSN
			from := LSN(0)
			for {
				rec, err := scanNext(l, from, tag)
				if errors.Is(err, ErrCursorInvalidated) {
					from = l.TrimHorizon()
					continue
				}
				if err != nil {
					return false
				}
				if rec == nil {
					break
				}
				got = append(got, rec.LSN)
				from = rec.LSN + 1
			}
			want := naive[tag]
			if len(got) != len(want) || l.CountTag(tag) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWakeupsOnlyForCarriedTags pins the thundering-herd fix: commits
// wake only readers registered on a tag the record carries, and every
// wakeup is useful. Under the old global broadcast, the reader blocked
// on "quiet" would have been woken by every "busy" commit.
func TestWakeupsOnlyForCarriedTags(t *testing.T) {
	l := openTest(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	got := make(chan *Record, 1)
	go func() {
		rec, err := scanNextBlocking(ctx, l, 0, "quiet")
		if err != nil {
			t.Errorf("blocking read: %v", err)
		}
		got <- rec
	}()
	// Let the reader park.
	waitUntil(t, func() bool { return waitersOn(l, "quiet") == 1 })

	// Unrelated traffic: must wake nobody.
	for i := 0; i < 50; i++ {
		mustAppend(t, l, "noise", "busy")
	}
	time.Sleep(10 * time.Millisecond)
	if s := l.Stats(); s.ReaderWakeups != 0 {
		t.Fatalf("unrelated commits woke %d readers, want 0", s.ReaderWakeups)
	}

	// The carried tag wakes exactly the registered reader, usefully.
	mustAppend(t, l, "signal", "quiet")
	select {
	case rec := <-got:
		if rec == nil || string(rec.Payload) != "signal" {
			t.Fatalf("reader got %v", rec)
		}
	case <-ctx.Done():
		t.Fatal("reader never woke")
	}
	s := l.Stats()
	if s.ReaderWakeups != 1 {
		t.Fatalf("ReaderWakeups = %d, want 1", s.ReaderWakeups)
	}
	if s.UsefulWakeups != 1 {
		t.Fatalf("UsefulWakeups = %d, want 1 (ratio must be ~1)", s.UsefulWakeups)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestStatsCountersByKind sanity-checks the observability satellite:
// appends, reads by kind, and sequencer cut accounting.
func TestStatsCountersByKind(t *testing.T) {
	l := Open(Config{})
	defer l.Close()
	lsn := mustAppend(t, l, "a0", "a")
	mustAppend(t, l, "a1", "a")

	if _, err := scanNext(l, 0, "a"); err != nil {
		t.Fatal(err)
	}
	if recs, err := l.OpenCursor([]Tag{"a", "b"}, 0).NextBatch(8); err != nil || len(recs) != 2 {
		t.Fatalf("NextBatch = %d records, %v, want 2", len(recs), err)
	}
	if _, err := l.Read(lsn); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadPrev("a", MaxLSN); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ConditionalAppend([]Tag{"a"}, nil, "missing", 1); err != ErrCondFailed {
		t.Fatalf("err = %v, want ErrCondFailed", err)
	}

	s := l.Stats()
	if s.Appends != 2 || s.CondFailed != 1 {
		t.Fatalf("Appends/CondFailed = %d/%d, want 2/1", s.Appends, s.CondFailed)
	}
	if s.CursorOpens != 2 || s.CursorBatchReads != 2 || s.CursorRecords != 3 || s.ReadExact != 1 || s.ReadPrev != 1 {
		t.Fatalf("reads by kind = cursors %d fetches %d records %d exact %d prev %d",
			s.CursorOpens, s.CursorBatchReads, s.CursorRecords, s.ReadExact, s.ReadPrev)
	}
	if s.Tail != 2 || s.TrimHorizon != 0 {
		t.Fatalf("Tail/TrimHorizon = %d/%d", s.Tail, s.TrimHorizon)
	}
}

// TestStatsSequencerCuts checks cut count and mean batch size in
// Scalog-style ordering mode.
func TestStatsSequencerCuts(t *testing.T) {
	l := Open(Config{OrderingInterval: 2 * time.Millisecond})
	defer l.Close()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
				t.Errorf("append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	s := l.Stats()
	if s.SequencerCuts == 0 {
		t.Fatal("no sequencer cuts recorded")
	}
	if s.MeanCutBatch <= 0 {
		t.Fatalf("MeanCutBatch = %v, want > 0", s.MeanCutBatch)
	}
	if got := uint64(s.MeanCutBatch*float64(s.SequencerCuts) + 0.5); got != 10 {
		t.Fatalf("cuts×mean = %d appends, want 10", got)
	}
}

// TestStressCursorsVsAppendBatchAndTrim races streaming cursors against
// group-commit appenders and a concurrent trimmer. Each cursor asserts
// the stream stays strictly LSN-monotonic and every record carries a
// watched tag; on ErrCursorInvalidated it re-seeks to the horizon like
// a recovering task would. Run under -race this guards the cursor's
// lock-free fetch path (index nextN + store resolve) against unsound
// publication orders.
func TestStressCursorsVsAppendBatchAndTrim(t *testing.T) {
	l := Open(Config{})
	defer l.Close()

	const (
		appenders = 3
		perApp    = 200 // AppendBatch calls per appender
		batchSize = 8
		readers   = 4
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	appendersDone := make(chan struct{})

	var appendWG sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		appendWG.Add(1)
		go func(a int) {
			defer wg.Done()
			defer appendWG.Done()
			entries := make([]AppendEntry, batchSize)
			for i := 0; i < perApp; i++ {
				for j := range entries {
					tag := Tag(fmt.Sprintf("cur/%d", (i+j)%4))
					entries[j] = AppendEntry{Tags: []Tag{tag, "cur/all"}, Payload: []byte{byte(a), byte(i), byte(j)}}
				}
				if _, err := l.AppendBatch(entries); err != nil {
					t.Errorf("appender %d: %v", a, err)
					return
				}
			}
		}(a)
	}
	go func() {
		appendWG.Wait()
		close(appendersDone)
	}()

	// Trimmer: periodically advances the horizon to half the tail.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-appendersDone:
				return
			case <-time.After(time.Millisecond):
				if err := l.Trim(l.Tail() / 2); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("trim: %v", err)
					return
				}
			}
		}
	}()

	// Readers run until shortly after the appenders stop; a trim can
	// skip records under them, so termination is by cancellation, not by
	// a consumed-record count.
	readerCtx, readerCancel := context.WithCancel(ctx)
	defer readerCancel()
	go func() {
		<-appendersDone
		time.Sleep(20 * time.Millisecond)
		readerCancel()
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			watch := []Tag{"cur/all"}
			if r%2 == 1 {
				watch = []Tag{Tag(fmt.Sprintf("cur/%d", r%4)), Tag(fmt.Sprintf("cur/%d", (r+1)%4))}
			}
			cur := l.OpenCursorOpts(watch, 0, CursorOptions{Prefetch: 64})
			last := LSN(0)
			seen := 0
			for {
				recs, err := cur.NextBatchBlocking(readerCtx, 16)
				switch {
				case errors.Is(err, ErrCursorInvalidated):
					h := l.TrimHorizon()
					if h < last {
						t.Errorf("reader %d: invalidated but horizon %d behind last seen %d", r, h, last)
						return
					}
					cur.Seek(h)
					continue
				case errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed):
					if seen == 0 {
						t.Errorf("reader %d consumed nothing", r)
					}
					return
				case err != nil:
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for _, rec := range recs {
					if seen > 0 && rec.LSN <= last {
						t.Errorf("reader %d: LSN %d not ahead of %d", r, rec.LSN, last)
						return
					}
					carried := false
					for _, rt := range rec.Tags {
						for _, wt := range watch {
							if rt == wt {
								carried = true
							}
						}
					}
					if !carried {
						t.Errorf("reader %d: record %d tags %v carry none of %v", r, rec.LSN, rec.Tags, watch)
						return
					}
					last = rec.LSN
					seen++
				}
			}
		}(r)
	}

	wg.Wait()
	if ctx.Err() != nil {
		t.Fatalf("stress timed out: %v", ctx.Err())
	}
}
