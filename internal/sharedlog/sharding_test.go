package sharedlog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"impeller/internal/sim"
	"impeller/internal/testutil"
)

// Tests for the sharded ordering plane: per-shard local sequencers
// joined by the global cut aggregator. The contract is that sharding is
// pure mechanism — the observable log (committed record set, per-tag
// order of any one client's appends, conditional-guard outcomes) must
// be indistinguishable from the single-sequencer configuration.

// shardedScenario drives one log through a deterministic two-phase
// workload and returns, per tag, the sorted multiset of committed
// payloads. Phase A: workers append to their own tag and a shared tag
// (multi-tag atomicity), every few appends conditionally guarded on the
// pre-fence instance (all must succeed). Then one fence. Phase B: each
// worker issues stale-guard conditionals (all must fail) and
// fresh-guard conditionals (all must succeed).
func shardedScenario(t *testing.T, orderingShards int) map[Tag][]string {
	t.Helper()
	const workers, perWorker = 8, 40
	l := Open(Config{
		OrderingInterval: 200 * time.Microsecond,
		OrderingShards:   orderingShards,
	})
	defer l.Close()
	l.Meta().Set("inst", 1)

	run := func(phase func(w int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				phase(w)
			}(w)
		}
		wg.Wait()
	}

	run(func(w int) {
		own := Tag(fmt.Sprintf("w/%d", w))
		for i := 0; i < perWorker; i++ {
			payload := []byte(fmt.Sprintf("a:%d:%d", w, i))
			var err error
			if i%5 == 0 {
				_, err = l.ConditionalAppend([]Tag{own, "all"}, payload, "inst", 1)
			} else {
				_, err = l.Append([]Tag{own, "all"}, payload)
			}
			if err != nil {
				t.Errorf("phase A worker %d append %d: %v", w, i, err)
				return
			}
		}
	})
	if got := l.FenceIncrement("inst"); got != 2 {
		t.Fatalf("fence -> %d, want 2", got)
	}
	run(func(w int) {
		own := Tag(fmt.Sprintf("w/%d", w))
		for i := 0; i < 10; i++ {
			if _, err := l.ConditionalAppend([]Tag{own, "all"}, []byte("stale"), "inst", 1); !errors.Is(err, ErrCondFailed) {
				t.Errorf("phase B worker %d stale guard: err=%v, want ErrCondFailed", w, err)
				return
			}
			payload := []byte(fmt.Sprintf("b:%d:%d", w, i))
			if _, err := l.ConditionalAppend([]Tag{own, "all"}, payload, "inst", 2); err != nil {
				t.Errorf("phase B worker %d fresh guard: %v", w, err)
				return
			}
		}
	})

	// Per-worker order: one client's appends must appear in issue order
	// in its tag's substream regardless of how cuts interleaved the
	// workers globally.
	byTag := make(map[Tag][]string)
	for w := 0; w < workers; w++ {
		own := Tag(fmt.Sprintf("w/%d", w))
		var seq []string
		for from := LSN(0); ; {
			rec, err := scanNext(l, from, own)
			if err != nil || rec == nil {
				break
			}
			seq = append(seq, string(rec.Payload))
			from = rec.LSN + 1
		}
		wantA, wantB := 0, 0
		for _, p := range seq {
			var phase string
			var pw, pi int
			if _, err := fmt.Sscanf(p, "%1s:%d:%d", &phase, &pw, &pi); err != nil {
				t.Fatalf("worker %d: unparseable payload %q", w, p)
			}
			switch phase {
			case "a":
				if pi != wantA {
					t.Fatalf("worker %d: phase A order broken: got index %d, want %d", w, pi, wantA)
				}
				wantA++
			case "b":
				if wantA != perWorker {
					t.Fatalf("worker %d: phase B record before phase A finished", w)
				}
				if pi != wantB {
					t.Fatalf("worker %d: phase B order broken: got index %d, want %d", w, pi, wantB)
				}
				wantB++
			}
		}
		if wantA != perWorker || wantB != 10 {
			t.Fatalf("worker %d: committed %d phase A + %d phase B records, want %d + 10",
				w, wantA, wantB, perWorker)
		}
		sort.Strings(seq)
		byTag[own] = seq
	}
	var all []string
	for from := LSN(0); ; {
		rec, err := scanNext(l, from, "all")
		if err != nil || rec == nil {
			break
		}
		all = append(all, string(rec.Payload))
		from = rec.LSN + 1
	}
	sort.Strings(all)
	byTag["all"] = all
	return byTag
}

// TestShardedOrderingEquivalentToSingleSequencer is the sharded ≡
// single-sequencer property test: the same workload against 1 and 4
// ordering shards must commit the same record set per tag, preserve
// each client's per-tag append order, and resolve every conditional
// guard identically (stale guards fail, pre-fence and fresh guards
// succeed — asserted inside the scenario for both runs).
func TestShardedOrderingEquivalentToSingleSequencer(t *testing.T) {
	single := shardedScenario(t, 1)
	sharded := shardedScenario(t, 4)
	if len(single) != len(sharded) {
		t.Fatalf("tag sets differ: %d vs %d", len(single), len(sharded))
	}
	for tag, want := range single {
		got := sharded[tag]
		if len(got) != len(want) {
			t.Fatalf("tag %s: %d records sharded vs %d single", tag, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tag %s: committed multiset differs at %d: %q vs %q", tag, i, got[i], want[i])
			}
		}
	}
}

// TestShardedCutsCountPerShard sanity-checks the per-shard stats:
// round-robin routing over 4 shards must land records on every shard,
// and the skew of an even load must stay near 1.
func TestShardedCutsCountPerShard(t *testing.T) {
	l := Open(Config{OrderingInterval: 200 * time.Microsecond, OrderingShards: 4})
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.OrderingShards != 4 || len(st.ShardCuts) != 4 || len(st.ShardCutRecords) != 4 {
		t.Fatalf("per-shard stats missing: %+v", st)
	}
	var total uint64
	for i, n := range st.ShardCutRecords {
		if n == 0 {
			t.Fatalf("shard %d ordered no records: %v", i, st.ShardCutRecords)
		}
		total += n
	}
	if total != 256 {
		t.Fatalf("shards ordered %d records, want 256", total)
	}
	if st.CutSkew < 1 || st.CutSkew > 1.5 {
		t.Fatalf("cut skew %.3f for round-robin load, want ~1", st.CutSkew)
	}
	if st.MeanCutBatch <= 0 || st.SequencerCuts == 0 {
		t.Fatalf("global cut stats not accounted: %+v", st)
	}
}

// TestCloseFailsPendingAcrossAllShards is the shutdown regression test:
// with a cut interval that never fires, appends and batches pending on
// every shard must fail promptly with ErrClosed — no goroutine stays
// stuck in <-resp.
func TestCloseFailsPendingAcrossAllShards(t *testing.T) {
	l := Open(Config{OrderingInterval: time.Hour, OrderingShards: 4})
	const appenders, batchers = 16, 4
	errs := make(chan error, appenders+batchers)
	var started, wg sync.WaitGroup
	started.Add(appenders + batchers)
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			_, err := l.Append([]Tag{"x"}, []byte("p"))
			errs <- err
		}()
	}
	for i := 0; i < batchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			_, err := l.AppendBatch([]AppendEntry{
				{Tags: []Tag{"x"}, Payload: []byte("b0")},
				{Tags: []Tag{"y"}, Payload: []byte("b1")},
			})
			errs <- err
		}()
	}
	started.Wait()
	// Give the appenders time to enqueue on their shards (the cut will
	// not fire for an hour, so anything enqueued stays pending).
	time.Sleep(20 * time.Millisecond)
	closeDone := make(chan struct{})
	go func() {
		l.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return")
	}
	waitDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-time.After(2 * time.Second):
		t.Fatal("appenders still blocked after Close — a shard's pending was stranded")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending append resolved with %v, want ErrClosed", err)
		}
	}
}

// TestSequencerShardCrashExcludesFromCut: a crashed local sequencer is
// left out of the cut — its already-pending appends stall until it
// recovers, while the other shards' appends keep committing — and new
// appends routed to it fail fast with a retryable error.
func TestSequencerShardCrashExcludesFromCut(t *testing.T) {
	clock := sim.NewManualClock(time.Unix(0, 0))
	faults := sim.NewFaultInjector()
	l := Open(Config{
		OrderingInterval: time.Millisecond,
		OrderingShards:   2,
		Clock:            clock,
		Faults:           faults,
	})
	defer l.Close()

	// Round-robin assigns append k to shard (k+1) mod 2: the first
	// append lands on shard 1, the second on shard 0.
	faults.Crash("sequencer/1")
	type res struct {
		lsn LSN
		err error
	}
	crashedCh := make(chan res, 1)
	liveCh := make(chan res, 1)
	go func() {
		// Routed to crashed shard 1: fails fast, retryably.
		lsn, err := l.Append([]Tag{"t"}, []byte("to-crashed"))
		crashedCh <- res{lsn, err}
	}()
	r := <-crashedCh
	if !IsRetryable(r.err) {
		t.Fatalf("append to crashed sequencer shard: err=%v, want retryable", r.err)
	}
	go func() {
		// Routed to live shard 0: commits at the next cut.
		lsn, err := l.Append([]Tag{"t"}, []byte("to-live"))
		liveCh <- res{lsn, err}
	}()
	// Let the append enqueue, then fire cuts until it commits.
	deadline := time.Now().Add(2 * time.Second)
	for l.Tail() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("live shard's append never committed")
		}
		clock.Advance(time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	r = <-liveCh
	if r.err != nil {
		t.Fatalf("append via live shard: %v", r.err)
	}
	if l.Tail() != 1 {
		t.Fatalf("tail = %d, want 1 (only the live shard's append)", l.Tail())
	}

	// Recover the shard; a fresh append routed to it commits at a
	// later cut.
	faults.Recover("sequencer/1")
	go func() {
		lsn, err := l.Append([]Tag{"t"}, []byte("post-recovery"))
		crashedCh <- res{lsn, err}
	}()
	deadline = time.Now().Add(2 * time.Second)
	for l.Tail() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("append after shard recovery never committed")
		}
		clock.Advance(time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	r = <-crashedCh
	if r.err != nil {
		t.Fatalf("append after recovery: %v", r.err)
	}
}

// TestSequencerShardDelayStallsCut: an injected delay at one local
// sequencer stalls the global cut (Scalog advances at the pace of the
// slowest live shard), so appends on other shards see it too.
func TestSequencerShardDelayStallsCut(t *testing.T) {
	faults := sim.NewFaultInjector()
	l := Open(Config{
		OrderingInterval: 200 * time.Microsecond,
		OrderingShards:   2,
		Faults:           faults,
	})
	defer l.Close()
	if _, err := l.Append([]Tag{"t"}, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	const delay = 30 * time.Millisecond
	faults.SetDelay("sequencer/0", delay)
	start := time.Now()
	if _, err := l.Append([]Tag{"t"}, []byte("stalled")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("append took %v with a %v sequencer-shard delay — cut did not stall", took, delay)
	}
	faults.ClearDelay("sequencer/0")
}

// TestOrderingAppendAllocsPooled gates the warm ordering-mode single
// Append: the request (entry slot, result slot, response channel) is
// pooled, so steady state allocates only the record itself (Record +
// tag copy + payload copy = 3) plus the cut loop's timer machinery
// amortized across the appends sharing a cut. Budget: 8 per append —
// reintroducing the per-call response channel and result slice (2+
// more, plus pool churn) fails the gate.
func TestOrderingAppendAllocsPooled(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	l := Open(Config{OrderingInterval: 100 * time.Microsecond, OrderingShards: 2})
	defer l.Close()
	payload := make([]byte, 64)
	tags := []Tag{"alloc"}
	for i := 0; i < 32; i++ { // warm the pool, segments, and index
		if _, err := l.Append(tags, payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(tags, payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ordering-mode Append: %.1f allocs (budget 8)", allocs)
	if allocs > 8 {
		t.Errorf("ordering-mode Append allocates %.1f, budget 8 — pooled request path regressed", allocs)
	}
}

// TestShardedAppendRaceStress drives concurrent multi-shard appends
// against FenceIncrement and Trim (plus readers) — the -race gate for
// the split ordering plane. Invariants: per-tag LSNs strictly increase,
// and after the final fence no conditional append guarded on a stale
// instance ever commits.
func TestShardedAppendRaceStress(t *testing.T) {
	l := Open(Config{OrderingInterval: 100 * time.Microsecond, OrderingShards: 4})
	defer l.Close()
	l.Meta().Set("inst", 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := Tag(fmt.Sprintf("s/%d", w%3))
			var last LSN
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var lsn LSN
				var err error
				if i%7 == 0 {
					lsn, err = l.ConditionalAppend([]Tag{tag, "all"}, []byte{byte(i)}, "inst", 1)
					if errors.Is(err, ErrCondFailed) {
						continue // fenced; expected once the fencer has run
					}
				} else {
					lsn, err = l.Append([]Tag{tag, "all"}, []byte{byte(i)})
				}
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("appender %d: %v", w, err)
					return
				}
				if lsn <= last && last != 0 {
					t.Errorf("appender %d: LSN went backwards: %d after %d", w, lsn, last)
					return
				}
				last = lsn
			}
		}(w)
	}
	wg.Add(1)
	go func() { // fencer
		defer wg.Done()
		for i := 0; i < 20; i++ {
			l.FenceIncrement("inst")
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // trimmer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if tail := l.Tail(); tail > 64 {
				_ = l.Trim(tail - 64)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // reader: per-tag LSN order must be strictly increasing
		defer wg.Done()
		from := LSN(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec, err := scanNext(l, from, "all")
			if err != nil || rec == nil {
				if errors.Is(err, ErrCursorInvalidated) {
					from = l.TrimHorizon()
					continue
				}
				time.Sleep(time.Millisecond)
				continue
			}
			if rec.LSN < from {
				t.Errorf("reader: LSN %d below cursor %d", rec.LSN, from)
				return
			}
			from = rec.LSN + 1
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	st := l.Stats()
	if st.OrderingShards != 4 {
		t.Fatalf("stats report %d ordering shards, want 4", st.OrderingShards)
	}
	if st.Appends == 0 || st.SequencerCuts == 0 {
		t.Fatalf("stress ordered nothing: %+v", st)
	}
}
