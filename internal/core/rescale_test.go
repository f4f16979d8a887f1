package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
)

// rescaleQuery is the word-count pipeline with rescale headroom on the
// stateful stage: 8 key groups over an initial 2 slots. The split
// stage's output is partitioned into the consumer's key-group count.
func rescaleQuery(keyGroups, slots int) *Query {
	q := wordCountQuery(1, slots, 1)
	q.Stages[0].Outputs[0].Partitions = keyGroups
	q.Stages[1].KeyGroups = keyGroups
	return q
}

// startRescaleCluster runs rescaleQuery(8, 2) with snapshots.
func startRescaleCluster(t *testing.T, engine EngineMode) *testCluster {
	t.Helper()
	return startRescaleClusterOn(t, &Env{
		Log:              sharedlog.Open(sharedlog.Config{}),
		Checkpoints:      kvstore.Open(kvstore.Config{}),
		Protocol:         ProtoProgressMarker,
		CommitInterval:   20 * time.Millisecond,
		SnapshotInterval: 60 * time.Millisecond,
		Engine:           engine,
		EngineLoops:      2,
	})
}

// startRescaleClusterOn runs rescaleQuery(8, 2) on env; the cleanup
// closes env's log.
func startRescaleClusterOn(t *testing.T, env *Env) *testCluster {
	t.Helper()
	mgr, err := NewManager(env, rescaleQuery(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	c := &testCluster{t: t, env: mgr.Env(), mgr: mgr, cancel: cancel, counts: make(map[string]uint64)}
	c.ingress = NewIngress("ingress/0", "lines", 1, mgr.Env(), nil)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = c.ingress.Run(ctx, 5*time.Millisecond)
	}()
	c.sink = NewGatedSink("counts", 1, mgr.Env())
	c.sink.OnRecord = func(r Record, _ TaskID, _ time.Time) {
		c.mu.Lock()
		c.counts[string(r.Key)] = bytesToCount(r.Value)
		c.mu.Unlock()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = c.sink.Run(ctx)
	}()
	t.Cleanup(func() {
		c.stop()
		c.env.Log.Close()
	})
	return c
}

// stop shuts the cluster down and leaves its log and checkpoint store
// open, as a whole-cluster crash does.
func (c *testCluster) stop() {
	c.cancel()
	c.mgr.Stop()
	c.wg.Wait()
}

// collect runs one garbage collection and returns the new horizon.
func (c *testCluster) collect() LSN {
	c.t.Helper()
	h, err := c.env.GC.Collect()
	if err != nil {
		c.t.Fatal(err)
	}
	return h
}

// firstChangeRecord is the LSN of the stage's first live change record.
// Taken before the collector could reach it, it is the first one: the
// stage pins its change streams, so it must stay live.
func (c *testCluster) firstChangeRecord(stage string) LSN {
	c.t.Helper()
	var tags []sharedlog.Tag
	for g := 0; g < c.mgr.Assignment(stage).Groups; g++ {
		tags = append(tags, GroupChangeTag(stage, g))
	}
	first, ok := c.env.Log.FirstLSN(tags)
	if !ok {
		c.t.Fatalf("stage %s has no change record", stage)
	}
	return first
}

func bytesToCount(v []byte) uint64 {
	var n uint64
	for i := 0; i < 8 && i < len(v); i++ {
		n |= uint64(v[i]) << (8 * i)
	}
	return n
}

func addCounts(dst, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

// runLiveRescale drives a split (2→4) and a merge (4→1) of the stateful
// count stage on the live log, with traffic flowing across both
// transitions and the collector trimming at every step of each. Counts
// are cumulative per key, so any lost or duplicated record — a group
// replayed from the wrong floor, a zombie's output surviving, state
// dropped in the handoff — shows up as a wrong total. The witness words
// are counted before the split and after the merge only: their state
// crosses both transitions in their first change records alone, which
// the collector must not trim from under the acquirers.
func runLiveRescale(t *testing.T, engine EngineMode) {
	c := startRescaleCluster(t, engine)
	const stage = "wc/count"
	rescaler := &Rescaler{M: c.mgr, Hook: func(string) error {
		c.collect()
		return nil
	}}

	want := c.send(testLines)
	addCounts(want, c.send(witnessLines))
	c.waitCounts(want, 10*time.Second)
	first := c.firstChangeRecord(stage)

	epoch, err := rescaler.Rescale(context.Background(), stage, 4)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("split committed epoch %d, want 2", epoch)
	}
	if got := len(c.mgr.TaskIDs()); got != 1+4 {
		t.Fatalf("task count after split: %d, want 5", got)
	}
	addCounts(want, c.send(testLines))
	c.waitCounts(want, 15*time.Second)

	epoch, err = rescaler.Rescale(context.Background(), stage, 1)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 {
		t.Fatalf("merge committed epoch %d, want 3", epoch)
	}
	addCounts(want, c.send(testLines))
	addCounts(want, c.send(witnessLines))
	c.waitCounts(want, 15*time.Second)

	if got := c.mgr.AssignmentEpoch(stage); got != 3 {
		t.Fatalf("assignment epoch %d, want 3", got)
	}
	// The transitions fenced old instances; the fences must have been
	// observed as conditional-append rejections (zombies neutralized by
	// the log, paper §3.4).
	if c.env.Log.Stats().CondFailed == 0 {
		t.Fatal("no conditional append was ever rejected; fencing untested")
	}
	// The collector did trim — the consumed prefix below the first
	// change record — and never past it.
	deadline := time.Now().Add(10 * time.Second)
	for c.collect() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the log was never trimmed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h := c.env.Log.TrimHorizon(); h > first {
		t.Fatalf("horizon %d passed the first change record at %d", h, first)
	}
}

// witnessLines carries words testLines lacks, spread over the key
// groups; a test sends them rarely, so their counts live in old change
// records only.
var witnessLines = []string{"w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"}

func TestRescaleLiveSplitMerge(t *testing.T) {
	runLiveRescale(t, EngineGoroutine)
}

func TestRescaleLiveSplitMergeTasklet(t *testing.T) {
	runLiveRescale(t, EngineTasklet)
}

// TestRescaleValidation pins the argument checks.
func TestRescaleValidation(t *testing.T) {
	c := startRescaleCluster(t, EngineGoroutine)
	ctx := context.Background()
	if _, err := c.mgr.Rescale(ctx, "nope", 2); err == nil {
		t.Fatal("unknown stage accepted")
	}
	if _, err := c.mgr.Rescale(ctx, "wc/count", 0); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := c.mgr.Rescale(ctx, "wc/count", 9); err == nil {
		t.Fatal("slots beyond key groups accepted")
	}
	if epoch, err := c.mgr.Rescale(ctx, "wc/count", 2); err != nil || epoch != 1 {
		t.Fatalf("no-op rescale: epoch %d err %v", epoch, err)
	}
}

// TestGroupReplayZombieChangeAfterSuccessor pins the ordering hazard
// that makes group-stream committedness subtle: a fenced zombie's change
// batches are plain appends, so they can land in the group stream after
// the successor instance's committed change but before the successor's
// covering marker. The zombie record must be dropped — it can never be
// covered — and must not evict the successor's buffered committed
// changes.
func TestGroupReplayZombieChangeAfterSuccessor(t *testing.T) {
	prod := TaskID("wc/count/1")
	change := func(inst uint64, tag string) *Batch {
		return &Batch{Kind: KindChange, Producer: prod, Instance: inst,
			Records: []Record{{Key: []byte(tag)}}}
	}
	marker := func(inst uint64, changeFirst LSN) *Batch {
		mk := &ProgressMarker{InputEnd: 5, ChangeFirst: changeFirst, SeqEnd: 1}
		return &Batch{Kind: KindMarker, Producer: prod, Instance: inst, Control: mk.Encode()}
	}

	var applied []string
	g := newGroupReplay(func(b *Batch) { applied = append(applied, string(b.Records[0].Key)) })

	feed := []struct {
		lsn LSN
		b   *Batch
	}{
		{10, change(1, "i1-a")},
		{15, marker(1, 10)},     // instance 1 commits i1-a
		{24, change(3, "i3-a")}, // successor's change, committed by the marker at 39
		{36, change(1, "zombie")},
		{37, change(1, "zombie")}, // fenced instance 1 flushing late
		{39, marker(3, 24)},       // successor's covering marker
	}
	for _, f := range feed {
		if err := g.observe(f.lsn, f.b); err != nil {
			t.Fatalf("observe lsn %d: %v", f.lsn, err)
		}
	}
	want := []string{"i1-a", "i3-a"}
	if len(applied) != len(want) || applied[0] != want[0] || applied[1] != want[1] {
		t.Fatalf("applied %v, want %v", applied, want)
	}
	if c, ok := g.covered(); !ok || c != 39 {
		t.Fatalf("covered = %d,%v; want 39,true", c, ok)
	}

	// A stale marker from the fenced instance (impossible on a real log —
	// the conditional append rejects it — but screened defensively) must
	// not regress instance tracking or apply anything.
	if err := g.observe(41, marker(1, 36)); err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 {
		t.Fatalf("stale marker applied changes: %v", applied)
	}
}

// passCluster runs a stateless pass-through stage, fw/pass, on 2 slots
// over 8 key groups, with a gated sink recording how often each key was
// delivered. The stage is stateless, so no migrated _seq state can mask
// a re-commit: any key delivered twice fails at once.
type passCluster struct {
	t    *testing.T
	mgr  *Manager
	in   *Ingress
	next int

	mu        sync.Mutex
	delivered map[string]int
}

func startPassCluster(t *testing.T, env *Env) *passCluster {
	t.Helper()
	q := &Query{
		Name: "fw",
		Stages: []*Stage{{
			Name:              "fw/pass",
			Parallelism:       2,
			KeyGroups:         8,
			Inputs:            []StreamID{"in"},
			Outputs:           []OutputSpec{{Stream: "out", Partitions: 1}},
			NewProcessor:      func() Processor { return Map(func(d Datum) *Datum { return &d }) },
			UpstreamProducers: []int{1},
		}},
	}
	mgr, err := NewManager(env, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	c := &passCluster{t: t, mgr: mgr, delivered: make(map[string]int)}
	var wg sync.WaitGroup
	c.in = NewIngress("ingress/0", "in", 8, mgr.Env(), nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c.in.Run(ctx, 5*time.Millisecond)
	}()
	sink := NewGatedSink("out", 1, mgr.Env())
	sink.OnRecord = func(r Record, _ TaskID, _ time.Time) {
		c.mu.Lock()
		c.delivered[string(r.Key)]++
		c.mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = sink.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		mgr.Stop()
		wg.Wait()
		env.Log.Close()
	})
	return c
}

// send submits n fresh keys.
func (c *passCluster) send(n int) {
	for i := 0; i < n; i++ {
		c.in.Send([]byte(fmt.Sprintf("k%d", c.next)), []byte("v"), time.Now().UnixMicro())
		c.next++
	}
}

// waitOnce waits until every key sent so far was delivered exactly once.
func (c *passCluster) waitOnce() {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.delivered)
		for k, d := range c.delivered {
			if d != 1 {
				c.mu.Unlock()
				c.t.Fatalf("key %s delivered %d times", k, d)
			}
		}
		c.mu.Unlock()
		if n == c.next {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("delivered %d of %d keys", n, c.next)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRescaleAbortedMergeTombstone pins the aborted-transition hazard:
// a merge attempt that dies after fencing — and tombstoning — its
// retired slots leaves those tombstones on the log while the epoch CAS
// never happens, so the slots live on under the old assignment. Both
// readers of a slot's last marker must skip the orphaned tombstone:
// the revived slot's recovery (resuming from its empty InputEnd with no
// handoff floor under the uncommitted epoch re-commits the slot's whole
// history) and the committed attempt's floor computation (the tombstone
// would publish floor zero for every migrating group).
func TestRescaleAbortedMergeTombstone(t *testing.T) {
	env := &Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       ProtoProgressMarker,
		CommitInterval: 20 * time.Millisecond,
	}
	c := startPassCluster(t, env)
	ctx := context.Background()
	c.send(40)
	c.waitOnce()

	// Doomed merge: fences both slots and tombstones the retired one,
	// then dies before the epoch CAS.
	abort := errors.New("die mid-transition")
	doomed := &Rescaler{M: c.mgr, Hook: func(p string) error {
		if p == "fenced" {
			return abort
		}
		return nil
	}}
	if _, err := doomed.Rescale(ctx, "fw/pass", 1); !errors.Is(err, abort) {
		t.Fatalf("doomed attempt returned %v", err)
	}
	if e := c.mgr.AssignmentEpoch("fw/pass"); e != 1 {
		t.Fatalf("aborted attempt moved the epoch to %d", e)
	}

	// New traffic forces the fenced zombies onto their next conditional
	// append; the monitor revives them under the old epoch, and the
	// revived slots must resume from their real markers, not the
	// orphaned tombstone.
	c.send(40)
	c.waitOnce()

	// The committed merge's floors must likewise come from the real
	// markers, not the doomed attempt's tombstone.
	if epoch, err := c.mgr.Rescale(ctx, "fw/pass", 1); err != nil || epoch != 2 {
		t.Fatalf("committed merge: epoch %d, err %v", epoch, err)
	}
	c.send(40)
	c.waitOnce()

	if env.Log.Stats().CondFailed == 0 {
		t.Fatal("no conditional append was ever rejected; fencing untested")
	}
}

// TestRescaleReviveAfterTrim pins the rescale × trim hazard: the
// collector runs between every step of every transition, so once a
// merge retires slot 1 and forgets its floor, the log is trimmed past
// the slot's tombstone — the marker carrying its output counter. The
// split that revives the slot must still continue that counter (from
// meta, parkSeq): restarting it at zero would make the gated sink drop
// the revived slot's output as duplicates of what it delivered before
// the merge.
func TestRescaleReviveAfterTrim(t *testing.T) {
	env := &Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       ProtoProgressMarker,
		CommitInterval: 20 * time.Millisecond,
	}
	c := startPassCluster(t, env)
	collect := func() {
		t.Helper()
		if _, err := c.mgr.Env().GC.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	rescaler := &Rescaler{M: c.mgr, Hook: func(string) error {
		collect()
		return nil
	}}
	rescale := func(slots int, want uint64) {
		t.Helper()
		if epoch, err := rescaler.Rescale(context.Background(), "fw/pass", slots); err != nil || epoch != want {
			t.Fatalf("rescale to %d slots: epoch %d, err %v", slots, epoch, err)
		}
		collect()
	}

	c.send(40)
	c.waitOnce()
	rescale(1, 2)
	c.send(40)
	c.waitOnce()
	// Trim until the retired slot's task log — its tombstone — is gone.
	deadline := time.Now().Add(10 * time.Second)
	for env.Log.CountTag(TaskLogTag("fw/pass/1")) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the log was never trimmed past the retired slot's tombstone (horizon %d)", env.Log.TrimHorizon())
		}
		collect()
		time.Sleep(10 * time.Millisecond)
	}
	rescale(2, 3)
	c.send(40)
	c.waitOnce()
}

// TestCheckpointingSurvivesRestart: a whole-cluster restart over a
// trimmed log — a new manager on the same log and checkpoint store, with
// a fresh collector — keeps checkpointing. The new checkpointers start
// with empty shadows and their cursors below the horizon; they fold the
// group streams from the horizon, which skips nothing because the stage
// pins its change streams, so the checkpoints they write are complete:
// tasks recovering from them still hold the witness words, counted only
// before the restart.
func TestCheckpointingSurvivesRestart(t *testing.T) {
	const stage = "wc/count"
	tasks := []TaskID{"wc/count/0", "wc/count/1"}
	log := sharedlog.Open(sharedlog.Config{})
	ckpts := kvstore.Open(kvstore.Config{})
	env := func() *Env {
		return &Env{
			Log:              log,
			Checkpoints:      ckpts,
			Protocol:         ProtoProgressMarker,
			CommitInterval:   20 * time.Millisecond,
			SnapshotInterval: 60 * time.Millisecond,
		}
	}
	// covered is the lowest LSN the tasks' stored checkpoints cover,
	// NoLSN while one has none.
	covered := func() LSN {
		min := sharedlog.MaxLSN
		for _, id := range tasks {
			blob, ok := ckpts.Get(MarkerCkptKey(id))
			if !ok {
				return NoLSN
			}
			ck, err := decodeMarkerCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			if ck.CoveredLSN < min {
				min = ck.CoveredLSN
			}
		}
		return min
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("never saw %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	c := startRescaleClusterOn(t, env())
	want := c.send(testLines)
	addCounts(want, c.send(witnessLines))
	c.waitCounts(want, 10*time.Second)
	first := c.firstChangeRecord(stage)
	waitFor("checkpoints on a trimmed log", func() bool { return c.collect() > 0 && covered() != NoLSN })
	before := covered()
	c.stop()

	c = startRescaleClusterOn(t, env())
	addCounts(want, c.send(testLines))
	c.waitCounts(want, 10*time.Second)
	waitFor("checkpoints after the restart", func() bool {
		c.collect()
		return covered() != NoLSN && covered() > before
	})
	for _, id := range tasks {
		if err := c.mgr.RestartNow(id); err != nil {
			t.Fatal(err)
		}
	}
	addCounts(want, c.send(witnessLines))
	c.waitCounts(want, 10*time.Second)
	if h := c.collect(); h > first {
		t.Fatalf("horizon %d passed the first change record at %d", h, first)
	}
}
