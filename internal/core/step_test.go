package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// stepHarness drives Task.step by hand — no driver, no goroutine of the
// task's own: the test is the input source, picks the budget, and
// blocking operations run inline. The clock is manual and never
// advances, so neither the flush interval nor a commit tick passes.
type stepHarness struct {
	t         *testing.T
	env       *Env
	task      *Task
	next      LSN
	processed []string // "port:value" in processing order
}

func newStepHarness(t *testing.T, proto FTProtocol, stage *Stage) *stepHarness {
	t.Helper()
	clock := sim.NewManualClock(time.Unix(1_700_000_000, 0))
	env := (&Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       proto,
		Clock:          clock,
		CommitInterval: time.Hour,
	}).withDefaults()
	t.Cleanup(env.Log.Close)
	h := &stepHarness{t: t, env: env, next: 1}
	if stage.NewProcessor == nil {
		// The recording processor: what went through, in order.
		stage.NewProcessor = func() Processor {
			return ProcessorFunc(func(port int, d Datum, emit Emit) error {
				h.processed = append(h.processed, fmt.Sprintf("%d:%s", port, d.Value))
				h.task.Store().Put("n/"+string(d.Key), d.Value)
				emit(0, d)
				return nil
			})
		}
	}
	h.task = NewTask(stage, 0, 1, env, TaskOptions{})
	t.Cleanup(h.task.closeAppenders)
	env.Log.Meta().Set(InstanceKey(h.task.ID), 1)
	h.task.runCtx = context.Background()
	h.task.nextFlush = clock.Now().Add(time.Hour)
	h.task.sched.next = clock.Now().Add(time.Hour)
	return h
}

// rec builds the next input record of the script, on tag.
func (h *stepHarness) rec(tag sharedlog.Tag, b *Batch) *sharedlog.Record {
	r := &sharedlog.Record{LSN: h.next, Tags: []sharedlog.Tag{tag}, Payload: b.Encode()}
	h.next++
	return r
}

func (h *stepHarness) data(tag sharedlog.Tag, kind Kind, producer TaskID, instance uint64, seqs ...uint64) *sharedlog.Record {
	b := &Batch{Kind: kind, Producer: producer, Instance: instance}
	for _, s := range seqs {
		v := fmt.Sprintf("%s#%d@%d", producer, s, h.next)
		b.Records = append(b.Records, Record{Seq: s, Key: []byte(v), Value: []byte(v)})
	}
	return h.rec(tag, b)
}

func (h *stepHarness) marker(tag sharedlog.Tag, producer TaskID, instance uint64, first map[sharedlog.Tag]LSN) *sharedlog.Record {
	return h.rec(tag, marker(producer, instance, first))
}

// run feeds each fetch to the step under budget until it is consumed and
// calls after once per step: every return of step is a point where a
// driver may commit.
func (h *stepHarness) run(budget int, fetches [][]*sharedlog.Record, after func()) {
	h.t.Helper()
	for _, f := range fetches {
		h.task.recs = f
		for h.task.recs != nil || h.task.pendingDrain {
			// more=true keeps the cascade rule quiet: the script decides
			// where commit opportunities are, not commitDue.
			if _, err := h.task.step(budget, true); err != nil {
				h.t.Fatalf("budget %d: step: %v", budget, err)
			}
			after()
		}
	}
}

func (h *stepHarness) emitted() []string {
	var out []string
	for _, r := range h.task.outBufs[0][0].records {
		out = append(out, fmt.Sprintf("%d=%s", r.Seq, r.Value))
	}
	return out
}

// TestStepBudgetEquivalence: the budget decides only where a step
// pauses, never what the task does. One scripted input — data from two
// producers on two tags behind one cursor, a marker that releases some
// of it, a fenced instance's orphan batch, its replacement and the
// marker after it, a retried batch — runs through the step under
// budgets 1, 7, 512 and none; everything observable must agree, every
// pause point under a larger budget must also be one under budget 1 with
// the same inputEnd, and under budget 1 no pause falls inside a producer
// batch.
func TestStepBudgetEquivalence(t *testing.T) {
	type opportunity struct {
		cursor             LSN
		processed, dropped uint64
	}
	type outcome struct {
		processed, emitted       []string
		dup, uncommitted, floor  uint64
		lastSeq                  map[seqKey]uint64
		steps                    int
		opportunities            map[opportunity]LSN
		consumedAtOpportunities  []uint64 // records through processBatch, per pause
		inputEndAtTheEnd, cursor LSN
	}
	runScript := func(budget int) outcome {
		stage := &Stage{
			Name: "eq", Parallelism: 1, KeyGroups: 2, Stateful: true,
			Inputs:            []StreamID{"in"},
			Outputs:           []OutputSpec{{Stream: "out", Partitions: 1}},
			UpstreamProducers: []int{2},
		}
		h := newStepHarness(t, ProtoProgressMarker, stage)
		a, b := DataTag("in", 0), DataTag("in", 1)
		script := []*sharedlog.Record{
			h.data(a, KindData, "p/0", 1, 1, 2, 3),                         // 1
			h.data(b, KindData, "p/1", 1, 1, 2, 3),                         // 2
			h.data(b, KindData, "p/0", 1, 4, 5, 6),                         // 3
			h.data(a, KindSource, "ingress", 1, 1, 2),                      // 4: committed, but queued behind 2
			h.marker(a, "p/0", 1, map[sharedlog.Tag]LSN{a: 1, b: 3}),       // 5: frees 1; 2 still unknown
			h.data(a, KindData, "p/1", 1, 4, 5, 6),                         // 6
			h.marker(b, "p/1", 1, map[sharedlog.Tag]LSN{b: 2, a: 6}),       // 7: frees 2, 3, 4, 6
			h.data(a, KindData, "p/0", 1, 7, 8, 9),                         // 8: orphan of fenced p/0#1
			h.data(a, KindData, "p/0", 2, 7, 8, 9),                         // 9: the replacement's
			h.marker(a, "p/0", 2, map[sharedlog.Tag]LSN{a: 9}),             // 10: drops 8, frees 9
			h.data(b, KindData, "p/1", 1, 2, 3, 4),                         // 11: retried, seqs 2-3 duplicate
			h.marker(b, "p/1", 1, map[sharedlog.Tag]LSN{b: 11}),            // 12
			h.data(b, KindData, "p/1", 1, 5, 6, 7),                         // 13: never committed
			h.data(a, KindData, "p/0", 2, 10, 11, 12),                      // 14: never committed
			h.marker(b, "unrelated/0", 1, map[sharedlog.Tag]LSN{"x/0": 1}), // 15: frees nothing
		}
		o := outcome{opportunities: make(map[opportunity]LSN)}
		m := h.task.Metrics
		h.run(budget, [][]*sharedlog.Record{script[:6], script[6:]}, func() {
			o.steps++
			op := opportunity{h.task.cursor, m.Processed.Load(), m.DroppedUncommitted.Load()}
			end := h.task.inputEnd()
			if prev, ok := o.opportunities[op]; ok && prev != end {
				t.Fatalf("budget %d: inputEnd moved from %d to %d with nothing consumed (%+v)", budget, prev, end, op)
			}
			o.opportunities[op] = end
			o.consumedAtOpportunities = append(o.consumedAtOpportunities, m.Processed.Load()+m.DroppedDuplicate.Load())
		})
		o.processed, o.emitted = h.processed, h.emitted()
		o.dup, o.uncommitted, o.floor = m.DroppedDuplicate.Load(), m.DroppedUncommitted.Load(), m.DroppedBelowFloor.Load()
		o.lastSeq, o.inputEndAtTheEnd, o.cursor = h.task.lastSeq, h.task.inputEnd(), h.task.cursor
		return o
	}

	ref := runScript(unbudgeted)
	if len(ref.processed) != 18 || ref.dup != 2 || ref.uncommitted != 3 || ref.inputEndAtTheEnd != 12 {
		t.Fatalf("script did not do what it was written to do: processed %d (want 18) dup %d (want 2) uncommitted %d (want 3) inputEnd %d (want 12)\n%v",
			len(ref.processed), ref.dup, ref.uncommitted, ref.inputEndAtTheEnd, ref.processed)
	}
	finest := runScript(1)
	if finest.steps <= ref.steps {
		t.Fatalf("budget 1 took %d steps, no budget %d: the budget never paused anything", finest.steps, ref.steps)
	}
	// Whole producer batches only: the records that went through
	// processBatch at any pause are a prefix sum of the batch sizes, in
	// processing order (1, 2, 3, 4, 6, 9, 11).
	boundaries := map[uint64]bool{0: true}
	sum := uint64(0)
	for _, n := range []uint64{3, 3, 3, 2, 3, 3, 3} {
		sum += n
		boundaries[sum] = true
	}
	for i, n := range finest.consumedAtOpportunities {
		if !boundaries[n] {
			t.Fatalf("budget 1: step %d paused with %d records consumed — inside a producer batch", i, n)
		}
	}
	runs := map[string]outcome{"1": finest, "7": runScript(7), "512": runScript(512), "none": ref}
	for budget, got := range runs {
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"processed sequence", got.processed, ref.processed},
			{"emitted sequence", got.emitted, ref.emitted},
			{"dropped (duplicate, uncommitted, below floor)", []uint64{got.dup, got.uncommitted, got.floor}, []uint64{ref.dup, ref.uncommitted, ref.floor}},
			{"lastSeq", got.lastSeq, ref.lastSeq},
			{"final inputEnd", got.inputEndAtTheEnd, ref.inputEndAtTheEnd},
			{"final cursor", got.cursor, ref.cursor},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("budget %s: %s differs from the unbudgeted run:\n got %v\nwant %v", budget, c.what, c.got, c.want)
			}
		}
		for op, end := range got.opportunities {
			if want, ok := finest.opportunities[op]; !ok || want != end {
				t.Errorf("budget %s: commit opportunity %+v (inputEnd %d) is not one of budget 1's (there: %d, present %v)", budget, op, end, want, ok)
			}
		}
	}
}

// TestBlockingOpLiftsBudget: a blocking operation owns the task and runs
// unbudgeted, whatever is left of the step's budget when it starts. The
// aligned protocol runs through the step under budget 1 and under none:
// the snapshot written at the final barrier must be the same bytes, and
// the post-barrier records the alignment held back must be replayed to
// exhaustion inside the operation, not left to a paused drain.
func TestBlockingOpLiftsBudget(t *testing.T) {
	alignedStage := func() *Stage {
		return &Stage{
			Name: "al", Parallelism: 1, Stateful: true,
			Inputs:            []StreamID{"in"},
			Outputs:           []OutputSpec{{Stream: "out", Partitions: 1}},
			UpstreamProducers: []int{2},
		}
	}
	in := DataTag("in", 0)
	barrier := func(h *stepHarness, producer TaskID) *sharedlog.Record {
		return h.rec(in, &Batch{Kind: KindBarrier, Producer: producer, Instance: 1, Epoch: 1})
	}
	snapshotOf := func(h *stepHarness) []byte {
		t.Helper()
		blob, ok := h.env.Checkpoints.Get(CkptKey(h.task.ID, 1))
		if !ok {
			t.Fatal("no aligned snapshot was written")
		}
		return blob
	}
	runAligned := func(budget int) (snapshot []byte, processed []string) {
		h := newStepHarness(t, ProtoAlignedCheckpoint, alignedStage())
		script := []*sharedlog.Record{
			h.data(in, KindData, "a", 1, 1, 2),
			h.data(in, KindData, "b", 1, 1, 2),
			barrier(h, "a"),
			h.data(in, KindData, "a", 1, 3, 4), // held back: a's barrier is in
			h.data(in, KindData, "a", 1, 5, 6), // held back
			h.data(in, KindData, "b", 1, 3, 4), // pre-barrier for b: processed
			barrier(h, "b"),                    // aligned: snapshot, then replay
			h.data(in, KindData, "b", 1, 5, 6),
		}
		completed := false
		h.run(budget, [][]*sharedlog.Record{script}, func() {
			if completed || h.task.Metrics.Markers.Load() == 0 {
				return
			}
			completed = true
			// This is the step that ran the alignment.
			if h.task.pendingDrain || len(h.task.queue) > 0 || len(h.processed) < 10 {
				t.Errorf("budget %d: alignment returned with its replay unfinished (pendingDrain %v, %d queued, %d processed)",
					budget, h.task.pendingDrain, len(h.task.queue), len(h.processed))
			}
		})
		if !completed {
			t.Fatalf("budget %d: the alignment never completed", budget)
		}
		return snapshotOf(h), h.processed
	}
	wantSnap, wantProcessed := runAligned(unbudgeted)
	gotSnap, gotProcessed := runAligned(1)
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("budget 1: aligned snapshot differs from the unbudgeted one (%d vs %d bytes)", len(gotSnap), len(wantSnap))
	}
	if !reflect.DeepEqual(gotProcessed, wantProcessed) {
		t.Errorf("budget 1: processed %v, unbudgeted %v", gotProcessed, wantProcessed)
	}

	// The rule at the place it protects: completeAlignment snapshots
	// right after its drain, so even with the step's budget spent and a
	// pre-barrier batch still queued, the snapshot must contain it.
	h := newStepHarness(t, ProtoAlignedCheckpoint, alignedStage())
	pre, err := DecodeBatch(h.data(in, KindData, "a", 1, 1).Payload)
	if err != nil {
		t.Fatal(err)
	}
	h.task.queue = append(h.task.queue, queuedBatch{lsn: 1, tag: in, batch: pre})
	h.task.align.epoch = 1
	h.task.align.arrived["a"], h.task.align.arrived["b"] = 2, 3
	h.task.budget = 0
	if err := h.task.doBlocking(opAlign); err != nil {
		t.Fatal(err)
	}
	if h.task.budget != 0 {
		t.Errorf("budget after the operation = %d, want the 0 it started with", h.task.budget)
	}
	snap, err := decodeAlignedSnapshot(snapshotOf(h))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.processed) != 1 || snap.LastSeq["a"] != 1 {
		t.Errorf("snapshot taken with the pre-barrier batch unprocessed: processed %v, snapshot lastSeq %v", h.processed, snap.LastSeq)
	}
}
