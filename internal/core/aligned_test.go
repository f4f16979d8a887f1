package core

import (
	"context"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
)

// TestAlignedBarrierBlocking drives one aligned-checkpoint task by hand:
// after producer A's barrier arrives, A's records must buffer until
// producer B's barrier completes the alignment; then the task snapshots,
// forwards the barrier, and replays the buffered records (paper §5.1,
// Flink's channel blocking).
func TestAlignedBarrierBlocking(t *testing.T) {
	env := (&Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       ProtoAlignedCheckpoint,
		CommitInterval: 50 * time.Millisecond,
	}).withDefaults()
	defer env.Log.Close()

	stage := &Stage{
		Name:              "al",
		Parallelism:       1,
		Inputs:            []StreamID{"in"},
		Outputs:           []OutputSpec{{Stream: "out", Partitions: 1}},
		NewProcessor:      func() Processor { return Map(func(d Datum) *Datum { return &d }) },
		UpstreamProducers: []int{2}, // producers "a" and "b"
	}
	ck := NewCkptCoordinator(env)
	ck.AddParticipant("al/0")
	ck.Tick(time.Now()) // initiate checkpoint epoch 1

	task := NewTask(stage, 0, 1, env, TaskOptions{Ckpt: ck})
	env.Log.Meta().Set(InstanceKey(task.ID), 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- task.Run(ctx) }()

	in := DataTag("in", 0)
	appendData := func(producer TaskID, seq uint64, val string) {
		b := &Batch{Kind: KindData, Producer: producer, Instance: 1,
			Records: []Record{{Seq: seq, Value: []byte(val)}}}
		if _, err := env.Log.Append([]sharedlog.Tag{in}, b.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	appendBarrier := func(producer TaskID) {
		b := &Batch{Kind: KindBarrier, Producer: producer, Instance: 1, Epoch: 1}
		if _, err := env.Log.Append([]sharedlog.Tag{in}, b.Encode()); err != nil {
			t.Fatal(err)
		}
	}

	appendData("a", 1, "a1")
	appendData("b", 1, "b1")
	appendBarrier("a")
	appendData("a", 2, "a2-post-barrier") // must buffer during alignment
	appendData("b", 2, "b2-pre-barrier")  // still processes (b not blocked)

	// Wait for the pre-barrier records to flow to the output.
	readOutputs := func() []string {
		var out []string
		for _, rec := range scanTag(t, env.Log, DataTag("out", 0)) {
			ob, err := DecodeBatch(rec.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if ob.Kind == KindData {
				for _, r := range ob.Records {
					out = append(out, string(r.Value))
				}
			}
		}
		return out
	}
	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened (outputs=%v)", desc, readOutputs())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	contains := func(vals []string, want string) bool {
		for _, v := range vals {
			if v == want {
				return true
			}
		}
		return false
	}

	waitFor("pre-barrier records processed", func() bool {
		out := readOutputs()
		return contains(out, "a1") && contains(out, "b1") && contains(out, "b2-pre-barrier")
	})
	if contains(readOutputs(), "a2-post-barrier") {
		t.Fatal("post-barrier record processed during alignment")
	}
	if ck.LastCompleted() != 0 {
		t.Fatal("checkpoint completed before all barriers aligned")
	}

	appendBarrier("b") // completes alignment
	waitFor("checkpoint completed", func() bool { return ck.LastCompleted() == 1 })
	waitFor("buffered record replayed", func() bool {
		return contains(readOutputs(), "a2-post-barrier")
	})

	// The snapshot exists and decodes, carrying both producers' barrier
	// positions.
	blob, ok := env.Checkpoints.Get(CkptKey("al/0", 1))
	if !ok {
		t.Fatal("aligned snapshot missing")
	}
	snap, err := decodeAlignedSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Barriers) != 2 {
		t.Fatalf("snapshot barriers = %v", snap.Barriers)
	}

	// The forwarded barrier reached the output substream.
	var sawBarrier bool
	for _, rec := range scanTag(t, env.Log, DataTag("out", 0)) {
		ob, _ := DecodeBatch(rec.Payload)
		if ob.Kind == KindBarrier && ob.Epoch == 1 {
			sawBarrier = true
		}
	}
	if !sawBarrier {
		t.Fatal("barrier not forwarded downstream")
	}
	cancel()
	<-done
}

// TestUnsafeRecoveryReplaysChangelogAndSkipsToTail verifies the unsafe
// variant's documented behavior: state is rebuilt from the full change
// log, but the input cursor resumes at the log tail — records appended
// while the task was down are lost (why it is unsafe, paper §5.3.4).
func TestUnsafeRecoveryReplaysChangelogAndSkipsToTail(t *testing.T) {
	env := (&Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       ProtoUnsafe,
		CommitInterval: 20 * time.Millisecond,
	}).withDefaults()
	defer env.Log.Close()

	stage := &Stage{
		Name:         "un",
		Parallelism:  1,
		Inputs:       []StreamID{"in"},
		Outputs:      []OutputSpec{{Stream: "out", Partitions: 1}},
		NewProcessor: func() Processor { return Count("c") },
		Stateful:     true,
	}
	mgr, err := NewManager(env, &Query{Name: "un", Stages: []*Stage{stage}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	ing := NewIngress("ingress/0", "in", 1, env, nil)
	send := func(n int) {
		for i := 0; i < n; i++ {
			ing.Send([]byte("k"), []byte("x"), time.Now().UnixMicro())
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Unsafe recovery resumes at the log tail, so records appended
	// before the instance finishes recovering would be skipped — wait
	// for the first recovery before sending.
	id := TaskID("un/0")
	deadline := time.Now().Add(10 * time.Second)
	for mgr.TaskMetrics(id).RecoveryNanos.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("task never recovered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	send(5)
	for mgr.TaskMetrics(id).Processed.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("records never processed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Flush the change log (commit tick flushes outputs).
	time.Sleep(100 * time.Millisecond)

	// Kill; while the task is down, 3 more records arrive — lost.
	if err := mgr.Kill(id); err != nil {
		t.Fatal(err)
	}
	send(3)
	// Wait for restart and recovery.
	for mgr.Restarts(id) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never restarted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)

	// New input is processed on top of the replayed state of 5.
	send(2)

	var last uint64
	deadline = time.Now().Add(10 * time.Second)
	for {
		var seen uint64
		// Read the output stream directly for the final count value.
		for _, rec := range scanTag(t, env.Log, DataTag("out", 0)) {
			ob, _ := DecodeBatch(rec.Payload)
			if ob.Kind != KindData {
				continue
			}
			for _, r := range ob.Records {
				v := getUint64(r.Value)
				if v > seen {
					seen = v
				}
			}
		}
		last = seen
		if last == 7 { // 5 replayed + 2 new; the 3 lost records never count
			return
		}
		if last > 7 {
			t.Fatalf("count = %d, want 7 (unsafe must still not double-count)", last)
		}
		if time.Now().After(deadline) {
			t.Fatalf("count = %d, want 7", last)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGCForgetAndRun(t *testing.T) {
	log := sharedlog.Open(sharedlog.Config{})
	defer log.Close()
	gc := NewGCController(log)
	if _, ok := gc.SafeHorizon(); ok {
		t.Fatal("empty controller has a horizon")
	}
	gc.Report("a", 5)
	gc.Report("b", 2)
	if h, _ := gc.SafeHorizon(); h != 2 {
		t.Fatalf("horizon = %d, want 2", h)
	}
	gc.Report("b", 1) // non-monotonic report ignored
	if h, _ := gc.SafeHorizon(); h != 2 {
		t.Fatalf("horizon after stale report = %d", h)
	}
	gc.Forget("b")
	if h, _ := gc.SafeHorizon(); h != 5 {
		t.Fatalf("horizon after forget = %d, want 5", h)
	}
	// Collect with no appends clamps to tail.
	if _, err := gc.Collect(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerKillAllAndMetrics(t *testing.T) {
	env := &Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		CommitInterval: 20 * time.Millisecond,
	}
	defer env.Log.Close()
	mgr, err := NewManager(env, wordCountQuery(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	if mgr.Txn() != nil {
		t.Fatal("marker-protocol manager has a txn coordinator")
	}
	mgr.KillAll()
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Restarts("wc/split/0") == 0 || mgr.Restarts("wc/count/0") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("KillAll tasks never restarted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = mgr.Metrics() // aggregates without panicking while tasks churn
}
