package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"impeller/internal/sharedlog"
	"impeller/internal/testutil"
	"impeller/internal/wire"
)

// Allocation gates for the hot path. Write side: steady-state flushes do
// not allocate for encoding — AppendTo into a warm buffer is zero-alloc,
// and the pooled round trip (GetBuf → AppendTo → PutBuf) amortizes to
// zero. Read side: decode hands out views of the log record, and the
// plumbing from a log record to the processor, the output buffer and
// the external consumer allocates nothing per record. These run in
// `make test` and `make alloc` (non-race builds; the race detector's
// instrumentation allocates, so the gates skip there). Encode budgets
// are recorded in results/sharedlog_bench.md.

func benchBatch(records int) Batch {
	b := Batch{Kind: KindData, Producer: "q/stage/0", Instance: 3, Epoch: 1}
	for i := 0; i < records; i++ {
		b.Records = append(b.Records, Record{
			Seq:       uint64(i + 1),
			EventTime: int64(1000 + i),
			Key:       []byte(fmt.Sprintf("key-%03d", i)),
			Value:     make([]byte, 64),
		})
	}
	return b
}

func TestEncodeAppendToZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	batch := benchBatch(64)
	buf := make([]byte, 0, batch.EncodedSize())
	allocs := testing.AllocsPerRun(100, func() {
		buf = batch.AppendTo(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendTo into a warm buffer allocates %.1f times, budget 0", allocs)
	}
	if sz := batch.EncodedSize(); sz != len(buf) {
		t.Fatalf("EncodedSize = %d but encoding is %d bytes", sz, len(buf))
	}
}

func TestEncodePooledRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	batch := benchBatch(64)
	// Warm the pool so the steady state is measured, not the first Get.
	for i := 0; i < 4; i++ {
		eb := wire.GetBuf()
		eb.B = batch.AppendTo(eb.B)
		wire.PutBuf(eb)
	}
	allocs := testing.AllocsPerRun(100, func() {
		eb := wire.GetBuf()
		eb.B = batch.AppendTo(eb.B)
		wire.PutBuf(eb)
	})
	// Budget 0.5: the pool may be drained by a GC mid-run; steady state
	// is zero.
	if allocs > 0.5 {
		t.Errorf("pooled encode round trip allocates %.2f times, budget 0 (tolerance 0.5)", allocs)
	}
}

// TestDecodeBatchAllocs gates the read side of the codec: decoded
// batches are views of their buffer, so a batch costs the Batch and its
// Records slice — two allocations however many records it holds.
func TestDecodeBatchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	for _, n := range []int{1, 64} {
		batch := benchBatch(n)
		enc := batch.Encode()
		if _, err := DecodeBatch(enc); err != nil { // interns the producer
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeBatch(enc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("DecodeBatch of %d records: %.1f allocations", n, allocs)
		if allocs > 2 {
			t.Errorf("DecodeBatch of %d records allocates %.1f times, budget 2", n, allocs)
		}
	}
}

// TestStepAllocsPerRecord gates the path from a log record to the
// output buffer and back into the log: a stateless Chain(Filter,
// SelectKey) stage steps through committed source batches and flushes
// its outputs. What is left per record is the per-batch decode and the
// per-flush append, spread over the records.
func TestStepAllocsPerRecord(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	const batches, perBatch, runs = 4, 64, 50
	stage := &Stage{
		Name: "st", Parallelism: 1,
		Inputs:  []StreamID{"in"},
		Outputs: []OutputSpec{{Stream: "out", Partitions: 2}},
		NewProcessor: func() Processor {
			return Chain(
				Filter(func(d Datum) bool { return len(d.Value) > 0 }),
				SelectKey(func(d Datum) []byte { return d.Value[:4] }),
			)
		},
	}
	h := newStepHarness(t, ProtoProgressMarker, stage)
	in := DataTag("in", 0)
	// Every run consumes fresh records: the same seqs twice would be
	// dropped as duplicates instead of processed.
	fetches := make([][]*sharedlog.Record, runs+1)
	seq := uint64(0)
	for i := range fetches {
		for j := 0; j < batches; j++ {
			b := &Batch{Kind: KindSource, Producer: "ingress/0", Instance: 1}
			for k := 0; k < perBatch; k++ {
				seq++
				b.Records = append(b.Records, Record{Seq: seq, Key: []byte("key"), Value: []byte(fmt.Sprintf("v%07d", seq))})
			}
			fetches[i] = append(fetches[i], h.rec(in, b))
		}
	}
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.task.recs = fetches[run]
		run++
		if _, err := h.task.step(unbudgeted, false); err != nil {
			t.Fatal(err)
		}
		h.task.flushOutputs()
		if err := h.task.drainAppends(); err != nil {
			t.Fatal(err)
		}
	})
	if got, want := h.task.Metrics.Emitted.Load(), uint64((runs+1)*batches*perBatch); got != want {
		t.Fatalf("emitted %d records, want %d", got, want)
	}
	perRec := allocs / (batches * perBatch)
	t.Logf("step + flush: %.3f allocations per record", perRec)
	if perRec > 0.1 {
		t.Errorf("step + flush allocates %.3f times per record (%.1f per %d-record run), budget 0.1",
			perRec, allocs, batches*perBatch)
	}
}

// TestDeliveryAllocsPerRecord gates the delivery sink's ack path: sink
// dedupe, admission into the window, the partition worker's Deliver
// call and the ack. Entries live by value in a reused queue and each
// worker reuses one Delivery, so a record costs nothing.
func TestDeliveryAllocsPerRecord(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	const perBatch, runs = 64, 50
	env := newEgressEnv()
	defer env.Log.Close()
	var seen atomic.Uint64
	ds, err := NewDeliverySink("out", 1, env, consumerFunc(func(context.Context, *Delivery) error {
		seen.Add(1)
		return nil
	}), DeliveryOptions{FrontierInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- ds.Run(context.Background()) }()
	defer func() {
		ds.Stop()
		if err := <-runErr; err != nil {
			t.Error(err)
		}
	}()
	waitUntil(t, "delivery sink running", func() bool {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		return ds.workCtx != nil
	})
	batches := make([]*Batch, runs+1)
	seq := uint64(0)
	for i := range batches {
		batches[i] = &Batch{Kind: KindData, Producer: "up/0", Instance: 1}
		for k := 0; k < perBatch; k++ {
			seq++
			batches[i].Records = append(batches[i].Records, Record{Seq: seq, Key: []byte("k"), Value: []byte("v")})
		}
	}
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		ds.sink.deliver(context.Background(), 0, LSN(run), batches[run])
		run++
		for seen.Load() < uint64(run*perBatch) {
			runtime.Gosched()
		}
	})
	perRec := allocs / perBatch
	t.Logf("delivery ack path: %.3f allocations per record", perRec)
	if perRec > 0.1 {
		t.Errorf("delivery ack path allocates %.3f times per record (%.1f per %d-record batch), budget 0.1",
			perRec, allocs, perBatch)
	}
}

// TestGCReportAllocs gates what a sink pays per fetched batch for its
// garbage-collection floor: a mutex and a map write, no allocation.
func TestGCReportAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	log := sharedlog.Open(sharedlog.Config{})
	defer log.Close()
	gc := NewGCController(log)
	floor := LSN(0)
	gc.Report("sink/out/1", floor)
	if allocs := testing.AllocsPerRun(100, func() {
		floor++
		gc.Report("sink/out/1", floor)
	}); allocs != 0 {
		t.Errorf("a floor report allocates %.1f times, want 0", allocs)
	}
}

type consumerFunc func(context.Context, *Delivery) error

func (f consumerFunc) Deliver(ctx context.Context, d *Delivery) error { return f(ctx, d) }

func BenchmarkEncodeAppendTo(b *testing.B) {
	batch := benchBatch(64)
	buf := make([]byte, 0, batch.EncodedSize())
	b.ReportAllocs()
	b.SetBytes(int64(batch.EncodedSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = batch.AppendTo(buf[:0])
	}
}
