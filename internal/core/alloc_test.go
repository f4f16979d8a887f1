package core

import (
	"fmt"
	"testing"

	"impeller/internal/testutil"
	"impeller/internal/wire"
)

// Allocation gates for the encode/append hot path. The batched
// dataplane's claim is that steady-state flushes do not allocate for
// encoding: AppendTo into a warm buffer is zero-alloc, and the pooled
// round trip (GetBuf → AppendTo → PutBuf) amortizes to zero. These run
// in `make check` (non-race builds; the race detector's instrumentation
// allocates, so the gates skip there). Budgets are recorded in
// results/sharedlog_bench.md.

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
