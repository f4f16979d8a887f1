package sharedlog

import (
	"context"
	"fmt"
	"testing"
	"time"

	"impeller/internal/sim"
)

// Micro-benchmarks for the shared log's hot paths. The refactor that
// split the ordering plane from the committed-read plane is judged by
// these: reads must scale with GOMAXPROCS instead of serializing on a
// global mutex. Before/after numbers are recorded in
// results/sharedlog_bench.md.

// BenchmarkAppendParallel measures raw append throughput under
// contention: every append is an ordering-plane operation and fully
// serialized by design (LSN assignment is the total order), so this
// bounds the win parallel appenders can expect.
func BenchmarkAppendParallel(b *testing.B) {
	l := Open(Config{})
	defer l.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		tags := []Tag{"bench"}
		for pb.Next() {
			if _, err := l.Append(tags, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendBatch measures group-commit throughput at several
// batch sizes. Compare ns/op ÷ batch size against BenchmarkAppendParallel
// to see the per-record amortization (results/sharedlog_bench.md).
func BenchmarkAppendBatch(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			l := Open(Config{})
			defer l.Close()
			payload := make([]byte, 128)
			entries := make([]AppendEntry, size)
			for i := range entries {
				entries[i] = AppendEntry{Tags: []Tag{Tag(fmt.Sprintf("t%d", i%4))}, Payload: payload}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendBatch(entries); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/record")
		})
	}
}

// BenchmarkAppendLatencyAmortization measures the group-commit win the
// paper actually claims (§5.3): with a calibrated append round trip
// charged per operation, single appends pay it per record while
// AppendBatch pays it per group. Latency is scaled to 1/20 of the Boki
// calibration to keep benchmark wall time sane; the ratio between the
// two subbenches is the amortization factor (per-record ns/op).
func BenchmarkAppendLatencyAmortization(b *testing.B) {
	open := func() *Log {
		return Open(Config{
			AppendLatency: sim.Scale{M: sim.DefaultBokiLatency(sim.NewRand(1).Fork()), F: 0.05},
		})
	}
	payload := make([]byte, 128)
	b.Run("single/clients=16", func(b *testing.B) {
		l := open()
		defer l.Close()
		b.SetParallelism(16) // 16 concurrent appenders, each blocked on its own round trip
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			tags := []Tag{"bench"}
			for pb.Next() {
				if _, err := l.Append(tags, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("batch=64", func(b *testing.B) {
		l := open()
		defer l.Close()
		entries := make([]AppendEntry, 64)
		for i := range entries {
			entries[i] = AppendEntry{Tags: []Tag{Tag(fmt.Sprintf("t%d", i%4))}, Payload: payload}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(entries) {
			if _, err := l.AppendBatch(entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendSequencerShards measures sequencer-mode append
// throughput against the number of ordering shards under a scaled
// local-persist latency: the serial per-shard resource that bounds one
// shard's bandwidth. Throughput should rise near-linearly in the shard
// count until the appender pool stops saturating the shards (the full
// calibrated curve is -exp scaling; see results/scaling.md).
func BenchmarkAppendSequencerShards(b *testing.B) {
	payload := make([]byte, 128)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			l := Open(Config{
				OrderingInterval:   100 * time.Microsecond,
				OrderingShards:     shards,
				ShardAppendLatency: sim.Scale{M: sim.DefaultLocalPersistLatency(sim.NewRand(1).Fork()), F: 0.05},
			})
			defer l.Close()
			b.SetParallelism(16)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				tags := []Tag{"bench"}
				for pb.Next() {
					if _, err := l.Append(tags, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkMixed90Read10Write is the steady-state mix: mostly reads with
// a trickle of appends. Under the old single-mutex log the writers
// stalled every reader; with the split planes only writers serialize.
func BenchmarkMixed90Read10Write(b *testing.B) {
	l := Open(Config{})
	defer l.Close()
	payload := make([]byte, 128)
	const n = 2048
	for i := 0; i < n; i++ {
		if _, err := l.Append([]Tag{"mix"}, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		tags := []Tag{"mix"}
		// Readahead off and batches of one: every read is a fetch, so the
		// mix measures the index and store paths, not a buffer.
		cur := l.OpenCursorOpts(tags, 0, CursorOptions{Prefetch: -1})
		for pb.Next() {
			i++
			if i%10 == 0 {
				if _, err := l.Append(tags, payload); err != nil {
					b.Fatal(err)
				}
				continue
			}
			recs, err := cur.NextBatch(1)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) == 0 {
				cur.Seek(0)
			}
		}
	})
}

// BenchmarkBlockingFanOut measures producer-consumer wakeup cost: one
// appender, many blocked tag readers. With the global broadcast every
// commit woke every reader; with per-tag waiters a commit wakes only
// readers registered on a carried tag.
func BenchmarkBlockingFanOut(b *testing.B) {
	for _, readers := range []int{1, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			l := Open(Config{})
			defer l.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			for r := 0; r < readers; r++ {
				go func(r int) {
					cur := l.OpenCursor([]Tag{Tag(fmt.Sprintf("idle/%d", r))}, 0)
					for {
						recs, err := cur.NextBatchBlocking(ctx, 1)
						if err != nil || len(recs) == 0 {
							return
						}
						select {
						case done <- struct{}{}:
						case <-ctx.Done():
							return
						}
					}
				}(r)
			}
			payload := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Wake exactly one reader per append; the others must
				// not pay for it.
				tag := []Tag{Tag(fmt.Sprintf("idle/%d", i%readers))}
				if _, err := l.Append(tag, payload); err != nil {
					b.Fatal(err)
				}
				<-done
			}
		})
	}
}

// BenchmarkCursorHotTag measures the streaming hot path: one cursor
// draining one hot tag in batches of 64; allocs/op must stay 0 (the
// cursor alloc gate).
func BenchmarkCursorHotTag(b *testing.B) {
	l := Open(Config{})
	defer l.Close()
	payload := make([]byte, 128)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		if _, err := l.Append([]Tag{"hot"}, payload); err != nil {
			b.Fatal(err)
		}
	}
	cur := l.OpenCursorOpts([]Tag{"hot"}, 0, CursorOptions{Prefetch: -1})
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := cur.NextBatch(64)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			cur.Seek(0)
			continue
		}
		records += len(recs)
	}
	if records > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	}
}

// BenchmarkCursorFanout measures many concurrent cursors merging the
// same four substreams — the task-per-core read pattern. Each parallel
// worker owns its cursor; the shared state under contention is the
// index's read locks and the lock-free store.
func BenchmarkCursorFanout(b *testing.B) {
	l := Open(Config{})
	defer l.Close()
	payload := make([]byte, 128)
	tags := []Tag{"in/0", "in/1", "in/2", "in/3"}
	const n = 1 << 14
	for i := 0; i < n; i++ {
		if _, err := l.Append([]Tag{tags[i%len(tags)]}, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cur := l.OpenCursorOpts(tags, 0, CursorOptions{Prefetch: 192})
		for pb.Next() {
			recs, err := cur.NextBatch(64)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) == 0 {
				cur.Seek(0)
			}
		}
	})
}

// BenchmarkReplayDepth is the recovery shape under calibrated latency
// (scaled like BenchmarkAppendLatencyAmortization): replay a 2048-deep
// change log once per iteration, per-record reads vs a prefetching
// cursor. The per-record ns gap is the round-trip amortization
// results/recovery.md recorded end to end.
func BenchmarkReplayDepth(b *testing.B) {
	const depth = 2048
	open := func() *Log {
		l := Open(Config{
			ReadLatency: sim.Scale{M: sim.DefaultBokiLatency(sim.NewRand(2).Fork()), F: 0.02},
		})
		payload := make([]byte, 128)
		entries := make([]AppendEntry, 64)
		for i := range entries {
			entries[i] = AppendEntry{Tags: []Tag{"change"}, Payload: payload}
		}
		for i := 0; i < depth; i += len(entries) {
			if _, err := l.AppendBatch(entries); err != nil {
				b.Fatal(err)
			}
		}
		return l
	}
	b.Run("singles", func(b *testing.B) {
		l := open()
		defer l.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur := l.OpenCursorOpts([]Tag{"change"}, 0, CursorOptions{Prefetch: -1})
			got := 0
			for {
				recs, err := cur.NextBatch(1)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					break
				}
				got++
			}
			if got != depth {
				b.Fatalf("replayed %d, want %d", got, depth)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/record")
	})
	b.Run("cursor", func(b *testing.B) {
		l := open()
		defer l.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur := l.OpenCursor([]Tag{"change"}, 0)
			got := 0
			for {
				recs, err := cur.NextBatch(64)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					break
				}
				got += len(recs)
			}
			if got != depth {
				b.Fatalf("replayed %d, want %d", got, depth)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/record")
	})
}
