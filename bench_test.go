// Benchmarks regenerating the paper's tables and figures (one per
// table/figure, §5) plus ablation microbenchmarks for the design
// choices DESIGN.md calls out. Macro benchmarks execute one short
// measurement sweep per iteration and report p50/p99 through
// b.ReportMetric; run the cmd/impeller-bench binary for full-length
// sweeps.
package impeller_test

import (
	"fmt"
	"testing"
	"time"

	"impeller"
	"impeller/internal/bench"
	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/sharedlog"
)

// BenchmarkTable2LogLatency reproduces Table 2: produce-to-consume
// latency of Impeller's log (Boki-style) vs the Kafka-like log.
func BenchmarkTable2LogLatency(b *testing.B) {
	var last []bench.Table2Row
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable2(bench.Params{
			Rates:    []int{100},
			Duration: 500 * time.Millisecond,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	r := last[0]
	b.ReportMetric(float64(r.BokiP50.Microseconds()), "boki-p50-µs")
	b.ReportMetric(float64(r.BokiP99.Microseconds()), "boki-p99-µs")
	b.ReportMetric(float64(r.KafkaP50.Microseconds()), "kafka-p50-µs")
	b.ReportMetric(float64(r.KafkaP99.Microseconds()), "kafka-p99-µs")
}

// benchFig7Query measures one NEXMark query under the three protocols
// the paper plots in Figure 7 (progress markers, Kafka transactions,
// aligned checkpoints) at a fixed rate.
func benchFig7Query(b *testing.B, query int) {
	protocols := []impeller.Protocol{
		impeller.ProgressMarker, impeller.KafkaTxn, impeller.AlignedCheckpoint,
	}
	for _, proto := range protocols {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			var last *bench.RunResult
			for i := 0; i < b.N; i++ {
				res, err := bench.RunNexmark(bench.RunConfig{
					Query:    query,
					Rate:     2000,
					Duration: 800 * time.Millisecond,
					Warmup:   200 * time.Millisecond,
					Cluster:  impeller.ClusterConfig{Protocol: proto, SimulateLatency: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Received == 0 {
					b.Fatalf("no output received")
				}
				last = res
			}
			b.ReportMetric(float64(last.P50.Microseconds()), "p50-µs")
			b.ReportMetric(float64(last.P99.Microseconds()), "p99-µs")
			b.ReportMetric(float64(last.Received), "results")
		})
	}
}

func BenchmarkFig7NexmarkQ1(b *testing.B) { benchFig7Query(b, 1) }
func BenchmarkFig7NexmarkQ2(b *testing.B) { benchFig7Query(b, 2) }
func BenchmarkFig7NexmarkQ3(b *testing.B) { benchFig7Query(b, 3) }
func BenchmarkFig7NexmarkQ4(b *testing.B) { benchFig7Query(b, 4) }
func BenchmarkFig7NexmarkQ5(b *testing.B) { benchFig7Query(b, 5) }
func BenchmarkFig7NexmarkQ6(b *testing.B) { benchFig7Query(b, 6) }
func BenchmarkFig7NexmarkQ7(b *testing.B) { benchFig7Query(b, 7) }
func BenchmarkFig7NexmarkQ8(b *testing.B) { benchFig7Query(b, 8) }

// BenchmarkFig8CommitInterval reproduces the two ends of Figure 8:
// progress marking vs Kafka transactions as the commit interval shrinks.
func BenchmarkFig8CommitInterval(b *testing.B) {
	for _, interval := range []time.Duration{100 * time.Millisecond, 10 * time.Millisecond} {
		interval := interval
		b.Run(interval.String(), func(b *testing.B) {
			last := map[impeller.Protocol]*bench.RunResult{}
			for i := 0; i < b.N; i++ {
				for _, proto := range []impeller.Protocol{impeller.ProgressMarker, impeller.KafkaTxn} {
					res, err := bench.RunNexmark(bench.RunConfig{
						Query:    4,
						Rate:     2000,
						Duration: 800 * time.Millisecond,
						Cluster: impeller.ClusterConfig{
							Protocol: proto, CommitInterval: interval, SimulateLatency: true,
						},
					})
					if err != nil {
						b.Fatal(err)
					}
					last[proto] = res
				}
			}
			marker, txn := last[impeller.ProgressMarker], last[impeller.KafkaTxn]
			b.ReportMetric(float64(marker.P50.Microseconds()), "marker-p50-µs")
			b.ReportMetric(float64(txn.P50.Microseconds()), "txn-p50-µs")
			b.ReportMetric(float64(marker.P99.Microseconds()), "marker-p99-µs")
			b.ReportMetric(float64(txn.P99.Microseconds()), "txn-p99-µs")
		})
	}
}

// BenchmarkFig9UnsafeCost reproduces Figure 9: Q5 with progress marking
// vs the unsafe variant — the cost of exactly-once.
func BenchmarkFig9UnsafeCost(b *testing.B) {
	for _, proto := range []impeller.Protocol{impeller.ProgressMarker, impeller.Unsafe} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			var last *bench.RunResult
			for i := 0; i < b.N; i++ {
				res, err := bench.RunNexmark(bench.RunConfig{
					Query:    5,
					Rate:     2000,
					Duration: 800 * time.Millisecond,
					Warmup:   200 * time.Millisecond,
					Cluster:  impeller.ClusterConfig{Protocol: proto, SimulateLatency: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.P50.Microseconds()), "p50-µs")
			b.ReportMetric(float64(last.P99.Microseconds()), "p99-µs")
		})
	}
}

// BenchmarkTable4Recovery reproduces one rate point of Table 4: Q8
// failure recovery with and without asynchronous checkpointing.
func BenchmarkTable4Recovery(b *testing.B) {
	var last []bench.Table4Row
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable4(bench.Params{Rates: []int{1500}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	r := last[0]
	b.ReportMetric(float64(r.BaselineRecovery.Microseconds()), "baseline-recovery-µs")
	b.ReportMetric(float64(r.CheckpointRecovery.Microseconds()), "ckpt-recovery-µs")
	b.ReportMetric(float64(r.BaselineReplayed), "baseline-replayed")
	b.ReportMetric(float64(r.CheckpointReplayed), "ckpt-replayed")
}

// --- Ablations ---

// BenchmarkAblationMarkerShrink measures the §3.5 marker-shrinking
// optimization: encoded bytes per marker, shrunk vs naive.
func BenchmarkAblationMarkerShrink(b *testing.B) {
	m := &core.ProgressMarker{
		InputEnd:    1_000_000,
		ChangeFirst: 999_000,
		SeqEnd:      500_000,
		OutFirst: map[sharedlog.Tag]sharedlog.LSN{
			core.DataTag("X", 0): 1, core.DataTag("X", 1): 2,
			core.DataTag("X", 2): 3, core.DataTag("X", 3): 4,
		},
	}
	var shrunk int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shrunk = len(m.Encode())
	}
	b.ReportMetric(float64(shrunk), "shrunk-bytes")
	b.ReportMetric(float64(m.UnshrunkSize()), "unshrunk-bytes")
}

// BenchmarkAblationTagIndexVsScan measures selective reads backed by
// the log's per-tag index against a naive scan-and-filter over the
// whole log — why tag indexing matters as logs grow (paper §2.3).
func BenchmarkAblationTagIndexVsScan(b *testing.B) {
	log := sharedlog.Open(sharedlog.Config{})
	defer log.Close()
	const total, tags = 20000, 50
	for i := 0; i < total; i++ {
		tag := sharedlog.Tag(fmt.Sprintf("t%d", i%tags))
		if _, err := log.Append([]sharedlog.Tag{tag}, []byte("payload")); err != nil {
			b.Fatal(err)
		}
	}
	want := total / tags

	b.Run("tag-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			cur := log.OpenCursor([]sharedlog.Tag{"t7"}, 0)
			for {
				recs, err := cur.NextBatch(64)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					break
				}
				n += len(recs)
			}
			if n != want {
				b.Fatalf("read %d records, want %d", n, want)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for lsn := sharedlog.LSN(0); lsn < total; lsn++ {
				rec, err := log.Read(lsn)
				if err != nil || rec == nil {
					b.Fatal(err)
				}
				if rec.Tags[0] == "t7" {
					n++
				}
			}
			if n != want {
				b.Fatalf("scanned %d records, want %d", n, want)
			}
		}
	})
}

// BenchmarkAblationCommitIntervalStalls counts the transaction
// protocol's phase-two stalls as the commit interval shrinks — the
// mechanism behind Figure 8 (§3.6: the second phase "cannot always be
// hidden by pipelining").
func BenchmarkAblationCommitIntervalStalls(b *testing.B) {
	for _, interval := range []time.Duration{50 * time.Millisecond, 5 * time.Millisecond} {
		interval := interval
		b.Run(interval.String(), func(b *testing.B) {
			var stalls, commits uint64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunNexmark(bench.RunConfig{
					Query:    4,
					Rate:     2000,
					Duration: 700 * time.Millisecond,
					Cluster: impeller.ClusterConfig{
						Protocol: impeller.KafkaTxn, CommitInterval: interval, SimulateLatency: true,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				stalls = res.Metrics.CommitStalls
				commits = res.Metrics.Markers
			}
			b.ReportMetric(float64(stalls), "commit-stalls")
			b.ReportMetric(float64(commits), "commits")
		})
	}
}

// --- Microbenchmarks on the data path ---

func BenchmarkBatchEncodeDecode(b *testing.B) {
	batch := &core.Batch{Kind: core.KindData, Producer: "q/s1/0", Instance: 3}
	for i := 0; i < 100; i++ {
		batch.Records = append(batch.Records, core.Record{
			Seq: uint64(i), EventTime: int64(i), Key: []byte("key"), Value: make([]byte, 100),
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := batch.Encode()
		if _, err := core.DecodeBatch(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSharedLogAppend(b *testing.B) {
	log := sharedlog.Open(sharedlog.Config{NumShards: 4, Replication: 3})
	defer log.Close()
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append([]sharedlog.Tag{"bench"}, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNexmarkGenerator(b *testing.B) {
	g := nexmark.NewGenerator(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next(int64(i))
	}
}

func BenchmarkEndToEndThroughput(b *testing.B) {
	// Upper-bound engine throughput on the word-count topology with
	// zero injected latency: records per second through two stages.
	cluster := impeller.NewCluster(impeller.ClusterConfig{
		CommitInterval:     50 * time.Millisecond,
		DefaultParallelism: 2,
	})
	defer cluster.Close()
	topo := impeller.NewTopology("tput")
	topo.Stream("in").
		GroupBy(func(d impeller.Datum) []byte { return d.Key }).
		Count("c").
		To("out")
	app, err := cluster.Run(topo)
	if err != nil {
		b.Fatal(err)
	}
	defer app.Stop()
	sink := app.Sink("out", false, nil)

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		key := []byte{byte(i), byte(i >> 8)}
		if err := app.Send("in", key, []byte("x"), time.Now().UnixMicro()); err != nil {
			b.Fatal(err)
		}
	}
	for {
		if sink.Counts().Received >= uint64(b.N) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "events/s")
}

// BenchmarkAblationOrderingInterval measures the latency cost of
// Scalog-style decoupled ordering: the sequencer assigns LSNs in
// periodic cuts, so appends wait up to one cut interval (paper §3.5,
// "Log ordering": Scalog-style systems decouple ordering from
// persistence to scale append throughput).
func BenchmarkAblationOrderingInterval(b *testing.B) {
	for _, interval := range []time.Duration{0, time.Millisecond, 4 * time.Millisecond} {
		interval := interval
		name := "immediate"
		if interval > 0 {
			name = interval.String()
		}
		b.Run(name, func(b *testing.B) {
			log := sharedlog.Open(sharedlog.Config{OrderingInterval: interval})
			defer log.Close()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := log.Append([]sharedlog.Tag{"t"}, []byte("x")); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N), "append-µs")
		})
	}
}

// BenchmarkAblationGC measures log growth with and without garbage
// collection (paper §3.5): consumed prefixes are trimmed once consumers
// and checkpoints release them.
func BenchmarkAblationGC(b *testing.B) {
	for _, gc := range []bool{false, true} {
		gc := gc
		name := "without-gc"
		if gc {
			name = "with-gc"
		}
		b.Run(name, func(b *testing.B) {
			var live uint64
			for i := 0; i < b.N; i++ {
				cluster := impeller.NewCluster(impeller.ClusterConfig{
					CommitInterval:     30 * time.Millisecond,
					SnapshotInterval:   100 * time.Millisecond,
					DefaultParallelism: 1,
					EnableGC:           gc,
				})
				topo := impeller.NewTopology("gcb")
				topo.Stream("in").
					GroupBy(func(d impeller.Datum) []byte { return d.Key }).
					Count("c").
					To("out")
				app, err := cluster.Run(topo)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 3000; j++ {
					key := []byte{byte(j % 50)}
					if err := app.Send("in", key, []byte("x"), time.Now().UnixMicro()); err != nil {
						b.Fatal(err)
					}
					if j%500 == 0 {
						time.Sleep(50 * time.Millisecond)
					}
				}
				time.Sleep(400 * time.Millisecond)
				if gc {
					if _, err := cluster.Env().GC.Collect(); err != nil {
						b.Fatal(err)
					}
				}
				live = uint64(cluster.Log().Tail() - cluster.Log().TrimHorizon())
				app.Stop()
				cluster.Close()
			}
			b.ReportMetric(float64(live), "live-log-records")
		})
	}
}
