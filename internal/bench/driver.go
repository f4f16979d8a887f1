package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/sharedlog"
	"impeller/internal/wal"
)

// RunConfig configures one NEXMark measurement run (one point of
// Figure 7/8/9).
type RunConfig struct {
	// Query selects the NEXMark query (1–8).
	Query int
	// Protocol selects the fault-tolerance protocol.
	Protocol impeller.Protocol
	// Rate is the offered input load in events/s.
	Rate int
	// Duration is how long the generators run.
	Duration time.Duration
	// Warmup discards latency samples recorded before it elapses.
	Warmup time.Duration
	// CommitInterval (default 100 ms) and SnapshotInterval (default 0)
	// follow the paper's settings.
	CommitInterval   time.Duration
	SnapshotInterval time.Duration
	// Parallelism is the per-stage task count (default 2).
	Parallelism int
	// Generators is the number of input generators (paper: 4).
	Generators int
	// FlushInterval is the generator batch flush (paper: 10 ms for
	// Q1–Q2, 100 ms for Q3–Q8; 0 selects by query).
	FlushInterval time.Duration
	// SimulateLatency charges calibrated log/coordinator latencies.
	SimulateLatency bool
	// LatencyScale scales simulated latencies (sub-real-time runs).
	LatencyScale float64
	// Seed fixes the generator and latency randomness.
	Seed uint64
	// BatchMaxRecords, BatchMaxBytes, BatchLinger, and BatchWindow tune
	// the batched dataplane; zero values select the engine defaults.
	// BatchMaxRecords: 1 disables coalescing (the ablation baseline).
	BatchMaxRecords int
	BatchMaxBytes   int
	BatchLinger     time.Duration
	BatchWindow     int
	// ReadBatchRecords tunes the streaming read plane; zero selects the
	// engine default (64 records per cursor fetch). 1 degenerates to
	// per-record reads with readahead disabled (the ablation baseline).
	ReadBatchRecords int
	// OrderingInterval runs the log in Scalog-style sequencer mode with
	// global cuts at that interval (0 keeps immediate ordering);
	// OrderingShards is the number of local sequencer shards appends are
	// routed across in that mode (0 means 1).
	OrderingInterval time.Duration
	OrderingShards   int
	// Egress routes output through the transactional delivery sink to
	// an in-process consumer and measures latency at the consumer's
	// acknowledgment instead of at emission — the delivered-record
	// latency, which includes the commit wait (records only become
	// deliverable once their progress marker lands).
	Egress bool
	// Engine selects the task execution engine (goroutine or tasklet).
	Engine impeller.EngineMode
	// Durable persists the shared log to a checksummed WAL device
	// (internal/wal): every committed cut is appended and flushed before
	// the append is acknowledged. Under SimulateLatency the flush is
	// charged at the calibrated device latency — the append-overhead
	// axis of -exp durability.
	Durable bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.CommitInterval <= 0 {
		c.CommitInterval = 100 * time.Millisecond
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 2
	}
	if c.Generators <= 0 {
		c.Generators = 4
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Duration / 4
	}
	if c.FlushInterval <= 0 {
		if c.Query <= 2 {
			c.FlushInterval = 10 * time.Millisecond
		} else {
			c.FlushInterval = 100 * time.Millisecond
		}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// RunResult is one measured point.
type RunResult struct {
	Config   RunConfig
	Sent     uint64
	Received uint64
	P50, P99 time.Duration
	// P999 and P9999 are the deep-tail quantiles (p99.9, p99.99) the
	// scheduler-jitter experiments target.
	P999, P9999 time.Duration
	Mean        time.Duration
	Metrics     core.QueryMetrics
	// Log snapshots the shared log's counters at the end of the run:
	// appends, reads by kind, sequencer cuts, and reader
	// wakeups (total vs useful — with per-tag waiters the ratio is ~1).
	Log sharedlog.Stats
	// Delivery snapshots the egress retry layer (attempts, redeliveries,
	// permanent failures, dead letters); zero unless Config.Egress.
	Delivery core.DeliveryStats
	// AssignEpochs sums the stages' committed assignment epochs at run
	// end — each stage starts at epoch 1, so any value above the stage
	// count means a live rescale happened during the run.
	AssignEpochs uint64
	Elapsed      time.Duration
}

// String renders the point like the paper's figures report it.
func (r *RunResult) String() string {
	return fmt.Sprintf("q%d %-18s rate=%-7d p50=%-10v p99=%-10v recv=%d",
		r.Config.Query, r.Config.Protocol, r.Config.Rate,
		r.P50.Round(100*time.Microsecond), r.P99.Round(100*time.Microsecond), r.Received)
}

// RunNexmark executes one measurement run: it builds the query, offers
// Rate events/s for Duration, and measures end-to-end event-time
// latency at the output operator's emission (paper §5.3: "the interval
// between the record's event-time, the time the event was generated,
// and its emission time from the output operator").
func RunNexmark(cfg RunConfig) (*RunResult, error) {
	cfg = cfg.withDefaults()
	clusterCfg := impeller.ClusterConfig{
		Protocol:             cfg.Protocol,
		CommitInterval:       cfg.CommitInterval,
		SnapshotInterval:     cfg.SnapshotInterval,
		DefaultParallelism:   cfg.Parallelism,
		IngressWriters:       cfg.Generators,
		IngressFlushInterval: cfg.FlushInterval,
		SimulateLatency:      cfg.SimulateLatency,
		LatencyScale:         cfg.LatencyScale,
		Seed:                 cfg.Seed,
		BatchMaxRecords:      cfg.BatchMaxRecords,
		BatchMaxBytes:        cfg.BatchMaxBytes,
		BatchLinger:          cfg.BatchLinger,
		BatchWindow:          cfg.BatchWindow,
		ReadBatchRecords:     cfg.ReadBatchRecords,
		OrderingInterval:     cfg.OrderingInterval,
		OrderingShards:       cfg.OrderingShards,
		Engine:               cfg.Engine,
	}
	if cfg.Durable {
		clusterCfg.WAL = wal.NewDevice()
	}
	cluster := impeller.NewCluster(clusterCfg)
	defer cluster.Close()

	topo, err := nexmark.BuildOpts(cfg.Query, nexmark.Options{PerUpdateWindows: true})
	if err != nil {
		return nil, err
	}
	app, err := cluster.Run(topo)
	if err != nil {
		return nil, err
	}
	defer app.Stop()

	hist := &Hist{}
	start := time.Now()
	warmupUntil := start.Add(cfg.Warmup)
	var sink *core.Sink
	var delivery *core.DeliverySink
	if cfg.Egress {
		// Delivered-record latency: the measurement point moves from the
		// output operator's emission to the external consumer's ack.
		delivery, err = app.NewDeliverySink(nexmark.OutputStream(cfg.Query),
			&ackLatencyConsumer{hist: hist, warmupUntil: warmupUntil}, core.DeliveryOptions{})
		if err != nil {
			return nil, err
		}
		sink = delivery.Sink()
		go func() { _ = delivery.Run(context.Background()) }()
	} else {
		sink = app.Sink(nexmark.OutputStream(cfg.Query), false, func(r impeller.Record, _ impeller.TaskID, now time.Time) {
			if now.Before(warmupUntil) {
				return
			}
			hist.Record(now.Sub(time.UnixMicro(r.EventTime)))
		})
	}

	// Generators: each paces Rate/Generators events/s in small ticks.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var sent uint64
	var sentMu sync.Mutex
	perGen := cfg.Rate / cfg.Generators
	if perGen == 0 {
		perGen = 1
	}
	for g := 0; g < cfg.Generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := nexmark.NewGenerator(cfg.Seed + uint64(g))
			tick := 2 * time.Millisecond
			perTick := perGen * int(tick) / int(time.Second)
			if perTick == 0 {
				perTick = 1
				tick = time.Second / time.Duration(perGen)
			}
			ticker := time.NewTicker(tick)
			defer ticker.Stop()
			deadline := start.Add(cfg.Duration)
			n := uint64(0)
			for time.Now().Before(deadline) {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				for i := 0; i < perTick; i++ {
					now := time.Now().UnixMicro()
					ev := gen.Next(now)
					n++
					key := []byte(fmt.Sprintf("%d-%d", g, n))
					if err := app.SendVia(nexmark.EventStream, g, key, ev.Payload, now); err != nil {
						return
					}
				}
			}
			sentMu.Lock()
			sent += n
			sentMu.Unlock()
		}(g)
	}
	wg.Wait()
	// Drain: give the pipeline a few commit intervals to flush results.
	drain := 5 * cfg.CommitInterval
	if drain < 300*time.Millisecond {
		drain = 300 * time.Millisecond
	}
	time.Sleep(drain)
	cancel()

	res := &RunResult{
		Config:  cfg,
		Sent:    sent,
		Metrics: app.Metrics(),
		Elapsed: time.Since(start),
	}
	if delivery != nil {
		// Graceful stop: drain the in-flight window and persist the
		// final ack frontier before reading the counters.
		delivery.Stop()
		res.Delivery = delivery.Stats()
	}
	res.Received = sink.Counts().Received
	res.P50, res.P99, res.Mean = hist.Percentile(50), hist.Percentile(99), hist.Mean()
	res.P999, res.P9999 = hist.Percentile(99.9), hist.Percentile(99.99)
	for _, s := range app.StageNames() {
		res.AssignEpochs += app.AssignmentEpoch(s)
	}
	res.Log = cluster.LogStats()
	return res, nil
}

// ackLatencyConsumer is the egress measurement consumer: event-time to
// consumer-acknowledgment latency, recorded after warmup.
type ackLatencyConsumer struct {
	hist        *Hist
	warmupUntil time.Time
}

func (c *ackLatencyConsumer) Deliver(_ context.Context, d *core.Delivery) error {
	if now := time.Now(); now.After(c.warmupUntil) {
		c.hist.Record(now.Sub(time.UnixMicro(d.Record.EventTime)))
	}
	return nil
}
