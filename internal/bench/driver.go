package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/sharedlog"
)

// Params are the settings the experiments share, one field per
// impeller-bench flag; every experiment is a function of a Params, reads
// the fields that apply to it and replaces zero values by its own
// defaults.
type Params struct {
	// Query is the NEXMark query (-query).
	Query int
	// Rate is the offered load in events/s of a single-rate experiment
	// (-rate); Rates are the points of a sweep (-rates).
	Rate  int
	Rates []int
	// Duration is the measurement time per point (-duration).
	Duration time.Duration
	// Simulate charges calibrated network/storage latencies
	// (-simulate), scaled by Scale (-scale).
	Simulate bool
	Scale    float64
	// Engine is the task execution engine (-engine).
	Engine impeller.EngineMode
	// Depths (-depths), Shards (-shards), Clients (-clients) and
	// TasksPerCore (-tpc) are the sweep axes of -exp durability, scaling
	// and tail.
	Depths       []int
	Shards       []int
	Clients      int
	TasksPerCore []int
}

// or fills p's unset query, rate and duration with an experiment's
// defaults.
func (p Params) or(query, rate int, duration time.Duration) Params {
	if p.Query == 0 {
		p.Query = query
	}
	if p.Rate <= 0 {
		p.Rate = rate
	}
	if p.Duration <= 0 {
		p.Duration = duration
	}
	return p
}

// cluster is the cluster p describes: its latency model and engine
// under the given protocol, everything else at the defaults.
func (p Params) cluster(proto impeller.Protocol) impeller.ClusterConfig {
	return impeller.ClusterConfig{
		Protocol:        proto,
		SimulateLatency: p.Simulate,
		LatencyScale:    p.Scale,
		Engine:          p.Engine,
	}
}

// run is one measurement of p's query at p's rate on p.cluster(proto).
func (p Params) run(proto impeller.Protocol) RunConfig {
	return RunConfig{Query: p.Query, Rate: p.Rate, Duration: p.Duration, Cluster: p.cluster(proto)}
}

// RunConfig configures one NEXMark measurement run (one point of
// Figure 7/8/9): the workload, and the cluster it runs on.
type RunConfig struct {
	// Query selects the NEXMark query (1–8).
	Query int
	// Rate is the offered input load in events/s.
	Rate int
	// Duration is how long the generators run (default 3 s).
	Duration time.Duration
	// Warmup discards latency samples recorded before it elapses
	// (default Duration/4).
	Warmup time.Duration
	// Egress routes output through the transactional delivery sink to
	// an in-process consumer and measures latency at the consumer's
	// acknowledgment instead of at emission — the delivered-record
	// latency, which includes the commit wait (records only become
	// deliverable once their progress marker lands).
	Egress bool
	// Cluster is passed to impeller.NewCluster verbatim, after the
	// harness's defaults replace its zero values: 100 ms commits, 2 tasks
	// per stage, 4 generators (IngressWriters) flushing every 10 ms for
	// Q1–Q2 and 100 ms for Q3–Q8 (the paper's settings), seed 42. Set
	// Cluster.WAL to a fresh device for a durable log.
	Cluster impeller.ClusterConfig
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Duration / 4
	}
	cl := &c.Cluster
	if cl.CommitInterval <= 0 {
		cl.CommitInterval = 100 * time.Millisecond
	}
	if cl.DefaultParallelism <= 0 {
		cl.DefaultParallelism = 2
	}
	if cl.IngressWriters <= 0 {
		cl.IngressWriters = 4
	}
	if cl.IngressFlushInterval <= 0 {
		if c.Query <= 2 {
			cl.IngressFlushInterval = 10 * time.Millisecond
		} else {
			cl.IngressFlushInterval = 100 * time.Millisecond
		}
	}
	if cl.Seed == 0 {
		cl.Seed = 42
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
		r.Config.Query, r.Config.Cluster.Protocol, r.Config.Rate,
		r.P50.Round(100*time.Microsecond), r.P99.Round(100*time.Microsecond), r.Received)
}

// RunNexmark executes one measurement run: it builds the query, offers
// Rate events/s for Duration, and measures end-to-end event-time
// latency at the output operator's emission (paper §5.3: "the interval
// between the record's event-time, the time the event was generated,
// and its emission time from the output operator").
func RunNexmark(cfg RunConfig) (*RunResult, error) {
	cfg = cfg.withDefaults()
	cluster := impeller.NewCluster(cfg.Cluster)
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

	// Generators: each owes its share of Rate (the remainder goes to the
	// first ones) times the elapsed time, and every 2 ms tick sends what
	// it owes and has not sent — so neither integer division nor a
	// dropped tick loses offered load.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var sent atomic.Uint64
	gens := cfg.Cluster.IngressWriters
	for g := 0; g < gens; g++ {
		perGen := cfg.Rate / gens
		if g < cfg.Rate%gens {
			perGen++
		}
		wg.Add(1)
		go func(g, perGen int) {
			defer wg.Done()
			gen := nexmark.NewGenerator(cfg.Cluster.Seed + uint64(g))
			ticker := time.NewTicker(2 * time.Millisecond)
			defer ticker.Stop()
			n := uint64(0)
			defer func() { sent.Add(n) }()
			for elapsed := time.Duration(0); elapsed < cfg.Duration; {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				if elapsed = time.Since(start); elapsed > cfg.Duration {
					elapsed = cfg.Duration
				}
				owed := uint64(perGen) * uint64(elapsed) / uint64(time.Second)
				for n < owed {
					now := time.Now().UnixMicro()
					ev := gen.Next(now)
					n++
					key := []byte(fmt.Sprintf("%d-%d", g, n))
					if err := app.SendVia(nexmark.EventStream, g, key, ev.Payload, now); err != nil {
						return
					}
				}
			}
		}(g, perGen)
	}
	wg.Wait()
	// Drain: give the pipeline a few commit intervals to flush results.
	drain := 5 * cfg.Cluster.CommitInterval
	if drain < 300*time.Millisecond {
		drain = 300 * time.Millisecond
	}
	time.Sleep(drain)
	cancel()

	res := &RunResult{
		Config:  cfg,
		Sent:    sent.Load(),
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
