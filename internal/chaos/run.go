package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/wal"
)

// harness is one run's shared state: the external world that outlives
// any one cluster (oracle, consumer, WAL device) and the clock origin t0
// every plane measures its offsets from.
type harness struct {
	cfg  Config
	plan Plan
	orc  oracle
	outs *outputs
	cons *egressConsumer
	dev  *wal.Device // nil unless the plan cuts the power
	ctx  context.Context
	t0   time.Time
}

// deployment is one cluster running the query, with its delivery sink.
type deployment struct {
	cluster *impeller.Cluster
	app     *impeller.App
	mgr     *core.Manager
	sink    *egressRunner
}

// Run executes one chaos run: deploy the query, pace the input across
// the fault window while the plan's fault planes and rescale schedule
// play, cut the power halfway if the plan says so, heal everything, and
// poll the oracle until the output converges or the invariant breaks.
func Run(cfg Config) (*Result, error) { return run(cfg, convergeTimeout) }

// run is Run with the convergence wait as a parameter, so a test can
// force a run to end STUCK.
func run(cfg Config, wait time.Duration) (*Result, error) {
	cfg = cfg.withDefaults()
	orc, err := newOracle(cfg.Query)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := &harness{cfg: cfg, plan: GenPlan(cfg), orc: orc, outs: newOutputs(cfg.Query), ctx: ctx, t0: time.Now()}
	h.cons = newEgressConsumer(h.outs, h.plan.Consumer, h.t0)
	if cfg.PowerCut {
		h.dev = wal.NewDevice()
	}
	res := &Result{Config: cfg, Plan: h.plan}

	d, err := h.deploy(nil)
	if err != nil {
		return nil, err
	}
	defer func() { d.close() }()

	// The input — its first half, if the power is cut — while the fault
	// planes and the rescale schedule play. Then heal the world: from
	// here on the run must converge on its own.
	half := events
	if cfg.PowerCut {
		half = events / 2
	}
	var wg sync.WaitGroup
	h.play(d, &wg, res)
	h.send(d.app, 0, half)
	wg.Wait()
	d.cluster.Faults().Reset()

	if cfg.PowerCut && res.Violation == "" {
		next, err := h.powerCut(d, res, wait)
		if err != nil {
			return nil, err
		}
		if next == nil {
			return h.collect(d, res), nil
		}
		d = next
		h.send(d.app, half, events)
		if cfg.Corruption == CorruptBitFlip {
			wait = min(wait, bitFlipGrace)
		}
	}
	if res.Violation == "" {
		res.Converged, res.Violation = h.converge(wait)
	}
	return h.collect(d, res), nil
}

// deploy builds a cluster, runs the query on it and attaches a delivery
// sink. On a durable run the cluster's log recovers from h.dev, and ckpt
// (nil on first deployment) is the checkpoint store image to rebuild.
func (h *harness) deploy(ckpt []byte) (*deployment, error) {
	opts := nexmark.Options{PerUpdateWindows: true}
	if h.cfg.Rescale {
		opts.MaxParallelism = maxParallelism
	}
	topo, err := nexmark.BuildOpts(h.cfg.Query, opts)
	if err != nil {
		return nil, err
	}
	cluster := impeller.NewCluster(impeller.ClusterConfig{
		Protocol:             h.cfg.Protocol,
		CommitInterval:       commitInterval,
		SnapshotInterval:     h.cfg.snapshots(),
		DefaultParallelism:   parallelism,
		IngressWriters:       generators,
		IngressFlushInterval: 5 * time.Millisecond,
		LogShards:            logShards,
		OrderingInterval:     orderingInterval,
		OrderingShards:       h.cfg.OrderingShards,
		Seed:                 h.cfg.Seed,
		Engine:               h.cfg.Engine,
		WAL:                  h.dev,
		CheckpointWAL:        ckpt,
	})
	app, err := cluster.Run(topo)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	d := &deployment{cluster: cluster, app: app, mgr: app.Manager()}
	// Short failure detection: a 20 ms commit interval pairs with fast
	// heartbeats so kills are detected within a few commit points.
	d.mgr.SetTimeouts(6*commitInterval, commitInterval)
	// Egress: output flows through a transactional delivery sink to the
	// external consumer, whose state (and dedupe floors) outlives sink
	// incarnations and clusters; the oracle watches its applied set.
	d.sink = newEgressRunner(app, nexmark.OutputStream(h.cfg.Query), h.cons)
	if !d.sink.launch(h.ctx) {
		d.close()
		return nil, errors.New("chaos: egress sink never started")
	}
	return d, nil
}

// close hard-stops whatever the deployment still runs.
func (d *deployment) close() {
	d.sink.kill()
	d.app.Stop()
	d.cluster.Close()
}

// send replays each generator's deterministic event stream and sends
// records [from, to) of it, recording each with the oracle first. The
// part after a power cut regenerates the same stream and skips the
// prefix, so the input is identical to one uninterrupted run's. Record
// i is paced to offset i × faultWindow/events, so faults land while
// input flows — except around a power cut, where the input goes out at
// once so the cut finds as much work in flight as it can.
func (h *harness) send(app *impeller.App, from, to int) {
	var wg sync.WaitGroup
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := nexmark.NewGenerator(h.cfg.Seed + uint64(g))
			for i := 0; i < to; i++ {
				et := eventBase + int64(i)*eventSpacing(h.cfg.Query)
				ev := gen.Next(et)
				if i < from {
					continue
				}
				if !h.cfg.PowerCut && !sleepUntil(h.ctx, h.t0, time.Duration(i)*faultWindow/events) {
					return
				}
				key := []byte(fmt.Sprintf("%d-%d", g, i))
				h.orc.record(key, ev.Payload)
				if app.SendVia(nexmark.EventStream, g, key, ev.Payload, et) != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// play starts the plan's fault planes and rescale schedule against d on
// wg. Infra.Play applies any outstanding recoveries when it ends, and
// the caller's Faults().Reset heals whatever is left.
func (h *harness) play(d *deployment, wg *sync.WaitGroup, res *Result) {
	faults := d.cluster.Faults()
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	spawn(func() { h.plan.Infra.Play(h.ctx, nil, faults) })
	// Egress plane: hard-kill the delivery sink at each scheduled
	// instant and immediately start a replacement, which resumes from
	// the persisted ack frontier.
	spawn(func() {
		for _, at := range h.plan.SinkKills {
			if !sleepUntil(h.ctx, h.t0, at) {
				return
			}
			d.sink.kill()
			h.cons.noteRestart()
			if !d.sink.launch(h.ctx) {
				return
			}
		}
	})
	// Process plane: each fault names its target from the live task set
	// as it fires.
	spawn(func() {
		for _, f := range h.plan.Tasks {
			if !sleepUntil(h.ctx, h.t0, f.At) {
				return
			}
			id := f.target(d.mgr.TaskIDs())
			switch f.Kind {
			case KillTask:
				_ = d.mgr.Kill(id)
			case DoubleKillTask:
				_ = d.mgr.Kill(id)
				// Three monitor ticks: enough for the replacement to
				// spawn and enter recovery before the second kill.
				spawn(func() {
					if sleepUntil(h.ctx, h.t0, f.At+3*commitInterval) {
						_ = d.mgr.Kill(id)
					}
				})
			case ZombifyTask:
				if d.mgr.Zombify(id) == nil {
					res.Zombified++
				}
			case CrashNode:
				node := core.ComputeNode(id)
				faults.Crash(node)
				spawn(func() {
					sleepUntil(h.ctx, h.t0, f.At+f.Outage)
					faults.Recover(node)
				})
			}
		}
	})
	if h.cfg.Rescale {
		spawn(func() { h.rescale(d, res) })
	}
}

// converge polls the oracle until the output converges, contradicts
// exactly-once (terminal), or wait runs out.
func (h *harness) converge(wait time.Duration) (done bool, violation string) {
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		if done, violation = h.orc.check(h.outs); done || violation != "" {
			return done, violation
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false, ""
}

// collect fills res from the consumer and from d — after a power cut,
// the recovered cluster — dumping d's state first if the run is stuck,
// then stopping its sink gracefully: drain the window, persist the last
// frontier, fold the counters of every incarnation.
func (h *harness) collect(d *deployment, res *Result) *Result {
	if !res.Converged && res.Violation == "" {
		res.Stuck = stuckDump(d.mgr, d.sink)
	}
	d.sink.finish()
	res.Delivery, res.Sink, res.SinkIncarnations = d.sink.snapshot()
	// One more collection at quiescence, so the verdict below does not
	// hang on whether a short cell spanned a GC tick.
	res.TrimHorizon, _ = d.cluster.Env().GC.Collect()
	// Trimming is on in every cell: it must never take a record from a
	// sink incarnation, and where every floor advances it must happen.
	switch {
	case res.Violation != "":
	case res.Sink.TrimmedLost > 0 || res.Sink.Invalidations > 0:
		res.Violation = fmt.Sprintf("trim outran a sink: %d records lost, %d cursor invalidations",
			res.Sink.TrimmedLost, res.Sink.Invalidations)
	case res.Converged && h.cfg.trims() && res.TrimHorizon == 0:
		res.Violation = "every floor can advance, yet the log was never trimmed"
	}
	res.Delivered, res.ConsumerDeduped, res.ConsumerAcksLost, res.RecoverToDeliver = h.cons.snapshot()

	res.Sent = d.app.InputCount()
	res.Bids = h.orc.inputs()
	for _, id := range d.mgr.TaskIDs() {
		res.Restarts += d.mgr.Restarts(id)
		if m := d.mgr.TaskMetrics(id); m != nil {
			res.MaxRecovery = max(res.MaxRecovery, time.Duration(m.RecoveryNanos.Load()))
		}
	}
	res.Retries = d.app.Metrics().Retries
	res.CondFailed = d.cluster.LogStats().CondFailed
	return res
}

// sleepUntil waits until offset at past t0 — the run's one clock
// origin — and reports whether it got there before ctx was done.
func sleepUntil(ctx context.Context, t0 time.Time, at time.Duration) bool {
	timer := time.NewTimer(time.Until(t0.Add(at)))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
