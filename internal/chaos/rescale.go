package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/sim"
)

// Rescale chaos cell: a NEXMark oracle query runs under a schedule of
// live rescales — splits and merges of the stateful stage's slot count
// on the live log — while the rescaler itself is repeatedly killed
// mid-transition. Before every committed step, doomed Rescaler attempts
// abort at each protocol point (after the epoch-(E+1) assignment keys
// are written; after the old slots are fenced and handoff floors
// published), leaving fenced instances, inert next-epoch keys, and
// stale handoff floors behind for the committed attempt — and for
// recovery — to tolerate. Task kills ride along so slot restarts land
// between (and inside) transitions. The oracle then verifies the same
// exactly-once output invariant as the main harness.
type RescaleConfig struct {
	// Query selects the NEXMark query: 1, 11, or 12 (the queries with
	// closed-form output oracles; default 12 — stateful, so rescales
	// migrate window state between slots).
	Query int
	// Seed fixes the step targets, abort points, and kill schedule.
	Seed uint64
	// Events is the input count per generator (default 600).
	Events int
	// Parallelism is the stage's initial slot count (default 2).
	Parallelism int
	// MaxParallelism is the stage's key-group count — the rescale
	// ceiling (default 8).
	MaxParallelism int
	// Generators is the number of ingress writers (default 2).
	Generators int
	// CommitInterval is the progress-marker interval (default 20 ms).
	CommitInterval time.Duration
	// Steps are the committed slot counts applied in order across the
	// run (default derived from the seed: 3 steps alternating
	// scale-up/scale-down within 1..MaxParallelism).
	Steps []int
	// NoAborts skips the doomed mid-transition attempts (default off:
	// every committed step is preceded by one abort at each point).
	NoAborts bool
	// Kills is the number of task kills riding along (default 3;
	// negative disables).
	Kills int
	// Duration is the input window; steps are spread across it
	// (default 1.2 s). Timeout bounds convergence (default 30 s).
	Duration time.Duration
	Timeout  time.Duration
	// Engine selects the task execution engine; both must pass.
	Engine impeller.EngineMode
}

func (c RescaleConfig) withDefaults() RescaleConfig {
	if c.Query == 0 {
		c.Query = 12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Events <= 0 {
		c.Events = 600
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 2
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = 8
	}
	if c.Generators <= 0 {
		c.Generators = 2
	}
	if c.CommitInterval <= 0 {
		c.CommitInterval = 20 * time.Millisecond
	}
	if c.Kills == 0 {
		c.Kills = 3
	}
	if c.Duration <= 0 {
		c.Duration = 1200 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if len(c.Steps) == 0 {
		// Alternate away from the current slot count so every step is a
		// real transition; the derivation is deterministic in the seed.
		rng := sim.NewRand(c.Seed ^ 0xa076_1d64_78bd_642f)
		cur := c.Parallelism
		for i := 0; i < 3; i++ {
			next := cur
			for next == cur {
				next = 1 + rng.Intn(c.MaxParallelism)
			}
			c.Steps = append(c.Steps, next)
			cur = next
		}
	}
	return c
}

// RescaleResult is the outcome of one rescale chaos run.
type RescaleResult struct {
	Config RescaleConfig
	// Epochs are the committed assignment epochs after each step.
	Epochs []uint64
	// Aborted counts rescaler attempts killed mid-transition; Steps
	// counts committed transitions.
	Aborted, Steps int
	// Sent / Delivered are input events and the consumer's distinct
	// applied count; ConsumerDeduped counts redeliveries absorbed.
	Sent, Delivered, ConsumerDeduped uint64
	// Restarts sums task restarts (fenced instances exiting with
	// ErrZombie count here once the monitor replaces them); CondFailed
	// counts fencing rejections observed by the log — zero means no
	// zombie was ever fenced and the cell proved nothing.
	Restarts   int
	CondFailed uint64
	// Converged / Violation mirror the main harness's oracle verdict.
	Converged bool
	Violation string
	// Stuck is the per-task dump of a run that neither converged nor
	// violated (stuckDump).
	Stuck   string
	Elapsed time.Duration
}

// String renders one run as a table row (followed, for a stuck run, by
// the per-task dump).
func (r *RescaleResult) String() string {
	status := "ok"
	if r.Violation != "" {
		status = "VIOLATION: " + r.Violation
	} else if !r.Converged {
		status = "STUCK" + r.Stuck
	}
	epochs := make([]string, len(r.Epochs))
	for i, e := range r.Epochs {
		epochs[i] = fmt.Sprint(e)
	}
	return fmt.Sprintf("q%-2d seed=%-3d steps=%d aborted=%d epochs=%s restarts=%-2d fenced=%-3d dedup=%-3d %s",
		r.Config.Query, r.Config.Seed, r.Steps, r.Aborted, strings.Join(epochs, "→"),
		r.Restarts, r.CondFailed, r.ConsumerDeduped, status)
}

// errAbortRescale is returned by the doomed attempts' hook: the
// rescaler "dies" at that point and the transition never commits.
var errAbortRescale = errors.New("chaos: rescaler killed mid-transition")

// rescalerAbortPoints are the hook points a doomed attempt dies at, in
// protocol order.
var rescalerAbortPoints = []string{"assignment-written", "fenced"}

// RunRescale executes one rescale chaos run.
func RunRescale(cfg RescaleConfig) (*RescaleResult, error) {
	cfg = cfg.withDefaults()
	orc, err := newOracle(cfg.Query)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	cluster := impeller.NewCluster(impeller.ClusterConfig{
		Protocol:             impeller.ProgressMarker,
		CommitInterval:       cfg.CommitInterval,
		DefaultParallelism:   cfg.Parallelism,
		IngressWriters:       cfg.Generators,
		IngressFlushInterval: 5 * time.Millisecond,
		Seed:                 cfg.Seed,
		Engine:               cfg.Engine,
	})
	defer cluster.Close()
	topo, err := nexmark.BuildOpts(cfg.Query, nexmark.Options{
		PerUpdateWindows: true,
		MaxParallelism:   cfg.MaxParallelism,
	})
	if err != nil {
		return nil, err
	}
	app, err := cluster.Run(topo)
	if err != nil {
		return nil, err
	}
	defer app.Stop()
	mgr := app.Manager()
	mgr.SetTimeouts(6*cfg.CommitInterval, cfg.CommitInterval)
	stage := nexmark.RescaleStage(cfg.Query)
	res := &RescaleResult{Config: cfg}

	// Egress: same exactly-once measurement point as the main harness —
	// the external consumer's applied set behind a delivery sink.
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outs := newOutputs(cfg.Query)
	cons := newEgressConsumer(outs)
	runner := newEgressRunner(app, nexmark.OutputStream(cfg.Query), cons, core.DeliveryOptions{})
	if !runner.launch(runCtx) {
		return nil, fmt.Errorf("chaos: egress sink never started")
	}

	var wg sync.WaitGroup
	spacing := eventSpacing(cfg.Query)
	pace := cfg.Duration / time.Duration(cfg.Events)
	for g := 0; g < cfg.Generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := nexmark.NewGenerator(cfg.Seed + uint64(g))
			for i := 0; i < cfg.Events; i++ {
				et := eventBase + int64(i)*spacing
				ev := gen.Next(et)
				key := []byte(fmt.Sprintf("%d-%d", g, i))
				orc.record(key, ev.Payload)
				if err := app.SendVia(nexmark.EventStream, g, key, ev.Payload, et); err != nil {
					return
				}
				select {
				case <-runCtx.Done():
					return
				case <-time.After(pace):
				}
			}
		}(g)
	}

	// Kill plane: each kill targets a random live task (sampled at kill
	// time — the task set changes across epochs).
	krng := sim.NewRand(cfg.Seed ^ planSeedSalt)
	for i := 0; i < max(0, cfg.Kills); i++ {
		at := cfg.Duration/10 + time.Duration(krng.Int63()%int64(cfg.Duration*9/10))
		wg.Add(1)
		go func(at time.Duration) {
			defer wg.Done()
			select {
			case <-runCtx.Done():
				return
			case <-time.After(at):
			}
			if ids := mgr.TaskIDs(); len(ids) > 0 {
				_ = mgr.Kill(ids[int(at)%len(ids)])
			}
		}(at)
	}

	// Rescale plane, on the caller's goroutine: steps spread across the
	// input window, each preceded (unless NoAborts) by one doomed
	// attempt per protocol point. An aborted attempt must leave the
	// epoch unmoved; the monitor restarts its fenced instances under the
	// old assignment and processing resumes before the committed step.
	t0 := time.Now()
	interval := cfg.Duration / time.Duration(len(cfg.Steps)+1)
	for i, slots := range cfg.Steps {
		if wait := time.Duration(i+1)*interval - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		before := mgr.AssignmentEpoch(stage)
		if !cfg.NoAborts {
			for _, point := range rescalerAbortPoints {
				doomed := &core.Rescaler{M: mgr, Hook: func(p string) error {
					if p == point {
						return errAbortRescale
					}
					return nil
				}}
				if _, err := doomed.Rescale(runCtx, stage, slots); !errors.Is(err, errAbortRescale) {
					res.Violation = fmt.Sprintf("doomed attempt at %q returned %v", point, err)
				}
				res.Aborted++
				if e := mgr.AssignmentEpoch(stage); e != before {
					res.Violation = fmt.Sprintf("aborted attempt at %q moved the epoch %d→%d", point, before, e)
				}
			}
		}
		epoch, err := mgr.Rescale(runCtx, stage, slots)
		if err != nil {
			res.Violation = fmt.Sprintf("step %d (to %d slots): %v", i, slots, err)
			break
		}
		if epoch != before+1 {
			res.Violation = fmt.Sprintf("step %d committed epoch %d, want %d", i, epoch, before+1)
			break
		}
		res.Epochs = append(res.Epochs, epoch)
		res.Steps++
	}

	wg.Wait()

	deadline := start.Add(cfg.Timeout)
	for res.Violation == "" {
		done, violation := orc.check(outs)
		if violation != "" {
			res.Violation = violation
			break
		}
		if done {
			res.Converged = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !res.Converged && res.Violation == "" {
		res.Stuck = stuckDump(mgr, runner)
	}

	runner.finish()
	res.Delivered, res.ConsumerDeduped, _ = cons.snapshot()
	res.Sent = app.InputCount()
	for _, id := range mgr.TaskIDs() {
		res.Restarts += mgr.Restarts(id)
	}
	res.CondFailed = cluster.LogStats().CondFailed
	res.Elapsed = time.Since(start)
	return res, nil
}
