// Package chaos is a deterministic fault-injection harness: it runs a
// full NEXMark query under a seeded schedule of crashes, partitions,
// latency spikes, task kills, and zombie resurrections, and verifies
// the exactly-once output invariant against an oracle replay of the
// inputs. The same (seed, config) pair always generates the same fault
// plan, so a failing run reproduces.
//
// The harness exercises both fault planes:
//
//   - infrastructure faults (log-shard and sequencer-shard crashes,
//     client↔sequencer and client↔shard partitions, sequencer/shard
//     latency spikes) come from sim.GenFaultSchedule and stress the
//     log's replication, its sharded ordering plane (the log runs in
//     sequencer mode here, so cuts race crashes and delays of
//     individual local sequencers), and the runtime's transient-fault
//     retry layer;
//   - process faults (task kills, double-kills that land mid-recovery,
//     zombie resurrection via Manager.Zombify, compute-node crashes)
//     come from a second deterministic stream and stress recovery,
//     restart backoff, and fencing;
//   - egress faults (hard kills of the delivery sink mid-delivery,
//     consumer transient outages, latency spikes, and lost
//     acknowledgments) come from a third deterministic stream and
//     stress the transactional egress layer: every run delivers its
//     output through a DeliverySink to an external consumer, the
//     killed sink's replacement resumes from the persisted ack
//     frontier, and the oracle verifies exactly-once at the consumer's
//     applied set — the system boundary, not the commit point.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/sim"
)

// Config parameterizes one chaos run. The zero value is not runnable;
// Query must be one of 1, 8, 11, 12 (the queries with closed-form
// output oracles).
type Config struct {
	// Query selects the NEXMark query: 1 (stateless map), 8 (two-input
	// windowed join — the only one whose tasks read several substreams
	// of different streams through one cursor), 11 (session windows),
	// or 12 (tumbling windows).
	Query int
	// Protocol selects the fault-tolerance protocol under test.
	Protocol impeller.Protocol
	// Seed fixes the fault plan, the generators, and the log simulation
	// (0 uses 1).
	Seed uint64
	// Events is the input count per generator (default 600).
	Events int
	// Parallelism is the per-stage task count (default 2).
	Parallelism int
	// Generators is the number of ingress writers (default 2).
	Generators int
	// CommitInterval is the protocol's commit interval (default 20 ms —
	// short, so faults land between many commit points).
	CommitInterval time.Duration
	// InfraFaults is the number of log-side faults to schedule via
	// sim.GenFaultSchedule (default 8).
	InfraFaults int
	// Kills is the number of task kills (default 8); every third kill
	// is a double-kill whose second kill lands while the replacement is
	// recovering.
	Kills int
	// Zombies is the number of zombie resurrections (default 4). The
	// aligned-checkpoint protocol has no zombie fencing race (recovery
	// is epoch-gated by the coordinator), so its zombies are converted
	// to kills to keep the fault count.
	Zombies int
	// NodeCrashes is the number of compute-node crash/recover pairs
	// (default 2); a crashed node fails every log operation of its
	// task, exercising the fatal path of the retry layer and the
	// manager's restart backoff.
	NodeCrashes int
	// OrderingShards runs the log in Scalog-style sequencer mode with
	// that many local sequencer shards, each an individual crash/delay
	// target of the infra schedule (default 2; negative runs immediate
	// ordering, the pre-split configuration). OrderingInterval is the
	// global cut interval (default 1 ms).
	OrderingShards   int
	OrderingInterval time.Duration
	// SinkKills is the number of hard egress-sink kills (default 2;
	// negative disables). Each kill cancels the delivery sink's context
	// mid-delivery — no drain, no final frontier — and a fresh
	// incarnation resumes from the last persisted ack frontier.
	SinkKills int
	// ConsumerFaults is the number of consumer-side fault windows
	// (default 10; negative disables): transient-error outages, latency
	// spikes, and lost acknowledgments, via sim.GenConsumerSchedule.
	ConsumerFaults int
	// Duration is the fault window; inputs are paced across it and
	// every fault starts inside it (default 1.2 s).
	Duration time.Duration
	// Timeout bounds how long the run may take to converge after the
	// faults heal (default 30 s).
	Timeout time.Duration
	// Engine selects the task execution engine (goroutine or tasklet);
	// both must satisfy the same exactly-once oracle.
	Engine impeller.EngineMode
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Events <= 0 {
		c.Events = 600
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 2
	}
	if c.Generators <= 0 {
		c.Generators = 2
	}
	if c.CommitInterval <= 0 {
		c.CommitInterval = 20 * time.Millisecond
	}
	// Negative fault counts disable that plane (fault-free runs for
	// engine-equivalence checks); zero selects the default. Negatives
	// survive defaulting — withDefaults is applied both by Run and by
	// GenPlan, so mapping them to zero here would resurrect the default
	// on the second pass — and are clamped to zero at the use sites.
	if c.InfraFaults == 0 {
		c.InfraFaults = 8
	}
	if c.Kills == 0 {
		c.Kills = 8
	}
	if c.Zombies == 0 {
		c.Zombies = 4
	}
	if c.NodeCrashes == 0 {
		c.NodeCrashes = 2
	}
	if c.OrderingShards < 0 {
		c.OrderingInterval = 0 // immediate ordering, no shard layer
	} else {
		if c.OrderingShards == 0 {
			c.OrderingShards = 2
		}
		if c.OrderingInterval <= 0 {
			c.OrderingInterval = time.Millisecond
		}
	}
	if c.SinkKills == 0 {
		c.SinkKills = 2
	}
	if c.ConsumerFaults == 0 {
		c.ConsumerFaults = 10
	}
	if c.Duration <= 0 {
		c.Duration = 1200 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// FaultKind is the kind of one scheduled process fault.
type FaultKind int

const (
	// KillTask crashes a task once; the manager restarts it.
	KillTask FaultKind = iota
	// DoubleKillTask crashes a task, then crashes its replacement a
	// few monitor ticks later — usually mid-recovery.
	DoubleKillTask
	// ZombifyTask keeps the old instance running while the manager
	// starts a replacement; the zombie's next conditional append must
	// lose to the replacement's fence.
	ZombifyTask
	// CrashNode crashes the task's compute node for Outage: every log
	// operation of that task fails fatally until the node recovers.
	CrashNode
)

func (k FaultKind) String() string {
	switch k {
	case KillTask:
		return "kill"
	case DoubleKillTask:
		return "double-kill"
	case ZombifyTask:
		return "zombify"
	case CrashNode:
		return "node-crash"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// TaskFault is one scheduled process fault at offset At from the start
// of the run.
type TaskFault struct {
	At     time.Duration
	Kind   FaultKind
	Target impeller.TaskID
	// Outage is how long a CrashNode fault lasts.
	Outage time.Duration
}

// Plan is the full deterministic fault plan of one run.
type Plan struct {
	// Infra is the log-side schedule (shard crashes, partitions,
	// latency spikes), played by sim.FaultSchedule.Play.
	Infra sim.FaultSchedule
	// Tasks are the process faults, sorted by At.
	Tasks []TaskFault
	// SinkKills are the offsets at which the egress delivery sink is
	// hard-killed, sorted ascending.
	SinkKills []time.Duration
	// Consumer is the consumer-side fault schedule.
	Consumer sim.ConsumerSchedule
	// Faults counts injected faults across all planes (a double-kill
	// counts twice; recoveries are not faults).
	Faults int
}

// logShards mirrors the cluster default (4 shards, replication 3).
const logShards = 3 + 1

// planSeedSalt decouples the process-fault stream from the infra
// schedule's randomness so tuning one plane does not reshuffle the
// other.
const planSeedSalt = 0x9e3779b97f4a7c15

// egressSeedSalt likewise decouples the egress plane (sink kills and
// consumer faults) from the other two.
const egressSeedSalt = 0xc2b2ae3d27d4eb4f

// GenPlan deterministically generates the fault plan for a run over
// the given task set. The same (cfg, targets) always yields the same
// plan. Kills land anywhere in the window; zombies land in its first
// 70% so input keeps flowing while the zombie races its replacement —
// that race is what forces a fenced append onto the log.
func GenPlan(cfg Config, targets []impeller.TaskID) Plan {
	cfg = cfg.withDefaults()
	shards := make([]string, logShards)
	pairs := [][2]string{{"client", "sequencer"}}
	for i := range shards {
		shards[i] = fmt.Sprintf("shard/%d", i)
		pairs = append(pairs, [2]string{"client", shards[i]})
	}
	// Sequencer shards are their own crash class: crashing one stalls
	// its local pending until recovery (and fails fresh appends routed
	// to it), without ever drawing down the storage quorum's outage
	// budget. They are also slowable — a slow local sequencer stalls the
	// global cut — and partitionable from clients.
	seqShards := make([]string, max(0, cfg.OrderingShards))
	for i := range seqShards {
		seqShards[i] = fmt.Sprintf("sequencer/%d", i)
		pairs = append(pairs, [2]string{"client", seqShards[i]})
	}
	var plan Plan
	if cfg.InfraFaults > 0 {
		// sim defaults Faults <= 0 back to 8, so a disabled infra plane
		// must skip generation entirely rather than ask for zero.
		plan.Infra = sim.GenFaultSchedule(cfg.Seed, sim.ScheduleConfig{
			Duration:   cfg.Duration,
			Crashable:  shards,
			CrashableB: seqShards,
			Pairs:      pairs,
			Slowable:   append(append([]string{"sequencer"}, shards...), seqShards...),
			Faults:     cfg.InfraFaults,
			// Replication 3 over 4 shards: two concurrent shard crashes
			// still leave every LSN with a live replica.
			MaxDown: 2,
			// One sequencer shard down at a time: the cut keeps advancing
			// on the others while the crashed shard's pending waits.
			MaxDownB: 1,
		})
	}
	plan.Faults = plan.Infra.Faults

	// Egress plane: sink kills land in the middle stretch of the window
	// — late enough that acks have been persisted (so resume is a real
	// mid-stream restart), early enough that input still flows while the
	// replacement catches up. Consumer fault windows cover the whole run.
	ern := sim.NewRand(cfg.Seed ^ egressSeedSalt)
	for i := 0; i < max(0, cfg.SinkKills); i++ {
		lo, hi := cfg.Duration/4, cfg.Duration*9/10
		plan.SinkKills = append(plan.SinkKills, lo+time.Duration(ern.Int63()%int64(hi-lo)))
		plan.Faults++
	}
	sort.Slice(plan.SinkKills, func(i, j int) bool { return plan.SinkKills[i] < plan.SinkKills[j] })
	if cfg.ConsumerFaults > 0 {
		plan.Consumer = sim.GenConsumerSchedule(cfg.Seed^egressSeedSalt, sim.ConsumerScheduleConfig{
			Duration: cfg.Duration,
			Faults:   cfg.ConsumerFaults,
		})
		plan.Faults += plan.Consumer.Faults
	}

	sorted := append([]impeller.TaskID(nil), targets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) == 0 {
		return plan
	}
	rng := sim.NewRand(cfg.Seed ^ planSeedSalt)
	between := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63()%int64(hi-lo))
	}
	pick := func() impeller.TaskID { return sorted[rng.Intn(len(sorted))] }

	kills, zombies := max(0, cfg.Kills), max(0, cfg.Zombies)
	if cfg.Protocol == impeller.AlignedCheckpoint {
		kills += zombies
		zombies = 0
	}
	for i := 0; i < kills; i++ {
		f := TaskFault{At: between(cfg.Duration/10, cfg.Duration), Kind: KillTask, Target: pick()}
		if i%3 == 0 {
			f.Kind = DoubleKillTask
			plan.Faults++ // the second kill is its own fault
		}
		plan.Tasks = append(plan.Tasks, f)
		plan.Faults++
	}
	for i := 0; i < zombies; i++ {
		plan.Tasks = append(plan.Tasks, TaskFault{
			At:     between(cfg.Duration/5, cfg.Duration*7/10),
			Kind:   ZombifyTask,
			Target: pick(),
		})
		plan.Faults++
	}
	for i := 0; i < max(0, cfg.NodeCrashes); i++ {
		plan.Tasks = append(plan.Tasks, TaskFault{
			At:     between(cfg.Duration/10, cfg.Duration*8/10),
			Kind:   CrashNode,
			Target: pick(),
			Outage: between(30*time.Millisecond, 150*time.Millisecond),
		})
		plan.Faults++
	}
	sort.SliceStable(plan.Tasks, func(i, j int) bool { return plan.Tasks[i].At < plan.Tasks[j].At })
	return plan
}

// Result is the outcome of one chaos run.
type Result struct {
	Config Config
	Plan   Plan
	// Sent counts input events accepted by the ingress writers; Bids is
	// the subset the oracle tracks.
	Sent uint64
	Bids int
	// Delivered is the external consumer's distinct applied count — the
	// exactly-once measurement point. Duplicates / DroppedUncommitted
	// are the gated sinks' counters summed across incarnations: replayed
	// records suppressed by sequence-number dedup and uncommitted
	// records discarded.
	Delivered, Duplicates, DroppedUncommitted uint64
	// Delivery aggregates the delivery sinks' counters (attempts,
	// redeliveries, transient errors, dead letters, frontier persists)
	// across incarnations; SinkIncarnations counts delivery-sink
	// processes (1 + kills).
	Delivery         core.DeliveryStats
	SinkIncarnations int
	// ConsumerDeduped counts duplicate deliveries absorbed by the
	// consumer's sequence-number dedupe (sink restarts, lost acks);
	// ConsumerAcksLost counts acknowledgments the fault plane dropped
	// after the record was applied.
	ConsumerDeduped, ConsumerAcksLost uint64
	// RecoverToDeliver is the longest gap between a sink kill and the
	// replacement's first successful delivery.
	RecoverToDeliver time.Duration
	// Restarts sums task restarts; Zombified counts exactly the zombies
	// actually planted: Manager.Zombify refuses an instance that has
	// already exited, so a zombify racing a concurrent kill/restart is
	// reported as an error and not counted.
	Restarts, Zombified int
	// Retries / CondFailed / DecodeFailures observe the retry layer,
	// the log's fencing rejections, and corrupt-checkpoint fallbacks.
	Retries, CondFailed, DecodeFailures uint64
	// MaxRecovery is the longest single task recovery.
	MaxRecovery time.Duration
	// Converged reports whether the oracle's expected output was fully
	// observed before Timeout; Violation is non-empty if the output
	// ever contradicted exactly-once semantics (terminal).
	Converged bool
	Violation string
	// Stuck, set when the run neither converged nor violated, is where
	// every task's input side stood at the timeout (stuckDump).
	Stuck   string
	Elapsed time.Duration
}

// stuckDump renders, one line per task, where each task's input side
// stood at its last commit opportunity: cursor, unknown-state queue
// length, the queue head (producer, LSN, classification) and the last
// marker LSN — then the egress sink's position — enough to see which
// producer's commit a stuck run is waiting for.
func stuckDump(mgr *core.Manager, sink *egressRunner) string {
	var b strings.Builder
	for _, id := range mgr.TaskIDs() {
		fmt.Fprintf(&b, "\n  %-14s restarts=%d", id, mgr.Restarts(id))
		m := mgr.TaskMetrics(id)
		if m == nil {
			continue
		}
		if p := m.Progress.Load(); p != nil {
			fmt.Fprintf(&b, " %s", p)
		} else {
			b.WriteString(" never reached a commit tick")
		}
		fmt.Fprintf(&b, " processed=%d markers=%d dropped(dup/uncommitted/floor)=%d/%d/%d",
			m.Processed.Load(), m.Markers.Load(),
			m.DroppedDuplicate.Load(), m.DroppedUncommitted.Load(), m.DroppedBelowFloor.Load())
	}
	b.WriteString("\n  " + sink.describe())
	return b.String()
}

// String renders one run as a table row (followed, for a stuck run, by
// the per-task dump).
func (r *Result) String() string {
	status := "ok"
	if r.Violation != "" {
		status = "VIOLATION: " + r.Violation
	} else if !r.Converged {
		status = "STUCK" + r.Stuck
	}
	return fmt.Sprintf("q%-2d %-18s seed=%-3d faults=%-2d restarts=%-2d retries=%-4d fenced=%-2d maxrec=%-8v sinks=%d redel=%-3d dedup=%-3d rtd=%-8v %s",
		r.Config.Query, r.Config.Protocol, r.Config.Seed, r.Plan.Faults,
		r.Restarts, r.Retries, r.CondFailed, r.MaxRecovery.Round(100*time.Microsecond),
		r.SinkIncarnations, r.Delivery.Redelivered, r.ConsumerDeduped,
		r.RecoverToDeliver.Round(100*time.Microsecond), status)
}

// eventSpacing returns the synthetic event-time step for a query,
// chosen so the run exercises that query's window semantics: Q11's
// span stays far inside one session gap (one session per bidder, so
// the oracle's expected count is closed-form, and far inside Q8's join
// window, so every auction owes a pair with each record of its seller),
// Q12's span crosses a tumbling-window boundary.
func eventSpacing(query int) int64 {
	if query == 12 {
		return 25_000 // 25 ms × 600 events ≈ 15 s: crosses the 10 s window
	}
	return 1_000 // 1 ms × 600 events ≈ 0.6 s: well inside Q11's 10 s gap
}

// eventBase offsets synthetic event times so no tumbling window start
// precedes time zero (negative window starts are dropped).
const eventBase int64 = 1_000_000 // 1 s in µs

// Run executes one chaos run: build the query, pace the input across
// the fault window while both fault planes play their schedules, heal
// everything, and poll the oracle until the output converges or the
// invariant breaks.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	orc, err := newOracle(cfg.Query)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	cluster := impeller.NewCluster(impeller.ClusterConfig{
		Protocol:             cfg.Protocol,
		CommitInterval:       cfg.CommitInterval,
		DefaultParallelism:   cfg.Parallelism,
		IngressWriters:       cfg.Generators,
		IngressFlushInterval: 5 * time.Millisecond,
		LogShards:            logShards,
		OrderingInterval:     cfg.OrderingInterval,
		OrderingShards:       max(0, cfg.OrderingShards),
		Seed:                 cfg.Seed,
		Engine:               cfg.Engine,
	})
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
	mgr := app.Manager()
	// Short failure detection: a 20 ms commit interval pairs with fast
	// heartbeats so kills are detected within a few commit points.
	mgr.SetTimeouts(6*cfg.CommitInterval, cfg.CommitInterval)

	plan := GenPlan(cfg, mgr.TaskIDs())
	res := &Result{Config: cfg, Plan: plan}

	// Egress: output flows through a transactional delivery sink to an
	// external consumer whose state (and dedupe floors) outlives sink
	// incarnations; the oracle watches the consumer's applied set. The
	// consumer itself is wrapped in the plan's fault schedule.
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outs := newOutputs(cfg.Query)
	cons := newEgressConsumer(outs)
	faulty := newFaultyConsumer(cons, plan.Consumer)
	runner := newEgressRunner(app, nexmark.OutputStream(cfg.Query), faulty, core.DeliveryOptions{})
	if !runner.launch(runCtx) {
		return nil, fmt.Errorf("chaos: egress sink never started")
	}

	// Input: each generator paces Events records across the fault
	// window with deterministic synthetic event times; the oracle
	// records every event before it is sent.
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

	// Fault planes. Play applies any outstanding recoveries when its
	// context is cancelled, and Reset below heals whatever is left
	// (e.g. node crashes whose recovery timer has not fired).
	faults := cluster.Faults()
	playCtx, stopPlay := context.WithCancel(runCtx)
	wg.Add(1)
	go func() {
		defer wg.Done()
		plan.Infra.Play(playCtx, nil, faults)
	}()
	// Egress fault plane: hard-kill the delivery sink at each scheduled
	// instant and immediately start a replacement, which resumes from
	// the persisted ack frontier.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for _, at := range plan.SinkKills {
			if wait := at - time.Since(t0); wait > 0 {
				select {
				case <-runCtx.Done():
					return
				case <-time.After(wait):
				}
			}
			runner.kill()
			cons.noteRestart()
			if !runner.launch(runCtx) {
				return
			}
		}
	}()
	var zombified int64
	var zmu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for _, f := range plan.Tasks {
			if wait := f.At - time.Since(t0); wait > 0 {
				select {
				case <-runCtx.Done():
					return
				case <-time.After(wait):
				}
			}
			switch f.Kind {
			case KillTask:
				_ = mgr.Kill(f.Target)
			case DoubleKillTask:
				_ = mgr.Kill(f.Target)
				wg.Add(1)
				go func(id impeller.TaskID) {
					defer wg.Done()
					// Three monitor ticks: enough for the replacement to
					// spawn and enter recovery before the second kill.
					select {
					case <-runCtx.Done():
					case <-time.After(3 * cfg.CommitInterval):
						_ = mgr.Kill(id)
					}
				}(f.Target)
			case ZombifyTask:
				if mgr.Zombify(f.Target) == nil {
					zmu.Lock()
					zombified++
					zmu.Unlock()
				}
			case CrashNode:
				node := core.ComputeNode(core.TaskID(f.Target))
				faults.Crash(node)
				wg.Add(1)
				go func(outage time.Duration) {
					defer wg.Done()
					select {
					case <-runCtx.Done():
					case <-time.After(outage):
					}
					faults.Recover(node)
				}(f.Outage)
			}
		}
	}()

	// Wait for the senders and both fault planes, then heal the world:
	// from here on the run must converge on its own.
	wg.Wait()
	stopPlay()
	faults.Reset()

	deadline := start.Add(cfg.Timeout)
	for {
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

	// Graceful final stop: drain the window, persist the last frontier,
	// then collect the egress counters aggregated across incarnations.
	runner.finish()
	stats, counts, incarnations := runner.snapshot()
	res.Delivery = stats
	res.SinkIncarnations = incarnations
	res.Duplicates, res.DroppedUncommitted = counts.Duplicates, counts.DroppedUncommitted
	res.Delivered, res.ConsumerDeduped, res.RecoverToDeliver = cons.snapshot()
	_, _, res.ConsumerAcksLost = faulty.injected()

	res.Sent = app.InputCount()
	res.Bids = orc.inputs()
	res.Zombified = int(zombified)
	for _, id := range mgr.TaskIDs() {
		res.Restarts += mgr.Restarts(id)
		if m := mgr.TaskMetrics(id); m != nil {
			if d := time.Duration(m.RecoveryNanos.Load()); d > res.MaxRecovery {
				res.MaxRecovery = d
			}
		}
	}
	qm := app.Metrics()
	res.Retries = qm.Retries
	res.DecodeFailures = qm.CheckpointDecodeFailures
	res.CondFailed = cluster.LogStats().CondFailed
	res.Elapsed = time.Since(start)
	return res, nil
}
