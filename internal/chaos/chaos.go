// Package chaos is a deterministic fault-injection harness: it runs a
// full NEXMark query under a seeded plan of faults and phases and
// verifies the exactly-once output invariant against an oracle replay
// of the inputs. The same (seed, config) pair always generates the same
// plan, so a failing run reproduces.
//
// One runner, Run, plays every plan. Its planes and phases:
//
//   - infrastructure faults (log-shard and sequencer-shard crashes,
//     client↔sequencer and client↔shard partitions, sequencer/shard
//     latency spikes) come from sim.GenFaultSchedule and stress the
//     log's replication, its sharded ordering plane (the log runs in
//     sequencer mode, so cuts race crashes and delays of individual
//     local sequencers), and the runtime's transient-fault retry layer;
//   - process faults (task kills, double-kills that land mid-recovery,
//     zombie resurrection via Manager.Zombify, compute-node crashes)
//     come from a second deterministic stream and stress recovery,
//     restart backoff, and fencing;
//   - egress faults (hard kills of the delivery sink mid-delivery,
//     consumer transient outages, latency spikes, and lost
//     acknowledgments) come from a third deterministic stream and
//     stress the transactional egress layer;
//   - a power cut halfway through the input, optionally corrupting the
//     WAL device, after which a second cluster recovers from the device
//     and the checkpoint store's image and finishes the run;
//   - a rescale schedule: live splits and merges of the query's primary
//     stage, each preceded by doomed rescalers killed mid-transition.
//
// Every run delivers its output through a DeliverySink to an external
// consumer whose state outlives sink incarnations and clusters, and the
// oracle verifies exactly-once at the consumer's applied set — the
// system boundary, not the commit point.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// Config parameterizes one chaos run. Query must be one of 1, 8, 11, 12
// (the queries with closed-form output oracles). Every other zero value
// means "none": no faults, no power cut, no rescale — a plain end-to-end
// run whose output the oracle still verifies.
type Config struct {
	// Query selects the NEXMark query: 1 (stateless map), 8 (two-input
	// windowed join — the only one whose tasks read several substreams
	// of different streams through one cursor), 11 (session windows),
	// or 12 (tumbling windows).
	Query int
	// Protocol selects the fault-tolerance protocol under test.
	Protocol impeller.Protocol
	// Seed fixes the plan, the generators, and the log simulation (0
	// uses 1).
	Seed uint64
	// Engine selects the task execution engine (goroutine or tasklet);
	// both must satisfy the same exactly-once oracle.
	Engine impeller.EngineMode
	// OrderingShards is the number of local sequencer shards of the
	// log's Scalog-style ordering plane, each an individual crash/delay
	// target of the infra schedule (0 uses 2).
	OrderingShards int
	// Faults sizes the fault planes played across the input window.
	Faults Faults
	// PowerCut pulls the plug on the whole cluster once the first half
	// of the input is in the log: the log is closed mid-flight, the
	// tasks die, Corruption is applied to the WAL device, and a second
	// cluster recovers from the device and the checkpoint store's image,
	// reattaches the same consumer and is sent the rest.
	PowerCut bool
	// Corruption is the storage fault applied while the power is out.
	Corruption Corruption
	// MidFlight pulls the plug as soon as the first half is durable
	// instead of waiting for it to converge: tasks die mid-computation,
	// the sink is hard-killed (no drain, no final frontier), and
	// recovery must finish the interrupted work from the log and the
	// checkpoint store alone.
	MidFlight bool
	// Rescale plays a seed-derived schedule of live rescales of the
	// query's primary stage (progress-marker protocol only).
	Rescale bool
}

// Faults counts the faults each plane injects; the zero value injects
// none.
type Faults struct {
	// Infra is the number of log-side faults, via sim.GenFaultSchedule.
	Infra int
	// Kills is the number of task kills; every third kill is a
	// double-kill whose second kill lands while the replacement is
	// recovering.
	Kills int
	// Zombies is the number of zombie resurrections. The
	// aligned-checkpoint protocol has no zombie fencing race (recovery
	// is epoch-gated by the coordinator), so its zombies are converted
	// to kills to keep the fault count.
	Zombies int
	// NodeCrashes is the number of compute-node crash/recover pairs; a
	// crashed node fails every log operation of its task, exercising the
	// fatal path of the retry layer and the manager's restart backoff.
	NodeCrashes int
	// SinkKills is the number of hard egress-sink kills. Each cancels
	// the delivery sink's context mid-delivery — no drain, no final
	// frontier — and a fresh incarnation resumes from the last persisted
	// ack frontier.
	SinkKills int
	// Consumer is the number of consumer-side fault windows: transient
	// outages, latency spikes, and lost acknowledgments, via
	// sim.GenConsumerSchedule.
	Consumer int
}

// DefaultFaults is the chaos matrix's full mix: at least 20 faults
// across the log, process and egress planes.
var DefaultFaults = Faults{Infra: 8, Kills: 8, Zombies: 4, NodeCrashes: 2, SinkKills: 2, Consumer: 10}

// The run's fixed shape. No cell varies these.
const (
	// events is the input count per generator; generators is the number
	// of ingress writers.
	events     = 600
	generators = 2
	// parallelism is the per-stage task count (a rescaled stage's
	// initial slot count); maxParallelism is a rescaled stage's
	// key-group count — the rescale ceiling.
	parallelism    = 2
	maxParallelism = 8
	// rescaleSteps is the length of a rescale schedule.
	rescaleSteps = 3
	// commitInterval is short, so faults land between many commit
	// points; orderingInterval is the log's global cut interval.
	commitInterval   = 20 * time.Millisecond
	orderingInterval = time.Millisecond
	// faultWindow is the input window: inputs are paced across it and
	// every fault and rescale step starts inside it.
	faultWindow = 1200 * time.Millisecond
	// convergeTimeout bounds the wait for the output to converge once
	// the faults heal (and, before a power cut, for the first half's).
	convergeTimeout = 30 * time.Second
	// logShards mirrors the cluster default (4 shards, replication 3).
	logShards = 4
)

// snapshots is the cell's async checkpoint interval. A clean power cut
// persists snapshots (marker protocol), so the recovery rebuilds state
// from the checkpoint store image too. A corrupting one replays the log
// alone: a truncated log must not strand a checkpoint that references
// positions beyond it. Other cells take none.
func (c Config) snapshots() time.Duration {
	if c.PowerCut && c.Corruption == CorruptNone {
		return 60 * time.Millisecond
	}
	return 0
}

// trims reports whether every floor of the cell can advance, so its log
// must have been trimmed by the end: the marker protocol, under which
// tasks report their floors (under the others they report none). A
// stateful query's change streams stay pinned, but the input consumed
// before its first change record is released.
func (c Config) trims() bool {
	return c.Protocol == impeller.ProgressMarker
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OrderingShards == 0 {
		c.OrderingShards = 2
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
	At   time.Duration
	Kind FaultKind
	// Target picks the fault's task when it fires: it indexes the live
	// task list (Manager.TaskIDs), modulo its length. The plan names a
	// draw rather than a task because a rescale changes the task set.
	Target int
	// Outage is how long a CrashNode fault lasts.
	Outage time.Duration
}

// target resolves the fault's task against the live task list.
func (f TaskFault) target(ids []impeller.TaskID) impeller.TaskID {
	return ids[f.Target%len(ids)]
}

// Plan is the full deterministic plan of one run.
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
	// Steps are the rescale schedule's committed slot counts, in order.
	Steps []int
	// Faults counts injected faults across all planes (a double-kill
	// counts twice, and so does a rescale step's pair of doomed
	// attempts; recoveries are not faults).
	Faults int
}

// planSeedSalt decouples the process-fault stream from the infra
// schedule's randomness so tuning one plane does not reshuffle the
// other; egressSeedSalt and rescaleSeedSalt likewise decouple the
// egress plane and the rescale schedule.
const (
	planSeedSalt    = 0x9e3779b97f4a7c15
	egressSeedSalt  = 0xc2b2ae3d27d4eb4f
	rescaleSeedSalt = 0xa0761d6478bd642f
)

// GenPlan deterministically generates the plan for a run: the same
// config always yields the same plan. Kills land anywhere in the window;
// zombies land in its first 70% so input keeps flowing while the zombie
// races its replacement — that race is what forces a fenced append onto
// the log.
func GenPlan(cfg Config) Plan {
	cfg = cfg.withDefaults()
	f := cfg.Faults
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
	seqShards := make([]string, cfg.OrderingShards)
	for i := range seqShards {
		seqShards[i] = fmt.Sprintf("sequencer/%d", i)
		pairs = append(pairs, [2]string{"client", seqShards[i]})
	}
	var plan Plan
	if f.Infra > 0 {
		// sim defaults Faults <= 0 back to 8, so a disabled infra plane
		// must skip generation entirely rather than ask for zero.
		plan.Infra = sim.GenFaultSchedule(cfg.Seed, sim.ScheduleConfig{
			Duration:   faultWindow,
			Crashable:  shards,
			CrashableB: seqShards,
			Pairs:      pairs,
			Slowable:   append(append([]string{"sequencer"}, shards...), seqShards...),
			Faults:     f.Infra,
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
	for i := 0; i < f.SinkKills; i++ {
		lo, hi := faultWindow/4, faultWindow*9/10
		plan.SinkKills = append(plan.SinkKills, lo+time.Duration(ern.Int63()%int64(hi-lo)))
		plan.Faults++
	}
	sort.Slice(plan.SinkKills, func(i, j int) bool { return plan.SinkKills[i] < plan.SinkKills[j] })
	if f.Consumer > 0 {
		plan.Consumer = sim.GenConsumerSchedule(cfg.Seed^egressSeedSalt, sim.ConsumerScheduleConfig{
			Duration: faultWindow,
			Faults:   f.Consumer,
		})
		plan.Faults += plan.Consumer.Faults
	}

	rng := sim.NewRand(cfg.Seed ^ planSeedSalt)
	between := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63()%int64(hi-lo))
	}
	pick := func() int { return rng.Intn(math.MaxInt32) }
	kills, zombies := f.Kills, f.Zombies
	if cfg.Protocol == impeller.AlignedCheckpoint {
		kills += zombies
		zombies = 0
	}
	for i := 0; i < kills; i++ {
		t := TaskFault{At: between(faultWindow/10, faultWindow), Kind: KillTask, Target: pick()}
		if i%3 == 0 {
			t.Kind = DoubleKillTask
			plan.Faults++ // the second kill is its own fault
		}
		plan.Tasks = append(plan.Tasks, t)
		plan.Faults++
	}
	for i := 0; i < zombies; i++ {
		plan.Tasks = append(plan.Tasks, TaskFault{
			At:     between(faultWindow/5, faultWindow*7/10),
			Kind:   ZombifyTask,
			Target: pick(),
		})
		plan.Faults++
	}
	for i := 0; i < f.NodeCrashes; i++ {
		plan.Tasks = append(plan.Tasks, TaskFault{
			At:     between(faultWindow/10, faultWindow*8/10),
			Kind:   CrashNode,
			Target: pick(),
			Outage: between(30*time.Millisecond, 150*time.Millisecond),
		})
		plan.Faults++
	}
	sort.SliceStable(plan.Tasks, func(i, j int) bool { return plan.Tasks[i].At < plan.Tasks[j].At })

	if cfg.Rescale {
		// Alternate away from the current slot count so every step is a
		// real transition.
		rrng := sim.NewRand(cfg.Seed ^ rescaleSeedSalt)
		cur := parallelism
		for i := 0; i < rescaleSteps; i++ {
			next := cur
			for next == cur {
				next = 1 + rrng.Intn(maxParallelism)
			}
			plan.Steps = append(plan.Steps, next)
			plan.Faults += len(rescalerAbortPoints)
			cur = next
		}
	}
	return plan
}

// Result is the outcome of one chaos run.
type Result struct {
	Config Config
	Plan   Plan
	// Sent counts input events accepted by the ingress writers (after a
	// power cut, the recovered cluster's); Bids is the subset the oracle
	// tracks (for Q8: the owed pairs).
	Sent uint64
	Bids int
	// Delivered is the external consumer's distinct applied count — the
	// exactly-once measurement point — across both clusters of a power
	// cut. Sink sums the gated sinks' counts across incarnations: among
	// them the replayed records suppressed by sequence-number dedup, and
	// what trim took from a lagging sink (TrimmedLost, Invalidations).
	Delivered uint64
	Sink      core.SinkCounts
	// Delivery aggregates the delivery sinks' counters (attempts,
	// redeliveries, transient errors, dead letters, frontier persists,
	// whether an incarnation resumed from a persisted frontier) across
	// incarnations; SinkIncarnations counts delivery-sink processes
	// (1 + kills). After a power cut both cover the recovered cluster's
	// sink only.
	Delivery         core.DeliveryStats
	SinkIncarnations int
	// ConsumerDeduped counts duplicate deliveries absorbed by the
	// consumer's sequence-number dedupe (sink restarts, lost acks, a
	// power cut's replay); ConsumerAcksLost counts acknowledgments the
	// fault plane dropped after the record was applied.
	ConsumerDeduped, ConsumerAcksLost uint64
	// RecoverToDeliver is the longest gap between a sink kill and the
	// replacement's first successful delivery.
	RecoverToDeliver time.Duration
	// Restarts sums task restarts; Zombified counts exactly the zombies
	// actually planted: Manager.Zombify refuses an instance that has
	// already exited, so a zombify racing a concurrent kill/restart is
	// not counted.
	Restarts, Zombified int
	// Retries / CondFailed observe the retry layer and the log's fencing
	// rejections.
	Retries, CondFailed uint64
	// MaxRecovery is the longest single task recovery.
	MaxRecovery time.Duration

	// Power cut. Phase1Converged reports the first half converged before
	// the plug was pulled. Recovery snapshots the recovered log's
	// counters (records and metadata ops replayed, WAL truncations);
	// CkptTruncated is how many bytes of checkpoint-store WAL tail the
	// recovery discarded; RecoveryTime is how long the second cluster
	// took to come up and restart the query.
	Phase1Converged bool
	Recovery        sharedlog.Stats
	CkptTruncated   int
	RecoveryTime    time.Duration

	// Rescale. Epochs are the committed assignment epochs after each
	// step; Aborted counts the doomed attempts killed mid-transition.
	Epochs  []uint64
	Aborted int

	// TrimHorizon is the (last) cluster's log trim horizon at the end.
	TrimHorizon sharedlog.LSN

	// Converged reports whether the oracle's expected output was fully
	// observed in time; Violation is non-empty if the output ever
	// contradicted exactly-once semantics (terminal), a rescale step
	// misbehaved, trim took records from a sink, or a converged cell
	// whose floors all advance never trimmed its log.
	Converged bool
	Violation string
	// Stuck, set when the run neither converged nor violated, is where
	// every task's input side and the sink stood when the wait ran out
	// (stuckDump).
	Stuck string
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

// String renders one run as a table row, with the power-cut and rescale
// columns when those phases ran (followed, for a stuck run, by the
// per-task dump).
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "q%-2d %-18s seed=%-3d faults=%-2d restarts=%-2d retries=%-4d fenced=%-2d maxrec=%-8v sinks=%d delivered=%-4d redel=%-3d dedup=%-3d rtd=%-8v horizon=%-5d",
		r.Config.Query, r.Config.Protocol, r.Config.Seed, r.Plan.Faults,
		r.Restarts, r.Retries, r.CondFailed, r.MaxRecovery.Round(100*time.Microsecond),
		r.SinkIncarnations, r.Delivered, r.Delivery.Redelivered, r.ConsumerDeduped,
		r.RecoverToDeliver.Round(100*time.Microsecond), r.TrimHorizon)
	if r.Config.PowerCut {
		fmt.Fprintf(&b, " cut=%s midflight=%v recovered=%d metaops=%d trunc=%d(%dB) ckpttrunc=%dB rec=%v resumed=%v",
			r.Config.Corruption, r.Config.MidFlight,
			r.Recovery.RecoveredRecords, r.Recovery.RecoveredMetaOps,
			r.Recovery.WALTruncations, r.Recovery.WALTruncatedBytes, r.CkptTruncated,
			r.RecoveryTime.Round(100*time.Microsecond), r.Delivery.Resumed)
	}
	if r.Config.Rescale {
		epochs := make([]string, len(r.Epochs))
		for i, e := range r.Epochs {
			epochs[i] = fmt.Sprint(e)
		}
		fmt.Fprintf(&b, " steps=%v aborted=%d epochs=%s", r.Plan.Steps, r.Aborted, strings.Join(epochs, "→"))
	}
	switch {
	case r.Violation != "":
		b.WriteString(" VIOLATION: " + r.Violation)
	case !r.Converged:
		b.WriteString(" STUCK" + r.Stuck)
	default:
		b.WriteString(" ok")
	}
	return b.String()
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
