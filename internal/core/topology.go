package core

import (
	"fmt"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// OutputSpec describes one output stream of a stage: where records go
// and how they are partitioned across the downstream substreams.
type OutputSpec struct {
	// Stream is the output stream name.
	Stream StreamID
	// Partitions is the downstream substream count (the consuming
	// stage's key-group count; its parallelism when it has no rescale
	// headroom).
	Partitions int
	// Broadcast sends every record to all substreams instead of
	// hash-partitioning by key (used for small dimension tables).
	Broadcast bool
}

func (o OutputSpec) substreamFor(key []byte) int {
	return Partition(key, o.Partitions)
}

// Tags returns every substream tag of this output.
func (o OutputSpec) Tags() []Tag {
	tags := make([]Tag, o.Partitions)
	for i := range tags {
		tags[i] = DataTag(o.Stream, i)
	}
	return tags
}

// Stage is one stage of a stream query: a pipelined operator chain
// executed in parallel by Parallelism tasks, each consuming one
// substream of every input stream (paper §2.1).
type Stage struct {
	// Name identifies the stage; task ids are "<query>/<stage>/<sub>".
	Name string
	// Parallelism is the initial task count. Under the progress-marker
	// protocol it can change at runtime via Manager.Rescale; Parallelism
	// then only seeds the epoch-1 assignment.
	Parallelism int
	// KeyGroups is the stage's fixed key-group count: the substream
	// count of each input stream and the unit of state migration at
	// rescale. Parallelism can be raised at runtime up to KeyGroups but
	// never beyond it. 0 defaults to Parallelism (no rescale headroom,
	// the identity group→task map).
	KeyGroups int
	// Inputs are the stream names feeding this stage. Input i arrives
	// at processor port i. All inputs must have KeyGroups substreams.
	Inputs []StreamID
	// Outputs are the stage's output streams, one per processor port.
	Outputs []OutputSpec
	// NewProcessor builds a fresh processor for a task instance.
	NewProcessor func() Processor
	// Stateful marks stages whose processors use the state store; only
	// stateful tasks write change logs and checkpoints.
	Stateful bool
	// UpstreamProducers lists the producer counts feeding each input
	// stream (the upstream stage's parallelism, or the ingress writer
	// count); barrier alignment needs to know how many producers feed
	// each substream.
	UpstreamProducers []int
}

func (s *Stage) validate() error {
	if s.Name == "" {
		return fmt.Errorf("core: stage with empty name")
	}
	if s.Parallelism <= 0 {
		return fmt.Errorf("core: stage %s: non-positive parallelism", s.Name)
	}
	if s.KeyGroups == 0 {
		s.KeyGroups = s.Parallelism
	}
	if s.KeyGroups < s.Parallelism {
		return fmt.Errorf("core: stage %s: %d key groups < parallelism %d", s.Name, s.KeyGroups, s.Parallelism)
	}
	if len(s.Inputs) == 0 {
		return fmt.Errorf("core: stage %s: no inputs", s.Name)
	}
	if len(s.Outputs) == 0 {
		return fmt.Errorf("core: stage %s: no outputs", s.Name)
	}
	if s.NewProcessor == nil {
		return fmt.Errorf("core: stage %s: nil NewProcessor", s.Name)
	}
	if len(s.UpstreamProducers) != 0 && len(s.UpstreamProducers) != len(s.Inputs) {
		return fmt.Errorf("core: stage %s: UpstreamProducers length mismatch", s.Name)
	}
	for _, o := range s.Outputs {
		if o.Partitions <= 0 {
			return fmt.Errorf("core: stage %s: output %s has no partitions", s.Name, o.Stream)
		}
	}
	return nil
}

// Query is a DAG of stages plus the configuration shared by its tasks.
type Query struct {
	// Name prefixes task ids.
	Name string
	// Stages in topological order (upstream before downstream).
	Stages []*Stage
}

// Validate checks structural well-formedness.
func (q *Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("core: query with empty name")
	}
	if len(q.Stages) == 0 {
		return fmt.Errorf("core: query %s has no stages", q.Name)
	}
	seen := make(map[string]bool)
	for _, s := range q.Stages {
		if err := s.validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("core: query %s: duplicate stage %s", q.Name, s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// FTProtocol selects the fault-tolerance protocol tasks run (paper §5.1
// evaluates all four within the same engine).
type FTProtocol int

const (
	// ProtoProgressMarker is Impeller's protocol (paper §3.3).
	ProtoProgressMarker FTProtocol = iota
	// ProtoKafkaTxn is Kafka Streams' two-phase transaction protocol
	// implemented over the shared log (paper §3.6, §5.1).
	ProtoKafkaTxn
	// ProtoAlignedCheckpoint is Flink's aligned checkpoint protocol
	// (paper §5.1).
	ProtoAlignedCheckpoint
	// ProtoUnsafe disables the commit protocol entirely (paper §5.3.4);
	// fast, but exactly-once is not guaranteed under failures.
	ProtoUnsafe
)

func (p FTProtocol) String() string {
	switch p {
	case ProtoProgressMarker:
		return "progress-marker"
	case ProtoKafkaTxn:
		return "kafka-txn"
	case ProtoAlignedCheckpoint:
		return "aligned-checkpoint"
	case ProtoUnsafe:
		return "unsafe"
	default:
		return fmt.Sprintf("proto(%d)", int(p))
	}
}

// Env is the shared runtime environment for a query's tasks.
type Env struct {
	// Log is the query's shared log instance (paper §3.1 assumes one
	// log per query).
	Log *sharedlog.Log
	// Checkpoints is the Kvrocks-like checkpoint store.
	Checkpoints *kvstore.Store
	// Clock defaults to the real clock.
	Clock sim.Clock
	// Protocol selects the fault-tolerance protocol.
	Protocol FTProtocol
	// CommitInterval is the progress-marking / transaction / checkpoint
	// interval (paper default 100 ms).
	CommitInterval time.Duration
	// SnapshotInterval is the asynchronous state checkpoint interval
	// (paper default 10 s); 0 disables checkpointing.
	SnapshotInterval time.Duration
	// CoordinatorLatency charges the synchronous coordinator RPCs of
	// the Kafka transaction protocol.
	CoordinatorLatency sim.LatencyModel
	// GC receives the floors of every reader that can fall behind; the
	// manager runs it, trimming the log behind the slowest (paper §3.5).
	// Every query on one log must share it, so NewCluster builds one per
	// cluster; left nil, the manager's env gets its own.
	GC *GCController
	// Faults, if non-nil, lets chaos experiments crash the compute
	// nodes tasks run on: a task whose node (ComputeNode(id)) is
	// crashed fails its in-flight log operations until the node
	// recovers. The shared log consults its own injector for shard and
	// sequencer faults; this one covers the compute side.
	Faults *sim.FaultInjector
	// Retry bounds the transient-fault retry loop around log
	// operations; the zero value selects the defaults.
	Retry RetryPolicy
	// Seed fixes the retry jitter stream (0 selects a fixed default).
	Seed uint64
	// Engine selects the task execution engine: goroutine-per-task (the
	// default) or the cooperative tasklet engine (one event loop per
	// core; see tasklet.go).
	Engine EngineMode
	// EngineLoops overrides the tasklet engine's worker-loop count; 0
	// selects GOMAXPROCS. Ignored on the goroutine engine.
	EngineLoops int

	// loops is the tasklet engine's loop pool, owned by the manager that
	// holds this env copy (created in Start, closed in Stop).
	loops *loopPool

	// commitOrigin is the instant every task's commit ticks are measured
	// from (commit_sched.go).
	commitOrigin time.Time

	// recoveryProbe, if set, is called at named points inside recovery
	// ("marker", "replay", "txn", "aligned") so chaos tests can crash a
	// task mid-recovery deterministically. Test-only.
	recoveryProbe func(TaskID, string)
}

// SetRecoveryProbe installs a hook called at named points inside task
// recovery; chaos tests use it to kill tasks mid-recovery. It must be
// set before the manager starts.
func (e *Env) SetRecoveryProbe(fn func(TaskID, string)) { e.recoveryProbe = fn }

// ComputeNode names the simulated compute node a task runs on, for
// fault injection against Env.Faults. Every instance of a task runs on
// the same node: crashing the node keeps killing replacements until
// the node recovers.
func ComputeNode(id TaskID) string { return "node/" + string(id) }

func (e *Env) withDefaults() *Env {
	out := *e
	if out.Clock == nil {
		out.Clock = sim.RealClock{}
	}
	if out.CommitInterval <= 0 {
		out.CommitInterval = 100 * time.Millisecond
	}
	if out.commitOrigin.IsZero() {
		out.AnchorCommitGrid()
	}
	out.Retry = out.Retry.withDefaults()
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.GC == nil && out.Log != nil {
		out.GC = NewGCController(out.Log)
	}
	return &out
}
