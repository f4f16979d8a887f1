// Package impeller is a stream processing engine with exactly-once
// semantics built on a fault-tolerant, distributed, shared log — a Go
// reproduction of "Impeller: Stream Processing on Shared Logs"
// (EuroSys '25).
//
// Impeller stores every stream — application data, task logs, change
// logs — in one shared log with string-tagged records. Its progress
// marking protocol achieves exactly-once processing with a single
// atomic multi-tag append per commit interval, instead of Kafka
// Streams' two-phase transaction or Flink's aligned checkpoints (both
// of which are also implemented here, as selectable fault-tolerance
// protocols, for comparison).
//
// Quick start:
//
//	cluster := impeller.NewCluster(impeller.ClusterConfig{})
//	defer cluster.Close()
//
//	b := impeller.NewTopology("wordcount")
//	lines := b.Stream("lines")
//	lines.FlatMap(splitWords).
//		GroupBy(func(d impeller.Datum) []byte { return d.Key }).
//		Count("counts").
//		To("counts-out")
//
//	app, err := cluster.Run(b)
//	// send input, consume output...
package impeller

import (
	"time"

	"impeller/internal/core"
	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
	"impeller/internal/wal"
)

// Datum is one application record: key, value, event time (µs). A
// processor's input Key and Value are read-only views of the log.
type Datum = core.Datum

// Record is one record as stored in (and read back from) the log. Read
// back, its Key and Value are read-only views of the immutable log.
type Record = core.Record

// TaskID identifies a task.
type TaskID = core.TaskID

// StreamID names a stream.
type StreamID = core.StreamID

// WindowSpec configures a tumbling or sliding event-time window.
type WindowSpec = core.WindowSpec

// WindowEmit selects windowed-aggregate emission mode.
type WindowEmit = core.WindowEmit

// Window emission modes.
const (
	EmitPerUpdate = core.EmitPerUpdate
	EmitFinal     = core.EmitFinal
)

// Aggregator folds a record into an accumulator.
type Aggregator = core.Aggregator

// TableAggregator folds table updates with retraction.
type TableAggregator = core.TableAggregator

// Joiner combines left and right values.
type Joiner = core.Joiner

// SessionMerger combines the accumulators of two sessions bridged by a
// late record.
type SessionMerger = core.SessionMerger

// Processor is the low-level operator interface — the analogue of Kafka
// Streams' Processor API — for stage logic the DSL does not cover. Use
// it with Grouped.Apply / Grouped.ApplyWith.
type Processor = core.Processor

// ProcContext is the environment passed to a Processor.
type ProcContext = core.ProcContext

// EmitFunc forwards records out of a Processor.
type EmitFunc = core.Emit

// StateStore is a task's fault-tolerant state (change-logged or
// snapshotted per the cluster's protocol).
type StateStore = core.StateStore

// ProcessorFunc adapts a function to Processor (stateless custom logic
// through the Processor API).
type ProcessorFunc = core.ProcessorFunc

// Protocol selects the fault-tolerance protocol (paper §5.1).
type Protocol = core.FTProtocol

// EngineMode selects the task execution engine.
type EngineMode = core.EngineMode

// The two execution engines.
const (
	// EngineGoroutine runs one goroutine per task (the default).
	EngineGoroutine = core.EngineGoroutine
	// EngineTasklet runs tasks as cooperative tasklets on a fixed pool
	// of per-core event loops (tail-latency oriented).
	EngineTasklet = core.EngineTasklet
)

// ParseEngineMode parses "goroutine" or "tasklet" (empty selects
// goroutine), as accepted by impeller-bench -engine.
func ParseEngineMode(s string) (EngineMode, error) { return core.ParseEngineMode(s) }

// The four protocols the paper evaluates.
const (
	// ProgressMarker is Impeller's protocol (paper §3).
	ProgressMarker = core.ProtoProgressMarker
	// KafkaTxn is Kafka Streams' transaction protocol implemented in
	// Impeller (paper §3.6, §5.1).
	KafkaTxn = core.ProtoKafkaTxn
	// AlignedCheckpoint is Flink's aligned checkpoint protocol (§5.1).
	AlignedCheckpoint = core.ProtoAlignedCheckpoint
	// Unsafe disables the exactly-once protocol (paper §5.3.4).
	Unsafe = core.ProtoUnsafe
)

// Consumer is the external system a transactional egress sink feeds;
// see App.NewDeliverySink.
type Consumer = core.Consumer

// Delivery is one record handed to a Consumer, carrying its
// exactly-once identity (Partition, Producer, Seq). It is valid only
// during Deliver; copy it to keep it.
type Delivery = core.Delivery

// DeliveryOptions tunes a transactional egress sink (in-flight window,
// dead-letter policy, frontier persistence interval).
type DeliveryOptions = core.DeliveryOptions

// DeliveryStats snapshots an egress sink's delivery counters.
type DeliveryStats = core.DeliveryStats

// Assignment is one epoch's key-group→task-slot map for a stage; see
// App.Rescale and Stream.MaxParallelism.
type Assignment = core.Assignment

// Rescaler executes an elastic split/merge of a stage's task slots at a
// marker boundary. App.Rescale wraps it; construct one directly (with
// Manager()) to install transition hooks.
type Rescaler = core.Rescaler

// PermanentError marks a consumer error as non-retryable: after
// DeliveryOptions.PermanentAttempts such failures the record routes to
// the dead-letter substream. Unmarked errors are retried forever.
func PermanentError(err error) error { return core.PermanentError(err) }

// WindowKey prefixes a key with window bounds; windowed aggregates emit
// records keyed this way.
func WindowKey(start, end int64, key []byte) []byte { return core.WindowKey(start, end, key) }

// SplitWindowKey parses a windowed key.
func SplitWindowKey(k []byte) (start, end int64, key []byte, err error) {
	return core.SplitWindowKey(k)
}

// ClusterConfig sizes and configures an in-process Impeller cluster.
// The zero value is a small, zero-latency test cluster running the
// progress-marker protocol.
type ClusterConfig struct {
	// Protocol selects the fault-tolerance protocol.
	Protocol Protocol
	// CommitInterval is the progress-marking / transaction / checkpoint
	// interval (paper default 100 ms; 0 uses 100 ms).
	CommitInterval time.Duration
	// SnapshotInterval is the asynchronous state-checkpoint interval
	// (paper default 10 s; 0 disables checkpointing).
	SnapshotInterval time.Duration
	// DefaultParallelism is the task count for stages that do not set
	// their own (0 means 1).
	DefaultParallelism int
	// IngressWriters is the number of concurrent input generators per
	// source stream (the paper runs 4; 0 means 1).
	IngressWriters int
	// IngressFlushInterval batches input appends (paper: 10–100 ms;
	// 0 uses 10 ms).
	IngressFlushInterval time.Duration
	// LogShards and Replication size the shared log (paper: 4 storage
	// nodes, replication 3). Zero values mean 4 and 3.
	LogShards   int
	Replication int
	// OrderingInterval switches the log to Scalog-style sequencer
	// ordering: appends wait for the next global cut instead of being
	// ordered immediately. 0 keeps immediate ordering (the default for
	// tests; benchmarks and chaos runs set it to exercise the cut path).
	OrderingInterval time.Duration
	// OrderingShards is the number of local sequencer shards appends are
	// routed across in sequencer mode (0 means 1). Each shard is an
	// independent fault-injection target ("sequencer/<i>") and, under
	// SimulateLatency, has its own serial local-persist bandwidth — so
	// aggregate append throughput scales with the shard count.
	OrderingShards int
	// SimulateLatency charges calibrated network/storage latencies on
	// log and coordinator operations (required for benchmarks; tests
	// leave it off to run instantly).
	SimulateLatency bool
	// LatencyScale scales all simulated latencies (1.0 if zero).
	LatencyScale float64
	// Seed makes the simulation deterministic (0 uses 1).
	Seed uint64
	// Engine selects the task execution engine: EngineGoroutine (one
	// goroutine per task, the default) or EngineTasklet (cooperative
	// tasklets on per-core event loops).
	Engine EngineMode
	// EngineLoops overrides the tasklet engine's worker-loop count; 0
	// selects GOMAXPROCS. Ignored on the goroutine engine.
	EngineLoops int
	// WAL, if non-nil, makes the shared log durable: committed cuts are
	// persisted to the device and acknowledged only once synced. Pass a
	// device holding a previous run's bytes to recover the log from it
	// (a whole-cluster restart after power failure); pass a fresh
	// wal.NewDevice() for a durable-from-empty cluster.
	WAL *wal.Device
	// CheckpointWAL, if non-nil, rebuilds the checkpoint store from a
	// previous run's kvstore WAL (Checkpoints().WAL()). A corrupt tail
	// is truncated at the last valid entry; mid-log corruption panics —
	// it means checkpoint history was destroyed, which no restart can
	// paper over.
	CheckpointWAL []byte
}

// Cluster is an in-process Impeller deployment: a shared log, a
// checkpoint store, and the runtime environment queries execute in.
type Cluster struct {
	cfg    ClusterConfig
	log    *sharedlog.Log
	ckpt   *kvstore.Store
	env    *core.Env
	rand   *sim.Rand
	faults *sim.FaultInjector
}

// NewCluster builds a cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.DefaultParallelism <= 0 {
		cfg.DefaultParallelism = 1
	}
	if cfg.IngressWriters <= 0 {
		cfg.IngressWriters = 1
	}
	if cfg.IngressFlushInterval <= 0 {
		cfg.IngressFlushInterval = 10 * time.Millisecond
	}
	if cfg.LogShards <= 0 {
		cfg.LogShards = 4
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.LatencyScale == 0 {
		cfg.LatencyScale = 1
	}
	r := sim.NewRand(cfg.Seed)
	faults := sim.NewFaultInjector()

	logCfg := sharedlog.Config{
		NumShards:        cfg.LogShards,
		Replication:      cfg.Replication,
		OrderingInterval: cfg.OrderingInterval,
		OrderingShards:   cfg.OrderingShards,
		Faults:           faults,
		WAL:              cfg.WAL,
	}
	var coordLat sim.LatencyModel
	// Under simulated latency checkpoint-store writes charge a
	// synchronous WAL flush (the paper's Kvrocks configuration).
	kvCfg := kvstore.Config{SyncWrites: cfg.SimulateLatency}
	if cfg.SimulateLatency {
		scale := func(m sim.LatencyModel) sim.LatencyModel {
			if cfg.LatencyScale == 1 {
				return m
			}
			return sim.Scale{M: m, F: cfg.LatencyScale}
		}
		logCfg.AppendLatency = scale(sim.DefaultBokiLatency(r.Fork()))
		logCfg.ReadLatency = scale(sim.DefaultBokiLatency(r.Fork()))
		if cfg.OrderingInterval > 0 {
			logCfg.ShardAppendLatency = scale(sim.DefaultLocalPersistLatency(r.Fork()))
		}
		coordLat = scale(sim.DefaultKafkaLatency(r.Fork()))
		if cfg.WAL != nil {
			logCfg.WALFlushLatency = scale(sim.DefaultLocalPersistLatency(r.Fork()))
			logCfg.WALBandwidth = sharedlog.DefaultWALBandwidth
		}
	}

	var log *sharedlog.Log
	if cfg.WAL != nil {
		// Recover replays whatever the device holds (an empty device
		// yields a fresh durable log) and truncates a corrupt tail; it
		// only errors without a device, which cannot happen here.
		var err error
		log, err = sharedlog.Recover(logCfg)
		if err != nil {
			panic("impeller: " + err.Error())
		}
	} else {
		log = sharedlog.Open(logCfg)
	}
	var ckpt *kvstore.Store
	if cfg.CheckpointWAL != nil {
		var err error
		ckpt, err = kvstore.Recover(kvCfg, cfg.CheckpointWAL)
		if err != nil {
			// Mid-log corruption: committed checkpoint history was
			// destroyed. No restart can mask that — fail loudly.
			panic("impeller: " + err.Error())
		}
	} else {
		ckpt = kvstore.Open(kvCfg)
	}

	c := &Cluster{
		cfg:    cfg,
		log:    log,
		ckpt:   ckpt,
		rand:   r,
		faults: faults,
	}
	c.env = &core.Env{
		Log:                c.log,
		Checkpoints:        c.ckpt,
		Protocol:           cfg.Protocol,
		CommitInterval:     cfg.CommitInterval,
		SnapshotInterval:   cfg.SnapshotInterval,
		CoordinatorLatency: coordLat,
		Faults:             faults,
		Seed:               cfg.Seed,
		Engine:             cfg.Engine,
		EngineLoops:        cfg.EngineLoops,
		// Trimming is the default (paper §3.5): the log is trimmed
		// behind the slowest reader's floor, over every app on it.
		GC: core.NewGCController(c.log),
	}
	c.env.AnchorCommitGrid()
	return c
}

// Env exposes the underlying runtime environment (benchmarks and tests
// reach through it for metrics and fault injection).
func (c *Cluster) Env() *core.Env { return c.env }

// Log exposes the cluster's shared log.
func (c *Cluster) Log() *sharedlog.Log { return c.log }

// LogStats snapshots the shared log's observability counters (appends,
// point reads, cursor fetches and prefetch hits, sequencer cuts, reader
// wakeups); the benchmark harness records them with every measured
// point.
func (c *Cluster) LogStats() sharedlog.Stats { return c.log.Stats() }

// Checkpoints exposes the checkpoint store.
func (c *Cluster) Checkpoints() *kvstore.Store { return c.ckpt }

// Faults exposes the cluster's fault injector: crash storage shards
// ("shard/<i>") or individual sequencer shards ("sequencer/<i>", in
// ordering mode), partition clients from the sequencer ("sequencer") or
// a shard, crash a task's compute node (core.ComputeNode(id)), or
// inject latency spikes — the chaos harness drives seeded schedules of
// all of these against the log's replication, ordering, and retry paths.
func (c *Cluster) Faults() *sim.FaultInjector { return c.faults }

// Close shuts the cluster down. Running apps must be stopped first.
func (c *Cluster) Close() {
	c.log.Close()
	c.ckpt.Close()
}
