// Package sharedlog implements a fault-tolerant, distributed, shared log
// in the style of Boki (SOSP '21) and Scalog (NSDI '20), the substrate
// Impeller's exactly-once protocol is built on (paper §2.3, §3.1).
//
// The log provides the four features Impeller depends on:
//
//  1. a global total order over all appended records (scalable consensus
//     via the shared-log abstraction),
//  2. high-throughput appends decoupled from ordering (a Scalog-style
//     sequencer periodically orders locally persisted batches),
//  3. selective reads by string tag, backed by a per-tag index so reads
//     are not limited by physical placement,
//  4. set-of-strings tag metadata on every record — one append carrying
//     several tags appears, atomically, in several logical substreams.
//
// It additionally provides the two Boki features Impeller's zombie
// fencing uses (paper §3.4): a key-value metadata store attached to the
// log configuration, and conditional appends that succeed only while a
// metadata key still holds an expected value.
//
// Internally the log is split into two planes (Boki/Scalog separate
// ordering from storage the same way):
//
//   - The ordering plane (ordering.go) is the only writer. It is itself
//     split Scalog-style: in sequencer mode appends are routed across
//     OrderingShards local sequencer shards (own lock, own simulated
//     persist bandwidth — appends on different shards never contend),
//     and a periodic cut aggregator assigns each shard a contiguous
//     range of global LSNs under one mutex — the total order is a
//     serial decision by definition, but only the cut is serial, not
//     the appends feeding it.
//   - The committed-read plane (store.go, index.go, cursor.go,
//     read.go) is lock-free for readers: committed records live in
//     immutable segmented arrays behind an atomically published tail,
//     and the per-tag index shards its locks. There is one forward
//     reader, the Cursor, and one routine that makes records readable,
//     publishLocked; between them sits the index's visible tail, so a
//     cursor only ever merges wholly indexed publication groups.
//     Cursors, ReadPrev, Read and CountTag never take the ordering
//     mutex. Blocking cursors register per-tag waiters, so a commit
//     wakes only readers whose tags it carries — not every blocked
//     reader in the process.
//
// Records are immutable once committed: readers all share one record
// instance and must not modify it. SetAux swaps in a fresh copy rather
// than mutating in place.
//
// The deployment is simulated in-process: records are persisted on
// NumShards storage shards with a replication factor, and every append
// and read is charged a latency drawn from the configured models, so a
// produce-to-consume interaction costs what a two-RPC exchange costs on
// the paper's testbed.
package sharedlog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/sim"
	"impeller/internal/wal"
)

// LSN is a log sequence number: the position of a record in the global
// total order. LSNs start at 0 and are dense (no gaps until trimmed).
type LSN uint64

// MaxLSN is the largest representable LSN; ReadPrev(tag, MaxLSN) reads
// the current tail of a substream.
const MaxLSN = LSN(^uint64(0))

// Tag is a string tag attached to a record. The log indexes records by
// tag; a selective read names one tag. Impeller encodes substreams as
// tags, e.g. "X/2a" for (Stream X, Substream 2a) — but the log itself
// attaches no meaning to tag contents (paper §2.3: "Tag format is not
// defined by the log").
type Tag string

// Record is one entry in the shared log. Once committed a record is
// immutable and shared by every reader; callers must not modify it.
type Record struct {
	// LSN is the record's position in the global total order.
	LSN LSN
	// Tags is the set of string tags the record was appended with.
	Tags []Tag
	// Payload is the opaque record body.
	Payload []byte
	// Aux is auxiliary data attached after the append (Boki's aux-data
	// feature); Impeller annotates progress markers that carry
	// checkpoints this way.
	Aux []byte
}

// Errors returned by log operations.
var (
	// ErrCondFailed reports a conditional append whose metadata guard no
	// longer held — e.g. a zombie task whose instance number was bumped.
	ErrCondFailed = errors.New("sharedlog: conditional append guard failed")
	// ErrTrimmed reports a read at an LSN below the trim horizon.
	ErrTrimmed = errors.New("sharedlog: position trimmed")
	// ErrUnavailable reports that a quorum of the record's replicas is
	// unreachable (crashed storage shards).
	ErrUnavailable = errors.New("sharedlog: storage quorum unavailable")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("sharedlog: log closed")
)

// IsRetryable reports whether err is a transient fault a caller may
// retry: the crashed node can recover and the partition can heal, so
// the same operation can succeed later. Fatal outcomes — a fencing
// conflict (ErrCondFailed), a closed log, a trimmed position — are not
// retryable: retrying cannot change the answer.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrUnavailable) ||
		errors.Is(err, sim.ErrCrashed) ||
		errors.Is(err, sim.ErrPartitioned)
}

// Config configures a Log. The zero value is usable: one shard,
// replication 1, immediate ordering, zero latency, real clock.
type Config struct {
	// NumShards is the number of storage shards; 0 means 1.
	NumShards int
	// Replication is how many shards hold each record; 0 means 1. The
	// paper's setup replicates 3 ways.
	Replication int
	// OrderingInterval is the sequencer cut interval (Scalog-style).
	// Zero orders every append immediately.
	OrderingInterval time.Duration
	// OrderingShards is the number of local sequencer shards appends are
	// routed across in sequencer mode; 0 means 1. Ignored in immediate
	// mode (OrderingInterval == 0), which has no shard layer.
	OrderingShards int
	// AppendLatency and ReadLatency charge simulated network+storage
	// time on each operation; nil charges nothing.
	AppendLatency sim.LatencyModel
	ReadLatency   sim.LatencyModel
	// ShardAppendLatency models the local persist at an ordering shard:
	// samples are charged serially per shard (one group at a time, like
	// a local disk), concurrently across shards — the resource that
	// makes aggregate append throughput scale with OrderingShards. Only
	// charged in sequencer mode; nil charges nothing.
	ShardAppendLatency sim.LatencyModel
	// Clock defaults to the real clock.
	Clock sim.Clock
	// Faults, if non-nil, lets experiments crash shards and partition
	// clients from the sequencer. Storage shards are named "shard/<i>";
	// the cut aggregator is named "sequencer"; local sequencer shards
	// are named "sequencer/<i>" and can be crashed or delayed mid-cut
	// individually.
	Faults *sim.FaultInjector
	// WAL, if non-nil, enables the durability plane: every committed cut,
	// metadata mutation, trim horizon, and aux attachment is appended to
	// the device as a checksummed frame and synced before the append is
	// acknowledged. Recover rebuilds a log from the same device.
	WAL *wal.Device
	// WALFlushLatency charges a fixed simulated latency per cut flush
	// (fsync); nil charges nothing. WALBandwidth additionally charges
	// bytes/second for the synced frame; 0 charges nothing.
	WALFlushLatency sim.LatencyModel
	WALBandwidth    int
}

func (c Config) withDefaults() Config {
	if c.NumShards <= 0 {
		c.NumShards = 1
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.Replication > c.NumShards {
		c.Replication = c.NumShards
	}
	if c.OrderingShards <= 0 {
		c.OrderingShards = 1
	}
	if c.Clock == nil {
		c.Clock = sim.RealClock{}
	}
	return c
}

// Log is a shared log instance. Each Impeller stream query is backed by
// its own Log (paper §3.1). All methods are safe for concurrent use.
type Log struct {
	cfg Config

	// Ordering plane. mu serializes the global half — LSN assignment,
	// conditional-append guard checks, and cut publication. Reads never
	// take it. In sequencer mode pending appends live on the local
	// sequencer shards (seqShards), each behind its own lock, and only
	// the cut aggregator touches mu on their behalf.
	mu        sync.Mutex
	seqShards []*seqShard   // local ordering layer (sequencer mode only)
	rr        atomic.Uint64 // round-robin append routing across seqShards
	ordering  bool          // cut loop running

	// Committed-read plane: lock-free segmented store + sharded index.
	store *store
	index *tagIndex

	meta  *MetaStore
	stats logStats

	// publishHook, if set (tests only), runs inside publishLocked after
	// the group is in the index and before the visible tail moves.
	publishHook func()

	// Durability plane (nil unless Config.WAL is set).
	dur *durability

	closed    atomic.Bool
	closeOnce sync.Once
	done      chan struct{} // closed when the log closes; wakes waiters

	shards []*shard
}

// shard is a simulated storage node. Replica placement is deterministic
// — record lsn lives on shards (lsn+r) mod NumShards for r < Replication
// — so the shard carries only its fault-injection name.
type shard struct {
	name string
}

// Open creates a shared log with cfg.
func Open(cfg Config) *Log {
	cfg = cfg.withDefaults()
	l := &Log{
		cfg:   cfg,
		store: newStore(),
		index: newTagIndex(),
		meta:  NewMetaStore(),
		done:  make(chan struct{}),
	}
	l.shards = make([]*shard, cfg.NumShards)
	for i := range l.shards {
		l.shards[i] = &shard{name: fmt.Sprintf("shard/%d", i)}
	}
	if cfg.WAL != nil {
		l.attachWAL()
	}
	if cfg.OrderingInterval > 0 {
		l.ordering = true
		l.seqShards = make([]*seqShard, cfg.OrderingShards)
		for i := range l.seqShards {
			l.seqShards[i] = &seqShard{name: fmt.Sprintf("sequencer/%d", i)}
		}
		go l.cutLoop()
	}
	return l
}

// Close shuts the log down; in-flight appends fail with ErrClosed and
// blocked readers return ErrClosed.
func (l *Log) Close() {
	l.closeOnce.Do(func() {
		l.closed.Store(true)
		close(l.done) // stops the cut loop and wakes every blocked reader
		// Fail pending batches promptly on every ordering shard. closed
		// was set before the steals, so an append that misses a steal
		// observes closed under shard.mu and never enqueues — no batch
		// is stranded, no goroutine stays stuck in <-resp. A batch the
		// cut loop already stole still gets its real results delivered.
		for _, s := range l.seqShards {
			for _, b := range s.steal() {
				b.resp <- ErrClosed
			}
		}
	})
}

// Meta returns the log's key-value metadata store (Boki's per-log
// configuration metadata; Impeller stores task instance numbers here).
func (l *Log) Meta() *MetaStore { return l.meta }

// FenceIncrement atomically increments a metadata key with respect to
// conditional appends: once it returns, no conditional append guarded
// on the key's previous value can ever be ordered (paper §3.4:
// "Because the instance number is incremented atomically, it is
// impossible for two progress markers to be committed for the same
// outputs"). A bare Meta().Increment would leave a window where an
// in-flight conditional append has passed its guard check but not yet
// been ordered.
func (l *Log) FenceIncrement(key string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.meta.Increment(key)
}

// NumShards reports the number of storage shards.
func (l *Log) NumShards() int { return len(l.shards) }

// Tail returns the next LSN to be assigned (i.e. one past the last
// record in the global order).
func (l *Log) Tail() LSN { return l.store.committedTail() }

// TrimHorizon returns the lowest untrimmed LSN.
func (l *Log) TrimHorizon() LSN { return l.store.trimHorizon() }

// available reports whether a quorum (one live replica) of the record at
// lsn is reachable from the client: a replica is unreachable when its
// shard is crashed or the client↔shard link is partitioned. Placement
// is deterministic, so no shard state is consulted — only the fault
// injector.
func (l *Log) available(lsn LSN) bool {
	if l.cfg.Faults == nil {
		return true
	}
	n := len(l.shards)
	for r := 0; r < l.cfg.Replication; r++ {
		s := l.shards[(int(lsn)+r)%n]
		if l.cfg.Faults.Check("client", s.name) == nil {
			return true
		}
	}
	return false
}

// chargeFaultDelay sleeps for any latency spike injected at the first
// live replica serving lsn — the replica a read would actually hit.
func (l *Log) chargeFaultDelay(lsn LSN) {
	if l.cfg.Faults == nil {
		return
	}
	n := len(l.shards)
	for r := 0; r < l.cfg.Replication; r++ {
		s := l.shards[(int(lsn)+r)%n]
		if l.cfg.Faults.Check("client", s.name) == nil {
			if d := l.cfg.Faults.DelayOf(s.name); d > 0 {
				l.cfg.Clock.Sleep(d)
			}
			return
		}
	}
}
