// Package core implements the Impeller stream processing engine
// (paper §3–§4): stages of tasks exchanging records through a shared
// log, with exactly-once semantics provided by the progress-marking
// protocol — plus the three baseline fault-tolerance protocols the
// paper evaluates against it (Kafka Streams transactions, Flink-style
// aligned checkpoints, and an unsafe variant with no protocol).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"impeller/internal/sharedlog"
	"impeller/internal/wire"
)

// TaskID identifies a task: a unit of execution processing one
// substream of a stage's input (paper Table 1). By convention ids look
// like "q5/stage1/0". Task ids are stable across restarts; the instance
// number distinguishes incarnations.
type TaskID string

// StreamID names a stream: a named sequence of records flowing between
// two consecutive stages (paper Table 1).
type StreamID string

// LSN aliases the shared log's sequence number for brevity within core.
type LSN = sharedlog.LSN

// Tag aliases the shared log's tag type.
type Tag = sharedlog.Tag

// Kind discriminates the record types Impeller stores in the shared log.
type Kind byte

const (
	// KindSource is input data materialized by the ingress gateway.
	// Source records are committed the moment they are appended: the
	// log itself is the canonical input (paper §3.2 steps ②-③).
	KindSource Kind = iota + 1
	// KindData is task-produced data. Under a gating protocol it is
	// uncommitted until a control record covers it.
	KindData
	// KindMarker is an Impeller progress marker (paper §3.3).
	KindMarker
	// KindTxnCommit is a Kafka-style transaction commit marker appended
	// per output substream during phase two of the transaction protocol
	// (paper §3.6).
	KindTxnCommit
	// KindTxnAbort marks a transaction's records as discarded.
	KindTxnAbort
	// KindTxnLog is a coordinator transaction-stream record (begin,
	// add-partitions, prepare-commit, commit); consumers never read
	// these, but they cost real appends, which is the point of §3.6.
	KindTxnLog
	// KindTxnOffsets is the per-task LSN-stream record committing the
	// task's input position within a transaction (paper §3.6).
	KindTxnOffsets
	// KindBarrier is a Flink-style aligned-checkpoint barrier flowing
	// through data streams (paper §5.1, "Aligned checkpoint" baseline).
	KindBarrier
	// KindChange is a batch of state-change records in a task's change
	// log substream (paper §3.2, "Supporting fault tolerance").
	KindChange
	// KindEgressFrontier is a delivery sink's persisted ack frontier:
	// the resume LSN plus the highest consumer-acknowledged sequence
	// number per (partition, producer). A restarted sink reads the
	// latest one from its egress-offsets substream and resumes there
	// instead of re-reading (and re-delivering) from zero.
	KindEgressFrontier
	// KindDeadLetter wraps an output record that exhausted its
	// permanent-error delivery attempts; it is appended to the sink's
	// dead-letter substream so the pipeline drains instead of wedging.
	KindDeadLetter

	kindMax = KindDeadLetter
)

func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindData:
		return "data"
	case KindMarker:
		return "marker"
	case KindTxnCommit:
		return "txn-commit"
	case KindTxnAbort:
		return "txn-abort"
	case KindTxnLog:
		return "txn-log"
	case KindTxnOffsets:
		return "txn-offsets"
	case KindBarrier:
		return "barrier"
	case KindChange:
		return "change"
	case KindEgressFrontier:
		return "egress-frontier"
	case KindDeadLetter:
		return "dead-letter"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// isControl reports whether records of this kind resolve the commit
// status of data records (and are therefore observed, not queued).
func (k Kind) isControl() bool {
	switch k {
	case KindMarker, KindTxnCommit, KindTxnAbort, KindBarrier:
		return true
	}
	return false
}

// Record is one application record inside a batch.
type Record struct {
	// Seq is the producer's per-record monotonically increasing
	// sequence number, used to suppress duplicate appends (paper §3.5,
	// "Duplicate appends to a single substream").
	Seq uint64
	// EventTime is the application event time in microseconds since the
	// Unix epoch; end-to-end latency is measured against it (paper §5.3).
	EventTime int64
	// Key and Value carry the application payload. In a record read from
	// the log (DecodeBatch) they are read-only views of the immutable log
	// record: never write through them; copy them to keep a mutable
	// version. Appending to one is safe — its capacity ends at its
	// length, so append reallocates.
	Key, Value []byte
}

// Batch is the payload of every shared-log record Impeller appends:
// engine metadata (paper Figure 3 — producer task id etc.) followed by
// either a control payload or a batch of application records. Both
// Impeller and Kafka Streams batch appends through an in-memory output
// buffer (paper §5.3), so the log-record granularity is the batch.
//
// A decoded batch is a view: its Control and every record's Key and
// Value alias the buffer it was decoded from, which for log records is
// the log's immutable payload, shared by every reader.
type Batch struct {
	// Kind discriminates data batches from control records.
	Kind Kind
	// Producer is the task (or ingress writer) that appended the batch.
	Producer TaskID
	// Instance is the producer's instance number; restarted tasks get a
	// higher instance so consumers can detect zombies (paper §3.4).
	Instance uint64
	// Epoch is the commit epoch: the transaction number under the Kafka
	// protocol, or the checkpoint number for barriers. Zero means
	// non-transactional.
	Epoch uint64
	// Control is the control payload (e.g. an encoded ProgressMarker);
	// empty for data batches.
	Control []byte
	// Records are the application records of a data or change batch.
	Records []Record
}

// ErrBadEncoding reports a malformed batch or marker payload.
var ErrBadEncoding = errors.New("core: bad record encoding")

// EncodedSize returns the exact length Encode/AppendTo produce, so
// callers sizing flush thresholds or pre-growing buffers need no trial
// encoding.
func (b *Batch) EncodedSize() int {
	size := 1 + 8 + 8 + 2 + len(b.Producer) + 4 + len(b.Control) + 4
	for i := range b.Records {
		size += 8 + 8 + 4 + len(b.Records[i].Key) + 4 + len(b.Records[i].Value)
	}
	return size
}

// Encode serializes the batch.
//
// wire format:
//
//	kind(1) | instance(8) | epoch(8) | producerLen(2) producer
//	| controlLen(4) control | count(4)
//	| per record: seq(8) eventTime(8) keyLen(4) key valueLen(4) value
func (b *Batch) Encode() []byte {
	return b.AppendTo(make([]byte, 0, b.EncodedSize()))
}

// AppendTo appends the batch's encoding to buf and returns the extended
// slice. This is the allocation-free entry point of the hot path: with
// a pooled buffer (internal/wire) whose backing array has warmed up to
// the working batch size, encoding allocates nothing.
func (b *Batch) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(b.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, b.Instance)
	buf = binary.LittleEndian.AppendUint64(buf, b.Epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.Producer)))
	buf = append(buf, b.Producer...)
	buf = wire.AppendBytes32(buf, b.Control)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Records)))
	for i := range b.Records {
		r := &b.Records[i]
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.EventTime))
		buf = wire.AppendBytes32(buf, r.Key)
		buf = wire.AppendBytes32(buf, r.Value)
	}
	return buf
}

// DecodeBatch parses a batch previously produced by Encode. It copies no
// payload bytes: Control, Key and Value are read-only views of buf, each
// capped at its own length, so buf must stay unmodified while the batch
// is in use — which log records (immutable once committed) always are.
// A batch costs two allocations, the Batch and its Records, whatever
// its record count; the producer id is interned (internProducer).
func DecodeBatch(buf []byte) (*Batch, error) {
	if len(buf) < 1+8+8+2 {
		return nil, ErrBadEncoding
	}
	b := &Batch{}
	b.Kind = Kind(buf[0])
	if b.Kind < KindSource || b.Kind > kindMax {
		return nil, ErrBadEncoding
	}
	p := 1
	b.Instance = binary.LittleEndian.Uint64(buf[p:])
	p += 8
	b.Epoch = binary.LittleEndian.Uint64(buf[p:])
	p += 8
	plen := int(binary.LittleEndian.Uint16(buf[p:]))
	p += 2
	if p+plen > len(buf) {
		return nil, ErrBadEncoding
	}
	b.Producer = internProducer(buf[p : p+plen])
	p += plen
	var err error
	b.Control, p, err = readBytes32(buf, p)
	if err != nil {
		return nil, err
	}
	if p+4 > len(buf) {
		return nil, ErrBadEncoding
	}
	count := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	// Every record takes at least 24 bytes (seq, event time, two length
	// prefixes): reject a corrupt count before allocating for it.
	if count > (len(buf)-p)/24 {
		return nil, ErrBadEncoding
	}
	if count > 0 {
		b.Records = make([]Record, count)
	}
	for i := 0; i < count; i++ {
		r := &b.Records[i]
		if p+16 > len(buf) {
			return nil, ErrBadEncoding
		}
		r.Seq = binary.LittleEndian.Uint64(buf[p:])
		r.EventTime = int64(binary.LittleEndian.Uint64(buf[p+8:]))
		p += 16
		r.Key, p, err = readBytes32(buf, p)
		if err != nil {
			return nil, err
		}
		r.Value, p, err = readBytes32(buf, p)
		if err != nil {
			return nil, err
		}
	}
	if p != len(buf) {
		return nil, ErrBadEncoding
	}
	return b, nil
}

// readBytes32 reads a length-prefixed field as a view of buf. The full
// slice expression caps the view at its own length, so an append on it
// reallocates instead of overwriting the next field.
func readBytes32(buf []byte, p int) ([]byte, int, error) {
	if p+4 > len(buf) {
		return nil, 0, ErrBadEncoding
	}
	n := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	if n < 0 || p+n > len(buf) {
		return nil, 0, ErrBadEncoding
	}
	if n == 0 {
		return nil, p, nil
	}
	return buf[p : p+n : p+n], p + n, nil
}

// maxInternedProducers bounds the intern table: a log carries a few
// distinct producers (task ids, ingress writers, delivery sinks), so
// only corrupt or adversarial input ever reaches the bound, and past it
// a producer id is simply allocated per batch.
const maxInternedProducers = 4096

var (
	// producerNames maps producer ids to one shared string each. It is
	// copy-on-write: readers do one atomic load and a map index with
	// string(b), which the compiler performs without allocating.
	producerNames atomic.Pointer[map[string]TaskID]
	producerMu    sync.Mutex // serializes writers of producerNames
)

// internProducer returns the producer id spelled by b without
// allocating once that id has been seen. Unlike the payload views, the
// id becomes a map key all over the runtime (trackers, dedup floors,
// ack frontiers), so it must neither alias nor pin a log record.
func internProducer(b []byte) TaskID {
	if m := producerNames.Load(); m != nil {
		if id, ok := (*m)[string(b)]; ok {
			return id
		}
	}
	id := TaskID(b)
	producerMu.Lock()
	defer producerMu.Unlock()
	old := producerNames.Load()
	if old != nil && len(*old) >= maxInternedProducers {
		return id
	}
	next := make(map[string]TaskID)
	if old != nil {
		maps.Copy(next, *old)
	}
	next[string(id)] = id
	producerNames.Store(&next)
	return id
}
