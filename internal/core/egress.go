package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/sharedlog"
)

// Sink consumes a query's final output stream and hands each record to
// a callback.
//
// Ungated (default), it observes records at their emission from the
// output operator — the paper's latency measurement point (§5.3: "the
// interval between the record's event-time ... and its emission time
// from the output operator").
//
// Gated, it behaves like a downstream consumer: it runs the same
// commit-classification as a task and delivers only committed records —
// what exactly-once verification must count.
//
// Either way the sink deduplicates by producer sequence number.
type Sink struct {
	stream     StreamID
	partitions int
	env        *Env
	gated      bool
	tracker    commitTracker
	queue      []queuedBatch
	start      LSN

	// delivery, when set, receives every distinct record for
	// transactional handoff to an external consumer. Submission can
	// block (bounded in-flight window), which is how a consumer outage
	// propagates backpressure into the read loop instead of queueing
	// without bound.
	delivery *DeliverySink

	// safe tracks the oldest LSN the sink has not fully resolved: the
	// head of the gated queue when batches await classification,
	// otherwise the cursor position. Everything below it has been
	// delivered or discarded, so a restarted sink may begin there.
	safe atomic.Uint64

	// OnRecord, when set, observes each distinct output record along
	// with the wall-clock time it became available. r.Key and r.Value
	// are read-only views of the immutable log record: the callback may
	// keep them but must not write through them.
	OnRecord func(r Record, producer TaskID, now time.Time)

	// accepted is deliver's scratch list of the records it hands to the
	// delivery window; only the read loop touches it.
	accepted []int

	mu            sync.Mutex
	lastSeq       map[TaskID]uint64
	received      uint64
	duplicate     uint64
	dropped       uint64
	trimmedLost   uint64
	undrained     uint64
	invalidations uint64
}

// SinkCounts is a snapshot of a sink's delivery accounting.
type SinkCounts struct {
	// Received counts distinct records handed to OnRecord/delivery.
	Received uint64
	// Duplicates counts records suppressed by producer-seq dedupe.
	Duplicates uint64
	// DroppedUncommitted counts gated records discarded because their
	// batch classified uncommitted (zombie or aborted producer).
	DroppedUncommitted uint64
	// TrimmedLost counts records the sink can prove it never delivered
	// because the log trimmed past them while it lagged: after a
	// cursor invalidation, a gap in a producer's committed sequence
	// numbers is loss, not reordering (committed seqs are contiguous).
	TrimmedLost uint64
	// Undrained counts records still queued awaiting a commit decision
	// when the sink shut down, after the drain-on-cancel sweep ingested
	// every control record already durable in the log. They were
	// neither delivered nor discarded.
	Undrained uint64
	// Invalidations counts cursor invalidations (trims past the read
	// position) the sink recovered from.
	Invalidations uint64
}

// Add accumulates another snapshot (aggregation across the sink
// incarnations of a restarted delivery sink).
func (c *SinkCounts) Add(o SinkCounts) {
	c.Received += o.Received
	c.Duplicates += o.Duplicates
	c.DroppedUncommitted += o.DroppedUncommitted
	c.TrimmedLost += o.TrimmedLost
	c.Undrained += o.Undrained
	c.Invalidations += o.Invalidations
}

// NewSink builds an ungated sink over the final output stream.
func NewSink(stream StreamID, partitions int, env *Env) *Sink {
	return &Sink{stream: stream, partitions: partitions, env: env, lastSeq: make(map[TaskID]uint64)}
}

// NewGatedSink builds a sink that delivers only committed records,
// using the tracker matching env.Protocol. Gated sinks read substream 0
// semantics across all partitions: each partition tag gets its own
// marker tracker.
func NewGatedSink(stream StreamID, partitions int, env *Env) *Sink {
	s := NewSink(stream, partitions, env)
	s.gated = true
	switch env.Protocol {
	case ProtoProgressMarker:
		s.tracker = newMultiTagMarkerTracker(s.tags())
	case ProtoKafkaTxn:
		s.tracker = newTxnTracker()
	default:
		s.tracker = openTracker{}
	}
	return s
}

// SetStart positions the first read at from instead of LSN 0. A
// delivery sink resuming from a persisted ack frontier uses this so the
// restarted cursor skips the prefix that was already acknowledged.
func (s *Sink) SetStart(from LSN) { s.start = from }

func (s *Sink) tags() []sharedlog.Tag {
	tags := make([]sharedlog.Tag, s.partitions)
	for i := range tags {
		tags[i] = DataTag(s.stream, i)
	}
	return tags
}

// SafePos reports the oldest LSN not yet fully resolved by the sink
// (see the safe field). It is monotone while the sink runs.
func (s *Sink) SafePos() LSN { return LSN(s.safe.Load()) }

// Run consumes until ctx is done, streaming the partition substreams
// through one cursor (batched reads, like the task input loop).
// Transient log faults (a crashed shard, a partition) are waited out
// with backoff instead of killing the consumer — records are not lost,
// only delayed.
//
// A sink always runs on a goroutine of its own, under either engine: its
// OnRecord callback and a delivery sink's in-flight window may block,
// which a cooperative loop must never do.
//
// On cancellation Run does not abandon the queue: a bounded
// non-blocking sweep ingests whatever is already durable in the log, so
// gated batches whose commit markers landed during shutdown are
// delivered (or discarded) rather than dropped. Anything still lacking
// a commit decision after the sweep is counted in Counts().Undrained.
func (s *Sink) Run(ctx context.Context) error {
	tags := s.tags()
	tagIndex := make(map[sharedlog.Tag]int, len(tags))
	for i, t := range tags {
		tagIndex[t] = i
	}
	retry := newRetrier(s.env, "", nil)
	s.safe.Store(uint64(s.start))
	cur := s.env.Log.OpenCursor(tags, s.start)
	for {
		recs, err := cur.NextBatchBlocking(ctx, DefaultReadBatch)
		if err != nil {
			fault, _ := retry.handleReadErr(ctx, err, cur, s.env.Log)
			switch {
			case fault == readSeeked:
				s.noteInvalidation()
			case ctx.Err() != nil:
				// Whatever else the read failed with, shutdown wins.
				s.shutdownSweep(cur, tags, tagIndex)
				return ctx.Err()
			case fault == readFatal:
				return err
			}
			continue
		}
		for _, rec := range recs {
			if err := s.ingest(ctx, rec, tags, tagIndex); err != nil {
				return err
			}
		}
		if len(recs) > 0 {
			s.updateSafe(recs[len(recs)-1].LSN + 1)
		}
	}
}

// ingest decodes and routes one log record: control records observe the
// tracker and drain the queue; data records deliver (ungated) or queue
// for classification (gated).
func (s *Sink) ingest(ctx context.Context, rec *sharedlog.Record, tags []sharedlog.Tag, tagIndex map[sharedlog.Tag]int) error {
	b, err := DecodeBatch(rec.Payload)
	if err != nil {
		return err
	}
	if b.Kind.isControl() {
		if s.gated {
			if err := s.tracker.observeControl(b, rec.LSN); err != nil {
				return err
			}
			s.drain(ctx, tags)
		}
		return nil
	}
	if b.Kind != KindData && b.Kind != KindSource {
		return nil
	}
	port := 0
	for _, t := range rec.Tags {
		if i, ok := tagIndex[t]; ok {
			port = i
			break
		}
	}
	if !s.gated {
		s.deliver(ctx, port, rec.LSN, b)
		return nil
	}
	s.queue = append(s.queue, queuedBatch{lsn: rec.LSN, port: port, batch: b})
	s.drain(ctx, tags)
	return nil
}

// shutdownSweep is the drain-on-cancel path: a bounded non-blocking
// read of records already durable in the log, so commit markers that
// raced the shutdown still classify their queued batches. It then
// counts the still-unclassified remainder as undrained.
func (s *Sink) shutdownSweep(cur *sharedlog.Cursor, tags []sharedlog.Tag, tagIndex map[sharedlog.Tag]int) {
	const maxSweep = 4096
	swept := 0
	for swept < maxSweep {
		recs, err := cur.NextBatch(DefaultReadBatch)
		if err != nil {
			if errors.Is(err, sharedlog.ErrCursorInvalidated) {
				s.noteInvalidation()
				cur.Seek(s.env.Log.TrimHorizon())
				continue
			}
			break
		}
		if len(recs) == 0 {
			break
		}
		swept += len(recs)
		for _, rec := range recs {
			if err := s.ingest(context.Background(), rec, tags, tagIndex); err != nil {
				break
			}
		}
		s.updateSafe(recs[len(recs)-1].LSN + 1)
	}
	var undrained uint64
	for _, qb := range s.queue {
		undrained += uint64(len(qb.batch.Records))
	}
	s.mu.Lock()
	s.undrained = undrained
	s.mu.Unlock()
}

// updateSafe advances the resolved frontier after a batch of ingests:
// next is one past the last ingested LSN, clamped back to the gated
// queue head when batches still await classification.
func (s *Sink) updateSafe(next LSN) {
	if len(s.queue) > 0 && s.queue[0].lsn < next {
		next = s.queue[0].lsn
	}
	if uint64(next) > s.safe.Load() {
		s.safe.Store(uint64(next))
	}
}

func (s *Sink) noteInvalidation() {
	s.mu.Lock()
	s.invalidations++
	s.mu.Unlock()
}

func (s *Sink) drain(ctx context.Context, tags []sharedlog.Tag) {
	done := 0
	for done < len(s.queue) {
		head := s.queue[done]
		c := s.tracker.classify(tags[head.port], head.batch, head.lsn)
		if c == classUnknown {
			break
		}
		done++
		if c == classCommitted {
			s.deliver(ctx, head.port, head.lsn, head.batch)
		} else {
			s.mu.Lock()
			s.dropped += uint64(len(head.batch.Records))
			s.mu.Unlock()
		}
	}
	s.queue = dropFront(s.queue, done)
}

func (s *Sink) deliver(ctx context.Context, port int, lsn LSN, b *Batch) {
	now := s.env.Clock.Now()
	accepted := s.accepted[:0]
	s.mu.Lock()
	armed := s.invalidations > 0
	for i := range b.Records {
		r := &b.Records[i]
		last, seen := s.lastSeq[b.Producer]
		if seen && r.Seq <= last {
			s.duplicate++
			continue
		}
		if armed && seen && r.Seq > last+1 {
			// A committed stream carries contiguous per-producer seqs
			// (retried producers reuse them), so a gap after a trim
			// invalidation is records the trim took before delivery.
			s.trimmedLost += r.Seq - last - 1
		}
		s.lastSeq[b.Producer] = r.Seq
		s.received++
		if s.OnRecord != nil {
			s.OnRecord(*r, b.Producer, now)
		}
		if s.delivery != nil {
			accepted = append(accepted, i)
		}
	}
	s.mu.Unlock()
	// Hand accepted records to the delivery window outside s.mu:
	// submission blocks when the window is full (backpressure), and
	// Counts() must stay reachable meanwhile.
	for _, i := range accepted {
		s.delivery.submit(ctx, port, lsn, b.Producer, b.Records[i])
	}
	s.accepted = accepted
}

// Counts reports the sink's delivery accounting so far.
func (s *Sink) Counts() SinkCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SinkCounts{
		Received:           s.received,
		Duplicates:         s.duplicate,
		DroppedUncommitted: s.dropped,
		TrimmedLost:        s.trimmedLost,
		Undrained:          s.undrained,
		Invalidations:      s.invalidations,
	}
}
