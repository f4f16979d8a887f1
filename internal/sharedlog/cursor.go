package sharedlog

import (
	"context"
	"errors"
	"sync/atomic"
)

// Streaming reads over the committed-read plane. A Cursor is the only
// forward reader of the log and the read-side dual of AppendBatch:
// where group commit pays one append round trip per group, a cursor
// pays one index lookup per tag, one fault check, and one read-latency
// charge per *batch* of records instead of per record. Tasks, sinks and
// recovery replay all consume the log through cursors; a point read of
// "the next record" is a cursor batch of one.
//
// Concurrency contract: a Cursor is owned by one consumer goroutine.
// Opening many cursors concurrently (even over the same tags) is safe —
// all shared state they touch (index shards, store, counters) is
// concurrency-safe — but a single Cursor's methods must not be called
// concurrently.

// ErrCursorInvalidated reports that Trim advanced past the cursor's
// position: the next record the cursor would return was garbage-
// collected, so the stream has a hole and the consumer must re-seek
// (typically to TrimHorizon, whose prefix is covered by a checkpoint).
// The error is sticky until Seek. A cursor never skips a trimmed gap
// silently: a streaming consumer that missed records must find out.
var ErrCursorInvalidated = errors.New("sharedlog: cursor invalidated by trim")

// DefaultCursorPrefetch is the readahead bound (records buffered beyond
// the batch being served) when CursorOptions.Prefetch is 0.
const DefaultCursorPrefetch = 256

// CursorStats counts one consumer's cursor activity. All fields are
// atomic so a cursor owned by a task goroutine can share the struct
// with a metrics scraper. The log additionally folds every cursor's
// activity into Log.Stats().
type CursorStats struct {
	// Opens counts OpenCursor calls routing into this struct.
	Opens atomic.Uint64
	// BatchReads counts fetches against the log — the round trips a
	// deployment would pay. Each successful fetch charges read latency
	// once, however many records it returns.
	BatchReads atomic.Uint64
	// Records counts records returned to the consumer.
	Records atomic.Uint64
	// PrefetchHits counts records served from the readahead buffer;
	// PrefetchMisses counts records served straight from the fetch that
	// retrieved them. Hits + Misses = Records.
	PrefetchHits   atomic.Uint64
	PrefetchMisses atomic.Uint64
	// Invalidations counts trims that passed the cursor position.
	Invalidations atomic.Uint64
}

// CursorOptions tunes OpenCursor.
type CursorOptions struct {
	// Prefetch bounds the readahead buffer: a fetch may retrieve up to
	// max+Prefetch records, the surplus served from memory by later
	// NextBatch calls. 0 means DefaultCursorPrefetch; negative disables
	// readahead (every batch is a fetch — Table 2's one-record exchange
	// uses this with max=1).
	Prefetch int
	// Stats, if non-nil, additionally receives this cursor's counters
	// (e.g. a task's TaskMetrics). Log.Stats() is updated regardless.
	Stats *CursorStats
}

// Cursor is a streaming reader over one or more tag substreams, merged
// in global LSN order. See the package comment in this file for the
// ownership contract.
type Cursor struct {
	log      *Log
	tags     []Tag
	pos      LSN // next LSN to fetch from the log
	prefetch int
	stats    *CursorStats // consumer's sink; may be nil
	invalid  bool

	// buf holds fetched records; buf[head:] is the unserved readahead.
	// NextBatch returns subslices of buf, valid until the next fetch.
	buf  []*Record
	head int

	// Reused fetch scratch: per-tag candidate LSNs, the merge cursor
	// into each list, and the merged batch. The merge walks tagPos
	// instead of re-slicing perTag so each list keeps its full backing
	// capacity across fetches (the warm path allocates nothing).
	perTag [][]LSN
	tagPos []int
	merged []LSN
}

// OpenCursor opens a streaming reader over tags starting at from, with
// default options. The tag slice is copied.
func (l *Log) OpenCursor(tags []Tag, from LSN) *Cursor {
	return l.OpenCursorOpts(tags, from, CursorOptions{})
}

// OpenCursorOpts opens a streaming reader with explicit options.
func (l *Log) OpenCursorOpts(tags []Tag, from LSN, opts CursorOptions) *Cursor {
	prefetch := opts.Prefetch
	switch {
	case prefetch == 0:
		prefetch = DefaultCursorPrefetch
	case prefetch < 0:
		prefetch = 0
	}
	c := &Cursor{
		log:      l,
		tags:     append([]Tag(nil), tags...),
		pos:      from,
		prefetch: prefetch,
		stats:    opts.Stats,
		perTag:   make([][]LSN, len(tags)),
		tagPos:   make([]int, len(tags)),
	}
	l.stats.cursorOpens.Add(1)
	if c.stats != nil {
		c.stats.Opens.Add(1)
	}
	return c
}

// Pos returns the next LSN the cursor will fetch. Records still in the
// readahead buffer sit below Pos; it is a fetch position, not a
// consumption position.
func (c *Cursor) Pos() LSN { return c.pos }

// Buffered reports how many prefetched records are waiting in memory.
func (c *Cursor) Buffered() int { return len(c.buf) - c.head }

// Seek repositions the cursor to from, dropping the readahead buffer
// and clearing any invalidation. The typical recovery from
// ErrCursorInvalidated is Seek(log.TrimHorizon()).
func (c *Cursor) Seek(from LSN) {
	c.pos = from
	c.buf = c.buf[:0]
	c.head = 0
	c.invalid = false
}

// NextBatch returns up to max records in global LSN order, or nil when
// the cursor is at the committed tail. The returned slice is a view
// into the cursor's internal buffer: it is valid only until the next
// call that fetches (and must not be modified), which is what keeps the
// warm path allocation-free. Records themselves are shared and
// immutable, so callers may retain them.
//
// A batch is served either entirely from the readahead buffer or from
// one fetch; one fetch charges read latency once and performs one
// index lookup and one fault check for the whole batch.
func (c *Cursor) NextBatch(max int) ([]*Record, error) {
	if max <= 0 {
		max = 1
	}
	if c.invalid {
		return nil, ErrCursorInvalidated
	}
	if c.head >= len(c.buf) {
		if err := c.fetch(max); err != nil {
			return nil, err
		}
		if len(c.buf) == 0 {
			return nil, nil // at tail
		}
		return c.serve(max, false), nil
	}
	return c.serve(max, true), nil
}

// serve hands out the next run of buffered records.
func (c *Cursor) serve(max int, fromPrefetch bool) []*Record {
	n := len(c.buf) - c.head
	if n > max {
		n = max
	}
	out := c.buf[c.head : c.head+n]
	c.head += n
	l := c.log
	l.stats.cursorRecords.Add(uint64(n))
	if fromPrefetch {
		l.stats.cursorPrefetchHits.Add(uint64(n))
	} else {
		l.stats.cursorPrefetchMisses.Add(uint64(n))
	}
	if c.stats != nil {
		c.stats.Records.Add(uint64(n))
		if fromPrefetch {
			c.stats.PrefetchHits.Add(uint64(n))
		} else {
			c.stats.PrefetchMisses.Add(uint64(n))
		}
	}
	return out
}

// fetch refills the buffer with up to max+prefetch records starting at
// c.pos. On return either the buffer holds >= 1 record, or the buffer
// is empty and the cursor is at the committed tail, or an error is
// returned. The whole fetch is one simulated round trip: one read-
// latency charge and one fault check against the replica set serving
// the range.
func (c *Cursor) fetch(max int) error {
	l := c.log
	if l.closed.Load() {
		return ErrClosed
	}
	if c.pos < l.store.trimHorizon() {
		return c.invalidate()
	}
	want := max + c.prefetch
	// The visible tail is loaded once, before the first lookup: the
	// per-tag lookups are not atomic with each other, so without the
	// clamp a group being inserted right now could show its higher LSN
	// under one tag and not yet its lower LSN under another, and pos
	// would jump past the lower one for good. Below the tail every group
	// is wholly indexed, so the merged prefix is closed.
	visible := LSN(l.index.visible.Load())
	// One index lookup per tag per fetch (each takes its shard's read
	// lock once), then a k-way merge in LSN order. A record carrying
	// several watched tags appears in several candidate lists; the merge
	// dedupes equal LSNs so it is returned once.
	for i, tag := range c.tags {
		c.perTag[i] = l.index.nextN(tag, c.pos, visible, c.perTag[i][:0], want)
		c.tagPos[i] = 0
	}
	c.merged = c.merged[:0]
	for len(c.merged) < want {
		best := MaxLSN
		found := false
		for i, lsns := range c.perTag {
			if p := c.tagPos[i]; p < len(lsns) && lsns[p] < best {
				best = lsns[p]
				found = true
			}
		}
		if !found {
			break
		}
		c.merged = append(c.merged, best)
		for i, lsns := range c.perTag {
			if p := c.tagPos[i]; p < len(lsns) && lsns[p] == best {
				c.tagPos[i] = p + 1
			}
		}
	}
	c.buf = c.buf[:0]
	c.head = 0
	if len(c.merged) == 0 {
		return nil // at tail (pos >= horizon was checked above)
	}
	// Fault model: the batch is one round trip, so availability is
	// checked per record but the batch truncates at the first
	// unavailable record instead of failing wholesale — the records
	// before it sit on reachable replicas. An unavailable head means the
	// round trip itself fails. The injected per-replica delay, like the
	// read latency, is charged once per fetch.
	if l.cfg.Faults != nil {
		if !l.available(c.merged[0]) {
			return ErrUnavailable
		}
		l.chargeFaultDelay(c.merged[0])
		for i := 1; i < len(c.merged); i++ {
			if !l.available(c.merged[i]) {
				c.merged = c.merged[:i]
				break
			}
		}
	}
	for _, lsn := range c.merged {
		rec, err := l.store.get(lsn)
		if err != nil || rec == nil {
			// Trim retired an indexed candidate mid-fetch. The horizon is
			// monotonic, so it has passed this LSN — and therefore the
			// cursor's position unless earlier candidates survived.
			if len(c.buf) == 0 {
				return c.invalidate()
			}
			break
		}
		c.buf = append(c.buf, rec)
	}
	c.pos = c.buf[len(c.buf)-1].LSN + 1
	l.chargeRead()
	l.stats.cursorBatchReads.Add(1)
	if c.stats != nil {
		c.stats.BatchReads.Add(1)
	}
	return nil
}

func (c *Cursor) invalidate() error {
	c.invalid = true
	c.buf = c.buf[:0]
	c.head = 0
	c.log.stats.cursorInvalidations.Add(1)
	if c.stats != nil {
		c.stats.Invalidations.Add(1)
	}
	return ErrCursorInvalidated
}

// NextBatchBlocking behaves like NextBatch but waits until at least one
// record is readable, ctx is done, or the log closes. It parks on
// per-tag waiters, so a commit wakes the cursor only if it carries a
// watched tag (Stats' UsefulWakeups / ReaderWakeups ratio measures
// exactly this).
func (c *Cursor) NextBatchBlocking(ctx context.Context, max int) ([]*Record, error) {
	l := c.log
	woken := false
	finish := func(recs []*Record, err error) ([]*Record, error) {
		if woken && (len(recs) > 0 || err != nil) {
			l.stats.usefulWakeups.Add(1)
		}
		return recs, err
	}
	for {
		recs, err := c.NextBatch(max)
		if err != nil || len(recs) > 0 {
			return finish(recs, err)
		}
		w := newWaiter()
		l.index.register(c.tags, w)
		// Re-check: a group may have been published between the miss
		// above and the registration; its wake pass saw no waiter.
		recs, err = c.NextBatch(max)
		if err != nil || len(recs) > 0 {
			l.index.unregister(c.tags, w)
			return finish(recs, err)
		}
		select {
		case <-ctx.Done():
			l.index.unregister(c.tags, w)
			return nil, ctx.Err()
		case <-l.done:
			l.index.unregister(c.tags, w)
			return nil, ErrClosed
		case <-w.ch:
			woken = true
		}
		// The woken tag's commit detached w from that tag; drop the
		// registrations the other tags may still hold.
		l.index.unregister(c.tags, w)
	}
}
