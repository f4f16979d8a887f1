package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/sharedlog"
	"impeller/internal/sim"
	"impeller/internal/wire"
)

// Defaults for the append batcher. Records and bytes bound how much a
// group commit carries; linger bounds how long an entry may wait for
// company; the window bounds how many sealed batches may be in flight
// before submission blocks (backpressure).
const (
	DefaultBatchRecords = 64
	DefaultBatchBytes   = 256 << 10
	DefaultBatchLinger  = time.Millisecond
	DefaultBatchWindow  = 4
)

// BatchConfig sizes a batcher. Tasks always pass the zero value, which
// selects the defaults above; it stays a struct because the batcher's
// own tests seal on a small record count or never on time.
type BatchConfig struct {
	// MaxRecords seals a batch after this many appends.
	MaxRecords int
	// MaxBytes seals a batch when its encoded payloads reach this size.
	MaxBytes int
	// Linger seals a batch when its oldest entry has waited this long
	// (checked at submission; flush ticks seal unconditionally).
	Linger time.Duration
	// Window is how many sealed batches may be in flight to the log
	// before submit blocks the task's processing loop.
	Window int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxRecords <= 0 {
		c.MaxRecords = DefaultBatchRecords
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultBatchBytes
	}
	if c.Linger <= 0 {
		c.Linger = DefaultBatchLinger
	}
	if c.Window <= 0 {
		c.Window = DefaultBatchWindow
	}
	return c
}

// batcher is a task's append pipeline, rebuilt around group commit.
// Appends to the shared log cost network latency, so a task never
// blocks its processing loop on one: it submits entries, the batcher
// coalesces them — data batches, change-log batches, whatever flushes
// together — and ships each sealed group through one AppendBatch call,
// amortizing the per-append latency and sequencer work across the
// group.
//
// One goroutine drains sealed batches FIFO, and only the owning task
// goroutine submits, so all of a task's appends reach the log in
// submission order — per-substream sequence numbers stay monotonic
// (duplicate suppression relies on that), and a record never overtakes
// another it must follow. Commit records are NOT submitted here: the
// task drains the batcher first and appends its marker synchronously,
// which is what keeps a marker behind every output it covers in the
// log's total order (paper §3.5); see (*Task).assertAppendsDrained.
type batcher struct {
	log     *sharedlog.Log
	cfg     BatchConfig
	clock   sim.Clock
	metrics *TaskMetrics

	// retry, when non-nil, retries transient log faults per sealed
	// batch under ctx (the owning task's run context).
	retry *retrier
	ctx   context.Context

	ch   chan *appendBatch
	done chan struct{}

	// inflight counts sealed-but-incomplete batches. Only the owning
	// task goroutine seals and drains, so Add cannot race Wait.
	inflight sync.WaitGroup

	// pendingN counts submitted entries whose append has not completed;
	// the marker-ordering assertion reads it from the task goroutine
	// after drain, where it must be zero.
	pendingN atomic.Int64

	mu  sync.Mutex
	err error

	// notify, when non-nil, runs once per completed append batch after
	// its callbacks have fired — the cooperative engine uses it to wake
	// the owning loop so the completion ring drains promptly.
	notify func()

	// cur is the accumulating batch; task goroutine only.
	cur     *appendBatch
	curBorn time.Time
}

// appendBatch is one sealed group of appends plus the bookkeeping to
// complete them: per-entry callbacks and the pooled encode buffers to
// recycle once the group has been fully appended (including retries).
type appendBatch struct {
	entries []sharedlog.AppendEntry
	onDone  []func(lsn LSN, err error)
	bufs    []*wire.Buf
	bytes   int
}

var appendBatchPool = sync.Pool{New: func() any { return &appendBatch{} }}

func getAppendBatch() *appendBatch {
	return appendBatchPool.Get().(*appendBatch)
}

func putAppendBatch(b *appendBatch) {
	// Drop the references (payloads, closures) so the pool does not pin
	// them, but keep the slice capacity — that is the point.
	for i := range b.entries {
		b.entries[i] = sharedlog.AppendEntry{}
	}
	for i := range b.onDone {
		b.onDone[i] = nil
	}
	for i := range b.bufs {
		b.bufs[i] = nil
	}
	b.entries = b.entries[:0]
	b.onDone = b.onDone[:0]
	b.bufs = b.bufs[:0]
	b.bytes = 0
	appendBatchPool.Put(b)
}

func newBatcher(log *sharedlog.Log, cfg BatchConfig, retry *retrier, ctx context.Context, clock sim.Clock, metrics *TaskMetrics, notify func()) *batcher {
	if clock == nil {
		clock = sim.RealClock{}
	}
	b := &batcher{
		log:     log,
		cfg:     cfg.withDefaults(),
		clock:   clock,
		metrics: metrics,
		retry:   retry,
		ctx:     ctx,
		notify:  notify,
		done:    make(chan struct{}),
	}
	b.ch = make(chan *appendBatch, b.cfg.Window)
	go b.run()
	return b
}

// submit adds one append to the accumulating batch. buf, if non-nil, is
// the pooled buffer backing payload; it is recycled after the append
// completes. onDone runs on the batcher goroutine once the entry's LSN
// is known; it must synchronize its own state.
func (b *batcher) submit(tags []sharedlog.Tag, payload []byte, buf *wire.Buf, onDone func(lsn LSN, err error)) {
	b.pendingN.Add(1)
	if b.cur == nil {
		b.cur = getAppendBatch()
		b.curBorn = b.clock.Now()
	}
	cur := b.cur
	cur.entries = append(cur.entries, sharedlog.AppendEntry{Tags: tags, Payload: payload})
	cur.onDone = append(cur.onDone, onDone)
	if buf != nil {
		cur.bufs = append(cur.bufs, buf)
	}
	cur.bytes += len(payload)
	if len(cur.entries) >= b.cfg.MaxRecords || cur.bytes >= b.cfg.MaxBytes ||
		b.clock.Now().Sub(b.curBorn) >= b.cfg.Linger {
		b.flush()
	}
}

// flush seals the accumulating batch and hands it to the append
// goroutine. If the in-flight window is full it blocks — that is the
// output-buffer backpressure of paper §3.6 (a task "must pause
// processing" when its buffer fills), counted in Metrics.BatchStalls.
func (b *batcher) flush() {
	if b.cur == nil || len(b.cur.entries) == 0 {
		return
	}
	batch := b.cur
	b.cur = nil
	b.inflight.Add(1)
	select {
	case b.ch <- batch:
	default:
		if b.metrics != nil {
			b.metrics.BatchStalls.Add(1)
		}
		b.ch <- batch
	}
}

func (b *batcher) run() {
	defer close(b.done)
	for batch := range b.ch {
		var results []sharedlog.AppendResult
		var err error
		if b.retry != nil {
			err = b.retry.do(b.ctx, "append", func() error {
				var e error
				results, e = b.log.AppendBatch(batch.entries)
				return e
			})
		} else {
			results, err = b.log.AppendBatch(batch.entries)
		}
		for i, done := range batch.onDone {
			entryErr := err
			var lsn LSN
			if err == nil {
				lsn, entryErr = results[i].LSN, results[i].Err
			}
			if entryErr != nil {
				b.fail(entryErr)
			}
			if done != nil {
				done(lsn, entryErr)
			}
		}
		if b.metrics != nil {
			b.metrics.AppendBatches.Add(1)
			b.metrics.BatchedRecords.Add(uint64(len(batch.entries)))
		}
		n := len(batch.entries)
		// The log copied every payload on entry and no retry can still
		// re-read them, so the pooled buffers are free now.
		for _, buf := range batch.bufs {
			wire.PutBuf(buf)
		}
		putAppendBatch(batch)
		b.pendingN.Add(int64(-n))
		b.inflight.Done()
		if b.notify != nil {
			b.notify()
		}
	}
}

func (b *batcher) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// pending reports how many submitted entries have not completed their
// append — including those still sitting in the unsealed batch.
func (b *batcher) pending() int64 {
	return b.pendingN.Load()
}

// drain seals the current batch, blocks until every submitted entry has
// completed, and returns the first append error observed, if any.
func (b *batcher) drain() error {
	b.flush()
	b.inflight.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// close shuts the batcher down after draining.
func (b *batcher) close() {
	b.flush()
	b.inflight.Wait()
	close(b.ch)
	<-b.done
}
