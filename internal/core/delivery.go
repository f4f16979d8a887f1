package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/sharedlog"
)

// The transactional egress layer: exactly-once from the committed-read
// plane all the way to an external consumer.
//
// The gated Sink classifies commit status, but handing records to a
// callback fire-and-forget means a crash between classification and
// delivery silently loses or duplicates output. DeliverySink closes
// that gap with the LogPlayer recipe: sequence-numbered at-least-once
// delivery through a bounded in-flight window, consumer acknowledgments
// folded into a per-(partition, producer) ack frontier that is
// persisted to a dedicated egress-offsets substream, and consumer-side
// dedupe keyed by the same sequence numbers. A restarted sink reads the
// latest frontier and resumes from its LSN, re-delivering only the
// unacknowledged suffix — which the consumer's dedupe absorbs — so the
// guarantee holds at the system boundary, not just the commit point.

// Consumer is the external system a DeliverySink feeds. Deliver is
// called at-least-once per record in per-partition FIFO order; the
// Delivery's (Partition, Producer, Seq) triple identifies a record
// stably across redeliveries, so consumers deduplicate by tracking the
// highest applied Seq per (Partition, Producer).
//
// *d is valid only during Deliver: the sink reuses one Delivery per
// partition worker, so copy *d to keep it. d.Record.Key and Value are
// read-only views of the immutable log record and stay valid after
// Deliver returns, but must never be written through.
//
// Returning nil acknowledges the record. Any other error is treated as
// transient and retried with jittered backoff — losing data must be an
// explicit choice, made by wrapping the error with PermanentError.
// After DeliveryOptions.PermanentAttempts permanent failures the record
// routes to the dead-letter substream instead of wedging the window.
type Consumer interface {
	Deliver(ctx context.Context, d *Delivery) error
}

// Delivery is one record handed to a Consumer, valid for the duration
// of the Deliver call (see Consumer).
type Delivery struct {
	Stream    StreamID
	Partition int
	// Producer and Seq are the record's exactly-once identity: the
	// producing task and its per-record sequence number.
	Producer TaskID
	Seq      uint64
	// EgressSeq numbers deliveries globally per sink incarnation
	// (1-based, gaps-free at first attempt).
	EgressSeq uint64
	// Attempt is 1 on first delivery and increments per retry.
	Attempt int
	Record  Record
}

// PermanentError marks a consumer error as non-retryable: the record
// is malformed for this consumer and retrying cannot succeed. Unmarked
// errors are assumed transient.
func PermanentError(err error) error { return permanentDeliveryError{err} }

type permanentDeliveryError struct{ err error }

func (e permanentDeliveryError) Error() string { return "permanent: " + e.err.Error() }
func (e permanentDeliveryError) Unwrap() error { return e.err }

// IsPermanentDeliveryError reports whether err (or anything it wraps)
// was marked with PermanentError.
func IsPermanentDeliveryError(err error) bool {
	var p permanentDeliveryError
	return errors.As(err, &p)
}

// DeliveryOptions tunes a DeliverySink.
type DeliveryOptions struct {
	// Window bounds the in-flight deliveries (queued + executing)
	// across all partitions (default 64). When the consumer stalls the
	// window fills and the sink's read loop blocks — backpressure, not
	// unbounded queueing.
	Window int
	// PermanentAttempts is how many permanent-error attempts a record
	// gets before routing to the dead-letter substream (default 3).
	PermanentAttempts int
	// FrontierInterval is how often the ack frontier is persisted to
	// the egress-offsets substream (default 25ms). Everything delivered
	// since the last persisted frontier is redelivered after a crash.
	FrontierInterval time.Duration
	// SinkID names this sink's egress-offsets and dead-letter
	// substreams (default "0"); distinct consumers of one stream use
	// distinct ids.
	SinkID string
	// Retry overrides the backoff policy for consumer retries and
	// frontier/dead-letter appends; zero values fall back to env.Retry.
	Retry RetryPolicy
}

func (o DeliveryOptions) withDefaults(env *Env) DeliveryOptions {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.PermanentAttempts <= 0 {
		o.PermanentAttempts = 3
	}
	if o.FrontierInterval <= 0 {
		o.FrontierInterval = 25 * time.Millisecond
	}
	if o.SinkID == "" {
		o.SinkID = "0"
	}
	if o.Retry == (RetryPolicy{}) {
		o.Retry = env.Retry
	}
	return o
}

// DeliveryStats is a snapshot of a DeliverySink's counters.
type DeliveryStats struct {
	// Enqueued counts records admitted to the in-flight window.
	Enqueued uint64
	// Delivered counts consumer acknowledgments.
	Delivered uint64
	// Attempts counts Deliver calls (>= Delivered under faults).
	Attempts uint64
	// Redelivered counts records that needed more than one attempt.
	Redelivered uint64
	// TransientErrors and PermanentFailures split rejected attempts by
	// the error taxonomy.
	TransientErrors   uint64
	PermanentFailures uint64
	// DeadLettered counts records parked on the dead-letter substream
	// after exhausting PermanentAttempts.
	DeadLettered uint64
	// SkippedAcked counts records the resumed sink re-read but did not
	// re-deliver because the persisted frontier already covered them.
	SkippedAcked uint64
	// FrontierPersists counts ack-frontier appends.
	FrontierPersists uint64
	// ResumeLSN is where this incarnation began reading; Resumed is
	// true when that came from a persisted frontier.
	ResumeLSN LSN
	Resumed   bool
}

type ackKey struct {
	partition int
	producer  TaskID
}

type pendingDelivery struct {
	lsn      LSN
	producer TaskID
	seq      uint64
	eseq     uint64
	rec      Record
}

// deliveryQueue is one partition's admitted deliveries, oldest first,
// and the one its worker is delivering. Entries live by value in a
// reused slice, so admitting and retiring a record allocates nothing.
type deliveryQueue struct {
	items []pendingDelivery // items[head:] are queued
	head  int
	// busy marks the worker holding an entry popped from the queue;
	// busyLSN is its LSN, which pins the resumable frontier.
	busy    bool
	busyLSN LSN
}

func (q *deliveryQueue) len() int { return len(q.items) - q.head }

func (q *deliveryQueue) push(e pendingDelivery) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Full with a consumed prefix: slide the live entries down
		// instead of growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, e)
}

// pop moves the oldest entry to the busy slot and returns it.
func (q *deliveryQueue) pop() pendingDelivery {
	e := q.items[q.head]
	q.items[q.head] = pendingDelivery{} // do not pin the record
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	q.busy, q.busyLSN = true, e.lsn
	return e
}

// DeliverySink drives exactly-once delivery of a stream's committed
// output to a Consumer. Construct with NewDeliverySink, then call Run
// exactly once; stop either gracefully with Stop (drains the window and
// persists a final frontier) or abruptly by cancelling Run's context (a
// hard crash — the next incarnation resumes from the last periodic
// frontier and redelivers the tail).
type DeliverySink struct {
	sink       *Sink
	consumer   Consumer
	opts       DeliveryOptions
	env        *Env
	stream     StreamID
	partitions int
	egressTag  sharedlog.Tag
	deadTag    sharedlog.Tag
	producerID TaskID

	appendRetry *retrier // frontier + dead-letter appends
	backoffR    *retrier // consumer retry backoff/jitter

	mu          sync.Mutex
	cond        *sync.Cond
	queues      []deliveryQueue // per partition
	inflight    int
	eseq        uint64
	acked       map[ackKey]uint64
	resumeAcked map[ackKey]uint64
	ackDirty    bool
	lastResume  LSN
	workCtx     context.Context

	stopping atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}

	enqueued          atomic.Uint64
	delivered         atomic.Uint64
	attempts          atomic.Uint64
	redelivered       atomic.Uint64
	transientErrors   atomic.Uint64
	permanentFailures atomic.Uint64
	deadLettered      atomic.Uint64
	skippedAcked      atomic.Uint64
	frontierPersists  atomic.Uint64
	resumeLSN         LSN
	resumed           bool
}

// NewDeliverySink builds a delivery sink over a stream's committed
// output (a gated sink using env.Protocol's tracker). It reads the
// latest persisted ack frontier from the egress-offsets substream — a
// restarted sink resumes from the last ack instead of re-reading from
// zero — so construction can fail on a faulted log.
func NewDeliverySink(stream StreamID, partitions int, env *Env, consumer Consumer, opts DeliveryOptions) (*DeliverySink, error) {
	if consumer == nil {
		return nil, errors.New("core: delivery sink needs a consumer")
	}
	opts = opts.withDefaults(env)
	node := "egress/" + string(stream) + "/" + opts.SinkID
	ds := &DeliverySink{
		sink:        NewGatedSink(stream, partitions, env),
		consumer:    consumer,
		opts:        opts,
		env:         env,
		stream:      stream,
		partitions:  partitions,
		egressTag:   EgressOffsetsTag(stream, opts.SinkID),
		deadTag:     DeadLetterTag(stream, opts.SinkID),
		producerID:  TaskID(node),
		queues:      make([]deliveryQueue, partitions),
		acked:       make(map[ackKey]uint64),
		resumeAcked: make(map[ackKey]uint64),
		stopCh:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	ds.cond = sync.NewCond(&ds.mu)
	retryEnv := *env
	retryEnv.Retry = opts.Retry
	ds.appendRetry = newRetrier(&retryEnv, "", nil)
	ds.backoffR = newRetrier(&retryEnv, node, nil)
	if err := ds.loadFrontier(); err != nil {
		return nil, err
	}
	ds.sink.delivery = ds
	return ds, nil
}

// Sink exposes the wrapped gated sink (for Counts and OnRecord taps).
func (ds *DeliverySink) Sink() *Sink { return ds.sink }

// loadFrontier reads the newest KindEgressFrontier record and primes
// the resume position and acked floors from it.
func (ds *DeliverySink) loadFrontier() error {
	var rec *sharedlog.Record
	err := ds.appendRetry.do(context.Background(), "egress frontier read", func() error {
		r, err := ds.env.Log.ReadPrev(ds.egressTag, ds.env.Log.Tail())
		if err != nil {
			if errors.Is(err, sharedlog.ErrTrimmed) {
				// The frontier itself was trimmed: start at the horizon
				// with no ack floors (deliveries below it are gone).
				r, err = nil, nil
			} else {
				return err
			}
		}
		rec = r
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: egress %s: %w", ds.producerID, err)
	}
	if rec == nil {
		return nil
	}
	b, err := DecodeBatch(rec.Payload)
	if err != nil {
		return fmt.Errorf("core: egress %s: frontier decode: %w", ds.producerID, err)
	}
	if b.Kind != KindEgressFrontier {
		return fmt.Errorf("core: egress %s: unexpected %s on offsets stream", ds.producerID, b.Kind)
	}
	resume, acked, err := decodeFrontier(b.Control)
	if err != nil {
		return fmt.Errorf("core: egress %s: %w", ds.producerID, err)
	}
	ds.resumeLSN = resume
	ds.resumed = true
	ds.lastResume = resume
	ds.resumeAcked = acked
	for k, v := range acked {
		ds.acked[k] = v
	}
	ds.sink.SetStart(resume)
	return nil
}

// Run consumes and delivers until ctx is cancelled (hard crash) or Stop
// is called (graceful drain). It returns nil after a graceful stop.
func (ds *DeliverySink) Run(ctx context.Context) error {
	sinkCtx, cancelSink := context.WithCancel(ctx)
	workCtx, cancelWork := context.WithCancel(ctx)
	defer cancelWork()
	defer cancelSink()
	ds.mu.Lock()
	ds.workCtx = workCtx
	ds.mu.Unlock()
	// Stop signals through stopCh so it cannot race Run's startup.
	go func() {
		select {
		case <-ds.stopCh:
			cancelSink()
		case <-sinkCtx.Done():
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < ds.partitions; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ds.worker(workCtx, p)
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ds.frontierLoop(workCtx)
	}()
	// Waiters (submit's window wait, awaitDrained) block on the cond,
	// which cannot watch a context; wake them when work is cancelled.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-workCtx.Done()
		ds.mu.Lock()
		ds.cond.Broadcast()
		ds.mu.Unlock()
	}()

	err := ds.sink.Run(sinkCtx)

	if ds.stopping.Load() && ctx.Err() == nil {
		ds.awaitDrained(workCtx)
	}
	cancelWork()
	wg.Wait()
	if ds.stopping.Load() && ctx.Err() == nil {
		// Final durable frontier: a consumer restarted after a clean
		// stop sees zero redeliveries.
		ds.persistFrontier(context.Background())
	}
	close(ds.done)
	if ds.stopping.Load() && errors.Is(err, context.Canceled) && ctx.Err() == nil {
		return nil
	}
	return err
}

// Stop shuts down gracefully: stops reading, waits for the in-flight
// window to drain, persists a final ack frontier, and waits for Run to
// return. Call only after Run has started.
func (ds *DeliverySink) Stop() {
	ds.stopping.Store(true)
	ds.stopOnce.Do(func() { close(ds.stopCh) })
	<-ds.done
}

func (ds *DeliverySink) awaitDrained(ctx context.Context) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for ds.inflight > 0 && ctx.Err() == nil {
		ds.cond.Wait()
	}
}

// submit admits one committed record into the delivery window, blocking
// while the window is full (the backpressure edge: the caller is the
// sink's read loop). Records at or below the resumed ack floor are
// skipped — they were acknowledged by a previous incarnation.
func (ds *DeliverySink) submit(ctx context.Context, partition int, lsn LSN, producer TaskID, r Record) bool {
	k := ackKey{partition, producer}
	ds.mu.Lock()
	if r.Seq <= ds.resumeAcked[k] {
		ds.mu.Unlock()
		ds.skippedAcked.Add(1)
		return true
	}
	// Block on the worker context only: during a graceful stop the
	// read-side context is already cancelled but workers are draining,
	// and dropping here would let the final frontier advance past an
	// undelivered record. Only a hard kill (workCtx dead) may drop.
	_ = ctx
	work := ds.workCtx
	for ds.inflight >= ds.opts.Window && work.Err() == nil {
		ds.cond.Wait()
	}
	if work.Err() != nil {
		// Hard shutdown: drop. The record is above every persisted
		// frontier (safe-position order), so the next incarnation
		// re-reads it.
		ds.mu.Unlock()
		return false
	}
	ds.eseq++
	ds.queues[partition].push(pendingDelivery{lsn: lsn, producer: producer, seq: r.Seq, eseq: ds.eseq, rec: r})
	ds.inflight++
	ds.cond.Broadcast()
	ds.mu.Unlock()
	ds.enqueued.Add(1)
	return true
}

// worker delivers partition p's queue in order. Its one Delivery is
// reused for every attempt: a consumer may not keep *d (see Consumer).
func (ds *DeliverySink) worker(ctx context.Context, p int) {
	d := &Delivery{Stream: ds.stream, Partition: p}
	for {
		e, ok := ds.next(ctx, p)
		if !ok {
			return
		}
		ds.deliverOne(ctx, d, &e)
	}
}

// next pops the partition's queue head into its busy slot, waiting for
// work; false means shutdown.
func (ds *DeliverySink) next(ctx context.Context, p int) (pendingDelivery, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	q := &ds.queues[p]
	for q.len() == 0 {
		if ctx.Err() != nil {
			return pendingDelivery{}, false
		}
		ds.cond.Wait()
	}
	return q.pop(), true
}

// deliverOne drives one record to acknowledgment, dead-letter, or
// shutdown. Unknown errors retry forever with jittered backoff — the
// occupied window slot is what turns a consumer outage into
// backpressure instead of loss.
func (ds *DeliverySink) deliverOne(ctx context.Context, d *Delivery, e *pendingDelivery) {
	p := d.Partition
	permFails := 0
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return
		}
		d.Producer, d.Seq, d.EgressSeq, d.Attempt, d.Record = e.producer, e.seq, e.eseq, attempt, e.rec
		err := ds.consumer.Deliver(ctx, d)
		ds.attempts.Add(1)
		if err == nil {
			ds.delivered.Add(1)
			if attempt > 1 {
				ds.redelivered.Add(1)
			}
			ds.resolve(p, e)
			return
		}
		if ctx.Err() != nil {
			return
		}
		if IsPermanentDeliveryError(err) {
			permFails++
			ds.permanentFailures.Add(1)
			if permFails >= ds.opts.PermanentAttempts {
				ds.deadLetter(ctx, e, err)
				ds.resolve(p, e)
				return
			}
		} else {
			ds.transientErrors.Add(1)
		}
		if !ds.backoffR.sleep(ctx, ds.backoffR.backoff(attempt-1)) {
			return
		}
	}
}

// resolve retires a delivery (acknowledged or dead-lettered): the ack
// floor advances and a window slot frees.
func (ds *DeliverySink) resolve(p int, e *pendingDelivery) {
	ds.mu.Lock()
	ds.queues[p].busy = false
	k := ackKey{p, e.producer}
	if e.seq > ds.acked[k] {
		ds.acked[k] = e.seq
	}
	ds.inflight--
	ds.ackDirty = true
	ds.cond.Broadcast()
	ds.mu.Unlock()
}

// deadLetter parks a permanently-undeliverable record on the
// dead-letter substream (with the final error as the control payload)
// so the window can move on.
func (ds *DeliverySink) deadLetter(ctx context.Context, e *pendingDelivery, cause error) {
	b := &Batch{
		Kind:     KindDeadLetter,
		Producer: e.producer,
		Control:  []byte(cause.Error()),
		Records:  []Record{e.rec},
	}
	payload := b.Encode()
	_ = ds.appendRetry.do(ctx, "egress dead-letter append", func() error {
		_, err := ds.env.Log.Append([]sharedlog.Tag{ds.deadTag}, payload)
		return err
	})
	ds.deadLettered.Add(1)
}

// frontierSnapshot computes the resumable state: the lowest LSN not yet
// fully resolved (so a restart re-reads nothing acknowledged) plus the
// per-(partition, producer) ack floors (so the re-read suffix is not
// re-delivered when it was acknowledged).
func (ds *DeliverySink) frontierSnapshot() (resume LSN, acked map[ackKey]uint64, changed bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	resume = ds.sink.SafePos()
	for p := range ds.queues {
		q := &ds.queues[p]
		if q.busy && q.busyLSN < resume {
			resume = q.busyLSN
		}
		if q.len() > 0 && q.items[q.head].lsn < resume {
			resume = q.items[q.head].lsn
		}
	}
	changed = ds.ackDirty || resume != ds.lastResume
	if !changed {
		return resume, nil, false
	}
	acked = make(map[ackKey]uint64, len(ds.acked))
	for k, v := range ds.acked {
		acked[k] = v
	}
	ds.ackDirty = false
	ds.lastResume = resume
	return resume, acked, true
}

func (ds *DeliverySink) frontierLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-ds.appendRetry.clock.After(ds.opts.FrontierInterval):
		}
		ds.persistFrontier(ctx)
	}
}

func (ds *DeliverySink) persistFrontier(ctx context.Context) {
	resume, acked, changed := ds.frontierSnapshot()
	if !changed {
		return
	}
	b := &Batch{
		Kind:     KindEgressFrontier,
		Producer: ds.producerID,
		Control:  encodeFrontier(resume, acked),
	}
	payload := b.Encode()
	err := ds.appendRetry.do(ctx, "egress frontier append", func() error {
		_, err := ds.env.Log.Append([]sharedlog.Tag{ds.egressTag}, payload)
		return err
	})
	if err != nil {
		// Not persisted: re-arm so the next tick retries the append.
		ds.mu.Lock()
		ds.ackDirty = true
		ds.mu.Unlock()
		return
	}
	ds.frontierPersists.Add(1)
}

// Stats snapshots the delivery counters.
func (ds *DeliverySink) Stats() DeliveryStats {
	return DeliveryStats{
		Enqueued:          ds.enqueued.Load(),
		Delivered:         ds.delivered.Load(),
		Attempts:          ds.attempts.Load(),
		Redelivered:       ds.redelivered.Load(),
		TransientErrors:   ds.transientErrors.Load(),
		PermanentFailures: ds.permanentFailures.Load(),
		DeadLettered:      ds.deadLettered.Load(),
		SkippedAcked:      ds.skippedAcked.Load(),
		FrontierPersists:  ds.frontierPersists.Load(),
		ResumeLSN:         ds.resumeLSN,
		Resumed:           ds.resumed,
	}
}

// Add merges another stats snapshot (aggregation across sink
// incarnations in the chaos harness and benches).
func (s *DeliveryStats) Add(o DeliveryStats) {
	s.Enqueued += o.Enqueued
	s.Delivered += o.Delivered
	s.Attempts += o.Attempts
	s.Redelivered += o.Redelivered
	s.TransientErrors += o.TransientErrors
	s.PermanentFailures += o.PermanentFailures
	s.DeadLettered += o.DeadLettered
	s.SkippedAcked += o.SkippedAcked
	s.FrontierPersists += o.FrontierPersists
	if o.Resumed {
		s.Resumed = true
		s.ResumeLSN = o.ResumeLSN
	}
}

// Frontier wire format (KindEgressFrontier control payload):
//
//	u64 resumeLSN | u32 n | n × (u32 partition | u16 len | producer | u64 seq)
//
// Entries are sorted by (partition, producer) so identical frontiers
// encode to identical bytes.
func encodeFrontier(resume LSN, acked map[ackKey]uint64) []byte {
	keys := make([]ackKey, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].partition != keys[j].partition {
			return keys[i].partition < keys[j].partition
		}
		return keys[i].producer < keys[j].producer
	})
	size := 8 + 4
	for _, k := range keys {
		size += 4 + 2 + len(k.producer) + 8
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(resume))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k.partition))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k.producer)))
		buf = append(buf, k.producer...)
		buf = binary.LittleEndian.AppendUint64(buf, acked[k])
	}
	return buf
}

var errBadFrontier = errors.New("core: malformed egress frontier")

func decodeFrontier(b []byte) (LSN, map[ackKey]uint64, error) {
	if len(b) < 12 {
		return 0, nil, errBadFrontier
	}
	resume := LSN(binary.LittleEndian.Uint64(b))
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	// An entry is at least 14 bytes (u32 partition + u16 length + u64
	// seq); reject corrupt counts before allocating.
	if n > len(b)/14 {
		return 0, nil, errBadFrontier
	}
	acked := make(map[ackKey]uint64, n)
	for i := 0; i < n; i++ {
		if len(b) < 6 {
			return 0, nil, errBadFrontier
		}
		part := int(binary.LittleEndian.Uint32(b))
		plen := int(binary.LittleEndian.Uint16(b[4:]))
		b = b[6:]
		if len(b) < plen+8 {
			return 0, nil, errBadFrontier
		}
		prod := TaskID(b[:plen])
		seq := binary.LittleEndian.Uint64(b[plen:])
		b = b[plen+8:]
		acked[ackKey{part, prod}] = seq
	}
	if len(b) != 0 {
		return 0, nil, errBadFrontier
	}
	return resume, acked, nil
}
