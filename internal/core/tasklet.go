package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/sharedlog"
)

// The cooperative tasklet engine (opt-in via Env.Engine): instead of one
// goroutine per task, a fixed pool of worker loops — one per core by
// default — runs every task as a non-blocking tasklet. A tasklet's step
// is Task.step with a budget: a bounded slice of the same ingest,
// classify, drain, flush, commit sequence the goroutine driver runs
// unbounded. The loop round-robins its resident tasklets and parks only
// when none made progress. What may block stays on dedicated goroutines:
//
//   - a feeder goroutine owns the input cursor and blocks in
//     NextBatchBlocking, pushing record batches into the tasklet's input
//     ring (a full ring blocks the feeder — natural backpressure);
//   - a blocker goroutine runs the task's blocking operations (commit's
//     drain-and-mark, aligned-checkpoint completion); while one is in
//     flight the tasklet reports "blocked" and its step only polls for
//     the result, so the loop never stalls;
//   - the append batcher's completion callbacks post {tags, lsn} events
//     to a per-task done ring drained on the loop, instead of waking a
//     goroutine per completion;
//   - sinks are not tasklets: a sink's user callback (and a delivery
//     sink's in-flight window) may block for as long as the consumer
//     likes, so every sink runs on a goroutine of its own.
//
// Ownership of all task state transfers between the loop, the feeder,
// and the blocker exclusively through channels and the rings' atomics,
// so the engine is race-detector clean.

// EngineMode selects the task execution engine.
type EngineMode int

const (
	// EngineGoroutine is the default goroutine-per-task engine.
	EngineGoroutine EngineMode = iota
	// EngineTasklet is the cooperative engine: one event loop per core,
	// tasks scheduled as non-blocking tasklets.
	EngineTasklet
)

func (m EngineMode) String() string {
	switch m {
	case EngineGoroutine:
		return "goroutine"
	case EngineTasklet:
		return "tasklet"
	default:
		return fmt.Sprintf("engine(%d)", int(m))
	}
}

// ParseEngineMode parses an engine name as accepted by -engine.
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "", "goroutine":
		return EngineGoroutine, nil
	case "tasklet":
		return EngineTasklet, nil
	default:
		return EngineGoroutine, fmt.Errorf("core: unknown engine %q (want goroutine or tasklet)", s)
	}
}

// errEngineStopped terminates resident tasklets when the loop pool shuts
// down before their own context does.
var errEngineStopped = errors.New("core: tasklet engine stopped")

const (
	// taskletStepBudget bounds the work units (records processed, plus
	// whatever processors Charge) one step may consume before yielding.
	// Yields happen only at producer-batch boundaries, so a step may
	// overshoot by at most one batch's cost.
	taskletStepBudget = 512
	// taskletInputEvents is the input ring capacity in cursor batches; a
	// full ring blocks the feeder (backpressure toward the log).
	taskletInputEvents = 8
	// taskletDoneEvents sizes the append-completion ring: enough for the
	// batcher's whole in-flight window at defaults, with slack. Overflow
	// falls back to the direct mutex fold, so sizing is latency, not
	// correctness.
	taskletDoneEvents = 512
	// loopMaxPark bounds how long an idle loop sleeps between rounds;
	// wait() deadlines and notify pokes usually wake it much sooner.
	loopMaxPark = 5 * time.Millisecond
	// loopMinPark avoids timer churn when a deadline is essentially now.
	loopMinPark = 50 * time.Microsecond
)

// spsc is a bounded single-producer single-consumer ring. The producer
// and consumer synchronize through the head/tail atomics; the cap-1
// channels are pure wakeups (wake is typically the owning loop's notify
// channel, shared by every ring feeding that loop).
type spsc[T any] struct {
	buf   []T
	mask  uint64
	head  atomic.Uint64 // consumer position
	tail  atomic.Uint64 // producer position
	wake  chan struct{} // consumer-side wake; may be shared
	space chan struct{} // producer-side wake
}

func newSPSC[T any](capacity int, wake chan struct{}) *spsc[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &spsc[T]{
		buf:   make([]T, n),
		mask:  uint64(n - 1),
		wake:  wake,
		space: make(chan struct{}, 1),
	}
}

// poke delivers a non-blocking wakeup; a cap-1 channel coalesces them.
func poke(ch chan struct{}) {
	if ch == nil {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// tryPush enqueues v unless the ring is full.
func (r *spsc[T]) tryPush(v T) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1)
	poke(r.wake)
	return true
}

// push blocks until the ring has space or ctx is done.
func (r *spsc[T]) push(ctx context.Context, v T) bool {
	for {
		if r.tryPush(v) {
			return true
		}
		select {
		case <-r.space:
		case <-ctx.Done():
			return false
		}
	}
}

// empty reports whether the consumer has drained the ring.
func (r *spsc[T]) empty() bool { return r.head.Load() == r.tail.Load() }

// tryPop dequeues the oldest element, clearing its slot so the ring does
// not pin payloads.
func (r *spsc[T]) tryPop() (T, bool) {
	var zero T
	head := r.head.Load()
	if head == r.tail.Load() {
		return zero, false
	}
	v := r.buf[head&r.mask]
	r.buf[head&r.mask] = zero
	r.head.Store(head + 1)
	poke(r.space)
	return v, true
}

// tasklet is one unit of cooperatively scheduled work resident on a
// loop. step runs a bounded slice and reports (progress, done, err);
// wait reports how long until the tasklet next needs the CPU absent
// external events (its flush/commit deadlines). The loop delivers the
// terminal error on result exactly once.
type tasklet struct {
	name   string
	step   func() (progress bool, done bool, err error)
	wait   func() time.Duration
	result chan error
}

// taskLoop is one worker of the pool: it steps its resident tasklets
// round-robin and parks when none of them progressed.
type taskLoop struct {
	id       int
	notify   chan struct{} // cap 1; poked by rings, blockers, registration
	incoming chan *tasklet
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
	resident atomic.Int64  // sticky placement weight
	rounds   atomic.Uint64 // step rounds; the monitor's progress signal
}

func newTaskLoop(id int) *taskLoop {
	return &taskLoop{
		id:       id,
		notify:   make(chan struct{}, 1),
		incoming: make(chan *tasklet, 8),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// register hands a tasklet to the loop; if the pool already shut down
// the tasklet is finished immediately with errEngineStopped.
func (l *taskLoop) register(t *tasklet) {
	select {
	case l.incoming <- t:
		poke(l.notify)
	case <-l.quit:
		t.result <- errEngineStopped
	}
}

func (l *taskLoop) run() {
	defer close(l.done)
	// Pin the loop to one OS thread: the scheduler-jitter the engine
	// removes must not come back as thread migration.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	var ts []*tasklet
	adopt := func() {
		for {
			select {
			case t := <-l.incoming:
				ts = append(ts, t)
			default:
				return
			}
		}
	}
	shutdown := func() {
		adopt()
		for _, t := range ts {
			t.result <- errEngineStopped
		}
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case <-l.quit:
			shutdown()
			return
		default:
		}
		adopt()
		progressed := false
		for i := 0; i < len(ts); {
			prog, done, err := ts[i].step()
			if prog {
				progressed = true
			}
			if done {
				ts[i].result <- err
				ts = append(ts[:i], ts[i+1:]...)
				continue
			}
			i++
		}
		l.rounds.Add(1)
		if progressed {
			continue
		}
		// Nothing moved: park until an event arrives, the earliest
		// tasklet deadline passes, or the pool closes.
		park := loopMaxPark
		for _, t := range ts {
			if w := t.wait(); w < park {
				park = w
			}
		}
		if park <= 0 {
			continue
		}
		if park < loopMinPark {
			park = loopMinPark
		}
		timer.Reset(park)
		select {
		case <-l.notify:
		case t := <-l.incoming:
			ts = append(ts, t)
		case <-l.quit:
			shutdown()
			return
		case <-timer.C:
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// loopPool is the fixed set of worker loops for one Env. Placement is
// sticky per key so a restarted task instance lands on the same loop.
type loopPool struct {
	loops []*taskLoop

	mu       sync.Mutex
	assigned map[string]*taskLoop
}

func newLoopPool(n int) *loopPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &loopPool{assigned: make(map[string]*taskLoop)}
	for i := 0; i < n; i++ {
		l := newTaskLoop(i)
		p.loops = append(p.loops, l)
		go l.run()
	}
	return p
}

// place assigns key to the least-loaded loop (sticky across calls).
func (p *loopPool) place(key string) *taskLoop {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.assigned[key]; ok {
		return l
	}
	best := p.loops[0]
	for _, l := range p.loops[1:] {
		if l.resident.Load() < best.resident.Load() {
			best = l
		}
	}
	best.resident.Add(1)
	p.assigned[key] = best
	return best
}

// close stops every loop; resident tasklets are finished with
// errEngineStopped so their Run wrappers can unwind.
func (p *loopPool) close() {
	for _, l := range p.loops {
		l.quitOnce.Do(func() { close(l.quit) })
	}
	for _, l := range p.loops {
		<-l.done
	}
}

// --- task tasklet ---

type taskletEventKind uint8

const (
	evRecords taskletEventKind = iota // recs: one copied cursor batch
	evSeek                            // seek: cursor repositioned after invalidation
	evErr                             // err: fatal read error; feeder exited
)

// taskletEvent is one input-ring element from the feeder.
type taskletEvent struct {
	recs []*sharedlog.Record
	seek LSN
	err  error
	kind taskletEventKind
}

// doneEvent is one append completion posted to the owning loop.
type doneEvent struct {
	tags   []sharedlog.Tag // output substream tags; nil for change log
	lsn    LSN
	change bool
}

// taskletRun is what the loop driver adds to a task: the feeder's ring
// and the blocker's channels. Only the current owner (loop, or blocker
// while blocked) touches it.
type taskletRun struct {
	in       *spsc[taskletEvent]
	blockReq chan blockingOp
	blockRes chan error
	// blocked marks a blocker operation in flight: steps only poll
	// blockRes until it completes, so the blocker has exclusive
	// ownership of all task state meanwhile.
	blocked     bool
	feederDone  chan struct{}
	blockerDone chan struct{}
}

// runOnLoop is the loop driver of Task.step: the task, already opened on
// the spawn goroutine, registers as a tasklet and the spawn goroutine
// just waits for the terminal result.
func (t *Task) runOnLoop(ctx context.Context) error {
	tl := &taskletRun{
		in:          newSPSC[taskletEvent](taskletInputEvents, t.tlLoop.notify),
		blockReq:    make(chan blockingOp, 1),
		blockRes:    make(chan error, 1),
		feederDone:  make(chan struct{}),
		blockerDone: make(chan struct{}),
	}
	t.tl = tl

	feedCtx, stopFeed := context.WithCancel(ctx)
	go t.feed(feedCtx)
	go t.blockerLoop()

	result := make(chan error, 1)
	t.tlLoop.register(&tasklet{
		name:   string(t.ID),
		step:   t.taskletStep,
		wait:   t.taskletWait,
		result: result,
	})
	err := <-result

	// Teardown order matters: the feeder owns the input cursor and the
	// blocker may own the appender mid-commit; both must finish before
	// Run's deferred closeAppenders runs.
	stopFeed()
	<-tl.feederDone
	close(tl.blockReq)
	<-tl.blockerDone
	if errors.Is(err, errEngineStopped) && ctx.Err() != nil {
		err = ctx.Err()
	}
	return err
}

// feed is the cursor-waiter goroutine: it owns t.inCursor exclusively
// and converts blocking reads into input-ring events. Cursor state
// changes that the step machine must see in order (a post-invalidation
// seek) travel through the ring too.
func (t *Task) feed(ctx context.Context) {
	tl := t.tl
	defer close(tl.feederDone)
	for ctx.Err() == nil {
		recs, err := t.inCursor.NextBatchBlocking(ctx, DefaultReadBatch)
		var ev taskletEvent
		if err == nil {
			// The cursor's batch is a view into its internal buffer,
			// invalidated by the next fetch; the records themselves are
			// immutable and safely shared, so copying the slice header's
			// worth of pointers is enough.
			ev = taskletEvent{kind: evRecords, recs: append([]*sharedlog.Record(nil), recs...)}
		} else {
			switch fault, horizon := t.retry.handleReadErr(ctx, err, t.inCursor, t.log); fault {
			case readStopped:
				return
			case readRetry:
				continue
			case readSeeked:
				ev = taskletEvent{kind: evSeek, seek: horizon}
			case readFatal:
				ev = taskletEvent{kind: evErr, err: err}
			}
		}
		if !tl.in.push(ctx, ev) || ev.kind == evErr {
			return
		}
	}
}

// blockerLoop runs the task's blocking operations off the loop
// (Task.runBlocking hands them over). At most one is in flight; blockRes
// is buffered so delivery never blocks, and the poke wakes the loop to
// collect the result promptly.
func (t *Task) blockerLoop() {
	tl := t.tl
	defer close(tl.blockerDone)
	for op := range tl.blockReq {
		tl.blockRes <- t.doBlocking(op)
		poke(t.tlLoop.notify)
	}
}

// taskletStep is the loop driver's step: collect the blocker's result if
// an operation is in flight, otherwise hand the next ring event to
// Task.step and run it under taskletStepBudget.
func (t *Task) taskletStep() (progress, done bool, err error) {
	tl := t.tl
	if tl.blocked {
		select {
		case err := <-tl.blockRes:
			tl.blocked = false
			if err != nil {
				return true, true, fmt.Errorf("task %s: %w", t.ID, err)
			}
			return true, false, nil
		default:
			return false, false, nil
		}
	}
	popped := false
	if t.recs == nil && !t.pendingDrain {
		var ev taskletEvent
		if ev, popped = tl.in.tryPop(); popped {
			switch ev.kind {
			case evRecords:
				t.recs = ev.recs
			case evSeek:
				t.cursor = ev.seek
			case evErr:
				return true, true, fmt.Errorf("task %s: read: %w", t.ID, ev.err)
			}
		}
	}
	worked, err := t.step(taskletStepBudget, !tl.in.empty())
	return popped || worked, err != nil, err
}

// taskletWait reports the time until the task's next internal deadline;
// the loop parks at most this long when idle.
func (t *Task) taskletWait() time.Duration {
	if t.tl.blocked {
		return loopMaxPark // the blocker pokes the loop on completion
	}
	now := t.env.Clock.Now()
	d := t.nextFlush.Sub(now)
	if c := t.sched.next.Sub(now); c < d {
		d = c
	}
	return d
}

// drainCompletions folds append completions posted by the batcher into
// the progress accounting. Called from whichever goroutine currently
// owns the task (the loop each step; the blocker inside drainAppends),
// never both at once.
func (t *Task) drainCompletions() {
	r := t.doneRing
	if r == nil {
		return
	}
	for {
		ev, ok := r.tryPop()
		if !ok {
			return
		}
		t.foldProgress(ev)
	}
}

func (t *Task) foldProgress(ev doneEvent) {
	t.progressMu.Lock()
	if ev.change {
		if t.changeFirst == NoLSN || ev.lsn < t.changeFirst {
			t.changeFirst = ev.lsn
		}
	} else {
		for _, tag := range ev.tags {
			if cur, ok := t.outFirst[tag]; !ok || ev.lsn < cur {
				t.outFirst[tag] = ev.lsn
			}
		}
	}
	t.progressMu.Unlock()
}

// SchedulerProgress is a monotone counter the manager's monitor samples
// to tell a busy-but-healthy task from a dead one: the task's own
// heartbeat count, plus — on the cooperative engine — its loop's round
// counter, so a resident of a loop that is busy stepping other tasklets
// is not declared stale just because its own steps (and heartbeats)
// were delayed.
func (t *Task) SchedulerProgress() uint64 {
	p := t.progress.Load()
	if t.tlLoop != nil {
		p += t.tlLoop.rounds.Load()
	}
	return p
}
