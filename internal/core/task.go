package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/sharedlog"
	"impeller/internal/sim"
	"impeller/internal/wire"
)

// DefaultFlushBytes is the output buffer size before a forced flush
// (paper §5.3: 128 KiB chosen by sensitivity study).
const DefaultFlushBytes = 128 << 10

// DefaultFlushInterval bounds how long an output record may sit in the
// in-memory batch buffer before being appended.
const DefaultFlushInterval = 4 * time.Millisecond

// DefaultReadBatch is how many records an input, replay or sink cursor
// pulls per log round trip — the read-side counterpart of
// DefaultBatchRecords.
const DefaultReadBatch = 64

// ErrZombie reports that this task instance was fenced: a newer
// instance exists and the shared log rejected its progress marker, so
// the instance must terminate (paper §3.4).
var ErrZombie = errors.New("core: task instance fenced as zombie")

// Task executes one substream of a stage (paper §3.2): it repeatedly
// reads records from its input substreams, processes them, writes
// output records, and periodically records its progress using the
// configured fault-tolerance protocol.
type Task struct {
	ID       TaskID
	Instance uint64

	stage *Stage
	env   *Env
	log   *sharedlog.Log

	proc  Processor
	store *StateStore
	// emitFn is t.emit bound once at construction: passing the method
	// value to Process directly would allocate a closure per record.
	emitFn Emit

	// slot is the task-slot index within the stage (the <sub> of the
	// task id); groups are the key groups the slot owns under the
	// assignment epoch this instance was spawned at (assign.go). With no
	// rescale headroom groups == [slot] and everything degenerates to
	// the one-substream-per-task layout.
	slot        int
	groups      []int       // owned key groups, ascending
	groupIdx    map[int]int // group -> index into groups/changeBufs
	assignEpoch uint64

	// --- input side (task goroutine only) ---
	inputTags []sharedlog.Tag
	tagPort   map[sharedlog.Tag]int
	tagGroup  map[sharedlog.Tag]int
	cursor    LSN
	inCursor  *sharedlog.Cursor // streaming reader over inputTags
	queue     []queuedBatch
	tracker   commitTracker
	lastSeq   map[seqKey]uint64
	// seqKeys caches seqStoreKey per seqKey: persistSeq runs once per
	// processed batch.
	seqKeys map[seqKey]string
	// groupFloor, set by recovery from the handoff keys, suppresses data
	// records below an acquired group's transfer floor: the donor slot
	// already committed them under the previous assignment epoch.
	groupFloor map[int]LSN
	// skipBelow suppresses re-reads below a producer's checkpointed
	// barrier position after an aligned-checkpoint recovery.
	skipBelow map[TaskID]LSN
	align     *alignState

	// --- output side ---
	outBufs [][]*batchBuf // [port][substream]
	// changeBufs holds buffered state changes per owned group (parallel
	// to groups); curGroup indexes the group whose records are being
	// processed so mutations land in that group's change stream.
	changeBufs [][]Record
	curGroup   int
	outSeq     uint64
	epoch      uint64

	// appender is the task's batched append pipeline; outDests and
	// changeDest are its precomputed destinations — tag sets and
	// completion callbacks built once at construction, so the per-flush
	// path allocates neither key strings nor closures.
	appender    *batcher
	outDests    [][]appendDest // [port][substream]
	changeDests []appendDest   // per owned group (parallel to groups)
	markerTags  []sharedlog.Tag

	// progress accounting, updated from batcher callbacks under
	// progressMu (the callbacks run on the batcher goroutine); the task
	// reads it after drain().
	progressMu  sync.Mutex
	outFirst    map[sharedlog.Tag]LSN
	changeFirst LSN

	activity    bool // anything consumed/produced since last commit
	firstCommit bool // force one commit after recovery
	sched       commitSched
	lastMarker  LSN // the task's latest progress marker (recovered or own); NoLSN if none

	// --- protocol machinery ---
	txn              *TxnCoordinator
	ckpt             *CkptCoordinator
	pendingP2        <-chan struct{} // closed when txn phase 2 completes
	txnTouchedSet    map[sharedlog.Tag]bool
	changedThisEpoch bool
	ckptEpoch        uint64 // latest checkpoint epoch known (marker mode)

	heartbeat func()
	// progress counts heartbeats; with the loop's round counter it forms
	// SchedulerProgress, the monitor's busy-vs-dead signal.
	progress atomic.Uint64
	Metrics  *TaskMetrics

	// --- step state: the resumable position of the task loop (step);
	// only the task's current owner touches it ---
	// recs/ri is the fetched input being ingested and the next record of
	// it (always a record boundary); recs is nil once consumed.
	recs []*sharedlog.Record
	ri   int
	// pendingDrain: the queue may hold batches a drain could move — data
	// was queued since the last drain, or the budget paused one. A paused
	// drain resumes before any new input is ingested.
	pendingDrain bool
	// budget is the work remaining in the current step; processors
	// charge bulk work against it via ProcContext.Charge.
	budget    int
	nextFlush time.Time

	// --- loop driver (Env.Engine == EngineTasklet) ---
	tl       *taskletRun // per-run scheduling state; nil on the goroutine driver
	tlLoop   *taskLoop   // the loop this task is placed on; nil otherwise
	doneRing *spsc[doneEvent]

	// node is the simulated compute node this task runs on; retry
	// wraps log operations with transient-fault retries on its behalf.
	node   string
	retry  *retrier
	runCtx context.Context
}

type queuedBatch struct {
	lsn   LSN
	port  int
	group int           // key group the record arrived on
	tag   sharedlog.Tag // arrival tag (data tag of port×group)
	batch *Batch
}

// seqKey keys duplicate-suppression state by (key group, producer). The
// group matters once a slot owns several groups: the task merges its
// groups' substreams in LSN order, so one producer's seqs interleave
// across groups and a single per-producer floor would drop live
// records. Per-group floors are also what migrates at rescale — a
// group's _seq entries travel in that group's change stream.
type seqKey struct {
	group    int
	producer TaskID
}

// NewTask builds a task instance. The manager supplies the instance
// number it registered in the log's metadata store.
func NewTask(stage *Stage, sub int, instance uint64, env *Env, opts TaskOptions) *Task {
	t := &Task{
		ID:          TaskID(fmt.Sprintf("%s/%d", stage.Name, sub)),
		Instance:    instance,
		slot:        sub,
		groups:      opts.Groups,
		assignEpoch: opts.AssignEpoch,
		stage:       stage,
		env:         env,
		log:         env.Log,
		proc:        stage.NewProcessor(),
		lastSeq:     make(map[seqKey]uint64),
		seqKeys:     make(map[seqKey]string),
		groupFloor:  make(map[int]LSN),
		skipBelow:   make(map[TaskID]LSN),
		outFirst:    make(map[sharedlog.Tag]LSN),
		changeFirst: NoLSN,
		lastMarker:  NoLSN,
		firstCommit: true,
		txn:         opts.Txn,
		ckpt:        opts.Ckpt,
		heartbeat:   opts.Heartbeat,
		Metrics:     &TaskMetrics{},
	}
	if t.groups == nil {
		// Direct construction (tests): derive the slot's groups from the
		// canonical contiguous epoch-1 assignment.
		kg, slots := stage.KeyGroups, stage.Parallelism
		if slots <= 0 {
			slots = 1
		}
		if kg < slots {
			kg = slots
		}
		t.groups = contiguousAssignment(stage.Name, 1, kg, slots).GroupsOf(sub)
		t.assignEpoch = 1
	}
	t.groupIdx = make(map[int]int, len(t.groups))
	for i, g := range t.groups {
		t.groupIdx[g] = i
	}
	if opts.Metrics != nil {
		t.Metrics = opts.Metrics
	}
	t.emitFn = t.emit
	hb := t.heartbeat
	t.heartbeat = func() {
		t.progress.Add(1)
		if hb != nil {
			hb()
		}
	}
	if env.loops != nil {
		t.tlLoop = env.loops.place(string(t.ID))
		t.doneRing = newSPSC[doneEvent](taskletDoneEvents, t.tlLoop.notify)
	}
	t.node = ComputeNode(t.ID)
	t.retry = newRetrier(env, t.node, t.Metrics)
	t.store = NewStateStore(t.onStateChange)

	t.inputTags = make([]sharedlog.Tag, 0, len(stage.Inputs)*len(t.groups))
	t.tagPort = make(map[sharedlog.Tag]int, len(stage.Inputs)*len(t.groups))
	t.tagGroup = make(map[sharedlog.Tag]int, len(stage.Inputs)*len(t.groups))
	for port, in := range stage.Inputs {
		for _, g := range t.groups {
			tag := DataTag(in, g)
			t.inputTags = append(t.inputTags, tag)
			t.tagPort[tag] = port
			t.tagGroup[tag] = g
		}
	}

	t.outBufs = make([][]*batchBuf, len(stage.Outputs))
	t.outDests = make([][]appendDest, len(stage.Outputs))
	for i, out := range stage.Outputs {
		t.outBufs[i] = make([]*batchBuf, out.Partitions)
		t.outDests[i] = make([]appendDest, out.Partitions)
		for p := range t.outBufs[i] {
			t.outBufs[i][p] = &batchBuf{}
		}
		if out.Broadcast {
			// Broadcast batches park in substream 0's buffer and carry
			// every substream tag in one atomic append.
			t.outDests[i][0] = t.newOutDest(out.Tags())
		} else {
			for p := range t.outDests[i] {
				t.outDests[i][p] = t.newOutDest([]sharedlog.Tag{DataTag(out.Stream, p)})
			}
		}
	}
	// Change destinations are per owned key group under the marker and
	// unsafe protocols (GroupChangeTag: the group's state migrates with
	// it at rescale); the Kafka-txn baseline keeps its per-task change
	// log, whose epoch-gated replay is inherently per-task.
	t.changeBufs = make([][]Record, len(t.groups))
	t.changeDests = make([]appendDest, len(t.groups))
	for i, g := range t.groups {
		if env.Protocol == ProtoKafkaTxn {
			t.changeDests[i] = t.newChangeDest(ChangeLogTag(t.ID))
		} else {
			t.changeDests[i] = t.newChangeDest(GroupChangeTag(stage.Name, g))
		}
	}

	// Marker tags — every downstream substream, the task log, and (for
	// stateful tasks) the owned groups' change logs (paper Figure 6) —
	// never vary between commits of one instance; build them once.
	for _, out := range stage.Outputs {
		t.markerTags = append(t.markerTags, out.Tags()...)
	}
	t.markerTags = append(t.markerTags, TaskLogTag(t.ID))
	if stage.Stateful {
		for _, g := range t.groups {
			t.markerTags = append(t.markerTags, GroupChangeTag(stage.Name, g))
		}
	}

	switch env.Protocol {
	case ProtoProgressMarker:
		// A task may read several input substreams; committed ranges
		// are resolved against the first input tag for single-input
		// stages and per-tag for joins. One tracker per tag would be
		// fully general; markers carry OutFirst per tag, and a task's
		// tags are disjoint, so a combined tracker keyed by tag works:
		// we use a multiTagTracker wrapping one markerTracker per tag.
		t.tracker = newMultiTagMarkerTracker(t.inputTags)
	case ProtoKafkaTxn:
		t.tracker = newTxnTracker()
	default:
		t.tracker = openTracker{}
	}
	if env.Protocol == ProtoAlignedCheckpoint {
		t.align = newAlignState(stage)
	}
	return t
}

// TaskOptions carries optional manager-provided wiring.
type TaskOptions struct {
	Txn       *TxnCoordinator
	Ckpt      *CkptCoordinator
	Heartbeat func()
	Metrics   *TaskMetrics
	// Groups are the key groups this slot owns under AssignEpoch (the
	// manager reads them from the assignment plane). Nil derives the
	// contiguous epoch-1 assignment from the stage — the pre-rescaling
	// identity layout when KeyGroups == Parallelism.
	Groups      []int
	AssignEpoch uint64
}

// appendDest is a precomputed append destination: the tag set for one
// output substream (or the broadcast set, or the change log) plus the
// completion callback that folds the assigned LSN into the task's
// progress accounting. Computed once at construction — the old path
// formatted a map key string and allocated a fresh closure on every
// flush.
type appendDest struct {
	tags   []sharedlog.Tag
	onDone func(lsn LSN, err error)
}

func (t *Task) newOutDest(tags []sharedlog.Tag) appendDest {
	return appendDest{tags: tags, onDone: func(lsn LSN, err error) {
		if err != nil {
			return
		}
		t.completed(doneEvent{tags: tags, lsn: lsn})
	}}
}

// completed accounts one append completion: through the owning loop's
// done ring on the loop driver, by a direct fold otherwise (and when the
// ring is full).
func (t *Task) completed(ev doneEvent) {
	if r := t.doneRing; r != nil && r.tryPush(ev) {
		return
	}
	t.foldProgress(ev)
}

func (t *Task) newChangeDest(tag sharedlog.Tag) appendDest {
	return appendDest{tags: []sharedlog.Tag{tag}, onDone: func(lsn LSN, err error) {
		if err != nil {
			return
		}
		t.completed(doneEvent{change: true, lsn: lsn})
	}}
}

// multiTagMarkerTracker dispatches classification to a per-input-tag
// markerTracker. A data batch belongs to exactly one of the consumer's
// input tags — the one it arrived on; a marker may address several.
type multiTagMarkerTracker struct {
	byTag map[sharedlog.Tag]*markerTracker
}

func newMultiTagMarkerTracker(tags []sharedlog.Tag) *multiTagMarkerTracker {
	m := &multiTagMarkerTracker{byTag: make(map[sharedlog.Tag]*markerTracker, len(tags))}
	for _, tag := range tags {
		m.byTag[tag] = newMarkerTracker(tag)
	}
	return m
}

func (m *multiTagMarkerTracker) observeControl(b *Batch, lsn LSN) error {
	for _, t := range m.byTag {
		if err := t.observeControl(b, lsn); err != nil {
			return err
		}
	}
	return nil
}

func (m *multiTagMarkerTracker) classify(tag sharedlog.Tag, b *Batch, lsn LSN) classification {
	t := m.byTag[tag]
	if t == nil {
		return classUnknown
	}
	return t.classify(b, lsn)
}

// batchBuf accumulates records destined for one output substream.
type batchBuf struct {
	records []Record
	bytes   int
}

func (b *batchBuf) add(r Record) {
	b.records = append(b.records, r)
	b.bytes += 16 + len(r.Key) + len(r.Value)
}

func (b *batchBuf) take() []Record {
	out := b.records
	b.records = nil
	b.bytes = 0
	return out
}

// recycle hands a taken records slice back for reuse after its contents
// have been encoded. References are dropped first so the backing array
// does not pin application payloads.
func (b *batchBuf) recycle(records []Record) {
	for i := range records {
		records[i] = Record{}
	}
	if b.records == nil {
		b.records = records[:0]
	}
}

// --- ProcContext ---

// Store implements ProcContext.
func (t *Task) Store() *StateStore { return t.store }

// TaskID implements ProcContext.
func (t *Task) TaskID() TaskID { return t.ID }

// Substream implements ProcContext: the task-slot index.
func (t *Task) Substream() int { return t.slot }

// Charge implements ProcContext: processors doing bulk internal work in
// one Process call (a join scanning its buffers, a window firing many
// panes) report it so the cooperative engine accounts it against the
// step budget (which the goroutine driver never exhausts).
func (t *Task) Charge(n int) { t.budget -= n }

// onStateChange captures a state mutation into the change-log buffer.
// Only stateful stages under change-log protocols persist changes;
// aligned checkpoints persist state via snapshots instead.
func (t *Task) onStateChange(key string, value []byte, deleted bool) {
	if !t.stage.Stateful {
		return
	}
	if t.env.Protocol == ProtoAlignedCheckpoint {
		return
	}
	t.outSeq++
	t.changeBufs[t.curGroup] = append(t.changeBufs[t.curGroup], Record{
		Seq:   t.outSeq,
		Key:   []byte(key),
		Value: EncodeChange(value, deleted),
	})
	t.Metrics.ChangeRecords.Add(1)
	t.activity = true
	t.changedThisEpoch = true
}

// Run recovers the task's position and state, then processes input
// until ctx is cancelled or the instance is fenced. It always returns a
// non-nil error: ctx.Err() on clean shutdown, ErrZombie when fenced.
//
// Run is the goroutine driver of step: it reads the input cursor itself,
// blocking at most until the next flush or commit deadline, and calls
// the step with no budget and blocking operations inline. The loop
// driver (runOnLoop, tasklet.go) is the other one.
func (t *Task) Run(ctx context.Context) error {
	defer t.closeAppenders()
	if err := t.open(ctx); err != nil {
		return err
	}
	if t.tlLoop != nil {
		return t.runOnLoop(ctx)
	}
	for {
		deadline := t.nextFlush
		if t.sched.next.Before(deadline) {
			deadline = t.sched.next
		}
		if wait := deadline.Sub(t.env.Clock.Now()); wait > 0 {
			rctx, cancel := context.WithTimeout(ctx, wait)
			// The batch is a view into the cursor's buffer, valid until
			// the next fetch: an unbudgeted step consumes all of it.
			recs, err := t.inCursor.NextBatchBlocking(rctx, DefaultReadBatch)
			cancel()
			if err == nil {
				t.recs = recs
			} else {
				switch fault, horizon := t.retry.handleReadErr(ctx, err, t.inCursor, t.log); fault {
				case readSeeked:
					t.cursor = horizon
				case readFatal:
					return fmt.Errorf("task %s: read: %w", t.ID, err)
				}
				// Otherwise cancelled, backed off, or just past the
				// flush/commit deadline: the step does whatever is due.
			}
		}
		if _, err := t.step(unbudgeted, t.inCursor.Buffered() > 0); err != nil {
			return err
		}
	}
}

// open is the blocking prologue of a run, on the spawn goroutine under
// either driver: recover position and state, open the processor, open
// the input cursor — one streaming reader over every input tag, one log
// round trip per DefaultReadBatch records (plus bounded readahead) — and set
// the first flush and commit deadlines.
func (t *Task) open(ctx context.Context) error {
	t.runCtx = ctx
	clock := t.env.Clock
	start := clock.Now()
	if err := t.recover(ctx); err != nil {
		return fmt.Errorf("task %s: recover: %w", t.ID, err)
	}
	t.Metrics.RecoveryNanos.Store(clock.Now().Sub(start).Nanoseconds())
	if err := t.proc.Open(t); err != nil {
		return fmt.Errorf("task %s: open: %w", t.ID, err)
	}
	t.inCursor = t.log.OpenCursorOpts(t.inputTags, t.cursor, cursorOpts(&t.Metrics.Cursor))
	now := clock.Now()
	t.nextFlush = now.Add(DefaultFlushInterval)
	t.sched.next = t.env.commitTick(now)
	return nil
}

// cursorOpts is the options of every cursor a task opens: three batches
// of readahead, counters routed to stats — Metrics.Cursor for the input
// cursor, Metrics.RecoveryCursor for recovery's replay cursors, so
// replay round trips are counted without input-loop noise.
func cursorOpts(stats *sharedlog.CursorStats) sharedlog.CursorOptions {
	return sharedlog.CursorOptions{Stats: stats, Prefetch: 3 * DefaultReadBatch}
}

// unbudgeted is the step budget that never runs out: the goroutine
// driver's, and every blocking operation's (runBlocking).
const unbudgeted = math.MaxInt

// step is the task loop of paper §3.2 — read, process, write, record
// progress — cut into resumable slices, and the only implementation of
// it. One call finishes a drain the budget paused, ingests the fetched
// input (t.recs) from where the last call stopped, flushes outputs when
// the flush interval has passed and commits when commitDue says so. It
// spends at most budget work units (records processed plus whatever
// processors Charge), overshooting by at most one producer batch: it
// pauses only between producer batches, so no commit opportunity falls
// inside one and a marker never covers half of a batch.
//
// A driver differs from the other in three things only: where t.recs
// comes from (more reports fetched input the driver has not handed over
// yet), the budget, and how a blocking operation runs (runBlocking).
// worked reports that the step moved something — the loop driver's
// park-or-spin signal.
func (t *Task) step(budget int, more bool) (worked bool, err error) {
	if err := t.runCtx.Err(); err != nil {
		return true, err
	}
	if t.env.Faults.Crashed(t.node) {
		// This instance's compute node crashed: everything in flight is
		// lost. Die; the manager restarts us with backoff (replacements
		// keep failing until the node recovers).
		return true, fmt.Errorf("task %s: %w", t.ID, sim.ErrCrashed)
	}
	t.heartbeat()
	t.drainCompletions()

	t.budget = budget
	worked = t.pendingDrain || t.recs != nil
	if t.pendingDrain {
		err = t.drain()
	}
	if err == nil && !t.pendingDrain && t.recs != nil {
		err = t.ingest()
	}
	if err != nil {
		return true, fmt.Errorf("task %s: %w", t.ID, err)
	}
	if t.blocked() {
		return true, nil // alignment completion is running on the blocker
	}

	now := t.env.Clock.Now()
	if !now.Before(t.nextFlush) {
		t.flushOutputs()
		t.nextFlush = now.Add(DefaultFlushInterval)
		worked = true
	}
	if t.commitDue(now, t.recs == nil && !t.pendingDrain && !more) {
		if err := t.runBlocking(opCommit); err != nil {
			return true, fmt.Errorf("task %s: %w", t.ID, err)
		}
		return true, nil
	}
	return worked, nil
}

// ingest consumes the fetched input from t.ri, in LSN order: control
// records update the tracker (or barrier alignment), data records enter
// the queue, and the queue drains as far as classification and the
// budget allow (paper §3.3.3). When the budget runs out it returns
// without consuming the record in hand; the next step resumes there.
//
// Batching does not move the marker boundary: classification state only
// changes when a control record is observed, so draining once per run
// of data records is equivalent to draining after every record — and
// each control record still drains the pending run first, then is
// processed at its exact LSN position. The impellerdebug marker-order
// asserts hold unchanged.
func (t *Task) ingest() error {
	for t.ri < len(t.recs) {
		if t.budget <= 0 {
			return nil
		}
		rec := t.recs[t.ri]
		b, err := DecodeBatch(rec.Payload)
		if err != nil {
			return err
		}
		if b.Kind.isControl() {
			if t.pendingDrain {
				if err := t.drain(); err != nil {
					return err
				}
				if t.pendingDrain {
					return nil // budget out; rec is looked at again next step
				}
			}
			t.cursor = rec.LSN + 1
			t.ri++
			if b.Kind == KindBarrier && t.align != nil {
				complete, err := t.onBarrier(b, rec.LSN)
				if err != nil {
					return err
				}
				if complete {
					// The final barrier arrived: completing the alignment
					// snapshots synchronously and drains appends.
					if err := t.runBlocking(opAlign); err != nil || t.blocked() {
						return err
					}
				}
				continue
			}
			if err := t.observeControl(b, rec.LSN); err != nil {
				return err
			}
			if err := t.drain(); err != nil {
				return err
			}
			if t.pendingDrain {
				return nil
			}
			continue
		}

		t.cursor = rec.LSN + 1
		t.ri++
		switch b.Kind {
		case KindSource, KindData:
			port, group, tag := t.routeFor(rec)
			if fl, ok := t.groupFloor[group]; ok && rec.LSN < fl {
				// Below the group's handoff floor: the donor slot
				// committed this record before the group migrated here.
				t.Metrics.DroppedBelowFloor.Add(uint64(len(b.Records)))
				continue
			}
			q := queuedBatch{lsn: rec.LSN, port: port, group: group, tag: tag, batch: b}
			if t.align != nil && t.align.blocked(b.Producer) {
				// Aligned checkpoint in progress: post-barrier records
				// from producers whose barrier already arrived wait out
				// the alignment (Flink's channel blocking).
				t.align.buffer(q)
				continue
			}
			t.queue = append(t.queue, q)
			t.Metrics.Buffered.Add(uint64(len(b.Records)))
			t.pendingDrain = true
		default:
			// Change-log, offset, and txn-log records carry our own tags
			// only; another task's never reach us. Ignore defensively.
		}
	}
	t.recs, t.ri = nil, 0
	if t.pendingDrain {
		return t.drain()
	}
	return nil
}

// blockingOp names the two operations of a task that wait on the log.
type blockingOp uint8

const (
	// opCommit is t.commit: flush, drain appends, append the commit record.
	opCommit blockingOp = iota
	// opAlign is completeAlignment: drain, snapshot synchronously,
	// forward the barrier.
	opAlign
)

// runBlocking runs op where the driver allows waiting: inline on the
// goroutine driver; on the loop driver it hands op to the blocker, and
// the caller must yield at once (blocked reports true until the result
// is collected). Steps pause only between producer batches, so op always
// starts at a producer-batch boundary.
func (t *Task) runBlocking(op blockingOp) error {
	if t.tl != nil {
		t.tl.blocked = true
		t.tl.blockReq <- op
		return nil
	}
	return t.doBlocking(op)
}

// blocked reports a blocking operation in flight on the blocker, which
// owns all task state until its result is collected.
func (t *Task) blocked() bool { return t.tl != nil && t.tl.blocked }

// doBlocking executes op with the step budget lifted and restores it
// after: whoever runs op owns the task exclusively and may wait, and the
// drains inside it must run to exhaustion — completeAlignment snapshots
// right after its drain, so a drain the budget paused there would leave
// pre-barrier records out of the snapshot.
func (t *Task) doBlocking(op blockingOp) error {
	budget := t.budget
	t.budget = unbudgeted
	defer func() { t.budget = budget }()
	if op == opAlign {
		return t.completeAlignment()
	}
	if err := t.commit(t.runCtx); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}

func (t *Task) observeControl(b *Batch, lsn LSN) error {
	if b.Kind == KindMarker {
		t.noteMarker(b.Producer)
	}
	return t.tracker.observeControl(b, lsn)
}

// routeFor maps a data record to the input port, key group, and tag it
// arrived on.
func (t *Task) routeFor(rec *sharedlog.Record) (port, group int, tag sharedlog.Tag) {
	for _, tg := range rec.Tags {
		if p, ok := t.tagPort[tg]; ok {
			return p, t.tagGroup[tg], tg
		}
	}
	if len(t.inputTags) > 0 {
		return 0, t.tagGroup[t.inputTags[0]], t.inputTags[0]
	}
	return 0, 0, ""
}

// drain repeatedly examines the head of the queue: committed batches are
// processed, uncommitted ones discarded, and the first unknown batch
// stops the drain (paper §3.3.3, Figure 5). It also stops, between
// producer batches, when the step budget runs out; t.pendingDrain then
// stays set and the next step resumes here before ingesting anything.
func (t *Task) drain() error {
	done := 0 // head entries retired by this drain
	defer func() { t.queue = dropFront(t.queue, done) }()
	for done < len(t.queue) {
		if t.budget <= 0 {
			t.pendingDrain = true
			return nil
		}
		head := t.queue[done]
		switch t.classify(head) {
		case classCommitted:
			done++
			if err := t.processBatch(head); err != nil {
				return err
			}
		case classUncommitted:
			done++
			t.Metrics.DroppedUncommitted.Add(uint64(len(head.batch.Records)))
			t.activity = true
		case classUnknown:
			t.pendingDrain = false
			return nil
		}
	}
	t.pendingDrain = false
	return nil
}

// dropFront removes the first n entries of an unknown-state queue in
// place. Unlike q = q[n:], which walks the backing array forward until
// every append reallocates, it keeps the array for the next ingest; the
// vacated tail is cleared so it pins no batch.
func dropFront(q []queuedBatch, n int) []queuedBatch {
	if n == 0 {
		return q
	}
	m := copy(q, q[n:])
	clear(q[m:])
	return q[:m]
}

func (t *Task) classify(q queuedBatch) classification {
	return t.tracker.classify(q.tag, q.batch, q.lsn)
}

// inputEnd is the highest LSN such that every input record at or below
// it has been consumed (processed or discarded); progress markers
// record it and recovery resumes just past it.
func (t *Task) inputEnd() LSN {
	if len(t.queue) > 0 {
		return t.queue[0].lsn - 1
	}
	if t.align != nil {
		if l, ok := t.align.earliestBuffered(); ok {
			return l - 1
		}
	}
	if t.cursor == 0 {
		return NoLSN
	}
	return t.cursor - 1
}

// processBatch runs the committed batch's records through duplicate
// suppression and the processor.
func (t *Task) processBatch(q queuedBatch) error {
	// Long drains (e.g. a join scanning large buffers) must not look
	// like a dead task to the manager.
	t.heartbeat()
	t.Charge(len(q.batch.Records))
	b := q.batch
	if skip, ok := t.skipBelow[b.Producer]; ok && q.lsn <= skip {
		// Already reflected in the restored aligned checkpoint.
		t.Metrics.DroppedDuplicate.Add(uint64(len(b.Records)))
		return nil
	}
	// Attribute state mutations (and the _seq mirror below) to the
	// arrival group's change stream.
	t.curGroup = t.groupIdx[q.group]
	sk := seqKey{group: q.group, producer: b.Producer}
	for i := range b.Records {
		r := &b.Records[i]
		if r.Seq <= t.lastSeq[sk] {
			t.Metrics.DroppedDuplicate.Add(1)
			continue
		}
		t.lastSeq[sk] = r.Seq
		d := Datum{Key: r.Key, Value: r.Value, EventTime: r.EventTime}
		if err := t.invokeProcessor(q.port, d); err != nil {
			return err
		}
		t.Metrics.Processed.Add(1)
	}
	t.persistSeq(sk)
	t.activity = true
	if b.Kind != KindSource {
		// Under the marker protocol only an upstream marker releases a
		// non-source batch; commitDue ignores the flag otherwise.
		t.sched.released = true
	}
	return nil
}

func (t *Task) invokeProcessor(port int, d Datum) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = RecoverChainError(r)
		}
	}()
	return t.proc.Process(port, d, t.emitFn)
}

// persistSeq mirrors duplicate-suppression state into the state store
// for stateful tasks so it survives recovery with the change log (or
// the aligned snapshot). Stateless marker-mode tasks keep it in memory
// only: their gating already excludes cross-instance duplicates.
func (t *Task) persistSeq(sk seqKey) {
	if !t.stage.Stateful && t.env.Protocol != ProtoAlignedCheckpoint {
		return
	}
	key, ok := t.seqKeys[sk]
	if !ok {
		key = seqStoreKey(sk)
		t.seqKeys[sk] = key
	}
	var buf [8]byte
	putUint64(buf[:], t.lastSeq[sk])
	t.store.Put(key, buf[:])
}

// seqStoreKey is the state-store key mirroring one (group, producer)
// duplicate-suppression floor; the group prefix keeps the entry in its
// group's change stream so it migrates with the group at rescale.
func seqStoreKey(sk seqKey) string {
	return fmt.Sprintf("_seq/%d/%s", sk.group, sk.producer)
}

// emit buffers one output record for the given port, flushing if the
// buffer reaches DefaultFlushBytes.
func (t *Task) emit(out int, d Datum) {
	spec := t.stage.Outputs[out]
	t.outSeq++
	r := Record{Seq: t.outSeq, EventTime: d.EventTime, Key: d.Key, Value: d.Value}
	t.Metrics.Emitted.Add(1)
	t.activity = true
	if spec.Broadcast {
		// One multi-tag append reaches every substream atomically; park
		// it in substream 0's buffer and tag at flush time.
		buf := t.outBufs[out][0]
		buf.add(r)
		if buf.bytes >= DefaultFlushBytes {
			t.flushBuf(out, 0)
		}
		return
	}
	sub := spec.substreamFor(d.Key)
	buf := t.outBufs[out][sub]
	buf.add(r)
	if buf.bytes >= DefaultFlushBytes {
		t.flushBuf(out, sub)
	}
}

// flushOutputs flushes every non-empty output and change-log buffer,
// then seals the accumulating append batch — so one flush tick becomes
// one group commit covering the tick's data and change-log appends
// together instead of one log append per destination.
func (t *Task) flushOutputs() {
	for out := range t.outBufs {
		for sub := range t.outBufs[out] {
			if len(t.outBufs[out][sub].records) > 0 {
				t.flushBuf(out, sub)
			}
		}
	}
	t.flushChanges()
	if t.appender != nil {
		t.appender.flush()
	}
}

// flushBuf submits one output substream's buffered records as a batch.
func (t *Task) flushBuf(out, sub int) {
	buf := t.outBufs[out][sub]
	records := buf.take()
	if len(records) == 0 {
		return
	}
	batch := Batch{
		Kind:     KindData,
		Producer: t.ID,
		Instance: t.Instance,
		Epoch:    t.dataEpoch(),
		Records:  records,
	}
	dest := &t.outDests[out][sub]
	if t.env.Protocol == ProtoKafkaTxn {
		t.txnRegister(dest.tags)
	}
	eb := wire.GetBuf()
	eb.B = batch.AppendTo(eb.B)
	t.submitAppend(dest.tags, eb.B, eb, dest.onDone)
	buf.recycle(records)
}

// flushChanges submits buffered change-log records, one batch per owned
// group with pending changes.
func (t *Task) flushChanges() {
	for i := range t.changeBufs {
		records := t.changeBufs[i]
		if len(records) == 0 {
			continue
		}
		batch := Batch{
			Kind:     KindChange,
			Producer: t.ID,
			Instance: t.Instance,
			Epoch:    t.dataEpoch(),
			Records:  records,
		}
		eb := wire.GetBuf()
		eb.B = batch.AppendTo(eb.B)
		dest := &t.changeDests[i]
		t.submitAppend(dest.tags, eb.B, eb, dest.onDone)
		for j := range records {
			records[j] = Record{}
		}
		t.changeBufs[i] = records[:0]
	}
}

// dataEpoch is the commit epoch stamped on data batches: the open
// transaction under the Kafka protocol, zero otherwise.
func (t *Task) dataEpoch() uint64 {
	if t.env.Protocol == ProtoKafkaTxn {
		return t.epoch
	}
	return 0
}

// submitAppend hands one encoded payload to the task's batcher. eb, if
// non-nil, is the pooled buffer backing payload, recycled once the
// append completes.
func (t *Task) submitAppend(tags []sharedlog.Tag, payload []byte, eb *wire.Buf, onDone func(LSN, error)) {
	if t.appender == nil {
		ctx := t.runCtx
		if ctx == nil {
			ctx = context.Background()
		}
		var notify func()
		if t.tlLoop != nil {
			// Wake the owning loop once per completed append batch so the
			// done ring is drained promptly.
			loop := t.tlLoop
			notify = func() { poke(loop.notify) }
		}
		t.appender = newBatcher(t.log, BatchConfig{}, t.retry, ctx, t.env.Clock, t.Metrics, notify)
	}
	t.Metrics.Appends.Add(1)
	t.appender.submit(tags, payload, eb, onDone)
}

// drainAppends waits for all in-flight appends; a commit record must
// follow everything it covers in the log's total order.
func (t *Task) drainAppends() error {
	if t.appender == nil {
		return nil
	}
	err := t.appender.drain()
	// On the cooperative engine completions sit in the done ring; fold
	// them before the caller builds a marker from outFirst/changeFirst.
	// The caller owns the task exclusively here (blocker during commit),
	// so this cannot race the loop's per-step drain.
	t.drainCompletions()
	return err
}

func (t *Task) closeAppenders() {
	if t.appender != nil {
		t.appender.close()
	}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8 && i < len(b); i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
