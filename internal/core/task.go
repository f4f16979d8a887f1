package core

import (
	"context"
	"errors"
	"fmt"
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

// DefaultReadBatch is how many records a task's input cursor pulls per
// log round trip when Env.ReadBatch is 0 — the read-side counterpart
// of BatchConfig.MaxRecords.
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
	readBatch int               // records per cursor fetch
	queue     []queuedBatch
	tracker   commitTracker
	lastSeq   map[seqKey]uint64
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
	batchCfg    BatchConfig
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

	// --- cooperative engine (Env.Engine == EngineTasklet) ---
	tl       *taskletRun // per-run scheduling state; nil on the goroutine engine
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

	t.batchCfg = env.Batch
	if opts.Batch != (BatchConfig{}) {
		t.batchCfg = opts.Batch
	}
	t.batchCfg = t.batchCfg.withDefaults()
	t.readBatch = env.ReadBatch
	if t.readBatch <= 0 {
		t.readBatch = DefaultReadBatch
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
	// Batch, when non-zero, overrides Env.Batch for this task.
	Batch BatchConfig
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
		// On the cooperative engine the completion posts to the owning
		// loop's ring and is folded there; the direct fold below is the
		// goroutine-engine path and the ring-overflow fallback.
		if r := t.doneRing; r != nil && r.tryPush(doneEvent{tags: tags, lsn: lsn}) {
			return
		}
		t.progressMu.Lock()
		for _, tag := range tags {
			if cur, ok := t.outFirst[tag]; !ok || lsn < cur {
				t.outFirst[tag] = lsn
			}
		}
		t.progressMu.Unlock()
	}}
}

func (t *Task) newChangeDest(tag sharedlog.Tag) appendDest {
	return appendDest{tags: []sharedlog.Tag{tag}, onDone: func(lsn LSN, err error) {
		if err != nil {
			return
		}
		if r := t.doneRing; r != nil && r.tryPush(doneEvent{change: true, lsn: lsn}) {
			return
		}
		t.progressMu.Lock()
		if t.changeFirst == NoLSN || lsn < t.changeFirst {
			t.changeFirst = lsn
		}
		t.progressMu.Unlock()
	}}
}

// multiTagMarkerTracker dispatches classification to a per-input-tag
// markerTracker. A data batch belongs to exactly one of the task's
// input tags; a marker may address several of them.
type multiTagMarkerTracker struct {
	byTag map[sharedlog.Tag]*markerTracker
	tags  []sharedlog.Tag
}

func newMultiTagMarkerTracker(tags []sharedlog.Tag) *multiTagMarkerTracker {
	m := &multiTagMarkerTracker{byTag: make(map[sharedlog.Tag]*markerTracker, len(tags)), tags: tags}
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

// classifyTagged classifies a batch that arrived via tag.
func (m *multiTagMarkerTracker) classifyTagged(tag sharedlog.Tag, b *Batch, lsn LSN) classification {
	t := m.byTag[tag]
	if t == nil {
		return classUnknown
	}
	return t.classify(b, lsn)
}

func (m *multiTagMarkerTracker) observe(b *Batch, lsn LSN) error { return m.observeControl(b, lsn) }

// observeControl/classify satisfy commitTracker; classify uses the
// first tag (single-input fast path). The task runtime calls
// classifyTagged directly when it knows the arrival tag.
func (m *multiTagMarkerTracker) classify(b *Batch, lsn LSN) classification {
	return m.classifyTagged(m.tags[0], b, lsn)
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
// step budget. No-op on the goroutine engine.
func (t *Task) Charge(n int) {
	if t.tl != nil {
		t.tl.budget -= n
	}
}

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
func (t *Task) Run(ctx context.Context) error {
	if t.tlLoop != nil {
		return t.runTasklet(ctx)
	}
	t.runCtx = ctx
	defer t.closeAppenders()
	recoverStart := time.Now()
	if err := t.recover(ctx); err != nil {
		return fmt.Errorf("task %s: recover: %w", t.ID, err)
	}
	t.Metrics.RecoveryNanos.Store(time.Since(recoverStart).Nanoseconds())
	if err := t.proc.Open(t); err != nil {
		return fmt.Errorf("task %s: open: %w", t.ID, err)
	}

	// The input hot path is a streaming cursor over every input tag:
	// one log round trip serves up to readBatch records (plus bounded
	// readahead).
	t.inCursor = t.log.OpenCursorOpts(t.inputTags, t.cursor, t.inputCursorOpts())

	clock := t.env.Clock
	nextFlush := clock.Now().Add(DefaultFlushInterval)
	t.sched.next = t.env.commitTick(clock.Now())

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if t.env.Faults.Crashed(t.node) {
			// This instance's compute node crashed: everything in
			// flight is lost. Die; the manager restarts us with backoff
			// (replacements keep failing until the node recovers).
			return fmt.Errorf("task %s: %w", t.ID, sim.ErrCrashed)
		}
		t.heartbeat()

		now := clock.Now()
		deadline := nextFlush
		if t.sched.next.Before(deadline) {
			deadline = t.sched.next
		}
		if wait := deadline.Sub(now); wait > 0 {
			rctx, cancel := context.WithTimeout(ctx, wait)
			recs, err := t.inCursor.NextBatchBlocking(rctx, t.readBatch)
			cancel()
			switch {
			case err == nil && len(recs) > 0:
				if err := t.ingestBatch(recs); err != nil {
					return fmt.Errorf("task %s: %w", t.ID, err)
				}
			case errors.Is(err, context.DeadlineExceeded):
				// fall through to flush/commit
			case errors.Is(err, context.Canceled):
				return ctx.Err()
			case errors.Is(err, sharedlog.ErrCursorInvalidated):
				// Our resume point was garbage-collected along with
				// everything we had consumed; skip to the horizon.
				t.cursor = t.log.TrimHorizon()
				t.inCursor.Seek(t.cursor)
			case sharedlog.IsRetryable(err):
				// Transient: a storage shard is down or we are cut off
				// from the log. Back off briefly and re-poll; the
				// deadline checks below still run, so commits are not
				// starved while the fault lasts. The cursor stays valid
				// across transient errors.
				t.Metrics.Retries.Add(1)
				if !t.retry.sleep(ctx, t.retry.backoff(0)) {
					return ctx.Err()
				}
			case err != nil:
				return fmt.Errorf("task %s: read: %w", t.ID, err)
			}
		}

		now = clock.Now()
		if !now.Before(nextFlush) {
			t.flushOutputs()
			nextFlush = now.Add(DefaultFlushInterval)
		}
		if t.commitDue(now, t.inCursor.Buffered() == 0) {
			if err := t.commit(ctx); err != nil {
				return fmt.Errorf("task %s: commit: %w", t.ID, err)
			}
		}
	}
}

// inputCursorOpts builds the input cursor's options from the task's
// read-batch setting: readBatch 1 is the per-record ablation, so
// readahead is disabled to keep it a faithful point-read baseline.
func (t *Task) inputCursorOpts() sharedlog.CursorOptions {
	opts := sharedlog.CursorOptions{Stats: &t.Metrics.Cursor}
	if t.readBatch == 1 {
		opts.Prefetch = -1
	} else {
		opts.Prefetch = 3 * t.readBatch
	}
	return opts
}

// ingestBatch handles one cursor read batch, in LSN order: control
// records update the tracker (or barrier alignment), data records enter
// the queue, and the queue drains as far as classification allows
// (paper §3.3.3).
//
// Batching does not move the marker boundary: classification state only
// changes when a control record is observed, so draining once per run
// of data records is equivalent to the old drain-after-every-record —
// and each control record still drains the pending run first, then is
// processed at its exact LSN position. The impellerdebug marker-order
// asserts hold unchanged.
func (t *Task) ingestBatch(recs []*sharedlog.Record) error {
	pendingDrain := false
	for _, rec := range recs {
		t.cursor = rec.LSN + 1
		b, err := DecodeBatch(rec.Payload)
		if err != nil {
			return err
		}
		port, group, tag := t.routeFor(rec)

		if b.Kind.isControl() {
			if pendingDrain {
				if err := t.drainQueue(); err != nil {
					return err
				}
				pendingDrain = false
			}
			if b.Kind == KindBarrier && t.align != nil {
				complete, err := t.onBarrier(b, rec.LSN)
				if err != nil {
					return err
				}
				if complete {
					if err := t.completeAlignment(); err != nil {
						return err
					}
				}
				continue
			}
			if err := t.observeControl(b, rec.LSN); err != nil {
				return err
			}
			if err := t.drainQueue(); err != nil {
				return err
			}
			continue
		}

		switch b.Kind {
		case KindSource, KindData:
			if fl, ok := t.groupFloor[group]; ok && rec.LSN < fl {
				// Below the group's handoff floor: the donor slot
				// committed this record before the group migrated here.
				t.Metrics.DroppedBelowFloor.Add(uint64(len(b.Records)))
				continue
			}
			if t.align != nil && t.align.blocked(b.Producer) {
				// Aligned checkpoint in progress: post-barrier records
				// from producers whose barrier already arrived wait out
				// the alignment (Flink's channel blocking).
				t.align.buffer(queuedBatch{lsn: rec.LSN, port: port, group: group, tag: tag, batch: b})
				continue
			}
			t.queue = append(t.queue, queuedBatch{lsn: rec.LSN, port: port, group: group, tag: tag, batch: b})
			t.Metrics.Buffered.Add(uint64(len(b.Records)))
			pendingDrain = true
		default:
			// Change-log, offset, and txn-log records carry our own tags
			// only; another task's never reach us. Ignore defensively.
		}
	}
	if pendingDrain {
		return t.drainQueue()
	}
	return nil
}

func (t *Task) observeControl(b *Batch, lsn LSN) error {
	if b.Kind == KindMarker {
		t.noteMarker(b.Producer)
	}
	if mt, ok := t.tracker.(*multiTagMarkerTracker); ok {
		return mt.observe(b, lsn)
	}
	return t.tracker.observeControl(b, lsn)
}

func (t *Task) classify(q queuedBatch) classification {
	if mt, ok := t.tracker.(*multiTagMarkerTracker); ok {
		return mt.classifyTagged(q.tag, q.batch, q.lsn)
	}
	return t.tracker.classify(q.batch, q.lsn)
}

// routeFor maps a log record to the input port, key group, and tag it
// arrived on. Group and tag are meaningful for data records only —
// control records may carry several of our tags.
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

// drainQueue repeatedly examines the head of the queue: committed
// batches are processed, uncommitted ones discarded, and the first
// unknown batch stops the drain (paper §3.3.3, Figure 5).
func (t *Task) drainQueue() error {
	for len(t.queue) > 0 {
		head := t.queue[0]
		switch t.classify(head) {
		case classCommitted:
			t.queue = t.queue[1:]
			if err := t.processBatch(head); err != nil {
				return err
			}
		case classUncommitted:
			t.queue = t.queue[1:]
			t.Metrics.DroppedUncommitted.Add(uint64(len(head.batch.Records)))
			t.activity = true
		case classUnknown:
			return nil
		}
	}
	return nil
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
	return t.proc.Process(port, d, t.emit)
}

// persistSeq mirrors duplicate-suppression state into the state store
// for stateful tasks so it survives recovery with the change log (or
// the aligned snapshot). Stateless marker-mode tasks keep it in memory
// only: their gating already excludes cross-instance duplicates.
func (t *Task) persistSeq(sk seqKey) {
	if !t.stage.Stateful && t.env.Protocol != ProtoAlignedCheckpoint {
		return
	}
	var buf [8]byte
	putUint64(buf[:], t.lastSeq[sk])
	t.store.Put(seqStoreKey(sk), buf[:])
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
		t.appender = newBatcher(t.log, t.batchCfg, t.retry, ctx, t.env.Clock, t.Metrics, notify)
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
