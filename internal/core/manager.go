package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Manager schedules a query's tasks and monitors their health (paper
// §3.2: "we use a task manager for scheduling tasks and monitoring the
// status of each task"). It assigns each task a stable id and an instance
// number registered in the shared log's metadata store; restarting a
// task atomically increments the instance number, which fences the old
// instance's progress markers (paper §3.4).
type Manager struct {
	env   *Env
	query *Query

	txn  *TxnCoordinator
	ckpt *CkptCoordinator

	// HeartbeatTimeout is how long a silent task survives before being
	// declared failed; MonitorInterval is the health-check cadence.
	// Set them before Start, or afterwards via SetTimeouts.
	HeartbeatTimeout time.Duration
	MonitorInterval  time.Duration
	// RestartBackoffMax caps the exponential restart backoff applied to
	// flapping tasks (default 1 s). A task whose previous instance
	// survived at least two monitor intervals restarts immediately;
	// one that died faster waits MonitorInterval, then doubles per
	// consecutive flap up to this cap — so a task whose compute node is
	// down cannot hot-loop the spawn/recover/die cycle.
	RestartBackoffMax time.Duration

	mu            sync.Mutex
	handles       map[TaskID]*taskHandle
	checkpointers map[TaskID]*Checkpointer
	ckptCancel    map[TaskID]context.CancelFunc
	metrics       map[TaskID]*TaskMetrics
	restarts      map[TaskID]int
	backoff       map[TaskID]time.Duration
	backoffUntil  map[TaskID]time.Time
	spawnedAt     map[TaskID]time.Time
	// assign is each stage's current assignment (assign.go): the live
	// group→slot map tasks are spawned under. Under the marker protocol
	// it mirrors the log's metadata KV (the source of truth, advanced by
	// the Rescaler); other protocols pin the static epoch-1 map.
	assign map[string]*Assignment
	// rescaling marks stages mid-transition. The monitor must not spawn
	// replacements for such a stage: a replacement committing markers
	// after the rescaler read a fenced slot's frontier would advance the
	// donor past its published handoff floor, and the acquiring slot
	// would re-deliver records the replacement already committed.
	rescaling map[string]bool
	started   bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type taskHandle struct {
	task     *Task
	cancel   context.CancelFunc
	done     chan struct{}
	err      error
	lastHB   atomic.Int64 // unix nanos of last heartbeat
	exitedAt atomic.Int64 // unix nanos when Run returned (0 = still running)
	zombie   atomic.Bool  // heartbeats suppressed (simulated partition)
	lastProg uint64       // SchedulerProgress at last monitor tick (monitor-only)
}

// NewManager builds a manager for query over env. It validates the
// query and constructs the protocol coordinators.
func NewManager(env *Env, query *Query) (*Manager, error) {
	if err := query.Validate(); err != nil {
		return nil, err
	}
	e := env.withDefaults()
	m := &Manager{
		env:               e,
		query:             query,
		HeartbeatTimeout:  20 * e.CommitInterval,
		MonitorInterval:   e.CommitInterval,
		RestartBackoffMax: time.Second,
		handles:           make(map[TaskID]*taskHandle),
		checkpointers:     make(map[TaskID]*Checkpointer),
		ckptCancel:        make(map[TaskID]context.CancelFunc),
		metrics:           make(map[TaskID]*TaskMetrics),
		restarts:          make(map[TaskID]int),
		backoff:           make(map[TaskID]time.Duration),
		backoffUntil:      make(map[TaskID]time.Time),
		spawnedAt:         make(map[TaskID]time.Time),
		assign:            make(map[string]*Assignment),
		rescaling:         make(map[string]bool),
	}
	if e.Protocol != ProtoProgressMarker {
		// Only the marker protocol has per-group change streams and
		// epoch-stamped markers; the other protocols must run the identity
		// layout (one key group per slot) and cannot rescale.
		for _, s := range query.Stages {
			if s.KeyGroups != 0 && s.KeyGroups != s.Parallelism {
				return nil, fmt.Errorf("core: stage %s: KeyGroups %d != Parallelism %d requires the progress-marker protocol", s.Name, s.KeyGroups, s.Parallelism)
			}
		}
	}
	switch e.Protocol {
	case ProtoKafkaTxn:
		shards := 1
		if e.Log != nil {
			shards = e.Log.NumShards()
		}
		m.txn = NewTxnCoordinator(e, shards)
	case ProtoAlignedCheckpoint:
		m.ckpt = NewCkptCoordinator(e)
		for _, s := range query.Stages {
			if len(s.UpstreamProducers) == 0 {
				return nil, fmt.Errorf("core: aligned checkpoints need UpstreamProducers on stage %s", s.Name)
			}
		}
	}
	return m, nil
}

// Env returns the manager's effective environment (defaults applied).
func (m *Manager) Env() *Env { return m.env }

// SetTimeouts adjusts failure detection while the manager runs.
func (m *Manager) SetTimeouts(heartbeat, monitor time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if heartbeat > 0 {
		m.HeartbeatTimeout = heartbeat
	}
	if monitor > 0 {
		m.MonitorInterval = monitor
	}
}

// Ckpt returns the aligned-checkpoint coordinator, or nil.
func (m *Manager) Ckpt() *CkptCoordinator { return m.ckpt }

// Txn returns the transaction coordinator, or nil.
func (m *Manager) Txn() *TxnCoordinator { return m.txn }

// Start launches every task, the health monitor, and the protocol
// coordinators. Tasks keep running until Stop or ctx cancellation.
func (m *Manager) Start(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("core: manager already started")
	}
	m.started = true
	m.ctx, m.cancel = context.WithCancel(ctx)
	if m.env.Engine == EngineTasklet && m.env.loops == nil {
		// The manager owns this env copy (withDefaults), so the pool it
		// creates here flows to every task and sink built from Env().
		m.env.loops = newLoopPool(m.env.EngineLoops)
	}

	for _, stage := range m.query.Stages {
		a, err := m.initAssignment(stage)
		if err != nil {
			m.cancel()
			return err
		}
		m.assign[stage.Name] = a
		for sub := 0; sub < a.Slots; sub++ {
			id := TaskID(fmt.Sprintf("%s/%d", stage.Name, sub))
			m.metrics[id] = &TaskMetrics{}
			if m.ckpt != nil {
				m.ckpt.AddParticipant(id)
			}
			if m.env.GC != nil {
				m.env.GC.Report(id, 0)
				if stage.Stateful {
					m.env.GC.Report("ckpt/"+id, 0)
				}
			}
			m.spawnLocked(stage, sub, id)
			m.startCheckpointerLocked(stage, id, a.GroupsOf(sub))
		}
	}
	if m.ckpt != nil {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.ckpt.Loop(m.ctx, m.env)
		}()
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.monitor()
	}()
	return nil
}

// spawnLocked starts a fresh instance of a task. Caller holds m.mu.
func (m *Manager) spawnLocked(stage *Stage, sub int, id TaskID) {
	instance := m.env.Log.FenceIncrement(InstanceKey(id))
	if m.txn != nil {
		m.txn.Fence(id, instance)
	}
	h := &taskHandle{done: make(chan struct{})}
	h.lastHB.Store(time.Now().UnixNano())
	m.spawnedAt[id] = time.Now()
	var groups []int
	var epoch uint64
	if a := m.assign[stage.Name]; a != nil {
		groups = a.GroupsOf(sub)
		epoch = a.Epoch
	}
	task := NewTask(stage, sub, instance, m.env, TaskOptions{
		Txn:         m.txn,
		Ckpt:        m.ckpt,
		Groups:      groups,
		AssignEpoch: epoch,
		Metrics:     m.metrics[id],
		Heartbeat: func() {
			if !h.zombie.Load() {
				h.lastHB.Store(time.Now().UnixNano())
			}
		},
	})
	h.task = task
	tctx, cancel := context.WithCancel(m.ctx)
	h.cancel = cancel
	m.handles[id] = h
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		h.err = task.Run(tctx)
		h.exitedAt.Store(time.Now().UnixNano())
		close(h.done)
	}()
}

// monitor restarts tasks whose heartbeat went stale or whose goroutine
// exited with a failure (paper §2.2, "Neutralizing zombies": a silent
// task is replaced; if it was merely partitioned it becomes a zombie
// and is fenced at its next progress marker).
func (m *Manager) monitor() {
	for {
		m.mu.Lock()
		interval, hbTimeout := m.MonitorInterval, m.HeartbeatTimeout
		m.mu.Unlock()
		select {
		case <-m.ctx.Done():
			return
		case <-m.env.Clock.After(interval):
		}
		now := time.Now().UnixNano()
		m.mu.Lock()
		for id, h := range m.handles {
			stale := now-h.lastHB.Load() > hbTimeout.Nanoseconds()
			// Staleness is progress-driven, not wall-clock-driven: a task
			// resident on a loop that is busy stepping other tasklets may
			// heartbeat late, but a loop making progress means the task is
			// scheduled, not dead. Zombified handles are exempt — their
			// suppressed heartbeats simulate a partition, and the
			// replacement must spawn regardless of loop liveness.
			prog := h.task.SchedulerProgress()
			progressed := prog != h.lastProg
			h.lastProg = prog
			if stale && progressed && !h.zombie.Load() {
				stale = false
			}
			exited := false
			select {
			case <-h.done:
				exited = true
			default:
			}
			if exited && (h.err == nil || errors.Is(h.err, context.Canceled) && m.ctx.Err() != nil) {
				continue // clean shutdown
			}
			// An ErrZombie exit is NOT skipped: when the monitor itself
			// replaced the instance, the old handle is no longer in the
			// map, so an in-map fenced handle means something fenced the
			// task without spawning a successor — a rescale interrupted
			// between fencing and the epoch commit. Restarting it under
			// the current assignment re-converges the stage.
			if !exited && !stale {
				continue
			}
			stage, sub := m.locate(id)
			if stage == nil {
				continue
			}
			if m.rescaling[stage.Name] {
				// Mid-rescale the stage's fences are intentional; heal
				// whatever is left on the next tick, after the transition
				// either commits (applyAssignment replaces the handles)
				// or aborts (the flag clears and the restart path
				// re-converges the stage on its current epoch).
				continue
			}
			// Bounded restart backoff: a task that keeps dying right
			// after spawn (e.g. its compute node is crashed, so every
			// replacement fails during recovery) is paced instead of
			// hot-looped. A healthy uptime resets the backoff.
			wall := time.Now()
			if wall.Before(m.backoffUntil[id]) {
				continue
			}
			// Uptime is measured to the instance's actual death, not to
			// when the monitor noticed it — detection lags by up to a
			// tick, which would make an instantly-dying task look
			// healthy and defeat the backoff ramp.
			diedAt := wall
			if exited {
				diedAt = time.Unix(0, h.exitedAt.Load())
			}
			if diedAt.Sub(m.spawnedAt[id]) >= 2*interval {
				m.backoff[id] = 0
			} else {
				next := 2 * m.backoff[id]
				if next < interval {
					next = interval
				}
				if next > m.RestartBackoffMax {
					next = m.RestartBackoffMax
				}
				m.backoff[id] = next
				m.backoffUntil[id] = wall.Add(next)
			}
			m.restarts[id]++
			// The stale instance may still be alive (zombie); leave it
			// running — the shared log fences it (paper §3.4). A truly
			// crashed instance's context is cancelled defensively.
			if exited {
				h.cancel()
			}
			m.spawnLocked(stage, sub, id)
		}
		m.mu.Unlock()
	}
}

func (m *Manager) locate(id TaskID) (*Stage, int) {
	for _, stage := range m.query.Stages {
		for sub := 0; sub < m.slotsLocked(stage); sub++ {
			if TaskID(fmt.Sprintf("%s/%d", stage.Name, sub)) == id {
				return stage, sub
			}
		}
	}
	return nil, 0
}

// slotsLocked is the stage's current task-slot count. Caller holds m.mu.
func (m *Manager) slotsLocked(stage *Stage) int {
	if a := m.assign[stage.Name]; a != nil {
		return a.Slots
	}
	return stage.Parallelism
}

// initAssignment resolves a stage's starting assignment. Under the
// marker protocol it lives in the log's metadata KV: the first manager
// to attach installs the epoch-1 contiguous map, a re-attach adopts
// whatever epoch the log already carries (a crashed job resumes at its
// last committed assignment, not its build-time parallelism). The other
// protocols pin the static epoch-1 identity map.
func (m *Manager) initAssignment(stage *Stage) (*Assignment, error) {
	if m.env.Protocol != ProtoProgressMarker || m.env.Log == nil {
		return contiguousAssignment(stage.Name, 1, stage.KeyGroups, stage.Parallelism), nil
	}
	return InitAssignment(m.env.Log.Meta(), stage.Name, stage.KeyGroups, stage.Parallelism)
}

// startCheckpointerLocked (re)creates the asynchronous checkpointer for
// a stateful marker-mode task under its current group set, cancelling
// any previous one (its shadow store was folded under a different group
// set and must not survive a rescale). Caller holds m.mu.
func (m *Manager) startCheckpointerLocked(stage *Stage, id TaskID, groups []int) {
	if !stage.Stateful || m.env.Protocol != ProtoProgressMarker || m.env.SnapshotInterval <= 0 {
		return
	}
	if cancel, ok := m.ckptCancel[id]; ok {
		cancel()
	}
	cp := NewCheckpointer(id, stage.Name, groups, m.env)
	cp.Metrics = m.metrics[id]
	m.checkpointers[id] = cp
	cctx, cancel := context.WithCancel(m.ctx)
	m.ckptCancel[id] = cancel
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		cp.Run(cctx)
	}()
}

// applyAssignment installs a committed assignment: spawns instances for
// new and re-grouped slots, retires handles of slots beyond the new
// slot count, and resets GC floors so trimming cannot outrun the new
// owners' replay needs. The previous instances of changed slots were
// already fenced by the rescaler; they keep running detached until
// their next conditional append fails.
func (m *Manager) applyAssignment(stage *Stage, next *Assignment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.assign[stage.Name]
	m.assign[stage.Name] = next
	maxSlots := next.Slots
	if prev != nil && prev.Slots > maxSlots {
		maxSlots = prev.Slots
	}
	for sub := 0; sub < maxSlots; sub++ {
		id := TaskID(fmt.Sprintf("%s/%d", stage.Name, sub))
		if sub >= next.Slots {
			// Retired slot: the rescaler fenced it and appended its
			// tombstone marker. Drop the handle so the monitor stops
			// resurrecting it; the detached instance exits with
			// ErrZombie at its next commit attempt.
			delete(m.handles, id)
			if cancel, ok := m.ckptCancel[id]; ok {
				cancel()
				delete(m.ckptCancel, id)
			}
			delete(m.checkpointers, id)
			if m.env.GC != nil {
				m.env.GC.Forget(id)
				m.env.GC.Forget("ckpt/" + id)
			}
			continue
		}
		groups := next.GroupsOf(sub)
		if prev != nil && sub < prev.Slots && equalInts(prev.GroupsOf(sub), groups) {
			continue // untouched slot keeps its running instance
		}
		if m.metrics[id] == nil {
			m.metrics[id] = &TaskMetrics{}
		}
		if m.env.GC != nil {
			// The slot may have acquired groups whose change-stream
			// prefix sits below everything it previously reported; drop
			// its floors (non-monotonically) until recovery and
			// checkpointing re-establish them, or the collector could
			// trim records the new owner still needs to replay.
			m.env.GC.Reset(id, 0)
			if stage.Stateful {
				m.env.GC.Reset("ckpt/"+id, 0)
			}
		}
		m.spawnLocked(stage, sub, id)
		m.startCheckpointerLocked(stage, id, groups)
	}
}

// Assignment returns the stage's current assignment, or nil.
func (m *Manager) Assignment(stage string) *Assignment {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.assign[stage]
}

// AssignmentEpoch returns the stage's current assignment epoch (0 if
// the stage is unknown or the manager has not started).
func (m *Manager) AssignmentEpoch(stage string) uint64 {
	if a := m.Assignment(stage); a != nil {
		return a.Epoch
	}
	return 0
}

func (m *Manager) stageByName(name string) *Stage {
	for _, s := range m.query.Stages {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Kill simulates a crash of the task's current instance: its goroutine
// stops abruptly and its in-memory state is lost. The monitor restarts
// it on the next tick.
func (m *Manager) Kill(id TaskID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.handles[id]
	if !ok {
		return fmt.Errorf("core: unknown task %s", id)
	}
	h.cancel()
	h.lastHB.Store(0) // ensure the monitor sees it as failed immediately
	return nil
}

// KillAll crashes every task (the Table 4 whole-query failure).
func (m *Manager) KillAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range m.handles {
		h.cancel()
		h.lastHB.Store(0)
	}
}

// Zombify simulates a network partition between the task and the
// manager: heartbeats stop arriving, the monitor starts a replacement,
// but the old instance keeps running until the log fences it. If the
// current instance has already exited — a zombify racing a concurrent
// kill/restart — there is nothing left to partition, so Zombify
// reports an error instead of marking a dead handle (which would plant
// no zombie yet still count as one in chaos accounting).
func (m *Manager) Zombify(id TaskID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.handles[id]
	if !ok {
		return fmt.Errorf("core: unknown task %s", id)
	}
	select {
	case <-h.done:
		return fmt.Errorf("core: task %s instance already exited; no zombie to plant", id)
	default:
	}
	h.zombie.Store(true)
	h.lastHB.Store(0)
	return nil
}

// RestartNow forces an immediate restart of a task (deterministic
// alternative to waiting for the monitor).
func (m *Manager) RestartNow(id TaskID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.handles[id]
	if !ok {
		return fmt.Errorf("core: unknown task %s", id)
	}
	stage, sub := m.locate(id)
	if stage == nil {
		return fmt.Errorf("core: cannot locate task %s", id)
	}
	if m.rescaling[stage.Name] {
		return fmt.Errorf("core: stage %s is mid-rescale; retry after the transition", stage.Name)
	}
	h.cancel()
	<-h.done
	m.restarts[id]++
	m.spawnLocked(stage, sub, id)
	return nil
}

// Restarts reports how many times the task was restarted.
func (m *Manager) Restarts(id TaskID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.restarts[id]
}

// Checkpointer returns a stateful task's asynchronous checkpointer
// (marker protocol only), or nil.
func (m *Manager) Checkpointer(id TaskID) *Checkpointer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointers[id]
}

// TaskMetrics returns a task's (instance-spanning) metrics, or nil.
func (m *Manager) TaskMetrics(id TaskID) *TaskMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics[id]
}

// Metrics aggregates all task metrics.
func (m *Manager) Metrics() QueryMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	var q QueryMetrics
	for _, tm := range m.metrics {
		q.Add(tm)
	}
	return q
}

// TaskIDs lists the query's live task ids in stage order, reflecting
// the current assignment's slot counts.
func (m *Manager) TaskIDs() []TaskID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []TaskID
	for _, stage := range m.query.Stages {
		for sub := 0; sub < m.slotsLocked(stage); sub++ {
			ids = append(ids, TaskID(fmt.Sprintf("%s/%d", stage.Name, sub)))
		}
	}
	return ids
}

// Stop cancels every task and waits for shutdown.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.cancel != nil {
		m.cancel()
	}
	loops := m.env.loops
	m.mu.Unlock()
	m.wg.Wait()
	if loops != nil {
		// After every task goroutine has unwound, so no tasklet is
		// resident any more (sinks never are: they run on goroutines of
		// their own and stop with their caller's context).
		loops.close()
	}
}
