package core

import (
	"context"
	"sync"

	"impeller/internal/sharedlog"
)

// Checkpointer builds asynchronous state checkpoints for a marker-mode
// stateful task (paper §3.5, "Accelerating state recovery"): it replays
// the task's owned group change streams — committed ranges only, per
// producer, exactly as recovery's groupReplay resolves them — into a
// shadow store, and periodically writes the shadow's snapshot to the
// checkpoint store. Checkpoints are incremental: each one extends the
// previous by folding only new group-stream records.
//
// The group streams, not the task's own change log, are the replay
// source because key groups migrate between slots at rescale: the state
// of an acquired group was written by its previous owners. Each
// checkpoint is stamped with the signature of the group set it was
// folded under; recovery ignores checkpoints whose signature does not
// match the task's current ownership, and the manager replaces the
// checkpointer (fresh shadow, new signature) whenever a rescale changes
// the task's groups.
//
// The checkpointer runs off the task's critical path (the paper
// checkpoints every 10 s "as a progress marker is written") and
// survives task restarts: it belongs to the manager, keyed by task id.
type Checkpointer struct {
	task   TaskID
	stage  string
	groups []int
	sig    uint64
	env    *Env

	shadow *StateStore
	retry  *retrier
	replay *groupReplay
	cur    *sharedlog.Cursor

	// mu guards covered/hasCovered and epoch, which Covered() reads
	// concurrently.
	mu sync.Mutex
	// covered is the group-stream LSN up to which the shadow is
	// complete (groupReplay.covered).
	covered    LSN
	hasCovered bool
	// epoch counts checkpoints written.
	epoch uint64

	// Metrics, when set, receives change-replay counts.
	Metrics *TaskMetrics
}

// NewCheckpointer builds a checkpointer for task, folding the change
// streams of the given owned key groups of stage.
func NewCheckpointer(task TaskID, stage string, groups []int, env *Env) *Checkpointer {
	c := &Checkpointer{
		task:   task,
		stage:  stage,
		groups: groups,
		sig:    groupsSig(groups),
		env:    env,
		shadow: NewStateStore(nil),
		// The checkpointer runs on the manager, not the task's compute
		// node, so its retrier carries no node identity — shard faults
		// still surface as retryable ErrUnavailable reads.
		retry: newRetrier(env, "", nil),
	}
	c.replay = newGroupReplay(func(cb *Batch) {
		for i := range cb.Records {
			r := &cb.Records[i]
			value, deleted, derr := DecodeChange(r.Value)
			if derr != nil {
				continue
			}
			c.shadow.ApplyChange(string(r.Key), value, deleted)
		}
	})
	return c
}

// Run checkpoints every SnapshotInterval until ctx is done.
func (c *Checkpointer) Run(ctx context.Context) {
	if c.env.SnapshotInterval <= 0 {
		return
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.env.Clock.After(c.env.SnapshotInterval):
		}
		if err := c.Checkpoint(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			// Transient failure even after retries (e.g. a long shard
			// outage): skip this round and try again next interval —
			// recovery falls back to the change log meanwhile.
			continue
		}
	}
}

// Checkpoint advances the shadow store over the group streams and
// persists a snapshot of everything resolved so far. It is exported so
// tests and the recovery benchmark can force a checkpoint
// deterministically.
func (c *Checkpointer) Checkpoint(ctx context.Context) error {
	advanced, err := c.advance(ctx)
	if err != nil {
		return err
	}
	if !advanced {
		return nil // nothing newly covered since the last checkpoint
	}
	c.mu.Lock()
	covered := c.covered
	epoch := c.epoch + 1
	c.mu.Unlock()
	ck := &markerCheckpoint{
		Epoch:      epoch,
		CoveredLSN: covered,
		GroupsSig:  c.sig,
		State:      c.shadow.Snapshot(),
	}
	if err := c.env.Checkpoints.Put(MarkerCkptKey(c.task), ck.encode()); err != nil {
		return err
	}
	c.mu.Lock()
	c.epoch = epoch
	c.mu.Unlock()
	// Annotate the covered marker with aux data indicating a checkpoint
	// exists (paper §4: "Auxiliary data in the progress marker
	// indicates the presence of a checkpoint").
	_ = c.env.Log.SetAux(covered, []byte("checkpoint"))
	// The covered prefix stays on the log: a rescale's acquirer rebuilds
	// a migrated group from its whole stream, so the stage pins its
	// change streams (GCController).
	return nil
}

// advance folds new group-stream records into the shadow store and
// reports whether the covered frontier moved.
func (c *Checkpointer) advance(ctx context.Context) (bool, error) {
	if c.cur == nil {
		c.cur = c.env.Log.OpenCursorOpts(c.tags(), 0, sharedlog.CursorOptions{})
	}
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		var recs []*sharedlog.Record
		err := c.retry.do(ctx, "ckpt read groups", func() error {
			var e error
			recs, e = c.cur.NextBatch(DefaultReadBatch)
			return e
		})
		if skipTrimmed(err, c.cur, c.env.Log) {
			continue
		}
		if err != nil {
			return false, err
		}
		if len(recs) == 0 {
			break // caught up with the tail
		}
		for _, rec := range recs {
			cb, err := DecodeBatch(rec.Payload)
			if err != nil {
				return false, err
			}
			if err := c.replay.observe(rec.LSN, cb); err != nil {
				return false, err
			}
		}
	}
	cov, ok := c.replay.covered()
	if !ok {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasCovered && cov <= c.covered {
		return false, nil
	}
	c.covered = cov
	c.hasCovered = true
	return true, nil
}

func (c *Checkpointer) tags() []sharedlog.Tag {
	tags := make([]sharedlog.Tag, len(c.groups))
	for i, g := range c.groups {
		tags[i] = GroupChangeTag(c.stage, g)
	}
	return tags
}

// Covered reports the LSN up to which checkpoints cover the group
// streams: recovery under the same group set replays only what follows.
func (c *Checkpointer) Covered() (LSN, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch == 0 {
		return 0, false
	}
	return c.covered, true
}
