package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"impeller/internal/sharedlog"
)

// probe invokes the test-only recovery probe, if installed, at a named
// point inside recovery — chaos tests use it to crash a task while it
// is mid-recovery deterministically.
func (t *Task) probe(point string) {
	if t.env.recoveryProbe != nil {
		t.env.recoveryProbe(t.ID, point)
	}
}

// readPrevRetry and readNextRetry wrap recovery's log reads in the
// transient-fault retry loop: a recovering task whose shard is briefly
// down waits it out instead of dying and re-entering recovery.
func (t *Task) readPrevRetry(ctx context.Context, tag sharedlog.Tag, from LSN) (*sharedlog.Record, error) {
	var rec *sharedlog.Record
	err := t.retry.do(ctx, "read-prev "+string(tag), func() error {
		var e error
		rec, e = t.log.ReadPrev(tag, from)
		return e
	})
	return rec, err
}

// readNextRetry is the retry wrapper around recovery's forward reads.
// Those are cursor batch fetches now — one round trip per batch instead
// of per record — but the retry semantics are unchanged: a recovering
// task whose shard is briefly down waits it out instead of dying and
// re-entering recovery. Safe to call from the parallel restore
// goroutines (each owns its cursor; the retrier is concurrency-safe).
func (t *Task) readNextRetry(ctx context.Context, label string, cur *sharedlog.Cursor, max int) ([]*sharedlog.Record, error) {
	var recs []*sharedlog.Record
	err := t.retry.do(ctx, label, func() error {
		var e error
		recs, e = cur.NextBatch(max)
		return e
	})
	return recs, err
}

// runParallel runs recovery's independent restore substreams in
// parallel goroutines and joins them before the task goes live. The
// first error cancels the rest and is returned.
func runParallel(ctx context.Context, fns ...func(context.Context) error) error {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, len(fns))
	for _, fn := range fns {
		go func(fn func(context.Context) error) { errc <- fn(gctx) }(fn)
	}
	var first error
	for range fns {
		if err := <-errc; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	return first
}

// recover restores a restarted task instance to a consistent point
// before it processes new input (paper §3.3.2 for stateless stages,
// §3.3.4 for stateful ones; §3.6/§5.1 for the baseline protocols).
func (t *Task) recover(ctx context.Context) error {
	switch t.env.Protocol {
	case ProtoProgressMarker:
		return t.recoverMarker(ctx)
	case ProtoKafkaTxn:
		return t.recoverTxn(ctx)
	case ProtoAlignedCheckpoint:
		return t.recoverAligned(ctx)
	case ProtoUnsafe:
		return t.recoverUnsafe(ctx)
	default:
		return fmt.Errorf("core: unknown protocol %v", t.env.Protocol)
	}
}

// lastMarkerAtEpoch reads the newest task-log marker stamped with an
// assignment epoch <= maxEpoch, skipping any stamped newer. The only
// way a newer-epoch marker reaches a slot's task log while the reader
// holds committed epoch maxEpoch is an aborted rescale attempt's
// retirement tombstone: the attempt fenced the slot and appended the
// tombstone, then died before its epoch CAS, so the slot lives on under
// the old assignment. Resuming from the tombstone would be ruinous —
// its InputEnd is empty and no handoff floor exists under the
// uncommitted epoch, so the revived slot (or, in the rescaler's floor
// computation, the group's acquirer) would re-commit records earlier
// instances already committed.
func lastMarkerAtEpoch(readPrev func(LSN) (*sharedlog.Record, error), maxEpoch uint64) (*sharedlog.Record, *Batch, error) {
	from := sharedlog.MaxLSN
	for {
		rec, err := readPrev(from)
		if err != nil || rec == nil {
			return nil, nil, err
		}
		b, err := DecodeBatch(rec.Payload)
		if err != nil {
			return nil, nil, err
		}
		if b.Epoch <= maxEpoch {
			return rec, b, nil
		}
		if rec.LSN == 0 {
			return nil, nil, nil
		}
		from = rec.LSN - 1
	}
}

// recoverMarker implements Impeller recovery: find the most recent
// progress marker by reading the tail of the task-log substream, resume
// input just past its InputEnd, restore the sequence counter, and for
// stateful tasks restore state from the latest checkpoint plus a replay
// of the remaining committed change-log ranges.
func (t *Task) recoverMarker(ctx context.Context) error {
	last, b, err := lastMarkerAtEpoch(func(from LSN) (*sharedlog.Record, error) {
		return t.readPrevRetry(ctx, TaskLogTag(t.ID), from)
	}, t.assignEpoch)
	if err != nil {
		return err
	}
	t.probe("marker")
	var markerEpoch uint64 // assignment epoch stamped on our last marker
	if last == nil {
		// No marker: a fresh slot, or one revived after the collector
		// trimmed its retirement tombstone (parkSeq).
		t.outSeq = parkedSeq(t.log.Meta(), t.ID)
	} else {
		m, err := DecodeMarker(b.Control)
		if err != nil {
			return err
		}
		if m.InputEnd != NoLSN {
			t.cursor = m.InputEnd + 1
		}
		t.outSeq = m.SeqEnd
		t.ckptEpoch = m.CheckpointEpoch
		markerEpoch = b.Epoch
		t.lastMarker = last.LSN
	}

	// Handoff floors: groups acquired since our last marker's assignment
	// epoch replay and resume from the donor slot's transfer floor, not
	// from our own frontier (assign.go). No-op when nothing migrated.
	t.applyHandoffFloors(markerEpoch, t.cursor)

	if !t.stage.Stateful {
		return nil
	}

	// State restore: load the asynchronous checkpoint if one covers the
	// current group ownership, then replay the owned groups' change
	// streams from its coverage point (paper §3.3.4, §3.5 "Accelerating
	// state recovery"). A checkpoint taken under a different group set is
	// unusable — it misses acquired groups and includes migrated ones —
	// so a signature mismatch falls back to a full group-stream replay.
	var replayFrom LSN
	if blob, ok := t.env.Checkpoints.Get(MarkerCkptKey(t.ID)); ok {
		switch ck, err := decodeMarkerCheckpoint(blob); {
		case err != nil:
			// Corrupt checkpoint bytes: fall back to a full change-log
			// replay instead of failing recovery permanently — the
			// change log is the durable source of truth, the snapshot
			// only an accelerator (paper §3.5).
			t.Metrics.CheckpointDecodeFailures.Add(1)
		case ck.GroupsSig == groupsSig(t.groups):
			if err := t.store.RestoreSnapshot(ck.State); err != nil {
				// Same fallback: RestoreSnapshot is atomic, so the
				// store is still empty and a full replay is correct.
				t.Metrics.CheckpointDecodeFailures.Add(1)
			} else {
				replayFrom = ck.CoveredLSN + 1
				t.Metrics.RecoveredFromCheckpoint.Store(1)
			}
		}
	}
	t.probe("replay")
	replay := newGroupReplay(func(cb *Batch) { t.applyChangeBatch(cb) })
	cur := t.log.OpenCursorOpts(t.groupChangeTags(), replayFrom, cursorOpts(&t.Metrics.RecoveryCursor))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.heartbeat() // recovery can be long; stay visibly alive
		recs, err := t.readNextRetry(ctx, "replay-groups", cur, DefaultReadBatch)
		if skipTrimmed(err, cur, t.log) {
			continue
		}
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			cb, err := DecodeBatch(rec.Payload)
			if err != nil {
				return err
			}
			if err := replay.observe(rec.LSN, cb); err != nil {
				return err
			}
		}
	}
	// Change batches still pending at the tail have no covering marker:
	// either their producer's in-flight flush outran its failed commit,
	// or a fenced zombie kept appending — both uncommitted. Drop them.
	t.restoreSeqFromStore()
	return nil
}

// groupChangeTags returns the change-stream tags of the owned groups.
func (t *Task) groupChangeTags() []sharedlog.Tag {
	tags := make([]sharedlog.Tag, len(t.groups))
	for i, g := range t.groups {
		tags[i] = GroupChangeTag(t.stage.Name, g)
	}
	return tags
}

// applyHandoffFloors resolves each owned group's replay floor across the
// assignment epochs between markerEpoch (stamped on our last marker, 0
// if none) and the epoch this instance was spawned at. For a group that
// migrated to us at epoch e, the newest handoff key in that window holds
// the donor's committed frontier — resuming there is exact: below it the
// donor already committed every record, above it nothing of the group
// was consumed. Groups we held continuously floor at our own frontier,
// which suppresses re-reads when an acquired group pulls the shared
// cursor below it. The cursor starts at the minimum floor — possibly
// above the task's own frontier: a fresh slot spawned by a scale-up
// starts every group at its donor's floor rather than scanning the log
// from zero, which is safe because a record below every owned group's
// floor is never processed, and the marker committing a record at
// LSN ≥ min always sits above that record.
func (t *Task) applyHandoffFloors(markerEpoch uint64, base LSN) {
	if t.env.Protocol != ProtoProgressMarker || len(t.groups) == 0 {
		return
	}
	meta := t.log.Meta()
	min := sharedlog.MaxLSN
	for _, g := range t.groups {
		floor := base
		for e := t.assignEpoch; e > markerEpoch; e-- {
			// The ownership check guards against handoff keys left behind
			// by an aborted rescale attempt at this epoch number: the
			// committed epoch's owner keys (rewritten in full by the
			// attempt that won) decide whether the group really moved.
			if f, ok := handoffFloor(meta, t.stage.Name, e, g); ok && ownerChangedAt(meta, t.stage.Name, e, g) {
				floor = f
				break
			}
		}
		t.groupFloor[g] = floor
		if floor < min {
			min = floor
		}
	}
	t.cursor = min
}

// groupReplay restores state from the owned groups' change streams.
// Unlike the pre-rescaling replay (one producer: the task's own
// predecessors), a group stream carries every slot that ever owned the
// group, so committedness is resolved per producer: change batches
// buffer until a marker from the same producer instance covers them
// ([ChangeFirst, markerLSN]); observing a record from a newer instance
// of a producer drops the older instance's buffered changes, since its
// fenced markers can no longer reach the log (the conditional-append
// guard orders every surviving marker before the successor's first
// record).
type groupReplay struct {
	apply    func(*Batch)
	pending  map[TaskID][]pendingChange
	pendInst map[TaskID]uint64
	maxInst  map[TaskID]uint64
	// applied is the highest covering-marker LSN whose range was
	// applied, or NoLSN if none yet.
	applied LSN
}

type pendingChange struct {
	lsn LSN
	b   *Batch
}

func newGroupReplay(apply func(*Batch)) *groupReplay {
	return &groupReplay{
		apply:    apply,
		pending:  make(map[TaskID][]pendingChange),
		pendInst: make(map[TaskID]uint64),
		maxInst:  make(map[TaskID]uint64),
		applied:  NoLSN,
	}
}

// observe folds one group-stream record. Records arrive in LSN order.
func (g *groupReplay) observe(lsn LSN, cb *Batch) error {
	switch cb.Kind {
	case KindChange:
		if cb.Instance < g.maxInst[cb.Producer] || cb.Instance < g.pendInst[cb.Producer] {
			// Fenced instance: a newer instance's marker or change record
			// precedes this one in the log, so no covering marker of the
			// old instance can follow (the fence orders every committed
			// old-instance marker before the successor's first record). A
			// zombie flushing change batches after its replacement started
			// lands here — the batches must not evict the replacement's
			// buffered committed changes.
			return nil
		}
		if cb.Instance != g.pendInst[cb.Producer] {
			// A newer instance took over; the old one's buffered changes
			// are permanently uncovered.
			g.pending[cb.Producer] = g.pending[cb.Producer][:0]
			g.pendInst[cb.Producer] = cb.Instance
		}
		g.pending[cb.Producer] = append(g.pending[cb.Producer], pendingChange{lsn: lsn, b: cb})
	case KindMarker:
		if cb.Instance < g.maxInst[cb.Producer] || cb.Instance < g.pendInst[cb.Producer] {
			// Stale marker; defensive — the conditional append forbids a
			// fenced instance from committing one.
			return nil
		}
		g.maxInst[cb.Producer] = cb.Instance
		m, err := DecodeMarker(cb.Control)
		if err != nil {
			return err
		}
		if g.pendInst[cb.Producer] != cb.Instance {
			// Marker from a newer instance than the buffered changes:
			// drop them (same fencing argument as above).
			g.pending[cb.Producer] = g.pending[cb.Producer][:0]
			g.pendInst[cb.Producer] = cb.Instance
		}
		if m.ChangeFirst == NoLSN {
			return nil // no changes this interval (or a retirement tombstone)
		}
		pend := g.pending[cb.Producer]
		keep := pend[:0]
		for _, p := range pend {
			switch {
			case p.lsn < m.ChangeFirst:
				// Covered by an earlier marker (already applied) or
				// permanently uncovered; either way not ours to apply.
			case p.lsn <= lsn:
				g.apply(p.b)
			default:
				keep = append(keep, p) // after this marker: next interval
			}
		}
		g.pending[cb.Producer] = keep
		if g.applied == NoLSN || lsn > g.applied {
			g.applied = lsn
		}
	}
	return nil
}

// covered is the LSN up to which every group-stream record is resolved:
// a replay (or checkpoint) from covered+1 loses nothing. It trails the
// newest applied marker while another producer's changes are still
// awaiting their covering marker. ok is false while nothing is covered.
func (g *groupReplay) covered() (LSN, bool) {
	if g.applied == NoLSN {
		return 0, false
	}
	c := g.applied
	for _, pend := range g.pending {
		for _, p := range pend {
			if p.lsn == 0 {
				return 0, false
			}
			if p.lsn-1 < c {
				c = p.lsn - 1
			}
		}
	}
	return c, true
}

func (t *Task) applyChangeBatch(cb *Batch) {
	for i := range cb.Records {
		r := &cb.Records[i]
		value, deleted, err := DecodeChange(r.Value)
		if err != nil {
			continue // tolerate unknown change encodings
		}
		t.store.ApplyChange(string(r.Key), value, deleted)
		t.Metrics.RecoveredChanges.Add(1)
	}
}

// restoreSeqFromStore reloads duplicate-suppression state mirrored into
// the state store by persistSeq. Keys are "_seq/<group>/<producer>";
// entries for groups this slot no longer owns (possible transiently
// after a rescale restored them via an acquired group's change stream)
// are loaded too — harmless, they can only suppress records of groups
// the task does not subscribe to.
func (t *Task) restoreSeqFromStore() {
	t.store.Range("_seq/", func(k string, v []byte) bool {
		rest := k[len("_seq/"):]
		i := strings.IndexByte(rest, '/')
		if i <= 0 {
			return true // unknown layout; ignore defensively
		}
		g, err := strconv.Atoi(rest[:i])
		if err != nil {
			return true
		}
		t.lastSeq[seqKey{group: g, producer: TaskID(rest[i+1:])}] = getUint64(v)
		return true
	})
}

// recoverTxn implements the Kafka Streams baseline's recovery: the last
// committed offsets record gives the resume cursor and sequence
// counter; stateful tasks replay change-log batches of committed epochs
// only, resolving them with the commit/abort markers the coordinator
// appended to the change-log substream.
func (t *Task) recoverTxn(ctx context.Context) error {
	// The offsets tail and the change-log replay touch independent
	// substreams (and the replay's epoch gating is resolved entirely by
	// the commit/abort markers inside the change substream itself), so
	// the two restore phases run in parallel goroutines joined before
	// the task goes live.
	var off *sharedlog.Record
	err := runParallel(ctx,
		func(ctx context.Context) error {
			var e error
			off, e = t.readPrevRetry(ctx, OffsetStreamTag(t.ID), sharedlog.MaxLSN)
			return e
		},
		func(ctx context.Context) error {
			if !t.stage.Stateful {
				return nil
			}
			// Replay the change log with epoch-level gating: change
			// batches buffer per (instance, epoch) and apply when the
			// epoch's commit marker arrives; batches whose epoch never
			// commits are dropped.
			type epochKey struct {
				instance, epoch uint64
			}
			pending := make(map[epochKey][]*Batch)
			cur := t.log.OpenCursorOpts([]sharedlog.Tag{ChangeLogTag(t.ID)}, 0, cursorOpts(&t.Metrics.RecoveryCursor))
			for {
				if err := ctx.Err(); err != nil {
					return err
				}
				t.heartbeat()
				recs, err := t.readNextRetry(ctx, "replay-txn", cur, DefaultReadBatch)
				if err != nil {
					return err
				}
				if len(recs) == 0 {
					return nil
				}
				for _, rec := range recs {
					cb, err := DecodeBatch(rec.Payload)
					if err != nil {
						return err
					}
					switch cb.Kind {
					case KindChange:
						k := epochKey{cb.Instance, cb.Epoch}
						pending[k] = append(pending[k], cb)
					case KindTxnCommit:
						k := epochKey{cb.Instance, cb.Epoch}
						for _, batch := range pending[k] {
							t.applyChangeBatch(batch)
						}
						delete(pending, k)
					case KindTxnAbort:
						delete(pending, epochKey{cb.Instance, cb.Epoch})
					}
				}
			}
		},
	)
	if err != nil {
		return err
	}
	if off != nil {
		b, err := DecodeBatch(off.Payload)
		if err != nil {
			return err
		}
		m, err := DecodeMarker(b.Control)
		if err != nil {
			return err
		}
		if m.InputEnd != NoLSN {
			t.cursor = m.InputEnd + 1
		}
		t.outSeq = m.SeqEnd
		t.epoch = b.Epoch
	}
	t.epoch++ // first transaction of the new instance
	t.probe("txn")

	if t.stage.Stateful {
		t.restoreSeqFromStore()
	}
	return nil
}

// recoverAligned restores the last completed aligned checkpoint: state
// snapshot, per-producer barrier positions (re-reads below them are
// suppressed), sequence counters, and the resume cursor (paper §5.1).
func (t *Task) recoverAligned(_ context.Context) error {
	if t.ckpt == nil {
		return nil
	}
	epoch := t.ckpt.LastCompleted()
	t.probe("aligned")
	if epoch == 0 {
		return nil // no completed checkpoint yet: restart from scratch
	}
	blob, ok := t.env.Checkpoints.Get(CkptKey(t.ID, epoch))
	if !ok {
		return fmt.Errorf("core: aligned checkpoint %d missing for %s", epoch, t.ID)
	}
	s, err := decodeAlignedSnapshot(blob)
	if err != nil {
		return err
	}
	if err := t.store.RestoreSnapshot(s.State); err != nil {
		return err
	}
	t.outSeq = s.OutSeq
	t.epoch = s.Epoch
	// Aligned tasks run the identity group layout (one group per slot),
	// so the snapshot's per-producer floors map onto the single group.
	for p, seq := range s.LastSeq {
		t.lastSeq[seqKey{group: t.groups[0], producer: p}] = seq
	}
	cursor := sharedlog.MaxLSN
	for p, lsn := range s.Barriers {
		t.skipBelow[p] = lsn
		if lsn < cursor {
			cursor = lsn
		}
	}
	if cursor != sharedlog.MaxLSN {
		t.cursor = cursor + 1
	}
	t.Metrics.RecoveredFromCheckpoint.Store(1)
	return nil
}

// recoverUnsafe has no recovery point: it resumes at the log tail and
// replays the entire change log best-effort — the variant trades
// exactly-once for speed (paper §5.3.4).
func (t *Task) recoverUnsafe(ctx context.Context) error {
	t.cursor = t.log.Tail()
	// Sequence numbers restart; namespace them by instance so consumers
	// never confuse new output with old (monotonicity preserved).
	t.outSeq = t.Instance << 40
	if !t.stage.Stateful {
		return nil
	}
	cur := t.log.OpenCursorOpts(t.groupChangeTags(), 0, cursorOpts(&t.Metrics.RecoveryCursor))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.heartbeat()
		recs, err := t.readNextRetry(ctx, "replay-unsafe", cur, DefaultReadBatch)
		if skipTrimmed(err, cur, t.log) {
			continue
		}
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		for _, rec := range recs {
			cb, err := DecodeBatch(rec.Payload)
			if err != nil {
				return err
			}
			if cb.Kind == KindChange {
				t.applyChangeBatch(cb)
			}
		}
	}
}

// markerCheckpoint is the blob the asynchronous checkpointer writes for
// marker-mode tasks: a state snapshot plus the group-stream LSN it
// covers (replay resumes after it) and the signature of the group set
// the snapshot was folded under — a restore under different ownership
// must fall back to full replay (see recoverMarker).
type markerCheckpoint struct {
	Epoch      uint64
	CoveredLSN LSN
	GroupsSig  uint64
	State      []byte
}

func (c *markerCheckpoint) encode() []byte {
	buf := make([]byte, 0, 24+len(c.State))
	var tmp [8]byte
	putUint64(tmp[:], c.Epoch)
	buf = append(buf, tmp[:]...)
	putUint64(tmp[:], uint64(c.CoveredLSN))
	buf = append(buf, tmp[:]...)
	putUint64(tmp[:], c.GroupsSig)
	buf = append(buf, tmp[:]...)
	return append(buf, c.State...)
}

func decodeMarkerCheckpoint(buf []byte) (*markerCheckpoint, error) {
	if len(buf) < 24 {
		return nil, ErrBadEncoding
	}
	return &markerCheckpoint{
		Epoch:      getUint64(buf),
		CoveredLSN: LSN(getUint64(buf[8:])),
		GroupsSig:  getUint64(buf[16:]),
		State:      append([]byte(nil), buf[24:]...),
	}, nil
}
