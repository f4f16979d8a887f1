package core

import (
	"context"
	"errors"

	"impeller/internal/sharedlog"
)

// commit performs the periodic exactly-once bookkeeping for the task's
// configured protocol. For Impeller this is one conditional multi-tag
// append (paper §3.3); for Kafka transactions it is the two-phase
// protocol of §3.6; aligned checkpoints are driven by barriers rather
// than the commit tick; unsafe does nothing.
func (t *Task) commit(ctx context.Context) error {
	t.publishProgress()
	switch t.env.Protocol {
	case ProtoProgressMarker:
		return t.commitMarker(ctx)
	case ProtoKafkaTxn:
		return t.commitTxn(ctx)
	case ProtoAlignedCheckpoint, ProtoUnsafe:
		t.flushOutputs()
		return t.drainAppends()
	default:
		return errors.New("core: unknown protocol")
	}
}

// publishProgress snapshots the input side for observers (chaos dumps it
// when a run ends stuck). The caller owns the task; one small allocation
// per commit opportunity.
func (t *Task) publishProgress() {
	p := &TaskProgress{Instance: t.Instance, Cursor: t.cursor, Queued: len(t.queue), LastMarker: t.lastMarker}
	if len(t.queue) > 0 {
		head := t.queue[0]
		p.HeadProducer, p.HeadInstance, p.HeadLSN = head.batch.Producer, head.batch.Instance, head.lsn
		p.HeadClass = t.classify(head).String()
	}
	t.Metrics.Progress.Store(p)
}

// commitMarker writes one progress marker: a consistent cut of input,
// output, and state-change progress, atomically visible in every
// downstream substream, the task log, and the change log through the
// log's multi-tag append (paper §3.3.1, Figure 4 and Figure 6).
func (t *Task) commitMarker(ctx context.Context) error {
	t.flushOutputs()
	if err := t.drainAppends(); err != nil {
		return err
	}
	if !t.activity && !t.firstCommit {
		return nil
	}

	// The marker's tag set (every downstream substream, the task log,
	// the change log) is precomputed at construction: t.markerTags.
	t.assertAppendsDrained("progress marker")

	// Appends are drained, so no completion callback is in flight: the
	// marker borrows outFirst and is encoded under the lock, once.
	t.progressMu.Lock()
	m := ProgressMarker{
		InputEnd:        t.inputEnd(),
		OutFirst:        t.outFirst,
		ChangeFirst:     t.changeFirst,
		SeqEnd:          t.outSeq,
		CheckpointEpoch: t.ckptEpoch,
	}
	control := m.Encode()
	outputs := len(t.outFirst)
	t.progressMu.Unlock()

	// Epoch on a marker batch carries the assignment epoch the instance
	// runs under; recovery reads it off the last marker to bound its
	// handoff-floor scan (applyHandoffFloors).
	payload := (&Batch{
		Kind:     KindMarker,
		Producer: t.ID,
		Instance: t.Instance,
		Epoch:    t.assignEpoch,
		Control:  control,
	}).Encode()

	// The conditional append fences zombies: it succeeds only while the
	// metadata store still maps our task id to our instance number
	// (paper §3.4). Transient log faults are retried — the guard makes
	// the retry safe: either no attempt committed (retry is a fresh
	// try) or one did and the next returns ErrCondFailed only if we
	// were fenced meanwhile. A fencing rejection is fatal, never
	// retried: the answer cannot change.
	var markerLSN LSN
	err := t.retry.do(ctx, "marker append", func() error {
		var e error
		markerLSN, e = t.log.ConditionalAppend(t.markerTags, payload, InstanceKey(t.ID), t.Instance)
		return e
	})
	if errors.Is(err, sharedlog.ErrCondFailed) {
		return ErrZombie
	}
	if err != nil {
		return err
	}
	// Everything at or below the committed InputEnd is consumed; we still
	// need our latest marker. A stateful stage's change streams are
	// pinned apart (Manager.Start).
	floor := markerLSN
	if in := t.inputEnd(); in != NoLSN && in+1 < floor {
		floor = in + 1
	}
	t.env.GC.Report(t.ID, floor)
	t.lastMarker = markerLSN
	t.Metrics.Appends.Add(1)
	t.Metrics.Markers.Add(1)
	if t.sched.offTick {
		t.Metrics.CascadeCommits.Add(1)
	}
	t.Metrics.MarkerBytes.Add(uint64(len(control)))
	t.Metrics.MarkerBytesUnshrunk.Add(uint64(unshrunkSize(len(control), outputs)))

	t.resetProgress()
	return nil
}

func (t *Task) resetProgress() {
	t.progressMu.Lock()
	clear(t.outFirst)
	t.changeFirst = NoLSN
	t.progressMu.Unlock()
	t.activity = false
	t.firstCommit = false
}

// --- Kafka Streams transaction protocol (paper §3.6) ---

// txnTouched tracks the output substream tags registered with the
// coordinator for the current transaction.
func (t *Task) txnRegister(tags []sharedlog.Tag) {
	if t.txnTouchedSet == nil {
		t.txnTouchedSet = make(map[sharedlog.Tag]bool)
	}
	var fresh []sharedlog.Tag
	for _, tag := range tags {
		if !t.txnTouchedSet[tag] {
			t.txnTouchedSet[tag] = true
			fresh = append(fresh, tag)
		}
	}
	if len(fresh) == 0 {
		return
	}
	// Registration is the synchronous part of phase one: "before a task
	// can append to any stream, it must register the stream name and
	// substream identifier with the coordinator" (§3.6).
	t.txn.Register(t.ID, t.Instance, t.epoch, fresh)
}

// commitTxn runs the two-phase commit. Phase one (pre-commit) is
// synchronous; phase two (commit markers to every touched substream,
// the offsets record, the final commit record) runs asynchronously in
// the coordinator — but a new transaction cannot commit before the
// previous one completes, so short commit intervals stall (paper §3.6,
// §5.3.2; the CommitStalls metric counts these waits).
func (t *Task) commitTxn(ctx context.Context) error {
	t.flushOutputs()
	if err := t.drainAppends(); err != nil {
		return err
	}
	if !t.activity && !t.firstCommit {
		return nil
	}
	if t.pendingP2 != nil {
		select {
		case <-t.pendingP2:
		default:
			t.Metrics.CommitStalls.Add(1)
			select {
			case <-t.pendingP2:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	// Also register the change log with the coordinator so its commit
	// marker covers the epoch's state changes.
	if t.stage.Stateful && t.changedThisEpoch {
		t.txnRegister([]sharedlog.Tag{ChangeLogTag(t.ID)})
	}

	touched := make([]sharedlog.Tag, 0, len(t.txnTouchedSet))
	for tag := range t.txnTouchedSet {
		touched = append(touched, tag)
	}
	offsets := &ProgressMarker{InputEnd: t.inputEnd(), SeqEnd: t.outSeq}

	t.assertAppendsDrained("transaction prepare")
	done, err := t.txn.Prepare(t.ID, t.Instance, t.epoch, touched, offsets)
	if err != nil {
		if errors.Is(err, ErrZombie) {
			return ErrZombie
		}
		return err
	}
	t.Metrics.Markers.Add(1) // one committed transaction ≈ one progress unit
	t.pendingP2 = done
	t.epoch++
	t.txnTouchedSet = nil
	t.changedThisEpoch = false
	t.activity = false
	t.firstCommit = false
	return nil
}
