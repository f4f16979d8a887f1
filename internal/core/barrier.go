package core

import (
	"encoding/binary"
	"sort"

	"impeller/internal/sharedlog"
)

// Aligned checkpointing (paper §5.1 baseline): barriers flow through
// the data streams; a multi-input task blocks each upstream producer's
// records once that producer's barrier arrives, and snapshots its state
// when barriers from every upstream producer have aligned. "This
// approach creates a logical snapshot, but can only be done as fast as
// data flows through the system" — the alignment stall is the cost the
// paper measures.

// alignState tracks barrier alignment for one task.
type alignState struct {
	// expected is the number of upstream producers across all inputs.
	expected int
	// epoch is the checkpoint currently aligning (0 = none).
	epoch uint64
	// arrived maps producers whose barrier we received to its LSN.
	arrived map[TaskID]LSN
	// side buffers post-barrier batches from blocked producers.
	side []queuedBatch
}

func newAlignState(stage *Stage) *alignState {
	expected := 0
	for _, n := range stage.UpstreamProducers {
		expected += n
	}
	return &alignState{expected: expected, arrived: make(map[TaskID]LSN)}
}

func (a *alignState) blocked(p TaskID) bool {
	if a.epoch == 0 {
		return false
	}
	_, ok := a.arrived[p]
	return ok
}

func (a *alignState) buffer(q queuedBatch) {
	a.side = append(a.side, q)
}

// earliestBuffered returns the lowest LSN held in the side buffer.
func (a *alignState) earliestBuffered() (LSN, bool) {
	if len(a.side) == 0 {
		return 0, false
	}
	best := a.side[0].lsn
	for _, q := range a.side[1:] {
		if q.lsn < best {
			best = q.lsn
		}
	}
	return best, true
}

// onBarrier handles one barrier record and reports whether alignment is
// now complete. The caller then runs completeAlignment as a blocking
// operation (Task.runBlocking): the completion snapshots synchronously
// and drains appends.
func (t *Task) onBarrier(b *Batch, lsn LSN) (complete bool, err error) {
	a := t.align
	if b.Epoch <= t.epoch {
		return false, nil // stale barrier from before our restore point
	}
	if a.epoch != 0 && b.Epoch > a.epoch {
		// A newer epoch's barrier means the coordinator aborted the
		// checkpoint we were aligning on (a participant crashed before
		// its barrier reached us). Abandon it — unblock the producers
		// and replay their side-buffered records — and align on the
		// new epoch instead, so the task does not stall forever behind
		// an epoch that can never complete.
		if err := t.releaseAlignment(); err != nil {
			return false, err
		}
	}
	if a.epoch == 0 {
		a.epoch = b.Epoch
	}
	if b.Epoch != a.epoch {
		return false, nil // stale barrier for an aborted earlier epoch
	}
	a.arrived[b.Producer] = lsn
	return len(a.arrived) >= a.expected, nil
}

func (t *Task) completeAlignment() error {
	a := t.align

	// Everything pre-barrier is processed; drain what classification
	// allows (openTracker commits everything, so the queue empties — the
	// budget is lifted for the whole operation, see doBlocking).
	if err := t.drain(); err != nil {
		return err
	}
	t.flushOutputs()
	if err := t.drainAppends(); err != nil {
		return err
	}

	// Snapshot synchronously to the checkpoint store (the paper
	// configures Kvrocks to flush synchronously; the write stalls the
	// task, which is where checkpointing loses to progress markers as
	// state grows).
	snap := t.alignedSnapshot()
	if err := t.env.Checkpoints.Put(CkptKey(t.ID, a.epoch), snap); err != nil {
		return err
	}

	// Forward the barrier to all downstream substreams in one atomic
	// multi-tag append, then ack.
	var tags []sharedlog.Tag
	for _, out := range t.stage.Outputs {
		tags = append(tags, out.Tags()...)
	}
	payload := (&Batch{
		Kind:     KindBarrier,
		Producer: t.ID,
		Instance: t.Instance,
		Epoch:    a.epoch,
	}).Encode()
	if _, err := t.log.Append(tags, payload); err != nil {
		return err
	}
	t.Metrics.Appends.Add(1)
	t.Metrics.Markers.Add(1) // checkpoints are this protocol's progress unit
	if t.ckpt != nil {
		t.ckpt.Ack(t.ID, a.epoch)
	}
	t.epoch = a.epoch
	return t.releaseAlignment()
}

// releaseAlignment resets alignment state and replays the buffered
// post-barrier batches in LSN order — used both when an alignment
// completes and when a newer epoch's barrier abandons an aborted one.
func (t *Task) releaseAlignment() error {
	a := t.align
	side := a.side
	a.side = nil
	a.arrived = make(map[TaskID]LSN)
	a.epoch = 0
	sort.Slice(side, func(i, j int) bool { return side[i].lsn < side[j].lsn })
	for _, q := range side {
		t.queue = append(t.queue, q)
	}
	return t.drain()
}

// alignedSnapshot serializes everything a task needs to resume from
// this checkpoint: per-producer barrier positions (Flink's per-channel
// offsets), duplicate-suppression state, the output sequence counter,
// and the state store contents.
type alignedSnapshot struct {
	Epoch    uint64
	OutSeq   uint64
	Barriers map[TaskID]LSN
	LastSeq  map[TaskID]uint64
	State    []byte
}

func (t *Task) alignedSnapshot() []byte {
	// Aligned tasks run the identity group layout (one group per slot:
	// the manager rejects rescale headroom outside the marker protocol),
	// so flattening lastSeq to its per-producer wire form is lossless.
	seqs := make(map[TaskID]uint64, len(t.lastSeq))
	for k, v := range t.lastSeq {
		seqs[k.producer] = v
	}
	s := alignedSnapshot{
		Epoch:    t.align.epoch,
		OutSeq:   t.outSeq,
		Barriers: t.align.arrived,
		LastSeq:  seqs,
		State:    t.store.Snapshot(),
	}
	return s.encode()
}

func (s *alignedSnapshot) encode() []byte {
	buf := binary.LittleEndian.AppendUint64(nil, s.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, s.OutSeq)
	buf = appendTaskLSNMap(buf, s.Barriers)
	m := make(map[TaskID]LSN, len(s.LastSeq))
	for k, v := range s.LastSeq {
		m[k] = LSN(v)
	}
	buf = appendTaskLSNMap(buf, m)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.State)))
	return append(buf, s.State...)
}

func decodeAlignedSnapshot(buf []byte) (*alignedSnapshot, error) {
	if len(buf) < 16 {
		return nil, ErrBadEncoding
	}
	s := &alignedSnapshot{}
	s.Epoch = binary.LittleEndian.Uint64(buf)
	s.OutSeq = binary.LittleEndian.Uint64(buf[8:])
	p := 16
	var err error
	s.Barriers, p, err = readTaskLSNMap(buf, p)
	if err != nil {
		return nil, err
	}
	var seqs map[TaskID]LSN
	seqs, p, err = readTaskLSNMap(buf, p)
	if err != nil {
		return nil, err
	}
	s.LastSeq = make(map[TaskID]uint64, len(seqs))
	for k, v := range seqs {
		s.LastSeq[k] = uint64(v)
	}
	if p+4 > len(buf) {
		return nil, ErrBadEncoding
	}
	n := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	if p+n != len(buf) {
		return nil, ErrBadEncoding
	}
	s.State = append([]byte(nil), buf[p:]...)
	return s, nil
}

func appendTaskLSNMap(buf []byte, m map[TaskID]LSN) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m[TaskID(k)]))
	}
	return buf
}

func readTaskLSNMap(buf []byte, p int) (map[TaskID]LSN, int, error) {
	if p+4 > len(buf) {
		return nil, 0, ErrBadEncoding
	}
	n := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	// An entry is at least 10 bytes (2-byte key length + 8-byte LSN);
	// reject corrupt counts before allocating.
	if n > (len(buf)-p)/10 {
		return nil, 0, ErrBadEncoding
	}
	m := make(map[TaskID]LSN, n)
	for i := 0; i < n; i++ {
		if p+2 > len(buf) {
			return nil, 0, ErrBadEncoding
		}
		kl := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		if p+kl+8 > len(buf) {
			return nil, 0, ErrBadEncoding
		}
		k := TaskID(buf[p : p+kl])
		p += kl
		m[k] = LSN(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
	}
	return m, p, nil
}
