package sharedlog

// The committed-read plane's point operations (forward reads are
// cursors, cursor.go). None of these paths take the ordering mutex:
// candidates come from the sharded tag index and records from the
// lock-free committed store. Returned records are shared and immutable
// — callers must not modify them.

func (l *Log) chargeRead() {
	if m := l.cfg.ReadLatency; m != nil {
		l.cfg.Clock.Sleep(m.Sample())
	}
}

// ReadPrev returns the last record carrying tag at an LSN <= from, or
// nil if none exists. Reading the tail of a task-log substream during
// recovery is ReadPrev(tag, MaxLSN). A completed read — found or not —
// charges the read latency once, on top of any replica fault delay.
func (l *Log) ReadPrev(tag Tag, from LSN) (*Record, error) {
	l.stats.readPrev.Add(1)
	if l.closed.Load() {
		return nil, ErrClosed
	}
	lsn, ok := l.index.prev(tag, from)
	if !ok {
		l.chargeRead()
		return nil, nil
	}
	if lsn < l.store.trimHorizon() {
		return nil, ErrTrimmed
	}
	if !l.available(lsn) {
		return nil, ErrUnavailable
	}
	l.chargeFaultDelay(lsn)
	rec, err := l.store.get(lsn)
	if err != nil || rec == nil {
		// Trim retired the record after the index offered it (the index
		// never references unassigned LSNs); backward reads do not skip.
		return nil, ErrTrimmed
	}
	l.chargeRead()
	return rec, nil
}

// Read returns the record at exactly lsn, or nil if that LSN has not
// been assigned. It returns ErrTrimmed below the trim horizon.
func (l *Log) Read(lsn LSN) (*Record, error) {
	l.stats.readExact.Add(1)
	l.chargeRead()
	if l.closed.Load() {
		return nil, ErrClosed
	}
	rec, err := l.store.get(lsn)
	if err != nil || rec == nil {
		return nil, err
	}
	if !l.available(lsn) {
		return nil, ErrUnavailable
	}
	l.chargeFaultDelay(lsn)
	return rec, nil
}

// SetAux attaches auxiliary data to the record at lsn (Boki aux-data).
// Aux data is advisory: it is not replicated with the record and may be
// overwritten by concurrent setters. Committed records are immutable,
// so the store republishes a copy carrying the aux bytes.
func (l *Log) SetAux(lsn LSN, aux []byte) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if err := l.store.setAux(lsn, aux); err != nil {
		return err
	}
	if l.dur != nil {
		l.dur.writeAux(lsn, aux)
	}
	return nil
}

// Trim garbage-collects every record with LSN < upTo (the shared log's
// prefix-trim API, paper §3.5). Trimming is idempotent and monotonic.
func (l *Log) Trim(upTo LSN) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if tail := l.store.committedTail(); upTo > tail {
		upTo = tail
	}
	if upTo <= l.store.trimHorizon() {
		return nil
	}
	// Publication order: horizon first (readers classify the region as
	// trimmed), then the store retires records, then the index forgets
	// them. A reader racing in between sees ErrTrimmed or a still-live
	// record — never a torn lookup.
	l.store.trim(upTo)
	l.index.prune(upTo)
	l.stats.trims.Add(1)
	if l.dur != nil {
		l.dur.writeTrim(upTo)
	}
	return nil
}

// CountTag reports how many live records carry tag; used by tests and
// the GC ablation.
func (l *Log) CountTag(tag Tag) int {
	return l.index.count(tag)
}
