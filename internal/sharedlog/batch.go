package sharedlog

// Group commit: AppendBatch orders a group of records through one
// sequencer interaction. The paper's throughput argument (§5.3) is that
// a task's outputs, change-log deltas, and markers are all appends to
// the same log, so the dataplane wins by amortizing the per-append
// costs — the client↔sequencer exchange (one simulated latency charge
// per batch instead of per record), the ordering mutex, and the tag
// index locks (one vectorized pass per group) — while preserving
// exactly the semantics of the same records appended singly:
//
//   - entries are ordered contiguously in submission order, so per-tag
//     read order matches the singly-appended interleaving;
//   - each record still appears atomically in every tag it carries;
//   - conditional entries are guard-checked individually at ordering
//     time, so a fence between submission and the cut still excludes
//     them (a failed guard skips that entry only — the rest of the
//     batch commits).

// AppendEntry is one record submitted through AppendBatch. Tags must be
// non-empty. A Conditional entry commits only if the metadata key still
// holds CondWant when the batch is ordered, mirroring ConditionalAppend.
type AppendEntry struct {
	Tags    []Tag
	Payload []byte

	Conditional bool
	CondKey     string
	CondWant    uint64
}

// AppendResult is the per-entry outcome of an AppendBatch: the assigned
// LSN, or ErrCondFailed for a conditional entry whose guard no longer
// held. Batch-level failures (closed log, unreachable sequencer) are
// returned as the call's error instead.
type AppendResult struct {
	LSN LSN
	Err error
}

// AppendBatch appends entries as one group commit. The whole group is
// charged a single append latency and ordered under a single ordering
// decision (in sequencer mode, within a single cut); entries receive
// contiguous LSNs in slice order. On success the returned slice has one
// result per entry, index-aligned. An empty batch is a no-op.
func (l *Log) AppendBatch(entries []AppendEntry) ([]AppendResult, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	for i := range entries {
		if len(entries[i].Tags) == 0 {
			return nil, errAppendNeedsTag
		}
	}
	if err := l.cfg.Faults.Check("client", "sequencer"); err != nil {
		return nil, err
	}
	if d := l.cfg.Faults.DelayOf("sequencer"); d > 0 {
		l.cfg.Clock.Sleep(d)
	}
	// One latency charge for the whole group: this is the group-commit
	// amortization (a single client→sequencer→storage exchange carries
	// every record in the batch).
	if m := l.cfg.AppendLatency; m != nil {
		l.cfg.Clock.Sleep(m.Sample())
	}
	// Materialize the group with block allocations: one Record block,
	// one tag block, one payload block for the whole batch instead of
	// three allocations per entry. Sub-slices are full-slice-capped so an
	// append on one record's view cannot clobber its neighbor. This is
	// the vectorized record path: per-record cost is two memcpys, the
	// per-batch cost is three allocations.
	totalTags, totalPayload := 0, 0
	for i := range entries {
		totalTags += len(entries[i].Tags)
		totalPayload += len(entries[i].Payload)
	}
	recBlock := make([]Record, len(entries))
	tagBlock := make([]Tag, 0, totalTags)
	payloadBlock := make([]byte, 0, totalPayload)
	pend := make([]pendingEntry, len(entries))
	for i, e := range entries {
		tagFrom, payFrom := len(tagBlock), len(payloadBlock)
		tagBlock = append(tagBlock, e.Tags...)
		payloadBlock = append(payloadBlock, e.Payload...)
		rec := &recBlock[i]
		rec.Tags = tagBlock[tagFrom:len(tagBlock):len(tagBlock)]
		rec.Payload = payloadBlock[payFrom:len(payloadBlock):len(payloadBlock)]
		pend[i] = pendingEntry{
			rec:         rec,
			conditional: e.Conditional,
			condKey:     e.CondKey,
			condWant:    e.CondWant,
		}
	}
	l.stats.batchAppends.Add(1)
	l.stats.batchRecords.Add(uint64(len(entries)))

	if !l.ordering {
		results := make([]appendResult, len(pend))
		if err := l.commitImmediate(pend, results, make([]*Record, 0, len(pend))); err != nil {
			return nil, err
		}
		return publicResults(results), nil
	}
	// Sequencer mode: the group rides one ordering shard — one serial
	// local-persist charge for the whole batch — then waits for the next
	// cut as one unit and is ordered contiguously within it.
	s := l.routeShard()
	if err := l.cfg.Faults.Check("client", s.name); err != nil {
		return nil, err
	}
	l.chargeShardPersist(s)
	b := &pendingBatch{
		entries: pend,
		results: make([]appendResult, len(pend)),
		resp:    make(chan error, 1),
	}
	if err := s.enqueue(l, b); err != nil {
		return nil, err
	}
	if err := <-b.resp; err != nil {
		return nil, err
	}
	return publicResults(b.results), nil
}

func publicResults(in []appendResult) []AppendResult {
	out := make([]AppendResult, len(in))
	for i, r := range in {
		out[i] = AppendResult{LSN: r.lsn, Err: r.err}
	}
	return out
}
