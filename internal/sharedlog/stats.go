package sharedlog

import "sync/atomic"

// logStats is the log's internal counter set. Counters are atomic so
// the hot paths bump them without coordination; Stats() snapshots them.
type logStats struct {
	appends    atomic.Uint64
	condFailed atomic.Uint64

	readExact atomic.Uint64
	readPrev  atomic.Uint64

	cuts     atomic.Uint64 // sequencer cuts that ordered >= 1 append
	cutBatch atomic.Uint64 // appends ordered through cuts

	batchAppends atomic.Uint64 // AppendBatch calls (group commits)
	batchRecords atomic.Uint64 // records carried by AppendBatch calls

	wakeups       atomic.Uint64 // waiters woken by commits
	usefulWakeups atomic.Uint64 // wakeups after which the reader found data

	cursorOpens          atomic.Uint64 // OpenCursor calls
	cursorBatchReads     atomic.Uint64 // cursor fetches (read round trips)
	cursorRecords        atomic.Uint64 // records returned through cursors
	cursorPrefetchHits   atomic.Uint64 // records served from readahead buffers
	cursorPrefetchMisses atomic.Uint64 // records served straight from a fetch
	cursorInvalidations  atomic.Uint64 // cursors invalidated by Trim

	trims atomic.Uint64

	// Durability plane: what the last Recover replayed and truncated.
	// Device write counters (bytes/appends/flushes) live on the wal.Device
	// itself and are folded in by Stats().
	recoveredRecords  atomic.Uint64
	recoveredMetaOps  atomic.Uint64
	recoveredTrims    atomic.Uint64
	walTruncations    atomic.Uint64
	walTruncatedBytes atomic.Uint64
}

// Stats is a point-in-time snapshot of the log's observability counters
// (satellite of the ordering/read plane split: the wakeup pair verifies
// per-tag waiters replaced the global broadcast — a commit only wakes
// readers registered on a tag it carries, so UsefulWakeups tracks
// ReaderWakeups closely instead of trailing it by orders of magnitude).
type Stats struct {
	// Appends counts committed records; CondFailed counts conditional
	// appends rejected by their metadata guard.
	Appends    uint64
	CondFailed uint64

	// Point reads by kind; forward reads are the Cursor* counters.
	ReadExact uint64
	ReadPrev  uint64

	// SequencerCuts counts non-empty ordering cuts; MeanCutBatch is the
	// mean number of appends ordered per cut (0 in immediate mode).
	SequencerCuts uint64
	MeanCutBatch  float64

	// Per-shard view of the ordering plane (sequencer mode only;
	// OrderingShards is 0 in immediate mode, which has no shard layer).
	// ShardCuts[i] counts the cuts shard i contributed at least one
	// entry to, ShardCutRecords[i] the entries it pushed through them,
	// and ShardMeanCut[i] their ratio. CutSkew is max(ShardCutRecords) /
	// mean(ShardCutRecords) — 1.0 means perfectly balanced routing, and
	// it stays near 1 under round-robin unless faults idle a shard.
	OrderingShards  int
	ShardCuts       []uint64
	ShardCutRecords []uint64
	ShardMeanCut    []float64
	CutSkew         float64

	// BatchAppends counts AppendBatch group commits; MeanAppendBatch is
	// the mean number of records per group (0 when callers only ever
	// append singly). Together with Appends this shows how much of the
	// write volume rode the batched dataplane.
	BatchAppends    uint64
	MeanAppendBatch float64

	// ReaderWakeups counts blocked readers woken by commits;
	// UsefulWakeups counts wakeups whose reader then found a record (or
	// a definite error). With per-tag waiters the ratio is ~1.
	ReaderWakeups uint64
	UsefulWakeups uint64

	// Streaming read plane (cursor.go). CursorBatchReads counts cursor
	// fetches — the read round trips a deployment would pay;
	// CursorRecords counts records delivered through them, so
	// MeanReadBatch = CursorRecords / CursorBatchReads is the read-side
	// amortization factor (the dual of MeanAppendBatch). PrefetchHits /
	// PrefetchMisses split CursorRecords by whether the record was
	// served from a readahead buffer or straight from its fetch.
	CursorOpens         uint64
	CursorBatchReads    uint64
	CursorRecords       uint64
	MeanReadBatch       float64
	PrefetchHits        uint64
	PrefetchMisses      uint64
	CursorInvalidations uint64

	// Trims counts Trim calls that advanced the horizon.
	Trims uint64

	// Durability plane (all zero when Config.WAL is unset). WALBytes,
	// WALAppends, and WALFlushes are the device's write counters;
	// RecoveredRecords / RecoveredMetaOps / RecoveredTrims count what
	// Recover replayed from the WAL; WALTruncations counts
	// truncate-at-corruption events during recovery and
	// WALTruncatedBytes the bytes they discarded.
	WALBytes          uint64
	WALAppends        uint64
	WALFlushes        uint64
	RecoveredRecords  uint64
	RecoveredMetaOps  uint64
	RecoveredTrims    uint64
	WALTruncations    uint64
	WALTruncatedBytes uint64

	// Tail and TrimHorizon locate the live window of the log.
	Tail        LSN
	TrimHorizon LSN
}

// Stats returns a snapshot of the log's counters. Counters are read
// individually, so a snapshot taken during activity is approximate
// across fields but each field is exact.
func (l *Log) Stats() Stats {
	s := Stats{
		Appends:       l.stats.appends.Load(),
		CondFailed:    l.stats.condFailed.Load(),
		ReadExact:     l.stats.readExact.Load(),
		ReadPrev:      l.stats.readPrev.Load(),
		SequencerCuts: l.stats.cuts.Load(),
		ReaderWakeups: l.stats.wakeups.Load(),
		UsefulWakeups: l.stats.usefulWakeups.Load(),
		Trims:         l.stats.trims.Load(),
		Tail:          l.Tail(),
		TrimHorizon:   l.TrimHorizon(),
	}
	if s.SequencerCuts > 0 {
		s.MeanCutBatch = float64(l.stats.cutBatch.Load()) / float64(s.SequencerCuts)
	}
	if n := len(l.seqShards); n > 0 {
		s.OrderingShards = n
		s.ShardCuts = make([]uint64, n)
		s.ShardCutRecords = make([]uint64, n)
		s.ShardMeanCut = make([]float64, n)
		var sum, max uint64
		for i, sh := range l.seqShards {
			s.ShardCuts[i] = sh.cuts.Load()
			s.ShardCutRecords[i] = sh.records.Load()
			if s.ShardCuts[i] > 0 {
				s.ShardMeanCut[i] = float64(s.ShardCutRecords[i]) / float64(s.ShardCuts[i])
			}
			sum += s.ShardCutRecords[i]
			if s.ShardCutRecords[i] > max {
				max = s.ShardCutRecords[i]
			}
		}
		if sum > 0 {
			s.CutSkew = float64(max) * float64(n) / float64(sum)
		}
	}
	s.BatchAppends = l.stats.batchAppends.Load()
	if s.BatchAppends > 0 {
		s.MeanAppendBatch = float64(l.stats.batchRecords.Load()) / float64(s.BatchAppends)
	}
	s.CursorOpens = l.stats.cursorOpens.Load()
	s.CursorBatchReads = l.stats.cursorBatchReads.Load()
	s.CursorRecords = l.stats.cursorRecords.Load()
	if s.CursorBatchReads > 0 {
		s.MeanReadBatch = float64(s.CursorRecords) / float64(s.CursorBatchReads)
	}
	s.PrefetchHits = l.stats.cursorPrefetchHits.Load()
	s.PrefetchMisses = l.stats.cursorPrefetchMisses.Load()
	s.CursorInvalidations = l.stats.cursorInvalidations.Load()
	if l.dur != nil {
		s.WALBytes, s.WALAppends, s.WALFlushes = l.dur.dev.Stats()
		s.RecoveredRecords = l.stats.recoveredRecords.Load()
		s.RecoveredMetaOps = l.stats.recoveredMetaOps.Load()
		s.RecoveredTrims = l.stats.recoveredTrims.Load()
		s.WALTruncations = l.stats.walTruncations.Load()
		s.WALTruncatedBytes = l.stats.walTruncatedBytes.Load()
	}
	return s
}
