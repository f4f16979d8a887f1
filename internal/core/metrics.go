package core

import (
	"fmt"
	"sync/atomic"

	"impeller/internal/sharedlog"
)

// TaskMetrics counts a task's work; all fields are safe for concurrent
// reads while the task runs. The benchmark harness aggregates these per
// query and the ablation benches read the marker byte counters.
type TaskMetrics struct {
	// Processed counts data records actually applied to the processor.
	Processed atomic.Uint64
	// Emitted counts records produced to output streams.
	Emitted atomic.Uint64
	// DroppedUncommitted counts records discarded by the three-case
	// classification (outputs of failed instances, aborted txns).
	DroppedUncommitted atomic.Uint64
	// DroppedDuplicate counts records suppressed by per-producer
	// sequence numbers (paper §3.5, duplicate appends).
	DroppedDuplicate atomic.Uint64
	// DroppedBelowFloor counts records suppressed below an acquired key
	// group's handoff floor: the donor slot committed them before the
	// group migrated here at a rescale.
	DroppedBelowFloor atomic.Uint64
	// Buffered counts records that entered the unknown-state queue.
	Buffered atomic.Uint64
	// Markers counts progress markers written.
	Markers atomic.Uint64
	// CascadeCommits counts the markers written off the grid tick,
	// triggered by an upstream round (commit_sched.go).
	CascadeCommits atomic.Uint64
	// MarkerBytes and MarkerBytesUnshrunk compare the §3.5 shrunk
	// encoding against the naive one (ablation).
	MarkerBytes         atomic.Uint64
	MarkerBytesUnshrunk atomic.Uint64
	// Appends counts log appends issued (outputs, change log, control).
	Appends atomic.Uint64
	// AppendBatches counts group commits the batcher shipped;
	// BatchedRecords counts the appends they carried. BatchedRecords /
	// AppendBatches is the realized batch size.
	AppendBatches  atomic.Uint64
	BatchedRecords atomic.Uint64
	// BatchStalls counts batch submissions that blocked because the
	// in-flight append window was full (output backpressure).
	BatchStalls atomic.Uint64
	// CommitStalls counts commit ticks that had to wait for a previous
	// in-flight commit (Kafka transactions, aligned checkpoints).
	CommitStalls atomic.Uint64
	// ChangeRecords counts state-change records written.
	ChangeRecords atomic.Uint64
	// RecoveredChanges counts change-log records replayed at recovery
	// (Table 4 reports this).
	RecoveredChanges atomic.Uint64
	// RecoveredFromCheckpoint reports whether recovery loaded a state
	// checkpoint (1) or replayed the full change log (0).
	RecoveredFromCheckpoint atomic.Uint64
	// RecoveryNanos is the duration of the last recovery (Table 4).
	RecoveryNanos atomic.Int64
	// Retries counts log operations re-attempted after a transient
	// fault (crashed shard, partition, unreachable quorum).
	Retries atomic.Uint64
	// CheckpointDecodeFailures counts corrupt marker checkpoints that
	// forced recovery to fall back to full change-log replay.
	CheckpointDecodeFailures atomic.Uint64
	// Cursor counts the streaming read plane's activity on the task's
	// input loop: Cursor.BatchReads is the read round trips the hot
	// path paid, Cursor.Records the records they carried (the dual of
	// AppendBatches / BatchedRecords on the write side).
	Cursor sharedlog.CursorStats
	// RecoveryCursor isolates the cursor activity of recovery's replay
	// phase, so replay round trips are counted without input-loop noise
	// (the benchmark's recovery.batch_reads).
	RecoveryCursor sharedlog.CursorStats
	// Progress is the input side as of the current instance's last commit
	// opportunity (every grid tick, idle or not), so a task that stopped
	// moving can still be asked where it stands.
	Progress atomic.Pointer[TaskProgress]
}

// TaskProgress is one snapshot of a task's input side.
type TaskProgress struct {
	Instance uint64
	// Cursor is the next input LSN the task will read.
	Cursor LSN
	// Queued is the unknown-state queue length in batches; the Head
	// fields describe its first batch and are meaningful when Queued > 0.
	Queued       int
	HeadProducer TaskID
	HeadInstance uint64
	HeadLSN      LSN
	HeadClass    string
	// LastMarker is the LSN of the task's latest progress marker (the
	// instance's own, or the one it recovered from); NoLSN if none.
	LastMarker LSN
}

func (p *TaskProgress) String() string {
	marker := "none"
	if p.LastMarker != NoLSN {
		marker = fmt.Sprint(p.LastMarker)
	}
	head := "-"
	if p.Queued > 0 {
		head = fmt.Sprintf("%s#%d@%d %s", p.HeadProducer, p.HeadInstance, p.HeadLSN, p.HeadClass)
	}
	return fmt.Sprintf("instance=%d cursor=%d queued=%d head=%s lastMarker=%s",
		p.Instance, p.Cursor, p.Queued, head, marker)
}

// QueryMetrics aggregates counters across a query's current tasks.
type QueryMetrics struct {
	Processed, Emitted, DroppedUncommitted, DroppedDuplicate uint64
	DroppedBelowFloor                                        uint64
	Markers, MarkerBytes, MarkerBytesUnshrunk, Appends       uint64
	CascadeCommits                                           uint64
	AppendBatches, BatchedRecords, BatchStalls               uint64
	CommitStalls, ChangeRecords, RecoveredChanges            uint64
	Retries, CheckpointDecodeFailures                        uint64

	// Streaming read plane (input loops + recovery replay combined,
	// except the Recovery* pair, which is the replay phase alone).
	CursorOpens, CursorBatchReads, CursorRecords  uint64
	CursorPrefetchHits, CursorPrefetchMisses      uint64
	CursorInvalidations                           uint64
	RecoveryBatchReads, RecoveryBatchReadsRecords uint64
}

// Add folds one task's metrics into the aggregate.
func (q *QueryMetrics) Add(m *TaskMetrics) {
	q.Processed += m.Processed.Load()
	q.Emitted += m.Emitted.Load()
	q.DroppedUncommitted += m.DroppedUncommitted.Load()
	q.DroppedDuplicate += m.DroppedDuplicate.Load()
	q.DroppedBelowFloor += m.DroppedBelowFloor.Load()
	q.Markers += m.Markers.Load()
	q.CascadeCommits += m.CascadeCommits.Load()
	q.MarkerBytes += m.MarkerBytes.Load()
	q.MarkerBytesUnshrunk += m.MarkerBytesUnshrunk.Load()
	q.Appends += m.Appends.Load()
	q.AppendBatches += m.AppendBatches.Load()
	q.BatchedRecords += m.BatchedRecords.Load()
	q.BatchStalls += m.BatchStalls.Load()
	q.CommitStalls += m.CommitStalls.Load()
	q.ChangeRecords += m.ChangeRecords.Load()
	q.RecoveredChanges += m.RecoveredChanges.Load()
	q.Retries += m.Retries.Load()
	q.CheckpointDecodeFailures += m.CheckpointDecodeFailures.Load()
	q.CursorOpens += m.Cursor.Opens.Load() + m.RecoveryCursor.Opens.Load()
	q.CursorBatchReads += m.Cursor.BatchReads.Load() + m.RecoveryCursor.BatchReads.Load()
	q.CursorRecords += m.Cursor.Records.Load() + m.RecoveryCursor.Records.Load()
	q.CursorPrefetchHits += m.Cursor.PrefetchHits.Load() + m.RecoveryCursor.PrefetchHits.Load()
	q.CursorPrefetchMisses += m.Cursor.PrefetchMisses.Load() + m.RecoveryCursor.PrefetchMisses.Load()
	q.CursorInvalidations += m.Cursor.Invalidations.Load() + m.RecoveryCursor.Invalidations.Load()
	q.RecoveryBatchReads += m.RecoveryCursor.BatchReads.Load()
	q.RecoveryBatchReadsRecords += m.RecoveryCursor.Records.Load()
}
