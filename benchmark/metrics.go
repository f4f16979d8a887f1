package main

import (
	"fmt"
	"io"
	"time"
)

// metric is one named number with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.Name, m.Value, m.Unit)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the counters the system keeps, read once after the
// run, and the driver's own observations into per-layer metrics.
// README.md says which end-to-end metric each should move, and where.
func counterMetrics(r *run, sent int, c counters, lat *latencyStats, m *meter, wall time.Duration, heapPeak float64) []metric {
	events := float64(sent)
	secs := wall.Seconds()
	q, l, d := c.query, c.log, c.delivery
	whole := func(h *hist, p float64) float64 { v, _ := h.ms(p); return v }
	worst := func(hs []hist) float64 {
		w := 0.0
		for _, v := range bySecond(hs, 99) {
			if v > w {
				w = v
			}
		}
		return w
	}
	lagP99, _ := lat.lag.ms(99)
	out := []metric{
		{"ingress.recs_per_flush", "count", ratio(float64(c.sourceProcessed), float64(c.sourceLogRecords))},
		{"log.appends_per_event", "count", ratio(float64(l.Appends), events)},
		{"log.mean_append_batch", "count", l.MeanAppendBatch},
		{"log.useful_wakeup_frac", "frac", ratio(float64(l.UsefulWakeups), float64(l.ReaderWakeups))},
		{"ordering.mean_cut_batch", "count", l.MeanCutBatch},
		{"ordering.cut_skew", "ratio", l.CutSkew},
		{"cursor.mean_read_batch", "count", l.MeanReadBatch},
		{"cursor.prefetch_hit_frac", "frac", ratio(float64(l.PrefetchHits), float64(l.PrefetchHits+l.PrefetchMisses))},
		{"wal.bytes_per_event", "B", ratio(float64(c.walBytes), events)},
		{"wal.flushes_per_s", "1/s", ratio(float64(c.walFlushes), secs)},
		{"state.change_recs_per_event", "count", ratio(float64(q.ChangeRecords), events)},
		{"appender.mean_batch", "count", ratio(float64(q.BatchedRecords), float64(q.AppendBatches))},
		{"appender.stalls_per_s", "1/s", ratio(float64(q.BatchStalls), secs)},
		{"commit.markers_per_s", "1/s", ratio(float64(q.Markers), secs)},
		{"commit.bytes_per_marker", "B", ratio(float64(q.MarkerBytes), float64(q.Markers))},
		{"commit.buffered_frac", "frac", ratio(float64(c.buffered), float64(q.Processed))},
		{"commit.stalls", "count", float64(q.CommitStalls)},
		{"task.processed_per_event", "count", ratio(float64(q.Processed), events)},
		{"task.emitted_per_event", "count", ratio(float64(q.Emitted), events)},
		{"task.dropped_duplicate", "count", float64(q.DroppedDuplicate)},
		{"task.dropped_uncommitted", "count", float64(q.DroppedUncommitted)},
		{"task.dropped_below_floor", "count", float64(q.DroppedBelowFloor)},
		{"task.retries", "count", float64(q.Retries)},
		{"task.goroutines", "count", float64(lat.goroutines)},
		{"delivery.attempts_per_record", "count", ratio(float64(d.Attempts), float64(d.Delivered))},
		{"delivery.frontier_persists_per_s", "1/s", ratio(float64(d.FrontierPersists), secs)},
		{"delivery.skipped_acked", "count", float64(d.SkippedAcked)},
		{"recovery.replayed_records", "count", float64(c.recoveredChanges)},
		{"recovery.replay_ms", "ms", float64(c.recoveryNanos) / 1e6},
		{"recovery.batch_reads", "count", float64(c.recoveryBatchReads)},
		{"runtime.gc_cycles", "count", float64(lat.gcCycles)},
		{"runtime.gc_pause_total_ms", "ms", float64(lat.gcPause) / 1e6},
		{"runtime.heap_peak_mb", "MB", heapPeak / (1 << 20)},
		{"driver.sent_eps", "1/s", lat.sentEPS},
		{"driver.sched_lag_p99_ms", "ms", lagP99},
		{"driver.backlog_max_events", "count", lat.backlogMax},
		{"driver.backlog_slope_eps", "1/s", lat.backlogSlope},
		{"driver.emit_p99_whole_phase_ms", "ms", whole(&m.emit, 99)},
		{"driver.emit_p99_worst_second_ms", "ms", worst(m.emitBySecond)},
		{"driver.deliver_p99_worst_second_ms", "ms", worst(m.deliverBySecond)},
		{"driver.emit_p999_ms", "ms", whole(&m.emit, 99.9)},
		{"driver.deliver_p999_ms", "ms", whole(&m.deliver, 99.9)},
		{"driver.samples", "count", float64(m.emit.count())},
		{"driver.deduped", "count", float64(m.deduped.Load())},
	}
	return out
}
