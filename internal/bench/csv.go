package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// CSV exports for the experiment runners, so sweeps can be plotted with
// external tooling. One row per measured point; durations in
// microseconds.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func us(d time.Duration) string {
	return strconv.FormatInt(d.Microseconds(), 10)
}

// WriteTable2CSV exports Table 2 rows.
func WriteTable2CSV(w io.Writer, rows []Table2Row) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			strconv.Itoa(r.Rate),
			us(r.BokiP50), us(r.BokiP99),
			us(r.KafkaP50), us(r.KafkaP99),
			fmt.Sprintf("%.3f", r.SlowdownP50), fmt.Sprintf("%.3f", r.SlowdownP99),
			strconv.FormatUint(r.BokiLog.Appends, 10),
			strconv.FormatUint(r.BokiLog.ReaderWakeups, 10),
			strconv.FormatUint(r.BokiLog.UsefulWakeups, 10),
		})
	}
	return writeCSV(w,
		[]string{"rate_aps", "boki_p50_us", "boki_p99_us", "kafka_p50_us", "kafka_p99_us", "slowdown_p50", "slowdown_p99",
			"boki_appends", "boki_wakeups", "boki_useful_wakeups"},
		out)
}

// WriteFig7CSV exports latency-vs-throughput series (Figures 7 and 9).
func WriteFig7CSV(w io.Writer, series []*Fig7Series) error {
	var out [][]string
	for _, s := range series {
		for _, p := range s.Points {
			out = append(out, []string{
				strconv.Itoa(s.Query),
				s.Protocol.String(),
				strconv.Itoa(p.Config.Rate),
				us(p.P50), us(p.P99), us(p.P999), us(p.P9999), us(p.Mean),
				strconv.FormatUint(p.Sent, 10),
				strconv.FormatUint(p.Received, 10),
				strconv.FormatUint(p.Log.Appends, 10),
				strconv.FormatUint(logReads(p.Log), 10),
				strconv.FormatUint(p.Log.SequencerCuts, 10),
				fmt.Sprintf("%.2f", p.Log.MeanCutBatch),
				strconv.Itoa(p.Log.OrderingShards),
				fmt.Sprintf("%.3f", p.Log.CutSkew),
				strconv.FormatUint(p.Log.ReaderWakeups, 10),
				strconv.FormatUint(p.Log.UsefulWakeups, 10),
				strconv.FormatUint(p.Log.BatchAppends, 10),
				fmt.Sprintf("%.2f", p.Log.MeanAppendBatch),
				strconv.FormatUint(p.Metrics.BatchStalls, 10),
				strconv.FormatUint(p.Metrics.CursorOpens, 10),
				strconv.FormatUint(p.Metrics.CursorBatchReads, 10),
				strconv.FormatUint(p.Metrics.CursorRecords, 10),
				strconv.FormatUint(p.Metrics.CursorPrefetchHits, 10),
				strconv.FormatUint(p.Metrics.CursorPrefetchMisses, 10),
				strconv.FormatUint(p.Metrics.CursorInvalidations, 10),
				strconv.FormatUint(p.Delivery.Attempts, 10),
				strconv.FormatUint(p.Delivery.Redelivered, 10),
				strconv.FormatUint(p.Delivery.PermanentFailures, 10),
				strconv.FormatUint(p.Delivery.DeadLettered, 10),
				strconv.FormatUint(p.Log.WALBytes, 10),
				strconv.FormatUint(p.Log.WALFlushes, 10),
				strconv.FormatUint(p.Log.RecoveredRecords, 10),
				strconv.FormatUint(p.Log.WALTruncations, 10),
				strconv.FormatUint(p.AssignEpochs, 10),
				s.Saturation(),
			})
		}
	}
	return writeCSV(w,
		[]string{"query", "protocol", "rate_eps", "p50_us", "p99_us", "p999_us", "p9999_us", "mean_us", "sent", "received",
			"log_appends", "log_reads",
			"seq_cuts", "mean_cut_batch", "ordering_shards", "cut_skew", "wakeups", "useful_wakeups",
			"batch_appends", "mean_append_batch", "batch_stalls",
			"cursor_opens", "cursor_batch_reads", "cursor_records",
			"cursor_prefetch_hits", "cursor_prefetch_misses", "cursor_invalidations",
			"delivery_attempts", "delivery_redelivered", "delivery_permanent_failures", "delivery_dead_lettered",
			"wal_bytes", "wal_flushes", "recovered_records", "wal_truncations",
			"assign_epochs", "saturation_eps"},
		out)
}

// WriteFig8CSV exports the commit-interval sweep.
func WriteFig8CSV(w io.Writer, points []Fig8Point) error {
	var out [][]string
	for _, p := range points {
		out = append(out, []string{
			strconv.Itoa(p.Marker.Config.Query),
			us(p.Interval),
			us(p.Marker.P50), us(p.Marker.P99),
			us(p.Txn.P50), us(p.Txn.P99),
		})
	}
	return writeCSV(w,
		[]string{"query", "commit_interval_us", "marker_p50_us", "marker_p99_us", "txn_p50_us", "txn_p99_us"},
		out)
}

// WriteTable4CSV exports Table 4 rows.
func WriteTable4CSV(w io.Writer, rows []Table4Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			strconv.Itoa(r.Rate),
			us(r.BaselineRecovery), strconv.FormatUint(r.BaselineReplayed, 10),
			us(r.CheckpointRecovery), strconv.FormatUint(r.CheckpointReplayed, 10),
			fmt.Sprintf("%.2f", r.Speedup()),
		})
	}
	return writeCSV(w,
		[]string{"rate_eps", "baseline_recovery_us", "baseline_replayed", "ckpt_recovery_us", "ckpt_replayed", "speedup"},
		out)
}

// WriteDurabilityCSV exports the durability experiment, distinguished
// by the phase column: overhead rows leave the depth columns empty and
// recovery rows leave the latency columns empty.
func WriteDurabilityCSV(w io.Writer, res *DurabilityResult) error {
	u64 := func(v uint64) string { return strconv.FormatUint(v, 10) }
	var out [][]string
	for _, p := range []*RunResult{res.Off, res.On} {
		out = append(out, []string{
			"overhead", strconv.FormatBool(p.Config.Cluster.WAL != nil),
			strconv.Itoa(p.Config.Query), strconv.Itoa(p.Config.Rate),
			us(p.P50), us(p.P99), us(p.Mean),
			u64(p.Sent), u64(p.Received),
			u64(p.Log.WALBytes), u64(p.Log.WALAppends), u64(p.Log.WALFlushes),
			"", "", "", "", "",
		})
	}
	for _, p := range res.Recovery {
		out = append(out, []string{
			"recovery", "true", "", "",
			"", "", "",
			"", "",
			u64(p.WALBytes), "", "",
			strconv.Itoa(p.Depth), u64(p.Records), u64(p.MetaOps),
			us(p.Recovery), fmt.Sprintf("%.2f", p.MBPerSec),
		})
	}
	return writeCSV(w,
		[]string{"phase", "durable", "query", "rate_eps",
			"p50_us", "p99_us", "mean_us", "sent", "received",
			"wal_bytes", "wal_appends", "wal_flushes",
			"depth", "recovered_records", "recovered_metaops",
			"recovery_us", "replay_mb_s"},
		out)
}

// WriteRescaleCSV exports the step-load rescale experiment: one row per
// goodput bucket, stamped with the slot count and assignment epoch in
// force, plus a final summary row (empty bucket columns).
func WriteRescaleCSV(w io.Writer, r *RescaleBenchResult) error {
	u64 := func(v uint64) string { return strconv.FormatUint(v, 10) }
	var out [][]string
	for _, b := range r.Timeline {
		out = append(out, []string{
			"bucket", strconv.FormatInt(b.Start.Milliseconds(), 10),
			strconv.Itoa(b.Slots), u64(b.Epoch),
			u64(b.Delivered), fmt.Sprintf("%.1f", b.Goodput()),
			"", "", "", "", "", "",
		})
	}
	out = append(out, []string{
		"summary", strconv.FormatInt(r.StepAt.Milliseconds(), 10),
		strconv.Itoa(2 * rescaleSlots), u64(r.Epoch),
		u64(r.Delivered), "",
		us(r.RescaleWall),
		fmt.Sprintf("%.1f", r.SteadyBefore), fmt.Sprintf("%.1f", r.SteadyAfter),
		fmt.Sprintf("%.3f", r.DipDepth),
		strconv.FormatInt(r.DipDuration.Milliseconds(), 10),
		strconv.FormatInt(r.Recovery.Milliseconds(), 10),
	})
	return writeCSV(w,
		[]string{"row", "t_ms", "slots", "assign_epoch", "delivered", "goodput_eps",
			"rescale_wall_us", "steady_before_eps", "steady_after_eps",
			"dip_depth", "dip_under90_ms", "recovery_ms"},
		out)
}
