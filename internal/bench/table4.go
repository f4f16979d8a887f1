package bench

import (
	"fmt"
	"io"
	"time"

	"impeller"
	"impeller/internal/nexmark"
)

// Table 4 (paper §5.3.5): failure recovery on Q8 — the whole query
// fails mid-run; with asynchronous checkpointing enabled the recovery
// replays only the change-log suffix after the last checkpoint, without
// it the full change log.

// Table4Row is one rate point: recovery with and without checkpointing.
type Table4Row struct {
	Rate int
	// Baseline replays the full change log; Checkpoint restores the
	// latest snapshot and replays the suffix.
	BaselineRecovery   time.Duration
	BaselineReplayed   uint64
	CheckpointRecovery time.Duration
	CheckpointReplayed uint64
}

// Speedup reports baseline/checkpoint recovery-time ratio.
func (r Table4Row) Speedup() float64 {
	if r.CheckpointRecovery == 0 {
		return 0
	}
	return float64(r.BaselineRecovery) / float64(r.CheckpointRecovery)
}

// RunTable4 measures recovery with and without checkpointing at each
// of p.Rates (the paper uses 80k/96k/112k events/s on its testbed; the
// defaults are scaled to this harness), failing the query after 4 s on
// 4 tasks per stage.
func RunTable4(p Params, progress io.Writer) ([]Table4Row, error) {
	return runTable4(p, 4*time.Second, 4, progress)
}

// runTable4 lets the query process for runFor before the failure. The
// checkpointing configuration snapshots every runFor/8 (the paper
// checkpoints every 10 s on 300 s runs; this scales that ratio).
func runTable4(p Params, runFor time.Duration, parallelism int, progress io.Writer) ([]Table4Row, error) {
	if len(p.Rates) == 0 {
		p.Rates = []int{4000, 4800, 5600}
	}
	cluster := p.cluster(impeller.ProgressMarker)
	cluster.CommitInterval = 100 * time.Millisecond
	cluster.DefaultParallelism = parallelism
	cluster.IngressWriters = 4
	cluster.Seed = 99
	rows := make([]Table4Row, 0, len(p.Rates))
	for _, rate := range p.Rates {
		row := Table4Row{Rate: rate}
		for _, withCkpt := range []bool{false, true} {
			cluster.SnapshotInterval = 0
			if withCkpt {
				cluster.SnapshotInterval = runFor / 8
			}
			dur, replayed, err := measureRecovery(cluster, rate, runFor)
			if err != nil {
				return nil, err
			}
			if withCkpt {
				row.CheckpointRecovery, row.CheckpointReplayed = dur, replayed
			} else {
				row.BaselineRecovery, row.BaselineReplayed = dur, replayed
			}
			if progress != nil {
				fmt.Fprintf(progress, "  rate=%d ckpt=%v recovery=%v replayed=%d\n", rate, withCkpt, dur, replayed)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func measureRecovery(cfg impeller.ClusterConfig, rate int, runFor time.Duration) (time.Duration, uint64, error) {
	cluster := impeller.NewCluster(cfg)
	defer cluster.Close()

	topo, err := nexmark.BuildOpts(8, nexmark.Options{PerUpdateWindows: true})
	if err != nil {
		return 0, 0, err
	}
	app, err := cluster.Run(topo)
	if err != nil {
		return 0, 0, err
	}
	defer app.Stop()
	mgr := app.Manager()
	mgr.SetTimeouts(300*time.Millisecond, 50*time.Millisecond)

	// Offer load for runFor.
	gen := nexmark.NewGenerator(1)
	deadline := time.Now().Add(runFor)
	perTick := rate / 100 // 10 ms ticks
	if perTick == 0 {
		perTick = 1
	}
	seq := 0
	for time.Now().Before(deadline) {
		for i := 0; i < perTick; i++ {
			now := time.Now().UnixMicro()
			ev := gen.Next(now)
			seq++
			if err := app.Send(nexmark.EventStream, []byte(fmt.Sprint(seq)), ev.Payload, now); err != nil {
				return 0, 0, err
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let in-flight work commit. The failure then lands at an arbitrary
	// point in the checkpoint cycle, as in the paper: the checkpointed
	// configuration replays only the change-log suffix written since
	// the last snapshot.
	time.Sleep(400 * time.Millisecond)

	replayedBefore := app.Metrics().RecoveredChanges

	// The whole query fails (paper: "The query fails at 300s then
	// recovers, and we measure the recovery time").
	mgr.KillAll()

	// Wait until every task has restarted and finished recovery.
	waitDeadline := time.Now().Add(60 * time.Second)
	for {
		allRestarted := true
		for _, id := range mgr.TaskIDs() {
			if mgr.Restarts(id) == 0 {
				allRestarted = false
				break
			}
		}
		if allRestarted {
			break
		}
		if time.Now().After(waitDeadline) {
			return 0, 0, fmt.Errorf("bench: tasks never restarted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Recovery durations settle once RecoveryNanos stops at its new
	// value; wait for quiescence.
	time.Sleep(500 * time.Millisecond)

	var maxRecovery time.Duration
	for _, id := range mgr.TaskIDs() {
		if m := mgr.TaskMetrics(id); m != nil {
			if d := time.Duration(m.RecoveryNanos.Load()); d > maxRecovery {
				maxRecovery = d
			}
		}
	}
	replayed := app.Metrics().RecoveredChanges - replayedBefore
	return maxRecovery, replayed, nil
}

// PrintTable4 renders rows in the paper's format.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: recovery performance with and without checkpointing (NEXMark Q8)")
	fmt.Fprintf(w, "%-10s | %-22s | %-22s | %-8s\n", "rate", "baseline (time/replayed)", "+checkpoint", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d | %-12v %-9d | %-12v %-9d | %-8.1fx\n",
			r.Rate, r.BaselineRecovery.Round(time.Millisecond), r.BaselineReplayed,
			r.CheckpointRecovery.Round(time.Millisecond), r.CheckpointReplayed, r.Speedup())
	}
}
