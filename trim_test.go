package impeller_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/nexmark"
	"impeller/internal/sharedlog"
)

// liveBound caps the live log (Tail − TrimHorizon) of a quiescent Q1
// cluster: what its slowest floor trails the tail by — the last input
// batches, their outputs and the markers after them — whatever the
// input length.
const liveBound = 64

// TestLogBoundedByFloors: trimming is the default, so the live log is
// bounded by how far the slowest floor trails the tail, not by how much
// input has flowed. Q1 runs at N and at 4N events; at quiescence both
// live windows stay under one constant, while the tail grows with N.
func TestLogBoundedByFloors(t *testing.T) {
	var tails [2]sharedlog.LSN
	for i, n := range []int{1000, 4000} {
		cluster, app := runQuery(t, 1, n)
		log := cluster.Log()
		horizon, err := cluster.Env().GC.Collect()
		if err != nil {
			t.Fatal(err)
		}
		tails[i] = log.Tail()
		live := tails[i] - horizon
		t.Logf("%d events: tail %d, horizon %d, live %d", n, tails[i], horizon, live)
		if live > liveBound {
			t.Errorf("%d events: %d live records at quiescence, want ≤ %d", n, live, liveBound)
		}
		app.Stop()
		cluster.Close()
	}
	if tails[1] < 3*tails[0] {
		t.Fatalf("tail %d at 4N is not ≈ 4× the %d at N; the input did not scale", tails[1], tails[0])
	}
}

// TestLogPinnedByChangeLog pins the documented exception: a stateful
// stage pins its change streams, so Q12's change log pins the log — the
// horizon never passes the first change record. Q12 runs without
// snapshots here, as in the benchmark; with them the pin is the same
// until checkpoints are per group (DESIGN.md §2.6).
func TestLogPinnedByChangeLog(t *testing.T) {
	const hold = "test/hold"
	cluster, app := runQuery(t, 12, 2000, func(c *impeller.Cluster) {
		c.Env().GC.Report(hold, 0) // nothing trims before first is known
	})
	defer cluster.Close()
	defer app.Stop()
	stage := nexmark.RescaleStage(12)
	var tags []sharedlog.Tag
	for g := 0; g < app.Manager().Assignment(stage).Groups; g++ {
		tags = append(tags, core.GroupChangeTag(stage, g))
	}
	first, ok := cluster.Log().FirstLSN(tags)
	if !ok {
		t.Fatal("no change record")
	}
	cluster.Env().GC.Forget(hold)
	horizon, err := cluster.Env().GC.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if horizon == 0 || horizon > first {
		t.Fatalf("horizon %d: want the input before the first change record at %d released, and nothing from it on", horizon, first)
	}
}

// runQuery runs NEXMark query q on a fresh cluster without snapshots
// (after setup, if any, has seen the cluster), sends n events in
// flushes of 10 (so the log holds many batches) and returns once the
// gated sink's output has stopped moving for ten polls — quiescence,
// with every task's last marker and the sink's floor reported.
func runQuery(t *testing.T, q, n int, setup ...func(*impeller.Cluster)) (*impeller.Cluster, *impeller.App) {
	t.Helper()
	cluster := impeller.NewCluster(impeller.ClusterConfig{
		CommitInterval:     10 * time.Millisecond,
		DefaultParallelism: 2,
	})
	for _, f := range setup {
		f(cluster)
	}
	topo, err := nexmark.BuildOpts(q, nexmark.Options{PerUpdateWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	app, err := cluster.Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	var out atomic.Uint64
	app.Sink(nexmark.OutputStream(q), true, func(impeller.Record, impeller.TaskID, time.Time) { out.Add(1) })
	g := nexmark.NewGenerator(uint64(q))
	base := time.Now().UnixMicro()
	for i := 0; i < n; i++ {
		et := base + int64(i)*5_000
		if err := app.Send(nexmark.EventStream, []byte(fmt.Sprint(i)), g.Next(et).Payload, et); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := app.FlushIngress(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := app.FlushIngress(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for last, still := uint64(0), 0; still < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("q%d output never settled (%d records)", q, out.Load())
		}
		time.Sleep(20 * time.Millisecond)
		if got := out.Load(); got > 0 && got == last {
			still++
		} else {
			last, still = got, 0
		}
	}
	return cluster, app
}
