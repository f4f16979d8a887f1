package bench

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"impeller"
	"impeller/internal/chaos"
)

// Tail-latency comparison (-exp tail): the cooperative tasklet engine
// against the goroutine-per-task engine at increasing task density.
// The goroutine engine pays the runtime scheduler for every blocked
// read and flush wakeup; the tasklet engine multiplexes all operator
// work onto one pinned event loop per core, so its deep tail (p99.9,
// p99.99) should hold as tasks per core grow while the goroutine
// engine's degrades under scheduler churn.

// TailPoint is one (density, engine) measurement.
type TailPoint struct {
	Engine       impeller.EngineMode
	TasksPerCore int
	Parallelism  int
	Point        *RunResult
}

// RunTail sweeps task density — p.TasksPerCore (default 1, 2, 4, 8)
// × GOMAXPROCS tasks per stage — for both engines at a fixed workload
// (default Q1 at 3000 events/s: stateless, so the engines' scheduling
// is the dominant cost). A short discarded warm-up run precedes the
// sweep: the first cluster run in a process otherwise absorbs one-time
// costs (heap growth, GC ramp, page faults) that land straight in the
// first cell's p99.9.
func RunTail(p Params, progress io.Writer) ([]TailPoint, error) {
	p = p.or(1, 3000, 0)
	if len(p.TasksPerCore) == 0 {
		p.TasksPerCore = []int{1, 2, 4, 8}
	}
	cores := runtime.GOMAXPROCS(0)
	warm := p.run(impeller.ProgressMarker)
	warm.Duration = time.Second
	warm.Cluster.DefaultParallelism = cores
	if _, err := RunNexmark(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var out []TailPoint
	for _, tpc := range p.TasksPerCore {
		for _, engine := range []impeller.EngineMode{impeller.EngineGoroutine, impeller.EngineTasklet} {
			cfg := p.run(impeller.ProgressMarker)
			cfg.Cluster.DefaultParallelism = tpc * cores
			cfg.Cluster.Engine = engine
			res, err := RunNexmark(cfg)
			if err != nil {
				return nil, err
			}
			pt := TailPoint{Engine: engine, TasksPerCore: tpc, Parallelism: tpc * cores, Point: res}
			out = append(out, pt)
			if progress != nil {
				fmt.Fprintf(progress, "  %-9s tasks/core=%-3d p50=%-10v p99=%-10v p99.9=%-10v p99.99=%v\n",
					engine, tpc,
					res.P50.Round(100*time.Microsecond), res.P99.Round(100*time.Microsecond),
					res.P999.Round(100*time.Microsecond), res.P9999.Round(100*time.Microsecond))
			}
		}
	}
	return out, nil
}

// PrintTail renders the sweep with per-density goroutine/tasklet tail
// ratios (>1 means the tasklet engine's tail is shorter).
func PrintTail(w io.Writer, points []TailPoint) {
	if len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "Tail latency: goroutine vs tasklet engine (Q%d @ %d events/s, %d core(s))\n",
		points[0].Point.Config.Query, points[0].Point.Config.Rate, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-10s %-7s %-5s %-10s %-10s %-10s %-10s %-8s\n",
		"engine", "t/core", "tasks", "p50", "p99", "p99.9", "p99.99", "recv")
	for _, p := range points {
		r := p.Point
		fmt.Fprintf(w, "%-10s %-7d %-5d %-10v %-10v %-10v %-10v %-8d\n",
			p.Engine, p.TasksPerCore, p.Parallelism,
			r.P50.Round(100*time.Microsecond), r.P99.Round(100*time.Microsecond),
			r.P999.Round(100*time.Microsecond), r.P9999.Round(100*time.Microsecond),
			r.Received)
	}
	fmt.Fprintf(w, "%-10s %-18s %-18s\n", "t/core", "p99.9 go/tasklet", "p99.99 go/tasklet")
	// RunTail appends each density's goroutine point, then its tasklet point.
	for i := 0; i+1 < len(points); i += 2 {
		g, t := points[i].Point, points[i+1].Point
		fmt.Fprintf(w, "%-10d %-18.2f %-18.2f\n", points[i].TasksPerCore, ratio(g.P999, t.P999), ratio(g.P9999, t.P9999))
	}
}

// WriteTailCSV exports the density sweep.
func WriteTailCSV(w io.Writer, points []TailPoint) error {
	var out [][]string
	for _, p := range points {
		r := p.Point
		out = append(out, []string{
			p.Engine.String(),
			strconv.Itoa(p.TasksPerCore),
			strconv.Itoa(p.Parallelism),
			strconv.Itoa(r.Config.Rate),
			us(r.P50), us(r.P99), us(r.P999), us(r.P9999), us(r.Mean),
			strconv.FormatUint(r.Received, 10),
		})
	}
	return writeCSV(w,
		[]string{"engine", "tasks_per_core", "tasks", "rate_eps",
			"p50_us", "p99_us", "p999_us", "p9999_us", "mean_us", "received"},
		out)
}

// SmokeRow is one engine's smoke outcome.
type SmokeRow struct {
	Query     int
	Engine    impeller.EngineMode
	Delivered uint64
	Elapsed   time.Duration
}

// RunTaskletSmoke runs one short, fully deterministic NEXMark pipeline
// end to end on each engine — seeded inputs, no faults — and verifies
// both against the chaos oracle's expected output set. The oracle check
// is value-exact, so two converged runs imply identical outputs; on top
// of that the distinct delivered counts must match, or the engines have
// diverged.
func RunTaskletSmoke(p Params, progress io.Writer) ([]SmokeRow, error) {
	query := p.or(1, 0, 0).Query // the other fields do not apply
	var rows []SmokeRow
	for _, engine := range []impeller.EngineMode{impeller.EngineGoroutine, impeller.EngineTasklet} {
		res, err := chaos.Run(chaos.Config{
			Query: query, Protocol: impeller.ProgressMarker, Seed: 7, Engine: engine,
			InfraFaults: -1, Kills: -1, Zombies: -1, NodeCrashes: -1,
			SinkKills: -1, ConsumerFaults: -1,
		})
		if err != nil {
			return nil, fmt.Errorf("tasklet-smoke: %v engine: %w", engine, err)
		}
		if res.Violation != "" {
			return nil, fmt.Errorf("tasklet-smoke: %v engine: exactly-once violation: %s", engine, res.Violation)
		}
		if !res.Converged {
			return nil, fmt.Errorf("tasklet-smoke: %v engine: output never converged (delivered %d)", engine, res.Delivered)
		}
		rows = append(rows, SmokeRow{Query: query, Engine: engine, Delivered: res.Delivered, Elapsed: res.Elapsed})
		if progress != nil {
			fmt.Fprintf(progress, "  %s\n", res)
		}
	}
	if rows[0].Delivered != rows[1].Delivered {
		return rows, fmt.Errorf("tasklet-smoke: engines diverged: goroutine delivered %d records, tasklet %d",
			rows[0].Delivered, rows[1].Delivered)
	}
	return rows, nil
}

// PrintSmoke renders the smoke outcome.
func PrintSmoke(w io.Writer, rows []SmokeRow) {
	fmt.Fprintf(w, "Tasklet smoke: Q%d end to end on both engines, oracle-verified\n", rows[0].Query)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s delivered=%-6d elapsed=%v\n",
			r.Engine, r.Delivered, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintln(w, "  no divergence: both engines converged to the oracle's expected output")
}
