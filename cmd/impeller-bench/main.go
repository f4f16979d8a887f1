// Command impeller-bench regenerates the paper's evaluation tables and
// figures (§5), and this repository's own experiments, against the
// in-process Impeller cluster:
//
//	impeller-bench -exp table2
//	impeller-bench -exp fig7 -query 5 -rates 4000,8000 -duration 1s -csv fig7.csv
//
// Run it without -exp for the list of experiments (the table in this
// file) and flags. Every experiment takes -engine tasklet to run on the
// cooperative tasklet engine and -cpuprofile/-traceprofile to capture
// runtime profiles of the run.
//
// Absolute numbers depend on the host and the latency calibration; the
// shapes (who wins, where curves cross) are the reproduction target.
// See EXPERIMENTS.md for recorded runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"impeller"
	"impeller/internal/bench"
)

// runFunc runs one experiment with the flags' settings: progress (nil
// unless -v) receives every point as it completes, out the rendered
// table, csv (nil unless -csv) the machine-readable rows.
type runFunc func(p bench.Params, progress, out, csv io.Writer) error

// experiments is every value -exp accepts, in the order the usage text
// lists them.
var experiments = []struct {
	name, usage string
	run         runFunc
}{
	{"table2", "log produce-to-consume latency, Boki vs Kafka (-rates: appends/s)",
		experiment(bench.RunTable2, bench.PrintTable2, bench.WriteTable2CSV)},
	{"fig7", "latency vs throughput per protocol (-query, 0 = all eight; -rates)",
		perQuery(experiment(bench.RunFig7, bench.PrintFig7, bench.WriteFig7CSV))},
	{"fig8", "commit-interval sweep, markers vs transactions (-query, 0 = all eight; -rate)",
		perQuery(experiment(bench.RunFig8, bench.PrintFig8, bench.WriteFig8CSV))},
	{"fig9", "Q5 cost of exactly-once: the three protocols vs unsafe (-rates)",
		experiment(bench.RunFig9, bench.PrintFig9, bench.WriteFig7CSV)},
	{"table4", "Q8 failure recovery with and without checkpointing (-rates)",
		experiment(bench.RunTable4, bench.PrintTable4, bench.WriteTable4CSV)},
	{"crossover", "aligned checkpoints vs markers as state grows (-query -rate; use -duration 20s)",
		experiment(bench.RunCrossover, bench.PrintCrossover, nil)},
	{"chaos", "exactly-once under seeded fault schedules (-query, 0 = 1, 11 and 12)",
		experiment(bench.RunChaosTable, bench.PrintChaosTable, nil)},
	{"scaling", "append throughput vs ordering shards (-shards -clients)",
		experiment(bench.RunScaling, bench.PrintScaling, bench.WriteScalingCSV)},
	{"egress", "delivered-record latency, then recovery from sink kills (-query -rate)",
		experiment(bench.RunEgress, bench.PrintEgress, bench.WriteEgressCSV)},
	{"durability", "WAL append overhead, then recovery time vs log length (-query -rate -depths)",
		experiment(bench.RunDurability, bench.PrintDurability, bench.WriteDurabilityCSV)},
	{"tail", "deep-tail latency vs task density, goroutine vs tasklet engine (-query -rate -tpc)",
		experiment(bench.RunTail, bench.PrintTail, bench.WriteTailCSV)},
	{"tasklet-smoke", "output equivalence of the two engines, oracle-verified (-query)",
		experiment(bench.RunTaskletSmoke, bench.PrintSmoke, nil)},
	{"rescale", "live parallelism doubling under a step load (-query -rate)",
		experiment(bench.RunRescaleBench, bench.PrintRescaleBench, bench.WriteRescaleCSV)},
}

// experiment makes a table entry's run from an experiment's three
// parts in internal/bench: measure, render, export (writeCSV may be nil).
func experiment[R any](measure func(bench.Params, io.Writer) (R, error), render func(io.Writer, R), writeCSV func(io.Writer, R) error) runFunc {
	return func(p bench.Params, progress, out, csv io.Writer) error {
		res, err := measure(p, progress)
		if err != nil {
			return err
		}
		render(out, res)
		if csv != nil && writeCSV != nil {
			return writeCSV(csv, res)
		}
		return nil
	}
}

// perQuery repeats a one-query experiment over all eight NEXMark
// queries when -query is 0.
func perQuery(run runFunc) runFunc {
	return func(p bench.Params, progress, out, csv io.Writer) error {
		queries := []int{p.Query}
		if p.Query == 0 {
			queries = []int{1, 2, 3, 4, 5, 6, 7, 8}
		}
		for _, q := range queries {
			p.Query = q
			if err := run(p, progress, out, csv); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	var (
		exp      = flag.String("exp", "", "experiment: "+strings.Join(names, " | "))
		rate     = flag.Int("rate", 0, "offered event rate of a single-rate experiment; 0 = the experiment's default")
		query    = flag.Int("query", 0, "NEXMark query; 0 = the experiment's default")
		rates    = flag.String("rates", "", "comma-separated event rates (events/s) of a sweep")
		depths   = flag.String("depths", "", "comma-separated log depths for -exp durability")
		shards   = flag.String("shards", "", "comma-separated ordering-shard counts for -exp scaling")
		clients  = flag.Int("clients", 0, "concurrent appenders for -exp scaling; 0 = default (256)")
		duration = flag.Duration("duration", 3*time.Second, "measurement duration per point")
		simulate = flag.Bool("simulate", true, "charge calibrated network/storage latencies")
		scale    = flag.Float64("scale", 1.0, "scale factor on simulated latencies")
		verbose  = flag.Bool("v", false, "print every point as it completes")
		csvPath  = flag.String("csv", "", "also write machine-readable results to this CSV file")
		engine   = flag.String("engine", "", "task execution engine: goroutine (default) | tasklet")
		tpc      = flag.String("tpc", "", "comma-separated tasks-per-core densities for -exp tail")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		trcProf  = flag.String("traceprofile", "", "write a runtime execution trace of the run to this file")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: impeller-bench -exp <experiment> [flags]\n\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(w, "  %-14s %s\n", e.name, e.usage)
		}
		fmt.Fprintln(w, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	var run runFunc
	for _, e := range experiments {
		if e.name == *exp {
			run = e.run
		}
	}
	if run == nil {
		if *exp != "" {
			fmt.Fprintf(os.Stderr, "impeller-bench: no experiment %q\n", *exp)
		}
		flag.Usage()
		os.Exit(2)
	}
	p := bench.Params{
		Query:        *query,
		Rate:         *rate,
		Rates:        parseInts("rates", *rates),
		Duration:     *duration,
		Simulate:     *simulate,
		Scale:        *scale,
		Depths:       parseInts("depths", *depths),
		Shards:       parseInts("shards", *shards),
		Clients:      *clients,
		TasksPerCore: parseInts("tpc", *tpc),
	}
	var err error
	if p.Engine, err = impeller.ParseEngineMode(*engine); err != nil {
		fmt.Fprintln(os.Stderr, "impeller-bench:", err)
		os.Exit(2)
	}
	var progress, csv io.Writer
	if *verbose {
		progress = os.Stderr
	}
	var csvFile *os.File
	if *csvPath != "" {
		if csvFile, err = os.Create(*csvPath); err != nil {
			fmt.Fprintln(os.Stderr, "impeller-bench:", err)
			os.Exit(1)
		}
		csv = csvFile
	}

	stopProfiles, err := startProfiles(*cpuProf, *trcProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impeller-bench:", err)
		os.Exit(1)
	}
	err = run(p, progress, os.Stdout, csv)
	stopProfiles()
	if csvFile != nil {
		if cerr := csvFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "impeller-bench:", err)
		os.Exit(1)
	}
}

// startProfiles turns on the requested CPU profile and execution trace;
// the returned stop function flushes and closes both. Profiles cover
// the experiment body only, not flag parsing.
func startProfiles(cpuPath, tracePath string) (func(), error) {
	var stops []func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			for _, s := range stops {
				s()
			}
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			for _, s := range stops {
				s()
			}
			return nil, err
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}, nil
}

// parseInts parses a comma-separated list of positive integers, the
// value of the named flag.
func parseInts(name, s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "impeller-bench: -%s: bad value %q\n", name, part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
