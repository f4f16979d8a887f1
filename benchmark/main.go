// Command benchmark is the Impeller benchmark: four NEXMark workloads run
// against the in-process cluster through its public API, every output
// checked against a reference computation, eight gated end-to-end metrics per
// workload and, with -trace 1, the per-layer drives and a traced run.
// README.md has the command lines and the reasoning; BENCHMARK.json the
// contract the driver runs it under.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// outcome is the line the driver reads: the last line of a run's output.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// record is one run as it is written to -out and read back by -compare.
type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    int      `json:"trace"`
	Invalid  []string `json:"invalid,omitempty"`
	outcome
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four in turn")
		seed    = flag.Uint64("seed", 1, "seed of the generated input")
		seconds = flag.Int("seconds", 20, "length of the measured phases, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the layer drives and a traced run, and reports the per-layer metrics")
		out     = flag.String("out", "", "append each run's record to this file, one JSON object per line")
		compare = flag.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	todo := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{*w}
	}
	failed := false
	for i := range todo {
		rec, err := runWorkload(&todo[i], *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", todo[i].name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(rec.outcome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("%s\n", line)
		failed = failed || !rec.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// runWorkload makes one run of w and prints its metrics by name and unit.
func runWorkload(w *workload, seed uint64, seconds int, traced bool) (*record, error) {
	r := &run{w: w, seed: seed, seconds: seconds, ph: planPhases(w, seconds)}
	var drives []metric
	if traced {
		r.tr = newTracer()
		var err error
		if drives, err = runDrives(r.tr, seed); err != nil {
			return nil, err
		}
	}
	res, err := r.execute()
	if err != nil {
		return nil, err
	}
	failed := res.verdict.failed() + res.refused
	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Invalid: res.invalid}
	rec.outcome = outcome{
		Correct:   failed == 0,
		Attempted: res.verdict.expected + res.refused,
		Failed:    failed,
		Metrics:   make(map[string]measured),
	}
	fmt.Printf("workload %s  seed %d  seconds %d  events %d  outputs owed %d\n",
		w.name, seed, seconds, r.sent, res.verdict.expected)
	for _, s := range res.series {
		fmt.Printf("  %-28s %.4g\n", s.name+":", s.values)
	}
	fmt.Printf("  reference: missing %d, duplicated %d, wrong %d, refused sends %d → failed_frac %.6f\n",
		res.verdict.missing, res.verdict.duplicated, res.verdict.wrong, res.refused,
		ratio(float64(failed), float64(rec.Attempted)))
	for _, why := range res.invalid {
		fmt.Printf("  INVALID: %s\n", why)
	}
	report := res.endToEnd
	if traced {
		rec.Trace = 1
		report = append(drives, res.perLayer...)
		report = append(report, metric{"driver.failed_frac", "frac", ratio(float64(failed), float64(rec.Attempted))})
		path := filepath.Join("benchmark", "out", "trace-"+w.name+".json")
		if err := r.tr.write(path, res.spans); err != nil {
			return nil, err
		}
		fmt.Printf("  spans written to %s\n", path)
		printMetrics(os.Stdout, "  end-to-end, traced (not the reported numbers):", res.endToEnd)
		printMetrics(os.Stdout, "  per layer:", report)
	} else {
		printMetrics(os.Stdout, "  end-to-end (latency samples: "+fmt.Sprint(res.samples)+"):", report)
		printMetrics(os.Stdout, "  measured, not gated:", res.ungated)
	}
	for _, m := range report {
		rec.Metrics[m.Name] = measured{m.Value, m.Unit}
	}
	// Run from the root of the repository, as the driver does, the
	// benchmark holds itself to BENCHMARK.json.
	if c, err := readContract(); err == nil {
		if err := c.checkReported(traced, report); err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return rec, nil
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
