package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// contract is the part of BENCHMARK.json the benchmark itself reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract() (*contract, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// checkReported verifies that a run reports exactly the metrics, with the
// units, that BENCHMARK.json promises for its mode, so the two cannot
// drift apart unnoticed.
func (c *contract) checkReported(traced bool, reported []metric) error {
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	units := make(map[string]string, len(reported))
	for _, m := range reported {
		units[m.Name] = m.Unit
	}
	for _, w := range want {
		switch u, ok := units[w.Name]; {
		case !ok:
			return fmt.Errorf("BENCHMARK.json promises %s, the run does not report it", w.Name)
		case u != w.Unit:
			return fmt.Errorf("BENCHMARK.json gives %s in %s, the run in %s", w.Name, w.Unit, u)
		}
		delete(units, w.Name)
	}
	for name := range units {
		return fmt.Errorf("the run reports %s, BENCHMARK.json does not list it", name)
	}
	return nil
}

// readRuns groups the untraced records of a -out file by workload and
// metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// quartile is the k-th quartile (1..3) of v as Python's
// statistics.quantiles(v, n=4) takes it.
func quartile(v []float64, k int) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := float64(k) * float64(len(s)+1) / 4 // 1-based
	lo := int(pos)
	switch {
	case len(s) == 0:
		return 0
	case lo < 1:
		return s[0]
	case lo >= len(s):
		return s[len(s)-1]
	}
	return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
}

// spread is the distance between the first and third quartile as a share
// of the median. Fewer than four values have no spread to speak of.
func spread(v []float64) (float64, bool) {
	med := median(v)
	if len(v) < 4 || med == 0 {
		return 0, false
	}
	return (quartile(v, 3) - quartile(v, 1)) / med, true
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// the ratio with its base and a verdict against the bound BENCHMARK.json
// fixes: worse when b's median is worse than a's by more than the bound,
// unresolved when either side's own spread exceeds the bound, ok
// otherwise. It returns the exit code: 1 on any worse.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
		return 2
	}
	c, err := readContract()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Printf("a = %s, b = %s; ratio = b ÷ a\n", args[0], args[1])
	fmt.Printf("%-18s %-22s %14s %14s %8s %7s %9s  %s\n", "workload", "metric", "a (median)", "b (median)", "ratio", "bound", "spread", "verdict")
	code := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-18s %-22s %14s %14s %8s %7.2f %9s  missing (a: %d runs, b: %d runs)\n", w.Name, m.Name, "-", "-", "-", m.Bound, "-", len(va), len(vb))
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worseBy := (mb - ma) / ma
			if m.Better == "higher" {
				worseBy = -worseBy
			}
			sa, oka := spread(va)
			sb, okb := spread(vb)
			wide := sa
			if sb > wide {
				wide = sb
			}
			verdict := "ok"
			switch {
			case (oka || okb) && wide > m.Bound:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
				code = 1
			}
			sp := "-"
			if oka || okb {
				sp = fmt.Sprintf("%.3f", wide)
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %8.4f %7.2f %9s  %s\n", w.Name, m.Name, ma, mb, mb/ma, m.Bound, sp, verdict)
		}
	}
	return code
}
