package bench

import (
	"fmt"
	"io"
	"time"

	"impeller"
)

// The checkpointing crossover (paper §5.3.3): aligned checkpoints are
// competitive while state is small, but "create performance problems as
// soon as their size is non-trivial". Short sweeps keep state small, so
// this experiment runs one stateful query long enough for state to grow
// and compares aligned checkpoints against progress marking on
// delivered throughput and tail latency.

// CrossoverResult holds both protocols' long-run measurements.
type CrossoverResult struct {
	Marker  *RunResult
	Aligned *RunResult
}

// RunCrossover measures the long-run comparison on p.Query (default 6:
// per-seller running state grows steadily) at p.Rate (default 12000
// events/s) for p.Duration (default 20 s — long enough for checkpoint
// size to dominate the aligned protocol).
func RunCrossover(p Params, progress io.Writer) (*CrossoverResult, error) {
	p = p.or(6, 12000, 20*time.Second)
	out := &CrossoverResult{}
	for _, proto := range []impeller.Protocol{impeller.ProgressMarker, impeller.AlignedCheckpoint} {
		cfg := p.run(proto)
		cfg.Warmup = p.Duration / 2
		res, err := RunNexmark(cfg)
		if err != nil {
			return nil, err
		}
		if proto == impeller.ProgressMarker {
			out.Marker = res
		} else {
			out.Aligned = res
		}
		if progress != nil {
			fmt.Fprintf(progress, "  %s\n", res)
		}
	}
	return out, nil
}

// PrintCrossover renders the comparison.
func PrintCrossover(w io.Writer, r *CrossoverResult) {
	fmt.Fprintf(w, "Checkpointing crossover (paper §5.3.3): Q%d @ %d events/s for %v\n",
		r.Marker.Config.Query, r.Marker.Config.Rate, r.Marker.Config.Duration)
	fmt.Fprintf(w, "%-20s %-12s %-12s %-12s\n", "protocol", "p50", "p99", "results")
	for _, p := range []*RunResult{r.Marker, r.Aligned} {
		fmt.Fprintf(w, "%-20s %-12v %-12v %-12d\n",
			p.Config.Cluster.Protocol, p.P50.Round(time.Millisecond), p.P99.Round(time.Millisecond), p.Received)
	}
	if r.Aligned.Received > 0 {
		fmt.Fprintf(w, "progress marking delivered %.1fx the results of aligned checkpointing\n",
			float64(r.Marker.Received)/float64(r.Aligned.Received))
	}
}
