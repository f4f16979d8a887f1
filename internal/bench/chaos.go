package bench

import (
	"fmt"
	"io"
	"time"

	"impeller/internal/chaos"
)

// Chaos table: every (query, protocol, seed) cell runs a full NEXMark
// query under a deterministic fault schedule and verifies the
// exactly-once output invariant against an oracle. The table reports
// what the robustness evaluation cares about: how many faults each
// run absorbed, how often tasks restarted and the retry layer fired,
// whether any zombie append was fenced, the worst single recovery,
// and whether the invariant held.

// The sweep's cells: the NEXMark queries with output oracles, the three
// exactly-once protocols, and the seeds selecting the fault schedules.
var (
	chaosQueries = []int{1, 11, 12}
	chaosSeeds   = []uint64{7, 21, 42}
)

// RunChaosTable executes the sweep — over p.Query alone if it is set —
// on p.Engine, sequentially (each run owns its cluster and its timing;
// overlapping runs would distort recovery times).
func RunChaosTable(p Params, progress io.Writer) ([]*chaos.Result, error) {
	queries := chaosQueries
	if p.Query != 0 {
		queries = []int{p.Query}
	}
	var rows []*chaos.Result
	for _, seed := range chaosSeeds {
		for _, q := range queries {
			for _, proto := range paperProtocols {
				res, err := chaos.Run(chaos.Config{Query: q, Protocol: proto, Seed: seed, Engine: p.Engine, Faults: chaos.DefaultFaults})
				if err != nil {
					return rows, err
				}
				if progress != nil {
					fmt.Fprintln(progress, res)
				}
				rows = append(rows, res)
			}
		}
	}
	return rows, nil
}

// PrintChaosTable renders the sweep.
func PrintChaosTable(w io.Writer, rows []*chaos.Result) {
	fmt.Fprintln(w, "Chaos: exactly-once under seeded fault schedules")
	fmt.Fprintln(w, "query  protocol            seed  faults  restarts  retries  fenced  dups  maxrec      invariant")
	for _, r := range rows {
		status := "pass"
		if r.Violation != "" {
			status = "VIOLATED: " + r.Violation
		} else if !r.Converged {
			status = "stuck (no convergence)"
		}
		fmt.Fprintf(w, "q%-5d %-19s %-5d %-7d %-9d %-8d %-7d %-5d %-11v %s\n",
			r.Config.Query, r.Config.Protocol, r.Config.Seed, r.Plan.Faults,
			r.Restarts, r.Retries, r.CondFailed, r.Sink.Duplicates,
			r.MaxRecovery.Round(100*time.Microsecond), status)
	}
}
