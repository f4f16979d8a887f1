package bench

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"impeller/internal/chaos"
)

// Egress experiment (-exp egress): the transactional egress layer's two
// costs, per fault-tolerance protocol.
//
//   - Delivered-record latency: the same NEXMark run as Figure 7, but
//     measured at the external consumer's acknowledgment instead of the
//     output operator's emission. The gap to the emission-time numbers
//     is the price of exactly-once at the system boundary: the commit
//     wait (a record is deliverable only once its marker / transaction
//     commit lands) plus the delivery window.
//   - Recovery to first delivery: a chaos run with the full egress
//     fault plane — hard sink kills mid-delivery, consumer outages,
//     lost acks — reporting how long after each kill the replacement
//     sink, resuming from the persisted ack frontier, got its first
//     record acknowledged, and whether the oracle still verified
//     exactly-once at the consumer.

// egressSeeds select the chaos phase's fault schedules.
var egressSeeds = []uint64{7, 21}

// EgressResult is the experiment's outcome: one latency point per
// protocol and one chaos row per (protocol, seed).
type EgressResult struct {
	Latency []*RunResult
	Chaos   []*chaos.Result
}

// RunEgress executes both phases sequentially on p.Query (default 1;
// must be 1, 11, or 12 so the chaos phase has an oracle), the latency
// phase at p.Rate (default 3000 events/s).
func RunEgress(p Params, progress io.Writer) (*EgressResult, error) {
	p = p.or(1, 3000, 0)
	res := &EgressResult{}
	for _, proto := range paperProtocols {
		cfg := p.run(proto)
		cfg.Egress = true
		point, err := RunNexmark(cfg)
		if err != nil {
			return res, err
		}
		if progress != nil {
			fmt.Fprintln(progress, point)
		}
		res.Latency = append(res.Latency, point)
	}
	for _, proto := range paperProtocols {
		for _, seed := range egressSeeds {
			row, err := chaos.Run(chaos.Config{Query: p.Query, Protocol: proto, Seed: seed, Engine: p.Engine})
			if err != nil {
				return res, err
			}
			if progress != nil {
				fmt.Fprintln(progress, row)
			}
			res.Chaos = append(res.Chaos, row)
		}
	}
	return res, nil
}

// PrintEgress renders both phases.
func PrintEgress(w io.Writer, res *EgressResult) {
	fmt.Fprintf(w, "Egress: delivered-record latency, q%d at %d events/s (consumer-ack measurement point)\n",
		res.Latency[0].Config.Query, res.Latency[0].Config.Rate)
	fmt.Fprintln(w, "protocol            p50         p99         delivered  attempts  redelivered  frontier-persists")
	for _, p := range res.Latency {
		d := p.Delivery
		fmt.Fprintf(w, "%-19s %-11v %-11v %-10d %-9d %-12d %d\n",
			p.Config.Cluster.Protocol, p.P50.Round(100*time.Microsecond), p.P99.Round(100*time.Microsecond),
			d.Delivered, d.Attempts, d.Redelivered, d.FrontierPersists)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Egress: recovery to first delivery under sink kills + consumer faults (chaos-verified)")
	fmt.Fprintln(w, "protocol            seed  faults  sinks  delivered  redeliv  deduped  acks-lost  dead  recover-to-deliver  invariant")
	for _, r := range res.Chaos {
		status := "pass"
		if r.Violation != "" {
			status = "VIOLATED: " + r.Violation
		} else if !r.Converged {
			status = "stuck (no convergence)"
		}
		fmt.Fprintf(w, "%-19s %-5d %-7d %-6d %-10d %-8d %-8d %-10d %-5d %-19v %s\n",
			r.Config.Protocol, r.Config.Seed, r.Plan.Faults, r.SinkIncarnations,
			r.Delivered, r.Delivery.Redelivered, r.ConsumerDeduped, r.ConsumerAcksLost,
			r.Delivery.DeadLettered, r.RecoverToDeliver.Round(100*time.Microsecond), status)
	}
}

// WriteEgressCSV exports both phases, distinguished by the phase
// column: latency rows leave the chaos columns empty and vice versa.
func WriteEgressCSV(w io.Writer, res *EgressResult) error {
	u64 := func(v uint64) string { return strconv.FormatUint(v, 10) }
	var out [][]string
	for _, p := range res.Latency {
		d := p.Delivery
		out = append(out, []string{
			"latency", strconv.Itoa(p.Config.Query), p.Config.Cluster.Protocol.String(), strconv.Itoa(p.Config.Rate), "",
			us(p.P50), us(p.P99), us(p.Mean),
			u64(d.Delivered), u64(d.Attempts), u64(d.Redelivered), u64(d.TransientErrors),
			u64(d.PermanentFailures), u64(d.DeadLettered), u64(d.FrontierPersists),
			"", "", "", "", "",
			u64(p.Log.WALBytes), u64(p.Log.WALFlushes), u64(p.Log.RecoveredRecords), u64(p.Log.WALTruncations),
		})
	}
	for _, r := range res.Chaos {
		d := r.Delivery
		out = append(out, []string{
			"chaos", strconv.Itoa(r.Config.Query), r.Config.Protocol.String(), "", strconv.FormatUint(r.Config.Seed, 10),
			"", "", "",
			u64(r.Delivered), u64(d.Attempts), u64(d.Redelivered), u64(d.TransientErrors),
			u64(d.PermanentFailures), u64(d.DeadLettered), u64(d.FrontierPersists),
			strconv.Itoa(r.SinkIncarnations), u64(r.ConsumerDeduped), u64(r.ConsumerAcksLost),
			us(r.RecoverToDeliver), strconv.FormatBool(r.Converged && r.Violation == ""),
			"", "", "", "",
		})
	}
	return writeCSV(w,
		[]string{"phase", "query", "protocol", "rate_eps", "seed",
			"p50_us", "p99_us", "mean_us",
			"delivered", "attempts", "redelivered", "transient_errors",
			"permanent_failures", "dead_lettered", "frontier_persists",
			"sink_incarnations", "consumer_deduped", "acks_lost",
			"recover_to_deliver_us", "exactly_once",
			"wal_bytes", "wal_flushes", "recovered_records", "wal_truncations"},
		out)
}
