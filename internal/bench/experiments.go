package bench

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"impeller"
	"impeller/internal/sharedlog"
)

// Figure 7 (paper §5.3.1–5.3.3): event-time latency (p50, p99) as a
// function of input throughput, per query, for Impeller's progress
// marking, the Kafka Streams transaction protocol, and aligned
// checkpoints.

// paperProtocols are the three exactly-once protocols the paper
// compares; every per-protocol experiment visits them in this order.
var paperProtocols = []impeller.Protocol{impeller.ProgressMarker, impeller.KafkaTxn, impeller.AlignedCheckpoint}

// p99Limit is where a protocol's sweep stops. The paper uses 60 ms for
// Q1–Q2 against its ~15 ms stateless latency floor and 1 s for Q3–Q8;
// this harness's floor is ~30 ms (generator batch + two log hops), so
// the stateless limit scales proportionally.
func p99Limit(query int) time.Duration {
	if query <= 2 {
		return 120 * time.Millisecond
	}
	return time.Second
}

// Fig7Series is one protocol's latency curve for one query.
type Fig7Series struct {
	Query    int
	Protocol impeller.Protocol
	Points   []*RunResult
	// SaturationRate is the highest offered rate whose p99 stayed under
	// the limit; Saturated reports whether some rate crossed it — if
	// none did, the saturation point lies at or above SaturationRate.
	SaturationRate int
	Saturated      bool
}

// Saturation renders the series' saturation throughput in events/s.
func (s *Fig7Series) Saturation() string {
	if !s.Saturated {
		return fmt.Sprintf("≥ %d (limit not reached)", s.SaturationRate)
	}
	return strconv.Itoa(s.SaturationRate)
}

// RunFig7 sweeps p.Query across p.Rates (default: five rates by query
// class) for each of the paper's three protocols.
func RunFig7(p Params, progress io.Writer) ([]*Fig7Series, error) {
	return runFig7(p, paperProtocols, progress)
}

func runFig7(p Params, protocols []impeller.Protocol, progress io.Writer) ([]*Fig7Series, error) {
	if len(p.Rates) == 0 {
		if p.Query <= 2 {
			p.Rates = []int{4000, 8000, 16000, 24000, 32000}
		} else {
			p.Rates = []int{2000, 4000, 8000, 12000, 16000}
		}
	}
	var out []*Fig7Series
	for _, proto := range protocols {
		series := &Fig7Series{Query: p.Query, Protocol: proto}
		for _, rate := range p.Rates {
			cfg := p.run(proto)
			cfg.Rate = rate
			cfg.Cluster.SnapshotInterval = 2 * time.Second
			res, err := RunNexmark(cfg)
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, res)
			if progress != nil {
				fmt.Fprintf(progress, "  %s\n", res)
			}
			if res.P99 > p99Limit(p.Query) {
				series.Saturated = true
				break // the paper stops each curve here
			}
			series.SaturationRate = rate
		}
		out = append(out, series)
	}
	return out, nil
}

// PrintFig7 renders the series like the paper's charts report them.
func PrintFig7(w io.Writer, series []*Fig7Series) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "Figure 7(%c): NEXMark Q%d event-time latency vs input throughput\n",
		'a'+series[0].Query-1, series[0].Query)
	fmt.Fprintf(w, "%-20s %-10s %-12s %-12s %-10s\n", "protocol", "rate", "p50", "p99", "recv")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-20s %-10d %-12v %-12v %-10d\n",
				s.Protocol, p.Config.Rate,
				p.P50.Round(100*time.Microsecond), p.P99.Round(100*time.Microsecond), p.Received)
		}
		fmt.Fprintf(w, "%-20s saturation throughput: %s events/s\n", s.Protocol, s.Saturation())
		if n := len(s.Points); n > 0 {
			ls := s.Points[n-1].Log
			fmt.Fprintf(w, "%-20s log @%d eps: appends=%d reads=%d cuts=%d (mean batch %.1f) wakeups=%d useful=%d group-commits=%d (mean %.1f)\n",
				s.Protocol, s.Points[n-1].Config.Rate,
				ls.Appends, logReads(ls), ls.SequencerCuts, ls.MeanCutBatch,
				ls.ReaderWakeups, ls.UsefulWakeups,
				ls.BatchAppends, ls.MeanAppendBatch)
			qm := s.Points[n-1].Metrics
			fmt.Fprintf(w, "%-20s commits @%d eps: markers=%d off-tick=%d stalls=%d\n",
				s.Protocol, s.Points[n-1].Config.Rate, qm.Markers, qm.CascadeCommits, qm.CommitStalls)
		}
	}
}

// logReads is the number of read round trips the log served: one per
// cursor fetch, whatever its batch size, plus the point reads.
func logReads(s sharedlog.Stats) uint64 {
	return s.CursorBatchReads + s.ReadExact + s.ReadPrev
}

// Figure 8 (paper §5.3.2): p50/p99 at commit intervals 100/50/25/10 ms,
// fixed input rate, progress marking vs Kafka Streams transactions.

// fig8Intervals are the commit intervals the paper visits.
var fig8Intervals = []time.Duration{
	100 * time.Millisecond, 50 * time.Millisecond,
	25 * time.Millisecond, 10 * time.Millisecond,
}

// Fig8Point is one (interval, protocol) measurement.
type Fig8Point struct {
	Interval time.Duration
	Marker   *RunResult
	Txn      *RunResult
}

// RunFig8 sweeps the paper's commit intervals for p.Query at p.Rate
// (default 8000 events/s for Q1–Q2, 4000 otherwise).
func RunFig8(p Params, progress io.Writer) ([]Fig8Point, error) {
	return runFig8(p, fig8Intervals, progress)
}

func runFig8(p Params, intervals []time.Duration, progress io.Writer) ([]Fig8Point, error) {
	rate := 4000
	if p.Query <= 2 {
		rate = 8000
	}
	p = p.or(p.Query, rate, 0)
	var out []Fig8Point
	for _, interval := range intervals {
		pt := Fig8Point{Interval: interval}
		for _, proto := range []impeller.Protocol{impeller.ProgressMarker, impeller.KafkaTxn} {
			run := p.run(proto)
			run.Cluster.CommitInterval = interval
			res, err := RunNexmark(run)
			if err != nil {
				return nil, err
			}
			if proto == impeller.ProgressMarker {
				pt.Marker = res
			} else {
				pt.Txn = res
			}
			if progress != nil {
				fmt.Fprintf(progress, "  interval=%v %s\n", interval, res)
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// PrintFig8 renders the commit-interval sweep.
func PrintFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintf(w, "Figure 8: Q%d event-time latencies at different commit intervals\n", points[0].Marker.Config.Query)
	fmt.Fprintf(w, "%-10s | %-12s %-12s | %-12s %-12s | %-10s %-10s\n",
		"interval", "marker p50", "marker p99", "txn p50", "txn p99", "p50 ratio", "p99 ratio")
	for _, p := range points {
		fmt.Fprintf(w, "%-10v | %-12v %-12v | %-12v %-12v | %-10.2f %-10.2f\n",
			p.Interval,
			p.Marker.P50.Round(100*time.Microsecond), p.Marker.P99.Round(100*time.Microsecond),
			p.Txn.P50.Round(100*time.Microsecond), p.Txn.P99.Round(100*time.Microsecond),
			ratio(p.Txn.P50, p.Marker.P50), ratio(p.Txn.P99, p.Marker.P99))
	}
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Figure 9 (paper §5.3.4): Q5 with the unsafe variant (no progress
// marking) against the three protocols — the cost of exactly-once.

// RunFig9 sweeps Q5 across p.Rates for all four protocols.
func RunFig9(p Params, progress io.Writer) ([]*Fig7Series, error) {
	p.Query = 5
	return runFig7(p, []impeller.Protocol{
		impeller.ProgressMarker, impeller.KafkaTxn, impeller.AlignedCheckpoint, impeller.Unsafe,
	}, progress)
}

// PrintFig9 renders the unsafe-comparison sweep with the marker/unsafe
// overhead ratios the paper reports.
func PrintFig9(w io.Writer, series []*Fig7Series) {
	fmt.Fprintln(w, "Figure 9: NEXMark Q5 — cost of progress marking (vs unsafe)")
	PrintFig7(w, series)
	var marker, unsafe *Fig7Series
	for _, s := range series {
		switch s.Protocol {
		case impeller.ProgressMarker:
			marker = s
		case impeller.Unsafe:
			unsafe = s
		}
	}
	if marker == nil || unsafe == nil {
		return
	}
	fmt.Fprintf(w, "%-10s %-18s %-18s\n", "rate", "p50 marker/unsafe", "p99 marker/unsafe")
	for i := 0; i < len(marker.Points) && i < len(unsafe.Points); i++ {
		m, u := marker.Points[i], unsafe.Points[i]
		fmt.Fprintf(w, "%-10d %-18.2f %-18.2f\n", m.Config.Rate, ratio(m.P50, u.P50), ratio(m.P99, u.P99))
	}
}
