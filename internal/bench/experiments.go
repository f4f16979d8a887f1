package bench

import (
	"fmt"
	"io"
	"time"

	"impeller"
	"impeller/internal/sharedlog"
)

// Figure 7 (paper §5.3.1–5.3.3): event-time latency (p50, p99) as a
// function of input throughput, per query, for Impeller's progress
// marking, the Kafka Streams transaction protocol, and aligned
// checkpoints.

// Fig7Config configures one query's sweep.
type Fig7Config struct {
	Query     int
	Rates     []int // events/s; 0-length selects a per-query default
	Protocols []impeller.Protocol
	Duration  time.Duration
	// P99Limit stops the sweep for a protocol once exceeded (the paper
	// uses 60 ms for Q1–Q2 and 1 s for Q3–Q8).
	P99Limit time.Duration
	Simulate bool
	Scale    float64
	// Engine selects the task execution engine (goroutine or tasklet).
	Engine impeller.EngineMode
}

func (c Fig7Config) withDefaults() Fig7Config {
	if len(c.Rates) == 0 {
		if c.Query <= 2 {
			c.Rates = []int{4000, 8000, 16000, 24000, 32000}
		} else {
			c.Rates = []int{2000, 4000, 8000, 12000, 16000}
		}
	}
	if len(c.Protocols) == 0 {
		c.Protocols = []impeller.Protocol{impeller.ProgressMarker, impeller.KafkaTxn, impeller.AlignedCheckpoint}
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.P99Limit <= 0 {
		if c.Query <= 2 {
			// The paper uses 60 ms against its ~15 ms stateless latency
			// floor; this harness's floor is ~30 ms (generator batch +
			// two log hops), so the limit scales proportionally.
			c.P99Limit = 120 * time.Millisecond
		} else {
			c.P99Limit = time.Second
		}
	}
	return c
}

// Fig7Series is one protocol's latency curve for one query.
type Fig7Series struct {
	Query    int
	Protocol impeller.Protocol
	Points   []*RunResult
	// SaturationRate is the highest offered rate whose p99 stayed
	// under the limit.
	SaturationRate int
}

// RunFig7 sweeps one query across rates for each protocol.
func RunFig7(cfg Fig7Config, progress io.Writer) ([]*Fig7Series, error) {
	cfg = cfg.withDefaults()
	var out []*Fig7Series
	for _, proto := range cfg.Protocols {
		series := &Fig7Series{Query: cfg.Query, Protocol: proto}
		for _, rate := range cfg.Rates {
			res, err := RunNexmark(RunConfig{
				Query:            cfg.Query,
				Protocol:         proto,
				Rate:             rate,
				Duration:         cfg.Duration,
				SimulateLatency:  cfg.Simulate,
				LatencyScale:     cfg.Scale,
				SnapshotInterval: 2 * time.Second,
				Engine:           cfg.Engine,
			})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, res)
			if progress != nil {
				fmt.Fprintf(progress, "  %s\n", res)
			}
			if res.P99 > cfg.P99Limit {
				break // saturated; the paper stops each curve here
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
		fmt.Fprintf(w, "%-20s saturation throughput: %d events/s\n", s.Protocol, s.SaturationRate)
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

// Fig8Config configures the commit-interval sweep.
type Fig8Config struct {
	Query     int
	Rate      int
	Intervals []time.Duration
	Duration  time.Duration
	Simulate  bool
	Scale     float64
}

func (c Fig8Config) withDefaults() Fig8Config {
	if len(c.Intervals) == 0 {
		c.Intervals = []time.Duration{
			100 * time.Millisecond, 50 * time.Millisecond,
			25 * time.Millisecond, 10 * time.Millisecond,
		}
	}
	if c.Rate == 0 {
		if c.Query <= 2 {
			c.Rate = 8000
		} else {
			c.Rate = 4000
		}
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	return c
}

// Fig8Point is one (interval, protocol) measurement.
type Fig8Point struct {
	Interval time.Duration
	Marker   *RunResult
	Txn      *RunResult
}

// RunFig8 sweeps commit intervals for one query at a fixed rate.
func RunFig8(cfg Fig8Config, progress io.Writer) ([]Fig8Point, error) {
	cfg = cfg.withDefaults()
	var out []Fig8Point
	for _, interval := range cfg.Intervals {
		pt := Fig8Point{Interval: interval}
		for _, proto := range []impeller.Protocol{impeller.ProgressMarker, impeller.KafkaTxn} {
			res, err := RunNexmark(RunConfig{
				Query:           cfg.Query,
				Protocol:        proto,
				Rate:            cfg.Rate,
				Duration:        cfg.Duration,
				CommitInterval:  interval,
				SimulateLatency: cfg.Simulate,
				LatencyScale:    cfg.Scale,
			})
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
func PrintFig8(w io.Writer, q int, points []Fig8Point) {
	fmt.Fprintf(w, "Figure 8: Q%d event-time latencies at different commit intervals\n", q)
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

// RunFig9 sweeps Q5 across rates for all four protocols.
func RunFig9(rates []int, duration time.Duration, simulate bool, scale float64, progress io.Writer) ([]*Fig7Series, error) {
	if len(rates) == 0 {
		rates = []int{2000, 4000, 8000, 12000, 16000}
	}
	cfg := Fig7Config{
		Query:    5,
		Rates:    rates,
		Duration: duration,
		Simulate: simulate,
		Scale:    scale,
		Protocols: []impeller.Protocol{
			impeller.ProgressMarker, impeller.KafkaTxn,
			impeller.AlignedCheckpoint, impeller.Unsafe,
		},
	}
	return RunFig7(cfg, progress)
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
