package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"impeller"
)

func TestHistPercentiles(t *testing.T) {
	h := &Hist{}
	if h.Percentile(50) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Percentile(50)
	if p50 < 450*time.Millisecond || p50 > 550*time.Millisecond {
		t.Fatalf("p50 = %v, want ~500ms", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 900*time.Millisecond || p99 > 1100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~990ms", p99)
	}
	if h.Max() != time.Second {
		t.Fatalf("max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 480*time.Millisecond || mean > 520*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistNegativeClampsAndReset(t *testing.T) {
	h := &Hist{}
	h.Record(-5 * time.Millisecond)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("negative sample handling: count=%d max=%v", h.Count(), h.Max())
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistResolution(t *testing.T) {
	h := &Hist{}
	h.Record(2500 * time.Microsecond)
	got := h.Percentile(50)
	// ~5% bucket resolution around the sample.
	if got < 2300*time.Microsecond || got > 2700*time.Microsecond {
		t.Fatalf("p50 = %v, want ~2.5ms", got)
	}
	if h.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunNexmarkSmoke(t *testing.T) {
	// Tiny, zero-latency run of a stateless and a stateful query to
	// validate the measurement plumbing.
	for _, q := range []int{1, 5} {
		res, err := RunNexmark(RunConfig{
			Query:    q,
			Rate:     2000,
			Duration: 700 * time.Millisecond,
			Warmup:   100 * time.Millisecond,
			Cluster:  impeller.ClusterConfig{Protocol: impeller.ProgressMarker, IngressWriters: 2},
		})
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		if res.Sent == 0 {
			t.Fatalf("q%d: nothing sent", q)
		}
		if res.Received == 0 {
			t.Fatalf("q%d: nothing received", q)
		}
		if res.P50 <= 0 {
			t.Fatalf("q%d: p50 = %v", q, res.P50)
		}
		if res.Metrics.Markers == 0 {
			t.Fatalf("q%d: no progress markers written", q)
		}
		if res.String() == "" {
			t.Fatal("empty result string")
		}
	}
}

// TestRunNexmarkOffersTheRate pins the generators' pacing: rates that
// do not divide into whole events per generator tick (3000 events/s on 4
// generators is 1.5 per 2 ms) must still be offered in full.
func TestRunNexmarkOffersTheRate(t *testing.T) {
	for _, c := range []struct{ rate, generators int }{{3000, 4}, {2000, 2}} {
		cfg := RunConfig{Query: 1, Rate: c.rate, Duration: 500 * time.Millisecond}
		cfg.Cluster.IngressWriters = c.generators
		res, err := RunNexmark(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(c.rate) * cfg.Duration.Seconds()
		if got := float64(res.Sent); got < 0.95*want || got > 1.05*want {
			t.Fatalf("%d events/s on %d generators for %v: sent %d, want %.0f ± 5%%",
				c.rate, c.generators, cfg.Duration, res.Sent, want)
		}
	}
}

// TestRunNexmarkPassesClusterThrough pins that RunConfig.Cluster reaches
// impeller.NewCluster verbatim: a setting the harness has no default
// for must show in the run.
func TestRunNexmarkPassesClusterThrough(t *testing.T) {
	cfg := RunConfig{Query: 1, Rate: 1000, Duration: 300 * time.Millisecond}
	cfg.Cluster.OrderingInterval = time.Millisecond
	res, err := RunNexmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Log.SequencerCuts == 0 || res.Received == 0 {
		t.Fatalf("ordering interval set, yet %d sequencer cuts (received %d)", res.Log.SequencerCuts, res.Received)
	}
}

// TestPrintFig7Saturation pins the two ways a sweep ends: a curve that
// crossed the p99 limit reports the last rate under it, one that never
// did reports a lower bound.
func TestPrintFig7Saturation(t *testing.T) {
	point := func(rate int) *RunResult { return &RunResult{Config: RunConfig{Query: 1, Rate: rate}} }
	series := []*Fig7Series{
		{Query: 1, Protocol: impeller.ProgressMarker, Points: []*RunResult{point(4000), point(8000)},
			SaturationRate: 8000},
		{Query: 1, Protocol: impeller.KafkaTxn, Points: []*RunResult{point(4000), point(8000)},
			SaturationRate: 4000, Saturated: true},
	}
	var out, csv bytes.Buffer
	PrintFig7(&out, series)
	if err := WriteFig7CSV(&csv, series); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"progress-marker      saturation throughput: ≥ 8000 (limit not reached) events/s\n",
		"kafka-txn            saturation throughput: 4000 events/s\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, want := range []string{",≥ 8000 (limit not reached)\n", ",4000\n"} {
		if !strings.Contains(csv.String(), want) {
			t.Fatalf("CSV lacks %q:\n%s", want, csv.String())
		}
	}
}

func TestRunNexmarkProtocols(t *testing.T) {
	for _, proto := range []impeller.Protocol{impeller.KafkaTxn, impeller.AlignedCheckpoint, impeller.Unsafe} {
		res, err := RunNexmark(RunConfig{
			Query:    2,
			Rate:     2000,
			Duration: 600 * time.Millisecond,
			Warmup:   100 * time.Millisecond,
			Cluster:  impeller.ClusterConfig{Protocol: proto, IngressWriters: 2},
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.Received == 0 {
			t.Fatalf("%v: nothing received", proto)
		}
	}
}

func TestRunTable2Smoke(t *testing.T) {
	rows, err := RunTable2(Params{Rates: []int{200}, Duration: 500 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.BokiP50 <= 0 || r.KafkaP50 <= 0 {
		t.Fatalf("empty measurements: %+v", r)
	}
	// Calibration shape (paper Table 2): Boki p50 slower than Kafka's.
	if r.SlowdownP50 < 1.0 {
		t.Fatalf("Boki p50 faster than Kafka (%.2fx); calibration broken", r.SlowdownP50)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty table output")
	}
}

func TestRunFig8Smoke(t *testing.T) {
	points, err := runFig8(Params{Query: 2, Rate: 1500, Duration: 600 * time.Millisecond},
		[]time.Duration{50 * time.Millisecond, 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Marker == nil || p.Txn == nil || p.Marker.Received == 0 || p.Txn.Received == 0 {
			t.Fatalf("incomplete point %+v", p)
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, points)
	if buf.Len() == 0 {
		t.Fatal("empty figure output")
	}
}

func TestRunTable4Smoke(t *testing.T) {
	rows, err := runTable4(Params{Rates: []int{1500}}, 1200*time.Millisecond, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.BaselineRecovery <= 0 || r.CheckpointRecovery <= 0 {
		t.Fatalf("zero recovery times: %+v", r)
	}
	// The checkpointed configuration must replay (often far) fewer
	// change-log records than the full-replay baseline.
	if r.CheckpointReplayed >= r.BaselineReplayed {
		t.Fatalf("checkpoint replayed %d >= baseline %d", r.CheckpointReplayed, r.BaselineReplayed)
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty table output")
	}
}

func TestRunCrossoverSmoke(t *testing.T) {
	res, err := RunCrossover(Params{Query: 6, Rate: 2000, Duration: 900 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Marker.Received == 0 || res.Aligned.Received == 0 {
		t.Fatalf("empty results: %+v", res)
	}
	var buf bytes.Buffer
	PrintCrossover(&buf, res)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}
