package bench

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// Ordering-shard scaling: aggregate append throughput against the
// number of ordering shards, at fixed offered load (strong scaling).
// The log runs in sequencer mode under calibrated latency; each shard's
// local persist is a serial resource (sharedlog.Config's
// ShardAppendLatency), so a single shard caps aggregate appends at
// roughly 1/persist-latency regardless of client count, and adding
// shards raises the cap near-linearly — the Scalog/Boki scaling
// argument the sharded ordering plane exists to reproduce. Latency is
// reported too: it should stay roughly flat across shard counts once
// the load no longer saturates a point, and fall sharply between the
// saturated and unsaturated points.

// The global cut interval, and the seed of the latency randomness.
const (
	scalingCutInterval = time.Millisecond
	scalingSeed        = 42
)

// ScalingPoint is one measured point of the sweep.
type ScalingPoint struct {
	Shards  int
	Clients int
	// Appends committed inside the measurement window and the resulting
	// aggregate rate.
	Appends    uint64
	Throughput float64
	// Append latency percentiles over the measurement window.
	P50, P99 time.Duration
	// Cut-plane counters at the end of the point.
	Cuts    uint64
	MeanCut float64
	Skew    float64
}

// RunScaling measures aggregate append throughput at each ordering-shard
// count in p.Shards (default 1, 2, 4, 8) with p.Clients concurrent
// appenders, fixed across points (default 256 — enough offered load to
// saturate the largest default shard count). A point runs for
// p.Duration (default 1.5 s), the first quarter of it discarded as
// warm-up; simulated latencies are always charged, scaled by p.Scale.
func RunScaling(p Params, progress io.Writer) ([]ScalingPoint, error) {
	p = p.or(0, 0, 1500*time.Millisecond)
	if len(p.Shards) == 0 {
		p.Shards = []int{1, 2, 4, 8}
	}
	if p.Clients <= 0 {
		p.Clients = 256
	}
	if p.Scale == 0 {
		p.Scale = 1
	}
	points := make([]ScalingPoint, 0, len(p.Shards))
	for _, n := range p.Shards {
		pt, err := runScalingPoint(p, n)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			fmt.Fprintf(progress, "  shards=%-2d throughput=%8.0f appends/s p50=%-9v p99=%-9v cuts=%d mean_cut=%.1f skew=%.2f\n",
				pt.Shards, pt.Throughput, pt.P50.Round(10*time.Microsecond), pt.P99.Round(10*time.Microsecond),
				pt.Cuts, pt.MeanCut, pt.Skew)
		}
		points = append(points, pt)
	}
	return points, nil
}

func runScalingPoint(cfg Params, shards int) (ScalingPoint, error) {
	r := sim.NewRand(scalingSeed)
	scale := func(m sim.LatencyModel) sim.LatencyModel {
		if cfg.Scale == 1 {
			return m
		}
		return sim.Scale{M: m, F: cfg.Scale}
	}
	log := sharedlog.Open(sharedlog.Config{
		NumShards:          4,
		Replication:        3,
		OrderingInterval:   scalingCutInterval,
		OrderingShards:     shards,
		AppendLatency:      scale(sim.DefaultBokiLatency(r.Fork())),
		ShardAppendLatency: scale(sim.DefaultLocalPersistLatency(r.Fork())),
	})
	defer log.Close()

	hist := &Hist{}
	var measured atomic.Uint64
	start := time.Now()
	warmup := cfg.Duration / 4
	warmupUntil := start.Add(warmup)
	deadline := start.Add(cfg.Duration)
	payload := make([]byte, 64)

	var wg sync.WaitGroup
	var firstErr atomic.Value
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// 16 distinct tags keep the index sharded realistically
			// without per-append tag allocation noise.
			tags := []sharedlog.Tag{sharedlog.Tag("scale/" + strconv.Itoa(c%16))}
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				if _, err := log.Append(tags, payload); err != nil {
					firstErr.Store(err)
					return
				}
				if done := time.Now(); done.After(warmupUntil) {
					measured.Add(1)
					hist.Record(done.Sub(t0))
				}
			}
		}(c)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return ScalingPoint{}, err
	}

	st := log.Stats()
	window := cfg.Duration - warmup
	return ScalingPoint{
		Shards:     shards,
		Clients:    cfg.Clients,
		Appends:    measured.Load(),
		Throughput: float64(measured.Load()) / window.Seconds(),
		P50:        hist.Percentile(50),
		P99:        hist.Percentile(99),
		Cuts:       st.SequencerCuts,
		MeanCut:    st.MeanCutBatch,
		Skew:       st.CutSkew,
	}, nil
}

// PrintScaling renders the sweep with per-point speedup over the first
// (fewest-shards) point.
func PrintScaling(w io.Writer, points []ScalingPoint) {
	if len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "Ordering-shard append scaling: %d concurrent appenders, sequencer cuts, calibrated latency\n",
		points[0].Clients)
	fmt.Fprintf(w, "%-8s %-14s %-9s %-10s %-10s %-8s %-10s %-8s\n",
		"shards", "appends/s", "speedup", "p50", "p99", "cuts", "mean cut", "skew")
	base := points[0].Throughput
	for _, p := range points {
		speedup := 0.0
		if base > 0 {
			speedup = p.Throughput / base
		}
		fmt.Fprintf(w, "%-8d %-14.0f %-9.2f %-10v %-10v %-8d %-10.1f %-8.2f\n",
			p.Shards, p.Throughput, speedup,
			p.P50.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond),
			p.Cuts, p.MeanCut, p.Skew)
	}
}

// WriteScalingCSV exports the sweep, one row per shard count.
func WriteScalingCSV(w io.Writer, points []ScalingPoint) error {
	rows := make([][]string, 0, len(points))
	base := 0.0
	if len(points) > 0 {
		base = points[0].Throughput
	}
	for _, p := range points {
		speedup := 0.0
		if base > 0 {
			speedup = p.Throughput / base
		}
		rows = append(rows, []string{
			strconv.Itoa(p.Shards),
			strconv.Itoa(p.Clients),
			strconv.FormatUint(p.Appends, 10),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.3f", speedup),
			us(p.P50), us(p.P99),
			strconv.FormatUint(p.Cuts, 10),
			fmt.Sprintf("%.2f", p.MeanCut),
			fmt.Sprintf("%.3f", p.Skew),
		})
	}
	return writeCSV(w,
		[]string{"ordering_shards", "clients", "appends", "throughput_aps", "speedup",
			"p50_us", "p99_us", "cuts", "mean_cut", "cut_skew"},
		rows)
}
