package bench

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"impeller"
	"impeller/internal/nexmark"
)

// -exp rescale: elastic rescaling under a step load. NEXMark Q1 runs at
// a steady offered rate on P slots; halfway through, the offered rate
// steps to 2× and the stage's parallelism is doubled on the live log
// (App.Rescale — no restart, no replay of history). Goodput is sampled
// at the output sink in fixed buckets across the whole run, so the
// transition shows up as a dip in the timeline: its depth and duration
// are the cost of the epoch switch, and the recovery point is when
// goodput regains the post-step steady state. The rescale call's own
// wall time (fence → floors → epoch CAS → respawn) is reported
// separately from the pipeline's observed disruption.

// The experiment's fixed shape: the stage starts on rescaleSlots task
// slots and the rescale doubles them, inside rescaleKeyGroups key groups
// of headroom; progress markers every rescaleCommit; goodput sampled in
// rescaleBucket buckets.
const (
	rescaleSlots     = 2
	rescaleKeyGroups = 8
	rescaleCommit    = 25 * time.Millisecond
	rescaleBucket    = 100 * time.Millisecond
)

// RescaleBucket is one goodput sample: records delivered at the sink
// during [Start, Start+Bucket), with the slot count and assignment
// epoch in force at the bucket boundary.
type RescaleBucket struct {
	Start     time.Duration
	Delivered uint64
	Slots     int
	Epoch     uint64
}

// Goodput is the bucket's delivered rate in events/s.
func (b RescaleBucket) Goodput() float64 {
	return float64(b.Delivered) / rescaleBucket.Seconds()
}

// ElasticResult is the outcome of one step-load rescale run.
type ElasticResult struct {
	// Query ran at Rate events/s before the step and 2×Rate after it.
	Query, Rate int
	Timeline    []RescaleBucket
	// Epoch is the committed assignment epoch after the split;
	// RescaleWall is the Rescale call's wall time (fence through
	// respawn); StepAt is when the step landed, relative to run start.
	Epoch       uint64
	RescaleWall time.Duration
	StepAt      time.Duration
	// SteadyBefore / SteadyAfter are mean goodput (events/s) over the
	// settled window before the step and the tail of the run.
	SteadyBefore, SteadyAfter float64
	// DipMin is the worst bucket goodput in the post-step window;
	// DipDepth is its shortfall relative to SteadyBefore (0..1);
	// DipDuration is the total bucket time under 90% of SteadyBefore
	// after the step; Recovery is the time from the step until goodput
	// first sustains 90% of SteadyAfter for three buckets.
	DipMin      float64
	DipDepth    float64
	DipDuration time.Duration
	Recovery    time.Duration
	// Sent / Delivered are whole-run totals; CondFailed counts fenced
	// appends rejected by the log during the transition.
	Sent, Delivered uint64
	CondFailed      uint64
}

// RunElastic executes the step-load rescale experiment on p.Query
// (default 1 — stateless, so the dip isolates the assignment switch
// itself; no state migrates) at p.Rate before the step and twice that
// after it (default 4000 events/s), for p.Duration in all (default 6 s;
// the step lands halfway).
func RunElastic(p Params, progress io.Writer) (*ElasticResult, error) {
	p = p.or(1, 4000, 6*time.Second)
	cfg := p.cluster(impeller.ProgressMarker)
	cfg.CommitInterval = rescaleCommit
	cfg.DefaultParallelism = rescaleSlots
	cfg.IngressWriters = 2
	cfg.IngressFlushInterval = 5 * time.Millisecond
	cfg.Seed = 17
	cluster := impeller.NewCluster(cfg)
	defer cluster.Close()

	topo, err := nexmark.BuildOpts(p.Query, nexmark.Options{MaxParallelism: rescaleKeyGroups})
	if err != nil {
		return nil, err
	}
	app, err := cluster.Run(topo)
	if err != nil {
		return nil, err
	}
	defer app.Stop()
	stage := nexmark.RescaleStage(p.Query)

	nBuckets := int(p.Duration/rescaleBucket) + 2
	delivered := make([]atomic.Uint64, nBuckets)
	start := time.Now()
	app.Sink(nexmark.OutputStream(p.Query), true, func(_ impeller.Record, _ impeller.TaskID, now time.Time) {
		if i := int(now.Sub(start) / rescaleBucket); i >= 0 && i < nBuckets {
			delivered[i].Add(1)
		}
	})

	// Load plane: rate R until the step, 2R after, paced in 5 ms ticks.
	res := &ElasticResult{Query: p.Query, Rate: p.Rate, StepAt: p.Duration / 2}
	gen := nexmark.NewGenerator(17)
	seq := 0
	var sent uint64
	tick := 5 * time.Millisecond
	stepped := make(chan struct{})
	loadDone := make(chan error, 1)
	go func() {
		carry := 0.0
		for {
			el := time.Since(start)
			if el >= p.Duration {
				loadDone <- nil
				return
			}
			rate := p.Rate
			select {
			case <-stepped:
				rate = 2 * p.Rate
			default:
			}
			carry += float64(rate) * tick.Seconds()
			n := int(carry)
			carry -= float64(n)
			for i := 0; i < n; i++ {
				now := time.Now().UnixMicro()
				ev := gen.Next(now)
				seq++
				if err := app.Send(nexmark.EventStream, []byte(fmt.Sprint(seq)), ev.Payload, now); err != nil {
					loadDone <- err
					return
				}
				sent++
			}
			time.Sleep(tick)
		}
	}()

	// Step: double the offered rate and the stage's slot count.
	time.Sleep(time.Until(start.Add(res.StepAt)))
	close(stepped)
	t0 := time.Now()
	epoch, err := app.Rescale(context.Background(), stage, 2*rescaleSlots)
	if err != nil {
		return nil, fmt.Errorf("bench: rescale: %w", err)
	}
	res.RescaleWall = time.Since(t0)
	res.Epoch = epoch
	if progress != nil {
		fmt.Fprintf(progress, "  step at %v: %d→%d slots, epoch %d, rescale call %v\n",
			res.StepAt, rescaleSlots, 2*rescaleSlots, epoch, res.RescaleWall.Round(10*time.Microsecond))
	}
	if err := <-loadDone; err != nil {
		return nil, err
	}
	// Drain the tail so the last buckets aren't truncated mid-flight.
	time.Sleep(400 * time.Millisecond)

	stepBucket := int(res.StepAt / rescaleBucket)
	used := int(p.Duration / rescaleBucket)
	for i := 0; i < used; i++ {
		b := RescaleBucket{Start: time.Duration(i) * rescaleBucket, Delivered: delivered[i].Load(),
			Slots: rescaleSlots, Epoch: 1}
		if i >= stepBucket {
			b.Slots, b.Epoch = 2*rescaleSlots, epoch
		}
		res.Timeline = append(res.Timeline, b)
	}
	res.Sent = sent
	for _, b := range res.Timeline {
		res.Delivered += b.Delivered
	}
	res.CondFailed = cluster.LogStats().CondFailed

	// Steady states: before = the settled window [25%, 95%] of the
	// pre-step half (skips warmup); after = the last quarter of the run.
	res.SteadyBefore = meanGoodput(res.Timeline, stepBucket/4, stepBucket-1)
	res.SteadyAfter = meanGoodput(res.Timeline, used*3/4, used)

	// Dip and recovery, scanned from the step bucket.
	res.DipMin = res.SteadyBefore
	recovered := -1
	run := 0
	for i := stepBucket; i < used; i++ {
		g := res.Timeline[i].Goodput()
		if g < res.DipMin {
			res.DipMin = g
		}
		if g < 0.9*res.SteadyBefore {
			res.DipDuration += rescaleBucket
		}
		if recovered < 0 {
			if g >= 0.9*res.SteadyAfter {
				run++
				if run == 3 {
					recovered = i - 2
				}
			} else {
				run = 0
			}
		}
	}
	if res.SteadyBefore > 0 {
		res.DipDepth = 1 - res.DipMin/res.SteadyBefore
		if res.DipDepth < 0 {
			res.DipDepth = 0
		}
	}
	if recovered >= 0 {
		res.Recovery = time.Duration(recovered)*rescaleBucket - res.StepAt
		if res.Recovery < 0 {
			res.Recovery = 0
		}
	} else {
		res.Recovery = p.Duration - res.StepAt // never re-settled
	}
	return res, nil
}

func meanGoodput(tl []RescaleBucket, from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(tl) {
		to = len(tl)
	}
	if to <= from {
		return 0
	}
	var sum uint64
	for _, b := range tl[from:to] {
		sum += b.Delivered
	}
	return float64(sum) / (float64(to-from) * rescaleBucket.Seconds())
}

// PrintElastic renders the run: the summary line the experiment is
// about, then the goodput timeline with the step marked.
func PrintElastic(w io.Writer, r *ElasticResult) {
	fmt.Fprintf(w, "Rescale: NEXMark Q%d step load %d→%d events/s, %d→%d slots at t=%v (epoch %d)\n",
		r.Query, r.Rate, 2*r.Rate, rescaleSlots, 2*rescaleSlots, r.StepAt, r.Epoch)
	fmt.Fprintf(w, "  rescale call %v · steady %.0f → %.0f ev/s · dip min %.0f ev/s (depth %.0f%%, %v under 90%%) · re-steady in %v · fenced appends %d\n",
		r.RescaleWall.Round(10*time.Microsecond), r.SteadyBefore, r.SteadyAfter,
		r.DipMin, 100*r.DipDepth, r.DipDuration, r.Recovery.Round(10*time.Millisecond), r.CondFailed)
	fmt.Fprintf(w, "%-8s | %-5s | %-5s | %-9s | %s\n", "t_ms", "slots", "epoch", "goodput", "")
	for _, b := range r.Timeline {
		mark := ""
		if b.Start == r.StepAt {
			mark = "  <- step: rate and slots double"
		}
		fmt.Fprintf(w, "%-8d | %-5d | %-5d | %-9.0f |%s\n",
			b.Start.Milliseconds(), b.Slots, b.Epoch, b.Goodput(), mark)
	}
}
