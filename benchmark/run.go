package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	setupRepeats = 3    // set-ups per run; setup_s is their median
	drainWindow  = 4000 // most events in flight during a closed loop
	phaseTimeout = 60 * time.Second
	sampleEvery  = 50 * time.Millisecond
	traceEvery   = 256 // one event in this many carries spans
	pollInterval = 200 * time.Microsecond
)

// latencyWindow maps event times of the open-loop phase to the wall
// clock: the event with time etFirst is due at start.
type latencyWindow struct {
	start          time.Time
	etFirst, etEnd int64
}

// meter sits at the two measurement points of every workload: the
// ungated sink's callback (emission, paper §5.3) and the exactly-once
// consumer. It is the consumer: it dedupes by (partition, producer, seq),
// hands what it applies to the reference and times it.
type meter struct {
	ref reference
	win atomic.Pointer[latencyWindow]
	tr  *tracer // nil unless traced

	emitted atomic.Uint64 // outputs seen at the emission point
	applied atomic.Uint64 // outputs the consumer applied
	deduped atomic.Uint64 // redeliveries the consumer absorbed

	// Latencies of the open-loop phase, whole and by the second of the
	// phase their event was due in.
	emit, deliver                 hist
	emitBySecond, deliverBySecond []hist

	// floors[p] is output partition p's highest applied sequence number
	// per producer; only p's delivery worker touches it.
	floors []map[string]uint64
}

func newMeter(ref reference, tr *tracer, seconds, partitions int) *meter {
	m := &meter{
		ref: ref, tr: tr,
		emitBySecond:    make([]hist, latencySeconds(seconds)),
		deliverBySecond: make([]hist, latencySeconds(seconds)),
		floors:          make([]map[string]uint64, partitions),
	}
	for p := range m.floors {
		m.floors[p] = make(map[string]uint64)
	}
	return m
}

// latency is now minus the due time of the event eventTime names, and
// the second of the phase that event was due in; ok is false outside the
// open-loop phase.
func (m *meter) latency(eventTime int64, now time.Time) (d time.Duration, second int, ok bool) {
	w := m.win.Load()
	if w == nil || eventTime < w.etFirst || eventTime >= w.etEnd {
		return 0, 0, false
	}
	due := time.Duration(eventTime-w.etFirst) * time.Microsecond
	return now.Sub(w.start) - due, int(due / time.Second), true
}

func (m *meter) onEmit(eventTime int64, now time.Time) {
	m.emitted.Add(1)
	if d, sec, ok := m.latency(eventTime, now); ok {
		m.emit.record(d)
		m.emitBySecond[sec].record(d)
		if m.tr != nil {
			m.tr.emitted(eventTime, now)
		}
	}
}

// Deliver implements the system's Consumer interface.
func (m *meter) Deliver(_ context.Context, d *delivery) error {
	floors := m.floors[d.Partition]
	if d.Seq <= floors[string(d.Producer)] {
		m.deduped.Add(1)
		return nil
	}
	floors[string(d.Producer)] = d.Seq
	m.ref.observe(d.Partition, d.Record.Key, d.Record.Value)
	m.applied.Add(1)
	now := time.Now()
	if lat, sec, ok := m.latency(d.Record.EventTime, now); ok {
		m.deliver.record(lat)
		m.deliverBySecond[sec].record(lat)
		if m.tr != nil {
			m.tr.delivered(d.Record.EventTime, now)
		}
	}
	return nil
}

// bySecond reads percentile p of every second's histogram, in ms, leaving
// out seconds whose sample does not support it.
func bySecond(hs []hist, p float64) []float64 {
	var out []float64
	for i := range hs {
		if v, ok := hs[i].ms(p); ok {
			out = append(out, v)
		}
	}
	return out
}

// run is one workload run: its plan, its input and the system it drives.
type run struct {
	w       *workload
	seed    uint64
	seconds int
	ph      phases
	tr      *tracer // nil unless traced

	in  *input
	m   *meter
	sys *sut

	heapBase uint64 // live heap the benchmark itself holds
	sent     int    // input events handed to the system so far
	refused  atomic.Uint64
}

// result is what one run measured.
type result struct {
	setups  []float64 // seconds, one per set-up
	verdict verdict
	refused uint64
	invalid []string // why the numbers are not to be trusted, if so
	samples uint64   // latency samples at the emission point

	endToEnd []metric
	ungated  []metric // end-to-end by nature, per-layer by contract
	perLayer []metric
	spans    []span // of sampled events; traced runs only

	// The series the end-to-end medians are taken over, for the reader.
	series []series
}

type series struct {
	name   string
	values []float64
}

// setup pre-generates the input, builds the reference and the system,
// and pushes the warm-up load through. It is timed as a whole.
func (r *run) setup() error {
	r.in = newInput(r.seed, r.w.query, r.w.rate, r.ph.total())
	partitions := outputPartitions(r.w.query)
	r.m = newMeter(newReference(r.w.query, r.in, partitions), r.tr, r.seconds, partitions)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBase = ms.HeapAlloc
	sys, err := startSUT(r.w, r.seed, r.m.onEmit, r.m)
	if err != nil {
		return err
	}
	r.sys = sys
	r.sent = 0
	r.closedLoop(r.ph.warmEnd)
	return r.awaitApplied("warm-up")
}

// teardown stops the cluster and checks what its consumer applied
// against the reference, adding the outcome to v.
func (r *run) teardown(v *verdict) error {
	err := r.sys.stop()
	v.add(r.m.ref.verify(r.in, r.sent))
	r.sys, r.in, r.m = nil, nil, nil
	return err
}

func (r *run) sendOne(writer, i int) {
	if err := r.sys.send(writer, r.in.key(i), r.in.payload(i), r.in.eventTime(i)); err != nil {
		r.refused.Add(1)
	}
}

// closedLoop pushes events [r.sent, to) as fast as the system takes
// them: one goroutine per ingress writer, at most drainWindow events
// between what the writers accepted and what the source stage applied.
func (r *run) closedLoop(to int) {
	from := r.sent
	var pushed atomic.Int64
	base := r.sys.sourceProcessed()
	var wg sync.WaitGroup
	for g := 0; g < ingressWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for i := from + g; i < to; i += ingressWriters {
				if n%32 == 0 {
					for pushed.Load()-int64(r.sys.sourceProcessed()-base) >= drainWindow {
						time.Sleep(pollInterval)
					}
				}
				r.sendOne(g, i)
				pushed.Add(1)
				n++
			}
		}(g)
	}
	wg.Wait()
	r.sent = to
}

// await polls until done reports true, or gives up after phaseTimeout.
func (r *run) await(what string, done func() bool) error {
	deadline := time.Now().Add(phaseTimeout)
	for !done() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: timed out after %v (emitted %d, applied %d)", what,
				phaseTimeout, r.m.emitted.Load(), r.m.applied.Load())
		}
		time.Sleep(pollInterval)
	}
	return nil
}

// awaitApplied waits until the consumer holds every output the events
// sent so far owe.
func (r *run) awaitApplied(what string) error {
	owed := uint64(r.in.outputsBefore[r.sent])
	return r.await(what, func() bool { return r.m.applied.Load() >= owed })
}

// awaitEmitted waits for the same count at the emission point.
func (r *run) awaitEmitted(what string) error {
	owed := uint64(r.in.outputsBefore[r.sent])
	return r.await(what, func() bool { return r.m.emitted.Load() >= owed })
}

// preciseSleep sleeps on the thread's own timer. The runtime's timers
// round sub-millisecond sleeps of an idle thread up to a millisecond,
// which would put half a slot of lag on every slot.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return only makes the next sleep shorter
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencyStats is what the open-loop phase yields besides the latency
// histograms in the meter.
type latencyStats struct {
	events              int
	cpu                 time.Duration
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	lag                 hist    // how late each slot was handed over
	sentEPS             float64 // events ÷ time until the last one was sent
	backlogMax          float64
	backlogSlope        float64   // events/s, least squares over the phase
	goroutines          int       // mid-phase
	cpuBySecond         []float64 // µs of CPU per event, second by second
	// CPU time of the seconds with and without event sampling (traced runs).
	cpuSampled, cpuUnsampled time.Duration
}

// openLoop offers events [r.sent, to) at the workload's rate: one pacer
// per ingress writer, each sending its half of every 1 ms slot when the
// slot closes. Every event is stamped with its due time whatever the
// generators do.
func (r *run) openLoop(to int) (*latencyStats, error) {
	from := r.sent
	perSlot := r.w.rate / 1000
	slots := (to - from) / perSlot
	st := &latencyStats{events: to - from}

	// The generators get a processor each for the length of the phase, as
	// a load generator on a machine of its own would have: sharing the
	// system's, they wake late whenever it is busy.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + ingressWriters))
	runtime.GC() // collections then fall at the same points of every run
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	r.m.win.Store(&latencyWindow{start: start, etFirst: r.in.eventTime(from), etEnd: r.in.eventTime(to)})
	if r.tr != nil {
		r.tr.begin(r.in, from, to, start)
	}

	// The sampler watches the backlog between the writers and the source
	// stage and, second by second, the process's CPU time.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	var pushed atomic.Int64
	base := r.sys.sourceProcessed()
	go func() {
		defer sampler.Done()
		var ts, bs []float64
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		lastCPU, lastSecond := cpu0, 0
		for {
			select {
			case <-stop:
				st.backlogSlope = slope(ts, bs)
				return
			case now := <-tick.C:
				b := float64(pushed.Load() - int64(r.sys.sourceProcessed()-base))
				ts, bs = append(ts, now.Sub(start).Seconds()), append(bs, b)
				if b > st.backlogMax {
					st.backlogMax = b
				}
				if st.goroutines == 0 && now.Sub(start) > time.Duration(slots/2)*slotLen {
					st.goroutines = runtime.NumGoroutine()
				}
				if sec := int(now.Sub(start) / time.Second); sec > lastSecond {
					c := cpuTime()
					if sec-lastSecond == 1 {
						st.cpuBySecond = append(st.cpuBySecond, float64(c-lastCPU)/float64(time.Microsecond)/float64(r.w.rate))
					}
					if r.tr != nil && sec-lastSecond == 1 {
						if r.tr.sampledSecond(lastSecond) {
							st.cpuSampled += c - lastCPU
						} else {
							st.cpuUnsampled += c - lastCPU
						}
					}
					lastCPU, lastSecond = c, sec
				}
			}
		}
	}()

	var wg sync.WaitGroup
	lags := make([]hist, ingressWriters)
	for g := 0; g < ingressWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &pacer{start: start, now: time.Now, sleep: preciseSleep, lag: &lags[g]}
			p.run(slots, func(k int) bool {
				lo := from + k*perSlot
				for i := lo + g; i < lo+perSlot; i += ingressWriters {
					r.sendOne(g, i)
					if r.tr != nil {
						r.tr.sent(i)
					}
				}
				pushed.Add(int64(perSlot / ingressWriters))
				return true
			})
		}(g)
	}
	wg.Wait()
	st.sentEPS = float64(st.events) / time.Since(start).Seconds()
	r.sent = to
	err := r.awaitApplied("latency phase")
	close(stop)
	sampler.Wait()

	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = m1.NumGC - m0.NumGC
	st.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for g := range lags {
		st.lag.merge(&lags[g])
	}
	r.m.win.Store(nil)
	return st, err
}

// drain pushes events [r.sent, to) in a closed loop until the consumer
// holds every output they owe, and returns the events per second that
// took.
func (r *run) drain(to int) (float64, error) {
	runtime.GC() // as in openLoop
	from, start := r.sent, time.Now()
	r.closedLoop(to)
	if err := r.awaitApplied("drain"); err != nil {
		return 0, err
	}
	return float64(to-from) / time.Since(start).Seconds(), nil
}

// slope is the least-squares slope of y over x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	d := n*sxx - sx*sx
	if d == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / d
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// recoverOnce restarts the last stage's task 0 at quiescence, sends the
// next probe burst and times restart → every output the burst owes seen
// at the emission point. The burst is wide enough to reach every task of
// the stage, so the restarted one is on its path however keys are routed.
// The burst leaves with the writers' next timed flush: App.FlushIngress
// is not safe to call while the flush timer runs (two flushes of one
// writer may reach the log out of order, and the per-producer sequence
// floor downstream then drops the earlier one's records).
func (r *run) recoverOnce() (time.Duration, error) {
	t0 := time.Now()
	if err := r.sys.restart(); err != nil {
		return 0, err
	}
	to := r.sent + r.ph.probe
	for i := r.sent; i < to; i++ {
		r.sendOne(i%ingressWriters, i)
	}
	r.sent = to
	if err := r.awaitEmitted("recovery probe"); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, r.awaitApplied("recovery probe delivery")
}

// execute runs the phases in order and gathers every metric.
func (r *run) execute() (*result, error) {
	res := &result{}
	// A phase that times out leaves outputs missing; the reference check
	// below counts them, so the run goes on to its end.
	note := func(err error) {
		if err != nil {
			res.invalid = append(res.invalid, err.Error())
		}
	}

	// Every set-up builds a cluster of its own with nothing yet in its
	// log. The first two are drained in a closed loop and torn down; the
	// third goes on to the open-loop phase and the restarts. The first
	// drain also pays for the process's own growing up (first-touch page
	// faults on a heap that has never been this large), so the capacity
	// is the second's.
	var began time.Time
	var drains []float64
	for i := 0; i < setupRepeats; i++ {
		began = time.Now()
		if err := r.setup(); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(began).Seconds())
		if i == setupRepeats-1 {
			break
		}
		rate, err := r.drain(r.ph.drainEnd)
		note(err)
		drains = append(drains, rate)
		if err := r.teardown(&res.verdict); err != nil {
			return nil, err
		}
	}

	lat, err := r.openLoop(r.ph.latEnd)
	note(err)

	// A probe's outputs wait for the writers' next flush and for the
	// next commit of every stage before the last, so its time depends on
	// where in those periods the restart falls — and a restart follows
	// the previous probe's delivery, which is itself tied to a commit.
	// Restart k is therefore put off by k/restarts of both periods: the
	// restarts sample the periods evenly instead of all hitting one spot.
	time.Sleep(r.w.idleBeforeRecover)
	var recoveries []float64
	for i := 0; i < r.ph.restarts && len(res.invalid) == 0; i++ {
		time.Sleep(time.Duration(i) * (r.w.commit + r.w.flush) / time.Duration(r.ph.restarts))
		d, err := r.recoverOnce()
		note(err)
		recoveries = append(recoveries, float64(d)/float64(time.Millisecond))
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wall := time.Since(began)
	c := r.sys.counters()
	device := r.sys.device
	sent, m := r.sent, r.m
	note(r.teardown(&res.verdict))
	res.refused = r.refused.Load()
	res.samples = m.emit.count()

	// Validity of the open-loop numbers (README.md, "Validity").
	rate := float64(r.w.rate)
	if p99, _ := lat.lag.ms(99); p99 > 2 {
		note(fmt.Errorf("driver.sched_lag_p99_ms %.2f > 2", p99))
	}
	if lat.sentEPS < 0.99*rate {
		note(fmt.Errorf("driver.sent_eps %.0f < 99%% of %.0f", lat.sentEPS, rate))
	}
	if lat.backlogSlope > 0.01*rate {
		note(fmt.Errorf("driver.backlog_slope_eps %.0f > 1%% of %.0f", lat.backlogSlope, rate))
	}

	// Latency percentiles are read second by second. A second's p99 is
	// moved by any stall — a collection on a grown heap, a host hiccup —
	// and stalls only ever add, so the first quartile of the seconds is
	// reported: a quiet second. A second's p50 shrugs stalls off, but on a
	// many-stage query under simulated round trips it drifts down from
	// its lock-step start as the stages' commit timers drift apart, in
	// some runs and not in others; the third quartile is what the run
	// starts from. Whole-phase and worst-second numbers are per-layer.
	events := float64(lat.events)
	res.endToEnd = []metric{
		{"setup_s", "s", median(res.setups)},
		{"emit_p50_ms", "ms", quartile(bySecond(m.emitBySecond, 50), 3)},
		{"emit_p99_ms", "ms", quartile(bySecond(m.emitBySecond, 99), 1)},
		{"deliver_p50_ms", "ms", quartile(bySecond(m.deliverBySecond, 50), 3)},
		{"deliver_p99_ms", "ms", quartile(bySecond(m.deliverBySecond, 99), 1)},
		{"allocs_per_event", "count", float64(lat.mallocs) / events},
		{"alloc_bytes_per_event", "B", float64(lat.allocBytes) / events},
		{"heap_live_mb", "MB", (float64(ms.HeapAlloc) - float64(r.heapBase)) / (1 << 20)},
	}
	// Measured on every run and printed, but too dependent on what else
	// the host is doing to be held to a bound (README.md).
	res.ungated = []metric{
		{"driver.capacity_eps", "1/s", drains[len(drains)-1]},
		{"driver.recover_ms", "ms", median(recoveries)},
		{"driver.cpu_us_per_event", "us", float64(lat.cpu) / float64(time.Microsecond) / events},
	}
	res.series = []series{
		{"set-ups, s", res.setups},
		{"emit p50 by second, ms", bySecond(m.emitBySecond, 50)},
		{"emit p99 by second, ms", bySecond(m.emitBySecond, 99)},
		{"deliver p50 by second, ms", bySecond(m.deliverBySecond, 50)},
		{"deliver p99 by second, ms", bySecond(m.deliverBySecond, 99)},
		{"cpu by second, us/event", lat.cpuBySecond},
		{"drains, events/s", drains},
		{"recoveries, ms", recoveries},
	}
	res.perLayer = append(res.ungated, counterMetrics(r, sent, c, lat, m, wall, float64(ms.HeapSys))...)
	if r.tr != nil {
		res.spans = r.tr.eventSpans()
		walMBPerS := 0.0
		if device != nil {
			t0 := time.Now()
			n, err := walRecover(device)
			if err != nil {
				return nil, err
			}
			r.tr.drive("wal.recover", 0, t0, time.Now())
			walMBPerS = float64(n) / (1 << 20) / time.Since(t0).Seconds()
		}
		res.perLayer = append(res.perLayer, traceMetrics(lat, res.spans, walMBPerS)...)
	}
	return res, nil
}
