package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans of one input event share its id;
// parent names the span that caused this one ("" for a root). Times are
// ns since the trace's origin.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer records spans from the benchmark's own files, around its calls
// into the system: one event in traceEvery is followed from its due time
// to its delivery, and every batch of a layer drive is a span of its own.
// Spans inside the program are a later change (ROADMAP item 2). Everything
// stays in memory until write.
//
// Sampling is switched off in every other second of the open-loop phase,
// so one traced run yields the CPU cost per event with and without it.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	drives []span

	in          *input
	first, end  int // the open-loop phase's events
	start       time.Time
	sendDone    []atomic.Int64 // per sampled event, ns since start; 0 = not seen
	emitAt      []atomic.Int64
	deliveredAt []atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// drive records one batch of a layer drive.
func (t *tracer) drive(name string, id int, start, end time.Time) {
	t.mu.Lock()
	t.drives = append(t.drives, span{Name: name, ID: id, Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) begin(in *input, first, end int, start time.Time) {
	n := (end-first)/traceEvery + 1
	t.in, t.first, t.end, t.start = in, first, end, start
	t.sendDone = make([]atomic.Int64, n)
	t.emitAt = make([]atomic.Int64, n)
	t.deliveredAt = make([]atomic.Int64, n)
}

// sampledSecond reports whether events due in the given second of the
// phase are sampled: the odd ones are.
func (t *tracer) sampledSecond(sec int) bool { return sec%2 == 1 }

// slot is the sample slot of event i, or -1 if i is not sampled.
func (t *tracer) slot(i int) int {
	rel := i - t.first
	if rel < 0 || i >= t.end || rel%traceEvery != 0 || !t.sampledSecond(rel/t.in.rate) {
		return -1
	}
	return rel / traceEvery
}

func (t *tracer) sent(i int) {
	if s := t.slot(i); s >= 0 {
		t.sendDone[s].Store(int64(time.Since(t.start)))
	}
}

func (t *tracer) emitted(eventTime int64, now time.Time) {
	if s := t.slot(t.in.indexOf(eventTime)); s >= 0 {
		t.emitAt[s].CompareAndSwap(0, int64(now.Sub(t.start)))
	}
}

func (t *tracer) delivered(eventTime int64, now time.Time) {
	if s := t.slot(t.in.indexOf(eventTime)); s >= 0 {
		t.deliveredAt[s].CompareAndSwap(0, int64(now.Sub(t.start)))
	}
}

// eventSpans builds the four spans of every sampled event that was seen
// at all three points: root event [due → deliver] and its children send
// [due → SendVia returned], pipeline [send → emission], commit_egress
// [emission → Consumer.Deliver].
func (t *tracer) eventSpans() []span {
	var out []span
	base := t.start.Sub(t.origin).Nanoseconds()
	for s := range t.sendDone {
		sent, emit, del := t.sendDone[s].Load(), t.emitAt[s].Load(), t.deliveredAt[s].Load()
		if sent == 0 || emit == 0 || del == 0 {
			continue
		}
		i := t.first + s*traceEvery
		due := base + (t.in.eventTime(i)-t.in.eventTime(t.first))*1000
		out = append(out,
			span{"event", i, "", due, base + del},
			span{"send", i, "event", due, base + sent},
			span{"pipeline", i, "event", base + sent, base + emit},
			span{"commit_egress", i, "event", base + emit, base + del})
	}
	return out
}

// spanMedians is the median duration, in ms, of each span name, and how
// many spans carry it. A span's self time is its duration minus what its
// children cover; the event span's children tile it, so its self time is
// zero and the children's durations are their self times.
func spanMedians(spans []span) (map[string]float64, map[string]int) {
	by := make(map[string][]float64)
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e6)
	}
	med, n := make(map[string]float64), make(map[string]int)
	for name, v := range by {
		sort.Float64s(v)
		med[name], n[name] = v[len(v)/2], len(v)
	}
	return med, n
}

// write stores every span as one JSON array.
func (t *tracer) write(path string, events []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	all := append(append([]span(nil), t.drives...), events...)
	t.mu.Unlock()
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
