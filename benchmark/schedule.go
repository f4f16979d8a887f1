package main

import "time"

// slotLen is the pacer's wake-up granularity. Events are due evenly
// spaced inside a slot and are sent when the slot closes, so nothing is
// ever sent before it is due and the pacing adds at most one slot to a
// latency.
const slotLen = time.Millisecond

// pacer drives one open-loop generator. Slot k closes at start+(k+1)·slot
// whatever the wall clock does in between: a generator that stalls sends
// the slots it missed back to back, each event still stamped with the due
// time its index gives it, so the queueing a stall causes is charged to
// the latencies instead of hidden (coordinated omission). How late each
// slot was handed over is recorded in lag.
type pacer struct {
	start time.Time
	now   func() time.Time
	sleep func(time.Duration)
	lag   *hist
}

// run calls send(k) for k = 0..slots-1, each no earlier than the close of
// slot k, and records how long after that close send(k) returned. It
// stops early when send reports false.
func (p *pacer) run(slots int, send func(slot int) bool) {
	for k := 0; k < slots; k++ {
		target := p.start.Add(time.Duration(k+1) * slotLen)
		for d := target.Sub(p.now()); d > 0; d = target.Sub(p.now()) {
			p.sleep(d) // may return early
		}
		ok := send(k)
		p.lag.record(p.now().Sub(target))
		if !ok {
			return
		}
	}
}

// dueOffsetMicros is when event i of a phase is due, in µs after the
// phase's start: events are evenly spaced at the workload's rate. Offsets
// are distinct for rates below 1 M ev/s, which makes an output's event
// time name the input event that caused it.
func dueOffsetMicros(i, rate int) int64 { return int64(i) * 1_000_000 / int64(rate) }

// indexOfDueOffset inverts dueOffsetMicros.
func indexOfDueOffset(off int64, rate int) int {
	return int((off*int64(rate) + 999_999) / 1_000_000)
}
