package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or stalled.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerKeepsDueTimesAcrossStall(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	p := &pacer{start: start, now: clk.now, sleep: clk.sleep, lag: &hist{}}
	var sentAt []time.Duration
	p.run(100, func(k int) bool {
		sentAt = append(sentAt, clk.t.Sub(start))
		if k == 10 {
			clk.t = clk.t.Add(50 * time.Millisecond) // the generator stalls
		}
		return true
	})
	if len(sentAt) != 100 {
		t.Fatalf("sent %d slots", len(sentAt))
	}
	// Slots the stall covered go out late, back to back; slots after it
	// are on schedule again: the schedule never shifts.
	if got := sentAt[11]; got != 61*time.Millisecond {
		t.Fatalf("slot 11 sent at %v, want 61ms (late, not rescheduled)", got)
	}
	if got := sentAt[40]; got != 61*time.Millisecond {
		t.Fatalf("slot 40 sent at %v, want 61ms (catching up)", got)
	}
	if got := sentAt[99]; got != 100*time.Millisecond {
		t.Fatalf("slot 99 sent at %v, want its own close at 100ms", got)
	}
	// The lag histogram reports the stall.
	if max, _ := p.lag.percentile(100); max < 49*time.Millisecond {
		t.Fatalf("max lag %v does not show the 50ms stall", max)
	}
	if p50, _ := p.lag.percentile(50); p50 > 30*time.Millisecond {
		t.Fatalf("median lag %v: slots after the stall did not recover", p50)
	}
}

func TestPacerStopsWhenSendFails(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := &pacer{start: clk.t, now: clk.now, sleep: clk.sleep, lag: &hist{}}
	n := 0
	p.run(10, func(int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("ran %d slots after a refused send", n)
	}
}

func TestDueOffsetsAreDistinctAndInvertible(t *testing.T) {
	for _, rate := range []int{20_000, 40_000, 60_000, 100_000} {
		prev := int64(-1)
		for i := 0; i < 5*rate/1000; i++ {
			off := dueOffsetMicros(i, rate)
			if off <= prev {
				t.Fatalf("rate %d: offset %d of event %d not above %d", rate, off, i, prev)
			}
			if got := indexOfDueOffset(off, rate); got != i {
				t.Fatalf("rate %d: offset %d maps back to %d, want %d", rate, off, got, i)
			}
			prev = off
		}
	}
}
