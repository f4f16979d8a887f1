package main

import "encoding/binary"

// eventTimeZero is the event time of input event 0, in µs. It is a fixed
// multiple of every window size in use, so window boundaries — and with
// them the reference results — depend on the seed alone, never on when
// the run started.
const eventTimeZero int64 = 1_700_000_000_000_000

// input is the pre-generated event stream of one run: event i is sent
// under key i (8 bytes, big-endian) with event time eventTimeZero +
// dueOffsetMicros(i, rate). Keys and payloads live in two flat arenas the
// garbage collector does not scan. The program under test sees only
// (key, payload, event time) triples.
type input struct {
	rate     int
	n        int
	keys     []byte   // 8 bytes per event
	payloads []byte   // concatenated encodings
	offs     []uint32 // n+1 offsets into payloads
	// outputsBefore[i] is how many outputs events 0..i-1 cause, each
	// output counted at the latest event contributing to it (the event
	// whose event time it carries). Phase ends wait on these counts.
	outputsBefore []uint32
}

func (in *input) key(i int) []byte     { return in.keys[8*i : 8*i+8 : 8*i+8] }
func (in *input) payload(i int) []byte { return in.payloads[in.offs[i]:in.offs[i+1]:in.offs[i+1]] }
func (in *input) eventTime(i int) int64 {
	return eventTimeZero + dueOffsetMicros(i, in.rate)
}

// indexOf names the input event an event time belongs to.
func (in *input) indexOf(eventTime int64) int {
	return indexOfDueOffset(eventTime-eventTimeZero, in.rate)
}

// bytes is what the input itself keeps on the heap.
func (in *input) bytes() int {
	return len(in.keys) + len(in.payloads) + 4*len(in.offs) + 4*len(in.outputsBefore)
}

// newInput generates n events from seed at the given rate and counts the
// outputs query q owes for every prefix of them.
func newInput(seed uint64, q, rate, n int) *input {
	in := &input{
		rate:          rate,
		n:             n,
		keys:          make([]byte, 8*n),
		payloads:      make([]byte, 0, n*140),
		offs:          make([]uint32, n+1),
		outputsBefore: make([]uint32, n+1),
	}
	gen := newEventGenerator(seed)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(in.keys[8*i:], uint64(i))
		in.payloads = append(in.payloads, gen.next(in.eventTime(i))...)
		in.offs[i+1] = uint32(len(in.payloads))
	}
	caused := outputsCausedBy(q, in)
	for i := 0; i < n; i++ {
		in.outputsBefore[i+1] = in.outputsBefore[i] + uint32(caused[i])
	}
	return in
}

// phases cuts the input into the parts a cluster is sent: the warm-up
// (part of set-up), then either the drain or the open-loop latency phase
// followed by one probe burst per restart. Drain and latency phase both
// start at warmEnd: no cluster sees both.
type phases struct {
	warmEnd, drainEnd, latEnd int // exclusive end indexes
	probe                     int // events per recovery probe
	restarts                  int
}

func (p phases) total() int {
	n := p.latEnd + p.probe*p.restarts
	if p.drainEnd > n {
		n = p.drainEnd
	}
	return n
}

func planPhases(w *workload, seconds int) phases {
	p := phases{probe: 32 * w.parallelism, restarts: 5}
	if p.probe < 256 {
		p.probe = 256
	}
	p.warmEnd = w.rate / 2
	p.drainEnd = p.warmEnd + w.drainPerSecond*seconds
	p.latEnd = p.warmEnd + w.rate*latencySeconds(seconds)
	return p
}

// latencySeconds is the length of the open-loop phase: 60 % of the run.
func latencySeconds(seconds int) int {
	s := seconds * 6 / 10
	if s < 1 {
		s = 1
	}
	return s
}
