package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"impeller"
	"impeller/internal/nexmark"
)

// outputs collects what the gated sink delivered: per output key, how
// many distinct (non-duplicate) deliveries happened and the last value
// in delivery order. The sink delivers each key's records in log
// order from a single producing task, so "last" is well-defined.
type outputs struct {
	mu    sync.Mutex
	cells map[string]*cell
	// byPair keys cells by key‖value instead of key. Q8's output key is
	// the person, which legitimately repeats once per auction; the pair
	// is what must be delivered exactly once.
	byPair bool
}

type cell struct {
	count uint64
	last  []byte
}

func newOutputs(query int) *outputs {
	return &outputs{cells: make(map[string]*cell), byPair: query == 8}
}

func (o *outputs) add(key, value []byte) {
	id := string(key)
	if o.byPair {
		id += string(value)
	}
	o.mu.Lock()
	c := o.cells[id]
	if c == nil {
		c = &cell{}
		o.cells[id] = c
	}
	c.count++
	c.last = append(c.last[:0], value...)
	o.mu.Unlock()
}

// oracle verifies a query's output against a replay of the recorded
// inputs. record is called once per input event before it is sent;
// check is polled with the sink's observed outputs and reports
// (done, violation): done once every expected output has converged,
// violation (terminal) the moment any output contradicts exactly-once
// semantics — a duplicated delivery, an over-counted aggregate, or an
// output no input explains. The query oracles below are not safe for
// concurrent use; newOracle wraps them in a lockedOracle.
type oracle interface {
	record(key, payload []byte)
	check(o *outputs) (done bool, violation string)
	inputs() int
}

func newOracle(query int) (oracle, error) {
	var q oracle
	switch query {
	case 1:
		q = &q1Oracle{expect: make(map[string][]byte)}
	case 8:
		q = &q8Oracle{persons: make(map[uint64][]q8Person)}
	case 11:
		q = &q11Oracle{bidders: make(map[uint64]*span)}
	case 12:
		q = &q12Oracle{expect: make(map[q12Key]uint64)}
	default:
		return nil, fmt.Errorf("chaos: no oracle for query %d (want 1, 8, 11, or 12)", query)
	}
	return &lockedOracle{q: q}, nil
}

// lockedOracle serializes a query oracle: the generators record
// concurrently while the convergence loop checks, and a check reads the
// consumer's outputs under their lock.
type lockedOracle struct {
	mu sync.Mutex
	q  oracle
}

func (l *lockedOracle) record(key, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.q.record(key, payload)
}

func (l *lockedOracle) check(o *outputs) (bool, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	return l.q.check(o)
}

func (l *lockedOracle) inputs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.q.inputs()
}

func u64le(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// q1Oracle checks the currency-conversion map: every input bid must
// appear exactly once under its input key with the converted price;
// non-bids must not appear at all.
type q1Oracle struct {
	expect map[string][]byte
}

func (q *q1Oracle) record(key, payload []byte) {
	bid, err := nexmark.DecodeBid(payload)
	if err != nil {
		return // person or auction: filtered out by the query
	}
	bid.Price = bid.Price * 908 / 1000
	q.expect[string(key)] = bid.Encode()
}

func (q *q1Oracle) inputs() int { return len(q.expect) }

func (q *q1Oracle) check(o *outputs) (bool, string) {
	for key, c := range o.cells {
		want, ok := q.expect[key]
		if !ok {
			return false, fmt.Sprintf("q1: output %q has no matching input", key)
		}
		if c.count > 1 {
			return false, fmt.Sprintf("q1: key %q delivered %d times", key, c.count)
		}
		if !bytes.Equal(c.last, want) {
			return false, fmt.Sprintf("q1: key %q has wrong converted bid", key)
		}
	}
	return len(o.cells) == len(q.expect), ""
}

// q8Oracle checks the new-user join against its closed form: an output
// pair (person, auction) is owed exactly when the auction's seller is
// the person and their event times lie within nexmark.Q8Window of each
// other — in either arrival order, the join being symmetric. The
// generators share one id space, so a person id (and an auction id) can
// occur once per generator; the oracle therefore holds the exact
// multiset: per (person id, name, auction id), how many record pairs
// owe that output. Any delivery beyond that count, or of a pair nothing
// owes, is a violation; the run is done when every count is met.
type q8Oracle struct {
	persons  map[uint64][]q8Person // every person record, by id
	auctions []q8Auction
}

type q8Person struct {
	name string
	time int64
}

type q8Auction struct {
	id, seller uint64
	time       int64
}

func (q *q8Oracle) record(key, payload []byte) {
	if p, err := nexmark.DecodePerson(payload); err == nil {
		q.persons[p.ID] = append(q.persons[p.ID], q8Person{p.Name, p.DateTime})
	} else if a, err := nexmark.DecodeAuction(payload); err == nil {
		q.auctions = append(q.auctions, q8Auction{a.ID, a.Seller, a.DateTime})
	}
}

// owed returns the owed multiset, keyed like the outputs' cells:
// the join's key (person id) followed by its value (name, auction id).
func (q *q8Oracle) owed() map[string]uint64 {
	owed := make(map[string]uint64)
	window := nexmark.Q8Window.Microseconds()
	for _, a := range q.auctions {
		for _, p := range q.persons[a.seller] {
			if d := a.time - p.time; d >= -window && d <= window {
				owed[q8Cell(a.seller, p.name, a.id)]++
			}
		}
	}
	return owed
}

// q8Cell spells a pair the way the query delivers it: key u64 person
// id, value u16-length-prefixed name then u64 auction id.
func q8Cell(person uint64, name string, auction uint64) string {
	b := u64le(person)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	return string(binary.LittleEndian.AppendUint64(b, auction))
}

func (q *q8Oracle) inputs() int {
	n := 0
	for _, c := range q.owed() {
		n += int(c)
	}
	return n
}

func (q *q8Oracle) check(o *outputs) (bool, string) {
	owed := q.owed()
	for pair, c := range o.cells {
		want, ok := owed[pair]
		if !ok {
			return false, fmt.Sprintf("q8: delivered pair %x is owed by no (person, auction) input", pair)
		}
		if c.count > want {
			return false, fmt.Sprintf("q8: pair %x delivered %d times, owed %d", pair, c.count, want)
		}
	}
	for pair, want := range owed {
		if c, ok := o.cells[pair]; !ok || c.count != want {
			return false, ""
		}
	}
	return true, ""
}

// span is one bidder's expected session: the harness spaces event
// times far inside the session gap, so all of a bidder's bids belong
// to a single session spanning [min, max].
type span struct {
	count    uint64
	min, max int64
}

// q11Oracle checks session counts. Per-update emission keys carry the
// session's current bounds, so intermediate keys differ from the
// final one; the invariant is that no emission for a bidder ever
// exceeds that bidder's total (an over-count means a double-applied
// input), and the final session key converges to exactly the total.
type q11Oracle struct {
	bidders map[uint64]*span
}

func (q *q11Oracle) record(key, payload []byte) {
	bid, err := nexmark.DecodeBid(payload)
	if err != nil {
		return
	}
	s := q.bidders[bid.Bidder]
	if s == nil {
		s = &span{min: bid.DateTime, max: bid.DateTime}
		q.bidders[bid.Bidder] = s
	}
	if bid.DateTime < s.min {
		s.min = bid.DateTime
	}
	if bid.DateTime > s.max {
		s.max = bid.DateTime
	}
	s.count++
}

func (q *q11Oracle) inputs() int {
	n := 0
	for _, s := range q.bidders {
		n += int(s.count)
	}
	return n
}

func (q *q11Oracle) check(o *outputs) (bool, string) {
	for key, c := range o.cells {
		_, _, kb, err := impeller.SplitWindowKey([]byte(key))
		if err != nil || len(kb) != 8 {
			return false, fmt.Sprintf("q11: malformed session key %x", key)
		}
		bidder := binary.LittleEndian.Uint64(kb)
		s, ok := q.bidders[bidder]
		if !ok {
			return false, fmt.Sprintf("q11: session output for unknown bidder %d", bidder)
		}
		if n := nexmark.CountValue(c.last); n > s.count {
			return false, fmt.Sprintf("q11: bidder %d counted %d bids, only %d sent", bidder, n, s.count)
		}
	}
	gap := nexmark.Q11Gap.Microseconds()
	for bidder, s := range q.bidders {
		final := impeller.WindowKey(s.min, s.max+gap, u64le(bidder))
		c, ok := o.cells[string(final)]
		if !ok || nexmark.CountValue(c.last) != s.count {
			return false, ""
		}
	}
	return true, ""
}

type q12Key struct {
	bidder uint64
	start  int64
}

// q12Oracle checks tumbling-window counts: per (bidder, window), the
// last delivered value must converge to exactly the number of bids
// that bidder placed inside the window, and no emission may exceed it.
type q12Oracle struct {
	expect map[q12Key]uint64
}

func (q *q12Oracle) record(key, payload []byte) {
	bid, err := nexmark.DecodeBid(payload)
	if err != nil {
		return
	}
	size := nexmark.Q12Window.Size.Microseconds()
	q.expect[q12Key{bid.Bidder, (bid.DateTime / size) * size}]++
}

func (q *q12Oracle) inputs() int {
	n := 0
	for _, c := range q.expect {
		n += int(c)
	}
	return n
}

func (q *q12Oracle) check(o *outputs) (bool, string) {
	size := nexmark.Q12Window.Size.Microseconds()
	for key, c := range o.cells {
		start, end, kb, err := impeller.SplitWindowKey([]byte(key))
		if err != nil || len(kb) != 8 || end != start+size {
			return false, fmt.Sprintf("q12: malformed window key %x", key)
		}
		want, ok := q.expect[q12Key{binary.LittleEndian.Uint64(kb), start}]
		if !ok {
			return false, fmt.Sprintf("q12: output for window %d with no input", start)
		}
		if n := nexmark.CountValue(c.last); n > want {
			return false, fmt.Sprintf("q12: window %d counted %d bids, only %d sent", start, n, want)
		}
	}
	for k, want := range q.expect {
		key := impeller.WindowKey(k.start, k.start+size, u64le(k.bidder))
		c, ok := o.cells[string(key)]
		if !ok || nexmark.CountValue(c.last) != want {
			return false, ""
		}
	}
	return true, ""
}
