package main

import (
	"fmt"
	"hash/maphash"
	"sync/atomic"
)

// A reference computes, from the pre-generated input and its due-time
// schedule alone, what a query owes its consumer, and checks what the
// consumer applied against it. observe runs inline in the consumer, once
// per applied delivery: it keeps nothing that aliases the delivery and
// does not allocate. verify runs after the run.
type reference interface {
	// observe records one applied output of the given output partition.
	// Partitions are observed concurrently, each from one goroutine.
	observe(partition int, key, value []byte)
	// verify compares what was observed with what events [0, sent) owe.
	verify(in *input, sent int) verdict
}

// verdict is the outcome of a reference check, in outputs.
type verdict struct {
	expected   uint64
	missing    uint64 // owed, never applied
	duplicated uint64 // applied more often than owed
	wrong      uint64 // applied with a wrong value, or not owed at all
}

func (v verdict) failed() uint64 { return v.missing + v.duplicated + v.wrong }

func (v *verdict) add(o verdict) {
	v.expected += o.expected
	v.missing += o.missing
	v.duplicated += o.duplicated
	v.wrong += o.wrong
}

// newReference builds query q's reference over in, for an output stream
// of the given partition count.
func newReference(q int, in *input, partitions int) reference {
	switch q {
	case 1:
		return &q1Reference{applied: make([]atomic.Uint32, in.n), sum: make([]atomic.Uint64, in.n)}
	case 12:
		r := &q12Reference{parts: make([]map[q12Key]q12Seen, partitions)}
		for p := range r.parts {
			r.parts[p] = make(map[q12Key]q12Seen)
		}
		return r
	case 8:
		r := &q8Reference{parts: make([]map[uint64]q8Seen, partitions)}
		for p := range r.parts {
			r.parts[p] = make(map[uint64]q8Seen)
		}
		return r
	}
	panic(fmt.Sprintf("no reference for query %d", q))
}

// outputsCausedBy counts, per input event, the outputs of query q that
// carry its event time: the event is the latest contributing to them.
func outputsCausedBy(q int, in *input) []uint16 {
	out := make([]uint16, in.n)
	switch q {
	case 1, 12: // one output per bid
		for i := range out {
			if isBid(in.payload(i)) {
				out[i] = 1
			}
		}
	case 8:
		q8Pairs(in, in.n, func(_ uint64, p q8Person, auctionIndex int) {
			if p.index > auctionIndex {
				auctionIndex = p.index
			}
			out[auctionIndex]++
		})
	default:
		panic(fmt.Sprintf("no reference for query %d", q))
	}
	return out
}

var hashSeed = maphash.MakeSeed()

// --- Q1: every bid exactly once under its key with price × 908/1000, no
// non-bid. ---

type q1Reference struct {
	// applied[i] counts outputs under key i; sum[i] adds up their value
	// hashes. Atomic because nothing stops a faulty system from
	// delivering one key on two partitions at once.
	applied []atomic.Uint32
	sum     []atomic.Uint64
	strays  atomic.Uint64 // outputs under a key no event has
}

func (r *q1Reference) observe(_ int, key, value []byte) {
	if len(key) != 8 {
		r.strays.Add(1)
		return
	}
	i := uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 | uint64(key[3])<<32 |
		uint64(key[4])<<24 | uint64(key[5])<<16 | uint64(key[6])<<8 | uint64(key[7])
	if i >= uint64(len(r.applied)) {
		r.strays.Add(1)
		return
	}
	r.applied[i].Add(1)
	r.sum[i].Add(maphash.Bytes(hashSeed, value))
}

func (r *q1Reference) verify(in *input, sent int) verdict {
	v := verdict{wrong: r.strays.Load()}
	for i := 0; i < in.n; i++ {
		got := uint64(r.applied[i].Load())
		p := in.payload(i)
		if i >= sent || !isBid(p) {
			v.wrong += got
			continue
		}
		v.expected++
		switch {
		case got == 0:
			v.missing++
		case got > 1:
			v.duplicated += got - 1
		default:
			want, err := q1Convert(p)
			if err != nil || r.sum[i].Load() != maphash.Bytes(hashSeed, want) {
				v.wrong++
			}
		}
	}
	return v
}

// --- Q12: per (window, bidder), the number of deliveries and the last
// value delivered both equal the number of bids. ---

type q12Key struct {
	start  int64
	bidder uint64
}

type q12Seen struct{ deliveries, last uint64 }

type q12Reference struct {
	parts     []map[q12Key]q12Seen // one per output partition
	malformed atomic.Uint64
}

func (r *q12Reference) observe(partition int, key, value []byte) {
	start, bidder, ok := splitQ12Key(key)
	if !ok || len(value) != 8 {
		r.malformed.Add(1)
		return
	}
	m := r.parts[partition]
	k := q12Key{start, bidder}
	s := m[k]
	s.deliveries++
	s.last = q12Count(value)
	m[k] = s
}

func (r *q12Reference) verify(in *input, sent int) verdict {
	want := make(map[q12Key]uint64)
	for i := 0; i < sent; i++ {
		p := in.payload(i)
		if !isBid(p) {
			continue
		}
		bidder, err := bidderOf(p)
		if err != nil {
			panic(err) // the benchmark generated this event
		}
		et := in.eventTime(i)
		want[q12Key{et - et%q12WindowMicros, bidder}]++
	}
	// A key lives on one partition; should a faulty system split it, the
	// deliveries add up and the largest value counts as the last.
	got := make(map[q12Key]q12Seen)
	for _, m := range r.parts {
		for k, s := range m {
			g := got[k]
			g.deliveries += s.deliveries
			if s.last > g.last {
				g.last = s.last
			}
			got[k] = g
		}
	}
	v := verdict{wrong: r.malformed.Load()}
	for k, n := range want {
		v.expected += n
		g := got[k]
		switch {
		case g.deliveries < n:
			v.missing += n - g.deliveries
		case g.deliveries > n:
			v.duplicated += g.deliveries - n
		case g.last != n:
			v.wrong++
		}
	}
	for k, g := range got {
		if _, owed := want[k]; !owed {
			v.wrong += g.deliveries
		}
	}
	return v
}

// --- Q8: the set of (person name, auction id) pairs whose auction's
// seller is that person and whose event times lie within Q8Window, each
// exactly once. An auction has one seller, so a pair is named by its
// auction. ---

type q8Seen struct {
	deliveries uint64
	person     uint64
	name       uint64 // hash of the delivered name
}

type q8Reference struct {
	parts     []map[uint64]q8Seen // by auction id, one per output partition
	malformed atomic.Uint64
}

type q8Person struct {
	id        uint64
	name      string
	eventTime int64
	index     int
}

// q8Pairs calls fn for every pair events [0, sent) owe.
func q8Pairs(in *input, sent int, fn func(auction uint64, p q8Person, auctionIndex int)) {
	persons := make(map[uint64]q8Person)
	type pending struct {
		id, seller uint64
		index      int
	}
	var auctions []pending
	for i := 0; i < sent; i++ {
		p := in.payload(i)
		switch {
		case isPerson(p):
			id, name, err := personOf(p)
			if err != nil {
				panic(err)
			}
			persons[id] = q8Person{id, name, in.eventTime(i), i}
		case isAuction(p):
			id, seller, err := auctionOf(p)
			if err != nil {
				panic(err)
			}
			auctions = append(auctions, pending{id, seller, i})
		}
	}
	for _, a := range auctions {
		p, ok := persons[a.seller]
		if !ok {
			continue
		}
		d := in.eventTime(a.index) - p.eventTime
		if d < 0 {
			d = -d
		}
		if d <= q8WindowMicros {
			fn(a.id, p, a.index)
		}
	}
}

func (r *q8Reference) observe(partition int, key, value []byte) {
	person, name, auction, ok := splitQ8(key, value)
	if !ok {
		r.malformed.Add(1)
		return
	}
	m := r.parts[partition]
	s := m[auction]
	s.deliveries++
	s.person = person
	s.name = maphash.Bytes(hashSeed, name)
	m[auction] = s
}

func (r *q8Reference) verify(in *input, sent int) verdict {
	got := make(map[uint64]q8Seen)
	for _, m := range r.parts {
		for a, s := range m {
			g := got[a]
			s.deliveries += g.deliveries
			got[a] = s
		}
	}
	v := verdict{wrong: r.malformed.Load()}
	owed := make(map[uint64]bool)
	q8Pairs(in, sent, func(auction uint64, p q8Person, _ int) {
		v.expected++
		owed[auction] = true
		g := got[auction]
		switch {
		case g.deliveries == 0:
			v.missing++
		case g.deliveries > 1:
			v.duplicated += g.deliveries - 1
		case g.person != p.id || g.name != maphash.String(hashSeed, p.name):
			v.wrong++
		}
	})
	for a, g := range got {
		if !owed[a] {
			v.wrong += g.deliveries
		}
	}
	return v
}
