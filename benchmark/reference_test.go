package main

import (
	"encoding/binary"
	"testing"

	"impeller"
)

// output is one record as the consumer would apply it.
type output struct{ key, value []byte }

// correctOutputs derives query q's outputs from the input the slow way,
// in input order.
func correctOutputs(t *testing.T, q int, in *input) []output {
	t.Helper()
	var outs []output
	switch q {
	case 1:
		for i := 0; i < in.n; i++ {
			if isBid(in.payload(i)) {
				v, err := q1Convert(in.payload(i))
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, output{in.key(i), v})
			}
		}
	case 12:
		counts := make(map[q12Key]uint64)
		for i := 0; i < in.n; i++ {
			if !isBid(in.payload(i)) {
				continue
			}
			bidder, err := bidderOf(in.payload(i))
			if err != nil {
				t.Fatal(err)
			}
			et := in.eventTime(i)
			start := et - et%q12WindowMicros
			counts[q12Key{start, bidder}]++
			outs = append(outs, output{
				impeller.WindowKey(start, start+q12WindowMicros, binary.LittleEndian.AppendUint64(nil, bidder)),
				binary.LittleEndian.AppendUint64(nil, counts[q12Key{start, bidder}]),
			})
		}
	case 8:
		q8Pairs(in, in.n, func(auction uint64, p q8Person, _ int) {
			v := binary.LittleEndian.AppendUint16(nil, uint16(len(p.name)))
			v = append(v, p.name...)
			outs = append(outs, output{
				binary.LittleEndian.AppendUint64(nil, p.id),
				binary.LittleEndian.AppendUint64(v, auction),
			})
		})
	}
	if len(outs) < 10 {
		t.Fatalf("query %d: only %d outputs from %d events", q, len(outs), in.n)
	}
	return outs
}

func check(q int, in *input, outs []output) verdict {
	ref := newReference(q, in, 1)
	for _, o := range outs {
		ref.observe(0, o.key, o.value)
	}
	return ref.verify(in, in.n)
}

func TestReferencesCatchEveryKindOfFailure(t *testing.T) {
	for _, q := range []int{1, 12, 8} {
		in := newInput(7, q, 20_000, 4000)
		outs := correctOutputs(t, q, in)
		if got := in.outputsBefore[in.n]; int(got) != len(outs) {
			t.Fatalf("q%d: input owes %d outputs, the slow derivation made %d", q, got, len(outs))
		}
		if v := check(q, in, outs); v.failed() != 0 || v.expected != uint64(len(outs)) {
			t.Fatalf("q%d: correct outputs judged %+v", q, v)
		}

		mid := len(outs) / 2
		dup := append(append([]output(nil), outs...), outs[mid])
		if v := check(q, in, dup); v.duplicated == 0 {
			t.Errorf("q%d: duplicate not caught: %+v", q, v)
		}

		missing := append(append([]output(nil), outs[:mid]...), outs[mid+1:]...)
		if v := check(q, in, missing); v.missing == 0 {
			t.Errorf("q%d: missing output not caught: %+v", q, v)
		}

		wrong := append([]output(nil), outs...)
		// The last output under a key decides Q12's value check, so
		// corrupt the final one; any will do for the others.
		bad := append([]byte(nil), wrong[len(wrong)-1].value...)
		bad[len(bad)-1] ^= 0x40
		wrong[len(wrong)-1].value = bad
		if v := check(q, in, wrong); v.wrong == 0 {
			t.Errorf("q%d: wrong value not caught: %+v", q, v)
		}

		// Outputs owed only by events that were never sent are wrong.
		ref := newReference(q, in, 1)
		for _, o := range outs {
			ref.observe(0, o.key, o.value)
		}
		if v := ref.verify(in, in.n/2); v.failed() == 0 {
			t.Errorf("q%d: outputs of unsent events not caught: %+v", q, v)
		}
	}
}

func TestQ1ReferenceRejectsNonBid(t *testing.T) {
	in := newInput(7, 1, 20_000, 4000)
	outs := correctOutputs(t, 1, in)
	for i := 0; i < in.n; i++ {
		if !isBid(in.payload(i)) {
			outs = append(outs, output{in.key(i), in.payload(i)})
			break
		}
	}
	if v := check(1, in, outs); v.wrong != 1 {
		t.Fatalf("non-bid output judged %+v", v)
	}
}
