package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeCtx is a minimal ProcContext for operator unit tests.
type fakeCtx struct {
	store *StateStore
}

func newFakeCtx() *fakeCtx            { return &fakeCtx{store: NewStateStore(nil)} }
func (f *fakeCtx) Store() *StateStore { return f.store }
func (f *fakeCtx) TaskID() TaskID     { return "test/0" }
func (f *fakeCtx) Substream() int     { return 0 }
func (f *fakeCtx) Charge(int)         {}

type emitted struct {
	out int
	d   Datum
}

// run feeds records through a processor and collects emissions.
func runOp(t *testing.T, p Processor, inputs []struct {
	port int
	d    Datum
}) []emitted {
	t.Helper()
	ctx := newFakeCtx()
	if err := p.Open(ctx); err != nil {
		t.Fatalf("Open: %v", err)
	}
	var out []emitted
	emit := func(o int, d Datum) { out = append(out, emitted{o, d}) }
	for _, in := range inputs {
		if err := p.Process(in.port, in.d, emit); err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
	return out
}

func d(key, value string, et int64) Datum {
	return Datum{Key: []byte(key), Value: []byte(value), EventTime: et}
}

func in(port int, dd Datum) struct {
	port int
	d    Datum
} {
	return struct {
		port int
		d    Datum
	}{port, dd}
}

func TestMapTransformsAndDrops(t *testing.T) {
	p := Map(func(x Datum) *Datum {
		if string(x.Value) == "drop" {
			return nil
		}
		x.Value = append(x.Value, '!')
		return &x
	})
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("k", "a", 1)), in(0, d("k", "drop", 2)), in(0, d("k", "b", 3))})
	if len(out) != 2 || string(out[0].d.Value) != "a!" || string(out[1].d.Value) != "b!" {
		t.Fatalf("out = %+v", out)
	}
}

func TestFilter(t *testing.T) {
	p := Filter(func(x Datum) bool { return len(x.Value) > 1 })
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("k", "a", 1)), in(0, d("k", "ab", 2))})
	if len(out) != 1 || string(out[0].d.Value) != "ab" {
		t.Fatalf("out = %+v", out)
	}
}

func TestFlatMap(t *testing.T) {
	p := FlatMap(func(x Datum) []Datum {
		var outs []Datum
		for _, w := range bytes.Fields(x.Value) {
			outs = append(outs, Datum{Key: w, Value: []byte("1"), EventTime: x.EventTime})
		}
		return outs
	})
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("", "hello world hello", 5))})
	if len(out) != 3 || string(out[0].d.Key) != "hello" || string(out[1].d.Key) != "world" {
		t.Fatalf("out = %+v", out)
	}
}

func TestBranchRoutesFirstMatch(t *testing.T) {
	p := Branch(
		func(x Datum) bool { return x.Value[0] == 'a' },
		func(x Datum) bool { return x.Value[0] == 'b' },
	)
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("k", "a1", 1)), in(0, d("k", "b1", 2)), in(0, d("k", "c1", 3))})
	if len(out) != 2 || out[0].out != 0 || out[1].out != 1 {
		t.Fatalf("out = %+v", out)
	}
}

func TestSelectKey(t *testing.T) {
	p := SelectKey(func(x Datum) []byte { return x.Value[:1] })
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("old", "xyz", 1))})
	if string(out[0].d.Key) != "x" {
		t.Fatalf("key = %q", out[0].d.Key)
	}
}

func TestChainComposesAndPropagatesErrors(t *testing.T) {
	p := Chain(
		Map(func(x Datum) *Datum { x.Value = append(x.Value, 'A'); return &x }),
		Filter(func(x Datum) bool { return len(x.Value) > 1 }),
		Map(func(x Datum) *Datum { x.Value = append(x.Value, 'B'); return &x }),
	)
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("k", "x", 1)), in(0, d("k", "", 2))})
	if len(out) != 1 || string(out[0].d.Value) != "xAB" {
		t.Fatalf("out = %+v", out)
	}

	boom := errors.New("boom")
	failing := Chain(
		Map(func(x Datum) *Datum { return &x }),
		ProcessorFunc(func(int, Datum, Emit) error { return boom }),
	)
	ctx := newFakeCtx()
	if err := failing.Open(ctx); err != nil {
		t.Fatal(err)
	}
	err := func() (err error) {
		defer func() { err = RecoverChainError(recover()) }()
		return failing.Process(0, d("k", "v", 1), func(int, Datum) {})
	}()
	if !errors.Is(err, boom) {
		t.Fatalf("chain error = %v, want boom", err)
	}
}

func TestStreamAggregateEmitsRunningState(t *testing.T) {
	p := Count("cnt")
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("a", "", 1)), in(0, d("b", "", 2)), in(0, d("a", "", 3))})
	if len(out) != 3 {
		t.Fatalf("out = %+v", out)
	}
	counts := func(e emitted) uint64 { return binary.LittleEndian.Uint64(e.d.Value) }
	if counts(out[0]) != 1 || counts(out[1]) != 1 || counts(out[2]) != 2 {
		t.Fatalf("counts = %d %d %d", counts(out[0]), counts(out[1]), counts(out[2]))
	}
}

func TestReduce(t *testing.T) {
	p := Reduce("max", func(_, value, acc []byte) []byte {
		if bytes.Compare(value, acc) > 0 {
			return value
		}
		return acc
	})
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("k", "b", 1)), in(0, d("k", "a", 2)), in(0, d("k", "c", 3))})
	if string(out[2].d.Value) != "c" || string(out[1].d.Value) != "b" {
		t.Fatalf("out = %+v", out)
	}
}

func TestTableAggregateRetraction(t *testing.T) {
	// Sum grouped by the value's first byte; table upserts must
	// subtract the row's previous contribution.
	sum := TableAggregator{
		Add: func(_, value, acc []byte) []byte {
			n := int64(0)
			if len(acc) == 8 {
				n = int64(binary.LittleEndian.Uint64(acc))
			}
			n += int64(value[1])
			return binary.LittleEndian.AppendUint64(nil, uint64(n))
		},
		Subtract: func(_, value, acc []byte) []byte {
			n := int64(binary.LittleEndian.Uint64(acc))
			n -= int64(value[1])
			return binary.LittleEndian.AppendUint64(nil, uint64(n))
		},
	}
	// Record key is the group ("g"); the row id lives in the value.
	p := TableAggregate("agg", func(x Datum) []byte { return x.Value[2:] }, sum)
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{
		in(0, Datum{Key: []byte("g"), Value: []byte{'g', 10, 'r', '1'}}),
		in(0, Datum{Key: []byte("g"), Value: []byte{'g', 5, 'r', '2'}}),
		// row1 updated: 10 must be retracted, 3 added => total 8.
		in(0, Datum{Key: []byte("g"), Value: []byte{'g', 3, 'r', '1'}}),
	})
	last := out[len(out)-1]
	if got := binary.LittleEndian.Uint64(last.d.Value); got != 8 {
		t.Fatalf("aggregate after retraction = %d, want 8", got)
	}
	if string(last.d.Key) != "g" {
		t.Fatalf("group key = %q", last.d.Key)
	}
}

func TestMapValues(t *testing.T) {
	p := MapValues(func(k, v []byte) []byte { return append(v, v...) })
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{in(0, d("k", "ab", 1))})
	if string(out[0].d.Value) != "abab" || string(out[0].d.Key) != "k" {
		t.Fatalf("out = %+v", out)
	}
}

func us(dur time.Duration) int64 { return dur.Microseconds() }

func TestWindowSpecAssignment(t *testing.T) {
	// Tumbling 10s: event at 25s lands in [20,30).
	w := (WindowSpec{Size: 10 * time.Second}).normalize()
	ws := w.windowsFor(us(25 * time.Second))
	if len(ws) != 1 || ws[0].Start != us(20*time.Second) || ws[0].End != us(30*time.Second) {
		t.Fatalf("tumbling windows = %+v", ws)
	}
	// Sliding 10s advance 2s: event at 25s is in starts 16,18,20,22,24.
	w = (WindowSpec{Size: 10 * time.Second, Advance: 2 * time.Second}).normalize()
	ws = w.windowsFor(us(25 * time.Second))
	if len(ws) != 5 {
		t.Fatalf("sliding window count = %d, want 5 (%+v)", len(ws), ws)
	}
	if ws[0].Start != us(16*time.Second) || ws[4].Start != us(24*time.Second) {
		t.Fatalf("sliding bounds = %+v", ws)
	}
	// Ascending order.
	for i := 1; i < len(ws); i++ {
		if ws[i].Start <= ws[i-1].Start {
			t.Fatalf("not ascending: %+v", ws)
		}
	}
	// Near zero: no negative starts.
	ws = w.windowsFor(us(1 * time.Second))
	for _, b := range ws {
		if b.Start < 0 {
			t.Fatalf("negative window start: %+v", ws)
		}
	}
}

func TestWindowKeyRoundTrip(t *testing.T) {
	k := WindowKey(100, 200, []byte("key"))
	s, e, key, err := SplitWindowKey(k)
	if err != nil || s != 100 || e != 200 || string(key) != "key" {
		t.Fatalf("split = %d %d %q %v", s, e, key, err)
	}
	if _, _, _, err := SplitWindowKey([]byte("short")); err == nil {
		t.Fatal("short window key split")
	}
}

func sumAgg(_, value, acc []byte) []byte {
	n := uint64(0)
	if len(acc) == 8 {
		n = binary.LittleEndian.Uint64(acc)
	}
	return binary.LittleEndian.AppendUint64(nil, n+uint64(value[0]))
}

func TestWindowAggregatePerUpdate(t *testing.T) {
	p := WindowAggregate("w", WindowSpec{Size: 10 * time.Second}, EmitPerUpdate, sumAgg)
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{
		in(0, Datum{Key: []byte("k"), Value: []byte{2}, EventTime: us(11 * time.Second)}),
		in(0, Datum{Key: []byte("k"), Value: []byte{3}, EventTime: us(12 * time.Second)}),
		in(0, Datum{Key: []byte("k"), Value: []byte{5}, EventTime: us(21 * time.Second)}),
	})
	if len(out) != 3 {
		t.Fatalf("emissions = %d", len(out))
	}
	// Second emission: window [10,20) accumulated 2+3.
	if got := binary.LittleEndian.Uint64(out[1].d.Value); got != 5 {
		t.Fatalf("window sum = %d, want 5", got)
	}
	s, e, key, err := SplitWindowKey(out[1].d.Key)
	if err != nil || s != us(10*time.Second) || e != us(20*time.Second) || string(key) != "k" {
		t.Fatalf("window key = %d %d %q %v", s, e, key, err)
	}
	// Third emission belongs to the next window with a fresh sum.
	if got := binary.LittleEndian.Uint64(out[2].d.Value); got != 5 {
		t.Fatalf("next window sum = %d, want 5", got)
	}
}

func TestWindowAggregateEmitFinal(t *testing.T) {
	p := WindowAggregate("w", WindowSpec{Size: 10 * time.Second}, EmitFinal, sumAgg)
	out := runOp(t, p, []struct {
		port int
		d    Datum
	}{
		in(0, Datum{Key: []byte("k"), Value: []byte{2}, EventTime: us(11 * time.Second)}),
		in(0, Datum{Key: []byte("k"), Value: []byte{3}, EventTime: us(19 * time.Second)}),
		// Watermark passes 20s: window [10,20) fires with 5.
		in(0, Datum{Key: []byte("k"), Value: []byte{7}, EventTime: us(21 * time.Second)}),
	})
	if len(out) != 1 {
		t.Fatalf("emissions = %d, want 1 (%+v)", len(out), out)
	}
	if got := binary.LittleEndian.Uint64(out[0].d.Value); got != 5 {
		t.Fatalf("final sum = %d, want 5", got)
	}
	// Late record for the fired window is dropped.
	ctx := newFakeCtx()
	p2 := WindowAggregate("w", WindowSpec{Size: 10 * time.Second}, EmitFinal, sumAgg)
	if err := p2.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var emissions int
	emit := func(int, Datum) { emissions++ }
	_ = p2.Process(0, Datum{Key: []byte("k"), Value: []byte{1}, EventTime: us(15 * time.Second)}, emit)
	_ = p2.Process(0, Datum{Key: []byte("k"), Value: []byte{1}, EventTime: us(25 * time.Second)}, emit) // fires [10,20)
	before := emissions
	_ = p2.Process(0, Datum{Key: []byte("k"), Value: []byte{9}, EventTime: us(15 * time.Second)}, emit) // late
	if emissions != before {
		t.Fatal("late record re-fired a closed window")
	}
}

func TestWindowAggregateGrace(t *testing.T) {
	p := WindowAggregate("w", WindowSpec{Size: 10 * time.Second, Grace: 5 * time.Second}, EmitFinal, sumAgg)
	ctx := newFakeCtx()
	if err := p.Open(ctx); err != nil {
		t.Fatal(err)
	}
	fired := 0
	emit := func(int, Datum) { fired++ }
	_ = p.Process(0, Datum{Key: []byte("k"), Value: []byte{1}, EventTime: us(15 * time.Second)}, emit)
	// 21s: within grace — [10,20) must NOT fire yet.
	_ = p.Process(0, Datum{Key: []byte("k"), Value: []byte{1}, EventTime: us(21 * time.Second)}, emit)
	if fired != 0 {
		t.Fatal("window fired inside grace period")
	}
	// 26s: grace expired — fires.
	_ = p.Process(0, Datum{Key: []byte("k"), Value: []byte{1}, EventTime: us(26 * time.Second)}, emit)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestStreamStreamJoinWithinWindow(t *testing.T) {
	j := StreamStreamJoin("j", 10*time.Second, func(key, l, r []byte) []byte {
		return []byte(fmt.Sprintf("%s+%s", l, r))
	})
	out := runOp(t, j, []struct {
		port int
		d    Datum
	}{
		in(0, d("k", "L1", us(10*time.Second))),
		in(1, d("k", "R1", us(15*time.Second))), // within window: join
		in(1, d("k", "R2", us(50*time.Second))), // outside window: no join
		in(0, d("other", "L2", us(15*time.Second))),
	})
	if len(out) != 1 || string(out[0].d.Value) != "L1+R1" {
		t.Fatalf("out = %+v", out)
	}
	// Joined event time is the max of the two sides.
	if out[0].d.EventTime != us(15*time.Second) {
		t.Fatalf("join event time = %d", out[0].d.EventTime)
	}
}

func TestStreamStreamJoinBothDirections(t *testing.T) {
	j := StreamStreamJoin("j", 10*time.Second, func(key, l, r []byte) []byte {
		return append(append([]byte{}, l...), r...)
	})
	// Right arrives first; left finds it later.
	out := runOp(t, j, []struct {
		port int
		d    Datum
	}{
		in(1, d("k", "R", us(10*time.Second))),
		in(0, d("k", "L", us(12*time.Second))),
	})
	if len(out) != 1 || string(out[0].d.Value) != "LR" {
		t.Fatalf("out = %+v", out)
	}
}

// TestStreamStreamJoinKeepsEqualTimeRecordsAcrossRestart: two records
// of one key and one event time, the second processed by a replacement
// instance over the recovered state (its in-memory sequence counter is
// back at zero), must both stay buffered — a later partner joins both.
// Q8 under chaos lost a pair per partner this way: the restarted join
// gave the second person record the first one's buffer key.
func TestStreamStreamJoinKeepsEqualTimeRecordsAcrossRestart(t *testing.T) {
	for name, build := range map[string]func(string, time.Duration, Joiner) Processor{
		"inner": StreamStreamJoin, "left": StreamStreamLeftJoin,
	} {
		t.Run(name, func(t *testing.T) {
			ctx := newFakeCtx()
			var out []string
			emit := func(_ int, d Datum) { out = append(out, string(d.Value)) }
			for _, left := range []string{"L1", "L2"} {
				j := build("j", 10*time.Second, func(_, l, r []byte) []byte {
					return []byte(fmt.Sprintf("%s+%s", l, r))
				})
				if err := j.Open(ctx); err != nil {
					t.Fatal(err)
				}
				if err := j.Process(0, d("k", left, us(time.Second)), emit); err != nil {
					t.Fatal(err)
				}
				if left == "L2" {
					if err := j.Process(1, d("k", "R", us(2*time.Second)), emit); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(out) != 2 || out[0] != "L1+R" || out[1] != "L2+R" {
				t.Fatalf("partner joined %v, want [L1+R L2+R]", out)
			}
		})
	}
}

func TestStreamTableJoin(t *testing.T) {
	j := StreamTableJoin("j", func(key, stream, table []byte) []byte {
		return append(append([]byte{}, stream...), table...)
	})
	out := runOp(t, j, []struct {
		port int
		d    Datum
	}{
		in(0, d("k", "S0", 1)), // no table row yet: dropped (inner join)
		in(1, d("k", "T1", 2)), // table upsert
		in(0, d("k", "S1", 3)), // joins against T1
		in(1, Datum{Key: []byte("k"), Value: nil, EventTime: 4}), // table delete
		in(0, d("k", "S2", 5)), // dropped again
	})
	if len(out) != 1 || string(out[0].d.Value) != "S1T1" {
		t.Fatalf("out = %+v", out)
	}
}

func TestTableTableJoinEmitsOnEitherUpdate(t *testing.T) {
	j := TableTableJoin("j", func(key, l, r []byte) []byte {
		return []byte(string(l) + "|" + string(r))
	})
	out := runOp(t, j, []struct {
		port int
		d    Datum
	}{
		in(0, d("k", "L1", 1)), // right missing: nothing
		in(1, d("k", "R1", 2)), // both present: L1|R1
		in(0, d("k", "L2", 3)), // left update: L2|R1
	})
	if len(out) != 2 || string(out[0].d.Value) != "L1|R1" || string(out[1].d.Value) != "L2|R1" {
		t.Fatalf("out = %+v", out)
	}
}

func TestJoinBadPort(t *testing.T) {
	j := StreamStreamJoin("j", time.Second, func(_, l, r []byte) []byte { return nil })
	ctx := newFakeCtx()
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := j.Process(2, d("k", "v", 1), func(int, Datum) {}); err == nil {
		t.Fatal("port 2 accepted")
	}
}
