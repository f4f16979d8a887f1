package sharedlog

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestReadNextAnyPicksEarliest(t *testing.T) {
	l := openTest(t)
	mustAppend(t, l, "other", "z")
	b := mustAppend(t, l, "b-first", "b")
	a := mustAppend(t, l, "a-later", "a")

	rec, err := scanNext(l, 0, "a", "b")
	if err != nil || rec == nil || rec.LSN != b {
		t.Fatalf("scan = %v, %v, want LSN %d", rec, err, b)
	}
	rec, err = scanNext(l, b+1, "a", "b")
	if err != nil || rec == nil || rec.LSN != a {
		t.Fatalf("scan(from) = %v, %v, want LSN %d", rec, err, a)
	}
	rec, err = scanNext(l, a+1, "a", "b")
	if err != nil || rec != nil {
		t.Fatalf("past tail = %v, %v", rec, err)
	}
}

func TestReadNextAnySingleMultiTagRecord(t *testing.T) {
	// One record carrying both tags must be returned once (the earliest
	// position is the same record for both).
	l := openTest(t)
	lsn := mustAppend(t, l, "multi", "a", "b")
	rec, err := scanNext(l, 0, "a", "b")
	if err != nil || rec == nil || rec.LSN != lsn {
		t.Fatalf("scan = %v, %v", rec, err)
	}
}

func TestReadNextAnyTrimmed(t *testing.T) {
	l := openTest(t)
	mustAppend(t, l, "x", "a")
	if err := l.Trim(1); err != nil {
		t.Fatal(err)
	}
	if _, err := scanNext(l, 0, "a"); err != ErrCursorInvalidated {
		t.Fatalf("err = %v, want ErrCursorInvalidated", err)
	}
}

func TestReadNextAnyBlockingWakes(t *testing.T) {
	l := openTest(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make(chan *Record, 1)
	go func() {
		rec, err := scanNextBlocking(ctx, l, 0, "p", "q")
		if err != nil {
			t.Errorf("blocking read: %v", err)
		}
		got <- rec
	}()
	time.Sleep(10 * time.Millisecond)
	mustAppend(t, l, "wake", "q")
	select {
	case rec := <-got:
		if rec == nil || string(rec.Payload) != "wake" {
			t.Fatalf("got %v", rec)
		}
	case <-ctx.Done():
		t.Fatal("never woke")
	}
}

// Property: a cursor over a tag set returns exactly the union of the
// per-tag substreams, in global LSN order — drained in batches of a
// random size, so batch and readahead boundaries fall everywhere.
func TestPropertyReadNextAnyIsOrderedUnion(t *testing.T) {
	check := func(choices []uint8, batch, prefetch uint8) bool {
		l := Open(Config{})
		defer l.Close()
		watch := map[Tag]bool{"t0": true, "t1": true}
		var want []LSN
		for _, c := range choices {
			tag := Tag(fmt.Sprintf("t%d", c%4))
			lsn, err := l.Append([]Tag{tag}, []byte{c})
			if err != nil {
				return false
			}
			if watch[tag] {
				want = append(want, lsn)
			}
		}
		var got []LSN
		cur := l.OpenCursorOpts([]Tag{"t0", "t1"}, 0, CursorOptions{Prefetch: int(prefetch%8) - 1})
		for {
			recs, err := cur.NextBatch(int(batch%7) + 1)
			if err != nil {
				return false
			}
			if len(recs) == 0 {
				break
			}
			for _, rec := range recs {
				got = append(got, rec.LSN)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSequencerOrderingPreservesPerClientOrder(t *testing.T) {
	// With a nonzero ordering interval (Scalog-style cuts), appends
	// from one client must still appear in issue order because each
	// append blocks until its LSN is assigned.
	l := Open(Config{OrderingInterval: time.Millisecond})
	defer l.Close()
	var lsns []LSN
	for i := 0; i < 50; i++ {
		lsn, err := l.Append([]Tag{"seq"}, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("out of order: %v", lsns)
		}
	}
}

func TestAuxSurvivesUntilTrim(t *testing.T) {
	l := openTest(t)
	lsn := mustAppend(t, l, "m", "t")
	if err := l.SetAux(lsn, []byte("note")); err != nil {
		t.Fatal(err)
	}
	if err := l.Trim(lsn + 1); err != nil {
		t.Fatal(err)
	}
	if err := l.SetAux(lsn, []byte("late")); err != ErrTrimmed {
		t.Fatalf("SetAux on trimmed = %v, want ErrTrimmed", err)
	}
}

func TestConditionalAppendConcurrentFence(t *testing.T) {
	// A fence (meta increment) racing with conditional appends must
	// never let two instances both commit after the fence point.
	l := openTest(t)
	l.Meta().Set("inst/x", 1)
	stop := make(chan struct{})
	appended := make(chan LSN, 1024)
	go func() {
		for {
			select {
			case <-stop:
				close(appended)
				return
			default:
			}
			if lsn, err := l.ConditionalAppend([]Tag{"t"}, []byte("old"), "inst/x", 1); err == nil {
				appended <- lsn
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	l.Meta().Increment("inst/x") // fence
	fencePoint := l.Tail()
	// Give the zombie a chance to keep trying.
	time.Sleep(5 * time.Millisecond)
	close(stop)
	for lsn := range appended {
		if lsn >= fencePoint+1 {
			// Appends with LSN >= fencePoint+1 were ordered strictly
			// after we observed the fence; none may exist.
			rec, _ := l.Read(lsn)
			if rec != nil && string(rec.Payload) == "old" {
				t.Fatalf("zombie append at %d after fence %d", lsn, fencePoint)
			}
		}
	}
}

func TestOrderingModeConditionalAppendRevalidatesAtCut(t *testing.T) {
	// In Scalog-style ordering mode the conditional guard must be
	// re-validated when the LSN is assigned (the cut), not when the
	// append is enqueued: a fence landing between enqueue and cut must
	// exclude the append.
	l := Open(Config{OrderingInterval: 20 * time.Millisecond})
	defer l.Close()
	l.Meta().Set("inst/t", 1)

	errc := make(chan error, 1)
	go func() {
		_, err := l.ConditionalAppend([]Tag{"t"}, []byte("zombie"), "inst/t", 1)
		errc <- err
	}()
	// Enqueue happens quickly; fence before the first cut fires.
	time.Sleep(2 * time.Millisecond)
	l.FenceIncrement("inst/t")
	select {
	case err := <-errc:
		if err != ErrCondFailed {
			t.Fatalf("err = %v, want ErrCondFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("conditional append never resolved")
	}
	if n := l.CountTag("t"); n != 0 {
		t.Fatalf("zombie record ordered: %d records", n)
	}
}

func TestOrderingModeConditionalAppendSucceedsWhenValid(t *testing.T) {
	l := Open(Config{OrderingInterval: 5 * time.Millisecond})
	defer l.Close()
	l.Meta().Set("inst/t", 3)
	if _, err := l.ConditionalAppend([]Tag{"t"}, []byte("ok"), "inst/t", 3); err != nil {
		t.Fatalf("valid conditional append in ordering mode: %v", err)
	}
	if n := l.CountTag("t"); n != 1 {
		t.Fatalf("records = %d", n)
	}
}
