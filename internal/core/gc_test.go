package core

import (
	"testing"

	"impeller/internal/sharedlog"
)

// TestGCPinHoldsSubstream: a pinned substream keeps every record — the
// horizon stops at its first one however far the floors moved — while
// the positions below it, which hold none of its records, are released.
// A replay cursor that the trim passed therefore skips nothing by
// seeking to the horizon.
func TestGCPinHoldsSubstream(t *testing.T) {
	log := sharedlog.Open(sharedlog.Config{})
	defer log.Close()
	gc := NewGCController(log)
	pinned := []sharedlog.Tag{"C/s/g0", "C/s/g1"}
	gc.Pin("s", pinned)
	appendTo := func(tag sharedlog.Tag) LSN {
		t.Helper()
		lsn, err := log.Append([]sharedlog.Tag{tag}, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	appendTo("in")
	appendTo("in")
	first := appendTo("C/s/g1")
	appendTo("in")
	appendTo("C/s/g0")
	gc.Report("task", log.Tail())
	if h, err := gc.Collect(); err != nil || h != first {
		t.Fatalf("horizon %d (%v), want the first pinned record at %d", h, err, first)
	}

	cur := log.OpenCursor(pinned, 0)
	_, err := cur.NextBatch(8)
	if !skipTrimmed(err, cur, log) {
		t.Fatalf("cursor below the horizon: %v, want an invalidation to skip", err)
	}
	if recs, err := cur.NextBatch(8); err != nil || len(recs) != 2 || recs[0].LSN != first {
		t.Fatalf("replay after the skip: %d records from %v (%v), want both pinned records", len(recs), recs, err)
	}
}
