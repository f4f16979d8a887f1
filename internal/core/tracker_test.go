package core

import (
	"testing"

	"impeller/internal/sharedlog"
)

func marker(producer TaskID, instance uint64, outFirst map[sharedlog.Tag]sharedlog.LSN) *Batch {
	m := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN, OutFirst: outFirst}
	return &Batch{Kind: KindMarker, Producer: producer, Instance: instance, Control: m.Encode()}
}

func data(producer TaskID, instance uint64) *Batch {
	return &Batch{Kind: KindData, Producer: producer, Instance: instance}
}

// TestMarkerTrackerPaperFigure5 reproduces the exact scenario of the
// paper's Figure 5: the task has buffered records at LSNs 5..8 and
// processes Task 1a's progress marker committing range [6,8].
func TestMarkerTrackerPaperFigure5(t *testing.T) {
	myTag := DataTag("X", 0)
	tr := newMarkerTracker(myTag)

	// Marker from Task 1a at LSN 9 committing output range [6, 9].
	// (The paper's committed range for 1a is [6,8]; with shrunk markers
	// the upper bound is the marker's own LSN.)
	if err := tr.observeControl(marker("1a", 1, map[sharedlog.Tag]sharedlog.LSN{myTag: 6}), 9); err != nil {
		t.Fatal(err)
	}

	// Case 1: LSN 5 from Task 1a is before the earliest committed range
	// — uncommitted, discard.
	if c := tr.classify(data("1a", 1), 5); c != classUncommitted {
		t.Fatalf("lsn 5 = %v, want uncommitted", c)
	}
	// Case 2: LSN 6 within the committed range — process.
	if c := tr.classify(data("1a", 1), 6); c != classCommitted {
		t.Fatalf("lsn 6 = %v, want committed", c)
	}
	if c := tr.classify(data("1a", 1), 8); c != classCommitted {
		t.Fatalf("lsn 8 = %v, want committed", c)
	}
	// Case 3: LSN 7 is from Task 1b, which has not committed anything —
	// unknown, keep buffering.
	if c := tr.classify(data("1b", 1), 7); c != classUnknown {
		t.Fatalf("1b lsn 7 = %v, want unknown", c)
	}
	// A record from 1a beyond the marker is unknown too.
	if c := tr.classify(data("1a", 1), 12); c != classUnknown {
		t.Fatalf("lsn 12 = %v, want unknown", c)
	}
}

func TestMarkerTrackerSourceAlwaysCommitted(t *testing.T) {
	tr := newMarkerTracker(DataTag("in", 0))
	b := &Batch{Kind: KindSource, Producer: "ingress/0", Instance: 1}
	if c := tr.classify(b, 0); c != classCommitted {
		t.Fatalf("source = %v, want committed", c)
	}
}

func TestMarkerTrackerMultipleRanges(t *testing.T) {
	myTag := DataTag("X", 1)
	tr := newMarkerTracker(myTag)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tr.observeControl(marker("p", 1, map[sharedlog.Tag]sharedlog.LSN{myTag: 2}), 4))
	must(tr.observeControl(marker("p", 1, map[sharedlog.Tag]sharedlog.LSN{myTag: 7}), 9))
	cases := []struct {
		lsn  sharedlog.LSN
		want classification
	}{
		{1, classUncommitted}, // before first range
		{2, classCommitted},
		{4, classCommitted},
		{5, classUncommitted}, // gap between ranges
		{6, classUncommitted},
		{7, classCommitted},
		{9, classCommitted},
		{10, classUnknown},
	}
	for _, c := range cases {
		if got := tr.classify(data("p", 1), c.lsn); got != c.want {
			t.Fatalf("lsn %d = %v, want %v", c.lsn, got, c.want)
		}
	}
}

func TestMarkerTrackerMarkerWithoutMyTagAdvancesTop(t *testing.T) {
	myTag := DataTag("X", 0)
	tr := newMarkerTracker(myTag)
	// Producer appended data at LSN 3 to us, then crashed before its
	// marker. Its replacement writes a marker (LSN 10) with no output
	// for our substream — our buffered record must become uncommitted,
	// not hang as unknown forever.
	if c := tr.classify(data("p", 1), 3); c != classUnknown {
		t.Fatalf("before marker = %v, want unknown", c)
	}
	if err := tr.observeControl(marker("p", 2, nil), 10); err != nil {
		t.Fatal(err)
	}
	if c := tr.classify(data("p", 1), 3); c != classUncommitted {
		t.Fatalf("after marker = %v, want uncommitted", c)
	}
}

func TestMarkerTrackerZombieInstanceFenced(t *testing.T) {
	myTag := DataTag("X", 0)
	tr := newMarkerTracker(myTag)
	// New instance (2) commits a range; zombie instance (1) data at a
	// higher LSN can never commit (paper §3.4: consumers detect and
	// discard zombie inputs when they see a higher instance number).
	if err := tr.observeControl(marker("p", 2, map[sharedlog.Tag]sharedlog.LSN{myTag: 5}), 8); err != nil {
		t.Fatal(err)
	}
	if c := tr.classify(data("p", 1), 12); c != classUncommitted {
		t.Fatalf("zombie data = %v, want uncommitted", c)
	}
	// Data from the live instance beyond the marker stays unknown.
	if c := tr.classify(data("p", 2), 12); c != classUnknown {
		t.Fatalf("live data = %v, want unknown", c)
	}
}

func TestMarkerTrackerIgnoresForeignControl(t *testing.T) {
	tr := newMarkerTracker(DataTag("X", 0))
	if err := tr.observeControl(&Batch{Kind: KindTxnCommit, Producer: "p", Epoch: 1}, 5); err != nil {
		t.Fatal(err)
	}
	if c := tr.classify(data("p", 1), 3); c != classUnknown {
		t.Fatalf("after foreign control = %v, want unknown", c)
	}
}

func TestTxnTrackerLifecycle(t *testing.T) {
	tr := newTxnTracker()
	d := func(epoch uint64) *Batch {
		return &Batch{Kind: KindData, Producer: "p", Instance: 1, Epoch: epoch}
	}
	// Non-transactional (epoch 0) commits immediately.
	if c := tr.classify("", &Batch{Kind: KindData, Producer: "x", Epoch: 0}, 1); c != classCommitted {
		t.Fatalf("epoch 0 = %v", c)
	}
	// Open transaction: unknown.
	if c := tr.classify("", d(1), 5); c != classUnknown {
		t.Fatalf("open txn = %v", c)
	}
	// Commit epoch 1.
	if err := tr.observeControl(&Batch{Kind: KindTxnCommit, Producer: "p", Instance: 1, Epoch: 1}, 6); err != nil {
		t.Fatal(err)
	}
	if c := tr.classify("", d(1), 5); c != classCommitted {
		t.Fatalf("committed txn = %v", c)
	}
	if c := tr.classify("", d(2), 7); c != classUnknown {
		t.Fatalf("next txn = %v", c)
	}
	// Abort epoch 2.
	if err := tr.observeControl(&Batch{Kind: KindTxnAbort, Producer: "p", Instance: 1, Epoch: 2}, 8); err != nil {
		t.Fatal(err)
	}
	if c := tr.classify("", d(2), 7); c != classUncommitted {
		t.Fatalf("aborted txn = %v", c)
	}
	// Epoch 3 commits; earlier epochs of same instance stay resolved.
	if err := tr.observeControl(&Batch{Kind: KindTxnCommit, Producer: "p", Instance: 1, Epoch: 3}, 9); err != nil {
		t.Fatal(err)
	}
	if c := tr.classify("", d(3), 9); c != classCommitted {
		t.Fatalf("epoch 3 = %v", c)
	}
	if c := tr.classify("", d(2), 7); c != classUncommitted {
		t.Fatalf("aborted epoch after later commit = %v", c)
	}
}

func TestTxnTrackerFencedInstance(t *testing.T) {
	tr := newTxnTracker()
	// Instance 1 opens epoch 5, then instance 2 appears and commits.
	if err := tr.observeControl(&Batch{Kind: KindTxnCommit, Producer: "p", Instance: 2, Epoch: 1}, 10); err != nil {
		t.Fatal(err)
	}
	old := &Batch{Kind: KindData, Producer: "p", Instance: 1, Epoch: 5}
	if c := tr.classify("", old, 3); c != classUncommitted {
		t.Fatalf("fenced instance data = %v, want uncommitted", c)
	}
	// But instance 1's previously committed epochs remain committed.
	if err := tr.observeControl(&Batch{Kind: KindTxnCommit, Producer: "p", Instance: 1, Epoch: 4}, 2); err != nil {
		t.Fatal(err)
	}
	oldCommitted := &Batch{Kind: KindData, Producer: "p", Instance: 1, Epoch: 4}
	if c := tr.classify("", oldCommitted, 1); c != classCommitted {
		t.Fatalf("old committed epoch = %v, want committed", c)
	}
}

func TestOpenTrackerCommitsEverything(t *testing.T) {
	tr := openTracker{}
	if c := tr.classify("", data("p", 1), 100); c != classCommitted {
		t.Fatalf("open tracker = %v", c)
	}
}

func TestMultiTagTrackerRoutesByTag(t *testing.T) {
	tagA, tagB := DataTag("A", 0), DataTag("B", 0)
	mt := newMultiTagMarkerTracker([]sharedlog.Tag{tagA, tagB})
	// One marker commits different ranges on the two inputs of a join.
	mk := marker("p", 1, map[sharedlog.Tag]sharedlog.LSN{tagA: 5, tagB: 8})
	if err := mt.observeControl(mk, 10); err != nil {
		t.Fatal(err)
	}
	if c := mt.classify(tagA, data("p", 1), 6); c != classCommitted {
		t.Fatalf("tagA lsn6 = %v", c)
	}
	if c := mt.classify(tagB, data("p", 1), 6); c != classUncommitted {
		t.Fatalf("tagB lsn6 = %v (range starts at 8)", c)
	}
	if c := mt.classify(tagB, data("p", 1), 9); c != classCommitted {
		t.Fatalf("tagB lsn9 = %v", c)
	}
}

func TestMarkerTrackerRejectsCorruptRanges(t *testing.T) {
	myTag := DataTag("X", 0)
	tr := newMarkerTracker(myTag)
	// Inverted range: first > marker LSN.
	if err := tr.observeControl(marker("p", 1, map[sharedlog.Tag]sharedlog.LSN{myTag: 20}), 10); err == nil {
		t.Fatal("inverted range accepted")
	}
	// Overlapping range: a second marker whose range dips below the
	// previous committed top.
	tr = newMarkerTracker(myTag)
	if err := tr.observeControl(marker("p", 1, map[sharedlog.Tag]sharedlog.LSN{myTag: 5}), 9); err != nil {
		t.Fatal(err)
	}
	if err := tr.observeControl(marker("p", 1, map[sharedlog.Tag]sharedlog.LSN{myTag: 7}), 12); err == nil {
		t.Fatal("overlapping range accepted")
	}
}
