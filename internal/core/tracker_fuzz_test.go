package core

import (
	"testing"
	"testing/quick"

	"impeller/internal/sharedlog"
)

// oracleEvent is one step of a randomly generated producer history used
// to cross-check the marker tracker against a brute-force oracle.
type oracleEvent struct {
	// IsMarker appends a marker committing all of this producer's data
	// records since its previous marker; otherwise appends a data
	// record.
	IsMarker bool
	// Producer selects one of two producers.
	Producer bool
	// Crash, on a data record, marks the producer's current instance
	// dead: a new instance starts and the pending (unmarked) records
	// can never be committed.
	Crash bool
}

// TestPropertyMarkerTrackerMatchesOracle replays random histories of
// interleaved data records, markers, and crashes, and verifies that the
// tracker's final classification of every data record matches ground
// truth: committed iff some marker of its producer covered it.
func TestPropertyMarkerTrackerMatchesOracle(t *testing.T) {
	myTag := DataTag("X", 0)
	check := func(events []oracleEvent) bool {
		tr := newMarkerTracker(myTag)
		type rec struct {
			lsn       LSN
			producer  TaskID
			instance  uint64
			committed bool // oracle's verdict
		}
		var records []rec
		instance := map[TaskID]uint64{"p0": 1, "p1": 1}
		// pending data records per producer awaiting a marker.
		pending := map[TaskID][]int{}
		lsn := LSN(0)

		for _, ev := range events {
			prod := TaskID("p0")
			if ev.Producer {
				prod = "p1"
			}
			if ev.IsMarker {
				m := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN}
				if idxs := pending[prod]; len(idxs) > 0 {
					first := records[idxs[0]].lsn
					m.OutFirst = map[sharedlog.Tag]sharedlog.LSN{myTag: first}
					for _, i := range idxs {
						records[i].committed = true
					}
					pending[prod] = nil
				}
				b := &Batch{Kind: KindMarker, Producer: prod, Instance: instance[prod], Control: m.Encode()}
				if err := tr.observeControl(b, lsn); err != nil {
					return false
				}
				lsn++
				continue
			}
			records = append(records, rec{lsn: lsn, producer: prod, instance: instance[prod]})
			pending[prod] = append(pending[prod], len(records)-1)
			lsn++
			if ev.Crash {
				// Instance dies with unmarked records; replacement
				// writes an empty marker (its first commit), which
				// resolves the orphans as uncommitted.
				instance[prod]++
				pending[prod] = nil
				b := &Batch{
					Kind: KindMarker, Producer: prod, Instance: instance[prod],
					Control: (&ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN}).Encode(),
				}
				if err := tr.observeControl(b, lsn); err != nil {
					return false
				}
				lsn++
			}
		}
		// Final flush: each live producer writes one more marker so no
		// record is left genuinely unknown.
		for _, prod := range []TaskID{"p0", "p1"} {
			m := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN}
			if idxs := pending[prod]; len(idxs) > 0 {
				m.OutFirst = map[sharedlog.Tag]sharedlog.LSN{myTag: records[idxs[0]].lsn}
				for _, i := range idxs {
					records[i].committed = true
				}
			}
			b := &Batch{Kind: KindMarker, Producer: prod, Instance: instance[prod], Control: m.Encode()}
			if err := tr.observeControl(b, lsn); err != nil {
				return false
			}
			lsn++
		}

		for _, r := range records {
			got := tr.classify(&Batch{Kind: KindData, Producer: r.producer, Instance: r.instance}, r.lsn)
			want := classUncommitted
			if r.committed {
				want = classCommitted
			}
			if got != want {
				t.Logf("record lsn=%d producer=%s instance=%d: got %v want %v",
					r.lsn, r.producer, r.instance, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTxnTrackerMatchesOracle does the same for the transaction
// tracker: epochs resolve to their commit/abort verdicts.
func TestPropertyTxnTrackerMatchesOracle(t *testing.T) {
	type txnEvent struct {
		Producer bool
		Commit   bool // else abort
	}
	check := func(events []txnEvent) bool {
		tr := newTxnTracker()
		type txn struct {
			producer TaskID
			epoch    uint64
			commit   bool
		}
		var txns []txn
		epochs := map[TaskID]uint64{}
		for _, ev := range events {
			prod := TaskID("p0")
			if ev.Producer {
				prod = "p1"
			}
			epochs[prod]++
			e := epochs[prod]
			txns = append(txns, txn{prod, e, ev.Commit})
			kind := KindTxnAbort
			if ev.Commit {
				kind = KindTxnCommit
			}
			if err := tr.observeControl(&Batch{Kind: kind, Producer: prod, Instance: 1, Epoch: e}, 0); err != nil {
				return false
			}
		}
		for _, x := range txns {
			got := tr.classify("", &Batch{Kind: KindData, Producer: x.producer, Instance: 1, Epoch: x.epoch}, 0)
			want := classUncommitted
			if x.commit {
				want = classCommitted
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
