package sharedlog

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"impeller/internal/wal"
)

// reopen builds a fresh device holding exactly the given bytes and
// recovers a log from it — the "new process after the crash" half of
// every durability test.
func reopen(t *testing.T, cfg Config, image []byte) *Log {
	t.Helper()
	dev := wal.NewDevice()
	dev.Append(image)
	dev.Sync()
	cfg.WAL = dev
	l, err := Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

func TestDurableRoundTripRestart(t *testing.T) {
	dev := wal.NewDevice()
	l := Open(Config{WAL: dev})

	var lsns []LSN
	for i := 0; i < 20; i++ {
		lsn, err := l.Append([]Tag{Tag(fmt.Sprintf("t/%d", i%3)), "all"}, []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsns = append(lsns, lsn)
	}
	l.Meta().Set("instance/a", 7)
	l.FenceIncrement("instance/a")
	l.Meta().Set("gone", 1)
	l.Meta().Delete("gone")
	if err := l.SetAux(lsns[3], []byte("aux-3")); err != nil {
		t.Fatalf("SetAux: %v", err)
	}
	if err := l.Trim(2); err != nil {
		t.Fatalf("Trim: %v", err)
	}
	tail := l.Tail()
	l.Close()

	r := reopen(t, Config{}, dev.Bytes())
	if r.Tail() != tail {
		t.Fatalf("recovered tail %d, want %d", r.Tail(), tail)
	}
	if r.TrimHorizon() != 2 {
		t.Fatalf("recovered trim horizon %d, want 2", r.TrimHorizon())
	}
	for i := 2; i < 20; i++ {
		rec, err := r.Read(LSN(i))
		if err != nil || rec == nil {
			t.Fatalf("read %d: rec=%v err=%v", i, rec, err)
		}
		if want := fmt.Sprintf("payload-%d", i); string(rec.Payload) != want {
			t.Fatalf("lsn %d payload %q, want %q", i, rec.Payload, want)
		}
		if len(rec.Tags) != 2 || rec.Tags[1] != "all" {
			t.Fatalf("lsn %d tags %v", i, rec.Tags)
		}
	}
	if _, err := r.Read(0); err != ErrTrimmed {
		t.Fatalf("read below horizon: %v, want ErrTrimmed", err)
	}
	if rec, _ := r.Read(lsns[3]); !bytes.Equal(rec.Aux, []byte("aux-3")) {
		t.Fatalf("aux not recovered: %q", rec.Aux)
	}
	if v, ok := r.Meta().Get("instance/a"); !ok || v != 8 {
		t.Fatalf("meta instance/a = %d,%v want 8,true", v, ok)
	}
	if _, ok := r.Meta().Get("gone"); ok {
		t.Fatal("deleted meta key resurrected")
	}
	// Tag index rebuilt: selective reads see the substreams.
	rec, err := scanNext(r, r.TrimHorizon(), "t/1")
	if err != nil || rec == nil || rec.LSN != 4 {
		t.Fatalf("scan(t/1) = %v, %v; want lsn 4", rec, err)
	}
	st := r.Stats()
	if st.RecoveredRecords != 20 || st.RecoveredMetaOps != 4 || st.WALTruncations != 0 {
		t.Fatalf("recovery counters: %+v", st)
	}
	// The recovered log accepts appends continuing the order.
	lsn, err := r.Append([]Tag{"all"}, []byte("after"))
	if err != nil || lsn != tail {
		t.Fatalf("post-recovery append: lsn=%d err=%v, want %d", lsn, err, tail)
	}
}

func TestRecoverTornTail(t *testing.T) {
	dev := wal.NewDevice()
	l := Open(Config{WAL: dev})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	image := dev.Bytes()
	// A torn write: the first 9 bytes of an 11th frame reached the disk.
	torn := append(append([]byte(nil), image...), wal.AppendFrame(nil, frameCut, []byte("partial"))[:9]...)

	r := reopen(t, Config{}, torn)
	if r.Tail() != 10 {
		t.Fatalf("tail %d after torn-tail recovery, want 10", r.Tail())
	}
	st := r.Stats()
	if st.WALTruncations != 1 || st.WALTruncatedBytes != 9 || st.RecoveredRecords != 10 {
		t.Fatalf("truncation counters: truncations=%d bytes=%d records=%d",
			st.WALTruncations, st.WALTruncatedBytes, st.RecoveredRecords)
	}
	// The device was truncated to the valid prefix: appending and
	// recovering again must yield a clean log with the new record.
	if _, err := r.Append([]Tag{"t"}, []byte("post")); err != nil {
		t.Fatal(err)
	}
	r2 := reopen(t, Config{}, r.dur.dev.Bytes())
	if r2.Tail() != 11 || r2.Stats().WALTruncations != 0 {
		t.Fatalf("second recovery: tail=%d truncations=%d", r2.Tail(), r2.Stats().WALTruncations)
	}
}

func TestRecoverBitFlip(t *testing.T) {
	dev := wal.NewDevice()
	l := Open(Config{WAL: dev})
	var offsets []int // device size after each append = frame boundaries
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]Tag{"t"}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, dev.Size())
	}
	l.Close()
	// Flip one bit inside the 8th frame (silent media corruption in the
	// synced region). Recovery must keep the 7 frames before it and drop
	// the flipped frame and everything after.
	dev.FlipBit(offsets[6]+wal.HeaderSize+2, 3)

	cfg := Config{WAL: dev}
	r, err := Recover(cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer r.Close()
	if r.Tail() != 7 {
		t.Fatalf("tail %d after bit-flip recovery, want 7", r.Tail())
	}
	st := r.Stats()
	if st.WALTruncations != 1 || st.RecoveredRecords != 7 {
		t.Fatalf("counters after bit flip: truncations=%d records=%d", st.WALTruncations, st.RecoveredRecords)
	}
	for i := 0; i < 7; i++ {
		rec, err := r.Read(LSN(i))
		if err != nil || rec == nil || rec.Payload[0] != byte(i) {
			t.Fatalf("surviving record %d: %v %v", i, rec, err)
		}
	}
}

func TestRecoverTrimClampedToTail(t *testing.T) {
	// Hand-build a WAL whose trim horizon outruns its surviving records:
	// cut frames for LSNs 0..4, then a trim frame claiming horizon 10
	// (its covering cuts were lost to a crash). Recovery must clamp the
	// horizon to the rebuilt tail instead of racing the segment directory
	// past the store.
	var image []byte
	for i := 0; i < 5; i++ {
		payload := encodeCutPayload(nil, []*Record{{LSN: LSN(i), Tags: []Tag{"t"}, Payload: []byte{byte(i)}}})
		image = wal.AppendFrame(image, frameCut, payload)
	}
	var trim [8]byte
	trim[0] = 10
	image = wal.AppendFrame(image, frameTrim, trim[:])

	r := reopen(t, Config{}, image)
	if r.Tail() != 5 {
		t.Fatalf("tail %d, want 5", r.Tail())
	}
	if r.TrimHorizon() != 5 {
		t.Fatalf("horizon %d, want clamp to 5", r.TrimHorizon())
	}
	// Appends continue cleanly past the clamped horizon.
	lsn, err := r.Append([]Tag{"t"}, []byte("next"))
	if err != nil || lsn != 5 {
		t.Fatalf("append after clamp: %d, %v", lsn, err)
	}
}

func TestRecoverUnknownFrameTruncates(t *testing.T) {
	payload := encodeCutPayload(nil, []*Record{{LSN: 0, Tags: []Tag{"t"}, Payload: []byte("x")}})
	image := wal.AppendFrame(nil, frameCut, payload)
	image = wal.AppendFrame(image, 0x7f, []byte("from the future"))
	image = wal.AppendFrame(image, frameCut, encodeCutPayload(nil, []*Record{{LSN: 1, Tags: []Tag{"t"}, Payload: []byte("y")}}))

	r := reopen(t, Config{}, image)
	if r.Tail() != 1 {
		t.Fatalf("tail %d, want 1 (stop at unknown frame)", r.Tail())
	}
	if r.Stats().WALTruncations != 1 {
		t.Fatal("unknown frame did not count as a truncation")
	}
}

func TestAckAfterDurableSequencerMode(t *testing.T) {
	dev := wal.NewDevice()
	l := Open(Config{
		WAL:              dev,
		OrderingInterval: 200 * time.Microsecond,
		OrderingShards:   2,
	})
	defer l.Close()
	// The moment an append returns, its record must already be durable:
	// a power failure right now (drop all unsynced bytes) must preserve
	// it through recovery.
	for i := 0; i < 25; i++ {
		lsn, err := l.Append([]Tag{"t"}, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		// Model the crash on the device's durable prefix only.
		synced := dev.Synced()
		durable := dev.Bytes()[:synced]
		r := reopen(t, Config{}, durable)
		rec, err := r.Read(lsn)
		if err != nil || rec == nil {
			t.Fatalf("append %d (lsn %d) acked but not durable: rec=%v err=%v", i, lsn, rec, err)
		}
		r.Close()
	}
}

func TestDurableBatchAndSequencerRecovery(t *testing.T) {
	dev := wal.NewDevice()
	l := Open(Config{
		WAL:              dev,
		OrderingInterval: 200 * time.Microsecond,
		OrderingShards:   2,
		NumShards:        4,
	})
	entries := make([]AppendEntry, 8)
	for i := range entries {
		entries[i] = AppendEntry{Tags: []Tag{Tag(fmt.Sprintf("b/%d", i%2))}, Payload: []byte{byte(i)}}
	}
	res, err := l.AppendBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Tag{"b/0"}, []byte("single")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r := reopen(t, Config{NumShards: 4, OrderingInterval: 200 * time.Microsecond, OrderingShards: 2}, dev.Bytes())
	if r.Tail() != 9 {
		t.Fatalf("tail %d, want 9", r.Tail())
	}
	for _, ar := range res {
		rec, err := r.Read(ar.LSN)
		if err != nil || rec == nil {
			t.Fatalf("batched record %d lost: %v", ar.LSN, err)
		}
	}
	// Sequencer state recovered: the next append continues the order.
	lsn, err := r.Append([]Tag{"b/1"}, []byte("cont"))
	if err != nil || lsn != 9 {
		t.Fatalf("post-recovery sequencer append: %d, %v", lsn, err)
	}
}

func TestRecoverRequiresWAL(t *testing.T) {
	if _, err := Recover(Config{}); err != ErrNoWAL {
		t.Fatalf("Recover without device: %v, want ErrNoWAL", err)
	}
}

func TestRecoverEmptyDeviceIsFreshLog(t *testing.T) {
	r := reopen(t, Config{}, nil)
	if r.Tail() != 0 {
		t.Fatalf("fresh tail %d", r.Tail())
	}
	if _, err := r.Append([]Tag{"t"}, []byte("first")); err != nil {
		t.Fatal(err)
	}
}

func TestCondFailedNotPersisted(t *testing.T) {
	dev := wal.NewDevice()
	l := Open(Config{WAL: dev})
	l.Meta().Set("k", 1)
	if _, err := l.ConditionalAppend([]Tag{"t"}, []byte("no"), "k", 2); err != ErrCondFailed {
		t.Fatalf("guard should fail: %v", err)
	}
	if _, err := l.ConditionalAppend([]Tag{"t"}, []byte("yes"), "k", 1); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r := reopen(t, Config{}, dev.Bytes())
	if r.Tail() != 1 {
		t.Fatalf("tail %d, want 1 — rejected append must not be replayed", r.Tail())
	}
	rec, _ := r.Read(0)
	if string(rec.Payload) != "yes" {
		t.Fatalf("recovered %q", rec.Payload)
	}
}
