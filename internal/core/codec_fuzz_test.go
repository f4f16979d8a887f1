package core

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

// FuzzDecodeBatch asserts the batch decoder — fed every log record,
// including those WAL recovery rebuilt from possibly corrupt frames — is
// total over arbitrary bytes, that a successful decode re-encodes to the
// input byte for byte, and that every decoded Control, Key and Value is
// a view lying inside the input with no capacity beyond its length (an
// append on it must not reach the bytes after it).
func FuzzDecodeBatch(f *testing.F) {
	data := benchBatch(3)
	data.Records[1].Key = nil
	f.Add(data.Encode())
	f.Add((&Batch{Kind: KindMarker, Producer: "q/s/0", Instance: 2, Control: []byte("marker")}).Encode())
	f.Add((&Batch{Kind: KindSource, Producer: "ingress/0"}).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))

	f.Fuzz(func(t *testing.T, in []byte) {
		b, err := DecodeBatch(in)
		if err != nil {
			if b != nil {
				t.Fatal("error with non-nil batch")
			}
			return
		}
		if !bytes.Equal(b.Encode(), in) {
			t.Fatal("decode then encode does not give the input back")
		}
		inside := func(what string, v []byte) {
			if len(v) == 0 {
				return
			}
			if cap(v) != len(v) {
				t.Fatalf("%s: cap %d > len %d", what, cap(v), len(v))
			}
			start := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(in)))
			if start < lo || start+uintptr(len(v)) > lo+uintptr(len(in)) {
				t.Fatalf("%s is not a view of the input", what)
			}
		}
		inside("control", b.Control)
		for i := range b.Records {
			inside("key", b.Records[i].Key)
			inside("value", b.Records[i].Value)
		}
	})
}

// FuzzDecodeAlignedSnapshot asserts the aligned-checkpoint decoder is
// total over arbitrary bytes — it either decodes or errors, never
// panics or over-allocates — and that a successful decode round-trips
// through the canonical encoding (maps are sorted on encode, so
// re-encoding a decoded snapshot is byte-stable).
func FuzzDecodeAlignedSnapshot(f *testing.F) {
	store := NewStateStore(nil)
	store.Put("word", []byte("7"))
	valid := (&alignedSnapshot{
		Epoch:    5,
		OutSeq:   42,
		Barriers: map[TaskID]LSN{"wc/split/0": 17, "ingress/0": 3},
		LastSeq:  map[TaskID]uint64{"wc/split/0": 9},
		State:    store.Snapshot(),
	}).encode()
	f.Add(valid)
	f.Add((&alignedSnapshot{}).encode())
	f.Add([]byte{})
	f.Add(valid[:16])
	f.Add(valid[:len(valid)-3])
	f.Add(bytes.Repeat([]byte{0xff}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeAlignedSnapshot(data)
		if err != nil {
			if s != nil {
				t.Fatal("error with non-nil snapshot")
			}
			return
		}
		enc := s.encode()
		again, err := decodeAlignedSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if again.Epoch != s.Epoch || again.OutSeq != s.OutSeq ||
			!reflect.DeepEqual(again.Barriers, s.Barriers) ||
			!reflect.DeepEqual(again.LastSeq, s.LastSeq) ||
			!bytes.Equal(again.State, s.State) {
			t.Fatal("aligned snapshot round trip not stable")
		}
		if !bytes.Equal(enc, again.encode()) {
			t.Fatal("canonical encoding not byte-stable")
		}
	})
}

// FuzzDecodeFrontier asserts the egress ack-frontier decoder is total
// and round-trips through the canonical sorted encoding — the property
// a restarted delivery sink relies on when it loads the last persisted
// frontier from the log.
func FuzzDecodeFrontier(f *testing.F) {
	valid := encodeFrontier(1234, map[ackKey]uint64{
		{0, "q1/map/0"}: 17,
		{1, "q1/map/0"}: 9,
		{0, "q1/map/1"}: 2,
	})
	f.Add(valid)
	f.Add(encodeFrontier(0, nil))
	f.Add([]byte{})
	f.Add(valid[:12])
	f.Add(valid[:len(valid)-5])
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		resume, acked, err := decodeFrontier(data)
		if err != nil {
			return
		}
		enc := encodeFrontier(resume, acked)
		resume2, acked2, err := decodeFrontier(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frontier failed: %v", err)
		}
		if resume2 != resume || !reflect.DeepEqual(acked2, acked) {
			t.Fatal("frontier round trip not stable")
		}
		if !bytes.Equal(enc, encodeFrontier(resume2, acked2)) {
			t.Fatal("canonical encoding not byte-stable")
		}
	})
}
