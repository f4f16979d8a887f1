package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"impeller/internal/sharedlog"
)

func TestBatchRoundTrip(t *testing.T) {
	in := &Batch{
		Kind:     KindData,
		Producer: "q/stage1/0",
		Instance: 3,
		Epoch:    7,
		Records: []Record{
			{Seq: 1, EventTime: 123456, Key: []byte("k1"), Value: []byte("v1")},
			{Seq: 2, EventTime: -1, Key: nil, Value: []byte{}},
			{Seq: 9, EventTime: 0, Key: []byte("k3"), Value: bytes.Repeat([]byte("x"), 1000)},
		},
	}
	out, err := DecodeBatch(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Kind != in.Kind || out.Producer != in.Producer || out.Instance != in.Instance || out.Epoch != in.Epoch {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Records) != 3 {
		t.Fatalf("records = %d", len(out.Records))
	}
	for i := range in.Records {
		if out.Records[i].Seq != in.Records[i].Seq ||
			out.Records[i].EventTime != in.Records[i].EventTime ||
			!bytes.Equal(out.Records[i].Key, in.Records[i].Key) ||
			!bytes.Equal(out.Records[i].Value, in.Records[i].Value) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, out.Records[i], in.Records[i])
		}
	}
}

// TestDecodedViewAppendIsSafe: decoded fields are views of the encoded
// buffer capped at their own length, so an append on one reallocates
// rather than overwriting the field after it or the log's bytes.
func TestDecodedViewAppendIsSafe(t *testing.T) {
	enc := (&Batch{Kind: KindData, Producer: "p", Records: []Record{
		{Seq: 1, Key: []byte("key"), Value: []byte("value")},
	}}).Encode()
	src := append([]byte(nil), enc...)
	out, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	r := &out.Records[0]
	if cap(r.Key) != len(r.Key) {
		t.Fatalf("decoded key has cap %d > len %d: an append would write into the log", cap(r.Key), len(r.Key))
	}
	grown := append(r.Key, "XXXXXXXXXXXX"...)
	if string(grown) != "keyXXXXXXXXXXXX" || string(r.Key) != "key" {
		t.Fatalf("append on a view: got %q, view now %q", grown, r.Key)
	}
	if string(r.Value) != "value" {
		t.Fatalf("append on Records[0].Key overwrote Records[0].Value: %q", r.Value)
	}
	if !bytes.Equal(enc, src) {
		t.Fatal("append on a decoded view modified the source buffer")
	}
}

// TestDecodeProducerConcurrent: every reader decodes through the one
// producer intern table; concurrent first sightings of many ids must
// each come back spelled right (run under -race by `make race`).
func TestDecodeProducerConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := TaskID(fmt.Sprintf("intern-test/%d/%d", i%50, g%2))
				out, err := DecodeBatch((&Batch{Kind: KindData, Producer: want}).Encode())
				if err != nil {
					t.Error(err)
					return
				}
				if out.Producer != want {
					t.Errorf("decoded producer %q, want %q", out.Producer, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestBatchControlRoundTrip(t *testing.T) {
	in := &Batch{Kind: KindMarker, Producer: "t", Instance: 1, Control: []byte("ctrl")}
	out, err := DecodeBatch(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Control) != "ctrl" || len(out.Records) != 0 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                        // kind 0 invalid
		{200, 1, 2, 3},             // unknown kind
		bytes.Repeat([]byte{1}, 5), // truncated header
	}
	for i, c := range cases {
		if _, err := DecodeBatch(c); err == nil {
			t.Fatalf("case %d: garbage decoded", i)
		}
	}
	// Truncated valid prefix.
	full := (&Batch{Kind: KindData, Producer: "p", Records: []Record{{Seq: 1, Key: []byte("k"), Value: []byte("v")}}}).Encode()
	for cut := 1; cut < len(full); cut++ {
		if _, err := DecodeBatch(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// Trailing junk.
	if _, err := DecodeBatch(append(full, 0)); err == nil {
		t.Fatal("trailing junk decoded")
	}
}

func TestPropertyBatchRoundTrip(t *testing.T) {
	check := func(producer string, instance, epoch uint64, seqs []uint64, keys [][]byte) bool {
		if len(producer) > 1000 {
			producer = producer[:1000]
		}
		b := &Batch{Kind: KindData, Producer: TaskID(producer), Instance: instance, Epoch: epoch}
		for i, s := range seqs {
			var key []byte
			if i < len(keys) {
				key = keys[i]
			}
			b.Records = append(b.Records, Record{Seq: s, EventTime: int64(s) - 5, Key: key, Value: key})
		}
		out, err := DecodeBatch(b.Encode())
		if err != nil {
			return false
		}
		if out.Producer != b.Producer || out.Instance != b.Instance || out.Epoch != b.Epoch {
			return false
		}
		if len(out.Records) != len(b.Records) {
			return false
		}
		for i := range b.Records {
			if out.Records[i].Seq != b.Records[i].Seq ||
				out.Records[i].EventTime != b.Records[i].EventTime ||
				!bytes.Equal(out.Records[i].Key, b.Records[i].Key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindSource; k <= kindMax; k++ {
		if s := k.String(); s == "" || s[0] == 'k' && s != "kind(0)" {
			// every known kind has a proper name
			if len(s) > 5 && s[:5] == "kind(" {
				t.Fatalf("kind %d has no name", k)
			}
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatalf("unknown kind string = %q", Kind(99).String())
	}
}

func TestIsControl(t *testing.T) {
	want := map[Kind]bool{
		KindSource: false, KindData: false, KindChange: false,
		KindMarker: true, KindTxnCommit: true, KindTxnAbort: true, KindBarrier: true,
		KindTxnLog: false, KindTxnOffsets: false,
	}
	for k, w := range want {
		if k.isControl() != w {
			t.Fatalf("%v.isControl() = %v, want %v", k, k.isControl(), w)
		}
	}
}

func TestMarkerRoundTrip(t *testing.T) {
	in := &ProgressMarker{
		InputEnd:        42,
		ChangeFirst:     17,
		SeqEnd:          999,
		CheckpointEpoch: 3,
		OutFirst: map[sharedlog.Tag]sharedlog.LSN{
			DataTag("X", 0): 30,
			DataTag("X", 1): 31,
			DataTag("Y", 0): 35,
		},
	}
	out, err := DecodeMarker(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestMarkerEmptyFields(t *testing.T) {
	in := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN}
	out, err := DecodeMarker(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.InputEnd != NoLSN || out.ChangeFirst != NoLSN || out.OutFirst != nil {
		t.Fatalf("decoded %+v", out)
	}
}

func TestMarkerEncodingDeterministic(t *testing.T) {
	m := &ProgressMarker{OutFirst: map[sharedlog.Tag]sharedlog.LSN{"b": 2, "a": 1, "c": 3}}
	first := m.Encode()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(first, m.Encode()) {
			t.Fatal("marker encoding depends on map iteration order")
		}
	}
}

func TestMarkerDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeMarker(nil); err == nil {
		t.Fatal("nil decoded")
	}
	full := (&ProgressMarker{OutFirst: map[sharedlog.Tag]sharedlog.LSN{"tag": 5}}).Encode()
	for cut := 1; cut < len(full); cut++ {
		if _, err := DecodeMarker(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

func TestMarkerShrinkingSavesBytes(t *testing.T) {
	// §3.5: the shrunk marker drops one LSN per range. With three
	// output substreams that is 8*(1+3+1) = 40 bytes saved.
	m := &ProgressMarker{
		InputEnd:    100,
		ChangeFirst: 90,
		OutFirst:    map[sharedlog.Tag]sharedlog.LSN{"a": 1, "b": 2, "c": 3},
	}
	shrunk := len(m.Encode())
	if m.UnshrunkSize()-shrunk != 8*(1+3+1) {
		t.Fatalf("unshrunk-shrunk = %d, want 40", m.UnshrunkSize()-shrunk)
	}
}

func TestPropertyMarkerRoundTrip(t *testing.T) {
	check := func(inputEnd, changeFirst, seqEnd uint64, tags []uint8, firsts []uint64) bool {
		m := &ProgressMarker{
			InputEnd:    sharedlog.LSN(inputEnd),
			ChangeFirst: sharedlog.LSN(changeFirst),
			SeqEnd:      seqEnd,
		}
		if len(tags) > 0 {
			m.OutFirst = make(map[sharedlog.Tag]sharedlog.LSN)
			for i, tg := range tags {
				var f uint64
				if i < len(firsts) {
					f = firsts[i]
				}
				m.OutFirst[DataTag(StreamID(string(rune('A'+tg%26))), int(tg))] = sharedlog.LSN(f)
			}
		}
		out, err := DecodeMarker(m.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, out)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTagConstruction(t *testing.T) {
	if DataTag("X", 2) != "d/X/2" {
		t.Fatalf("DataTag = %s", DataTag("X", 2))
	}
	if TaskLogTag("s1/0") != "T/s1/0" {
		t.Fatalf("TaskLogTag = %s", TaskLogTag("s1/0"))
	}
	if ChangeLogTag("s1/0") != "C/s1/0" {
		t.Fatalf("ChangeLogTag = %s", ChangeLogTag("s1/0"))
	}
	if InstanceKey("s1/0") != "inst/s1/0" {
		t.Fatalf("InstanceKey = %s", InstanceKey("s1/0"))
	}
}

func TestPartitionStableAndBounded(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		for _, key := range []string{"", "a", "hello", "Zylberjberg"} {
			p1 := Partition([]byte(key), n)
			p2 := Partition([]byte(key), n)
			if p1 != p2 {
				t.Fatalf("unstable partition for %q", key)
			}
			if p1 < 0 || p1 >= n {
				t.Fatalf("partition %d out of [0,%d)", p1, n)
			}
		}
	}
	if Partition([]byte("anything"), 1) != 0 {
		t.Fatal("n=1 must map to 0")
	}
}

func TestPartitionSpreads(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[Partition([]byte{byte(i), byte(i >> 8)}, 8)]++
	}
	for i, c := range counts {
		if c < 500 || c > 1800 {
			t.Fatalf("partition %d count %d badly skewed", i, c)
		}
	}
}
