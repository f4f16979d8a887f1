package core

import (
	"encoding/binary"
	"time"
)

// Windowed aggregation (paper §3.5, "Supporting window semantics"; §4
// "stream window aggregate"). Window metadata travels in record
// payloads/keys, orthogonal to the fault-tolerance design. Windows are
// event-time based; progress is tracked with a per-task watermark (the
// maximum event time seen minus an allowed lateness), and final-mode
// windows fire when the watermark passes their end.

// WindowSpec defines a tumbling or sliding (hopping) event-time window.
type WindowSpec struct {
	// Size is the window length.
	Size time.Duration
	// Advance is the hop between window starts; Advance == Size is a
	// tumbling window (the zero value is normalized to Size).
	Advance time.Duration
	// Grace is the allowed out-of-orderness before a window finalizes.
	Grace time.Duration
}

func (w WindowSpec) normalize() WindowSpec {
	if w.Advance <= 0 {
		w.Advance = w.Size
	}
	return w
}

// windowsFor returns the [start, end) windows containing eventTime, in
// ascending start order. All times are microseconds.
func (w WindowSpec) windowsFor(eventTime int64) []windowBounds {
	size := w.Size.Microseconds()
	adv := w.Advance.Microseconds()
	if size <= 0 || adv <= 0 {
		return nil
	}
	var out []windowBounds
	// The earliest window containing t starts at the smallest multiple
	// of adv that is > t-size; the latest starts at floor(t/adv)*adv.
	last := (eventTime / adv) * adv
	for start := last; start > eventTime-size; start -= adv {
		if start < 0 {
			break
		}
		out = append(out, windowBounds{Start: start, End: start + size})
	}
	// Reverse into ascending order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

type windowBounds struct {
	Start, End int64 // microseconds, [Start, End)
}

// WindowKey prefixes a record key with its window bounds so downstream
// consumers can group by (window, key).
func WindowKey(start, end int64, key []byte) []byte {
	out := make([]byte, 16+len(key))
	binary.BigEndian.PutUint64(out, uint64(start))
	binary.BigEndian.PutUint64(out[8:], uint64(end))
	copy(out[16:], key)
	return out
}

// SplitWindowKey parses a key produced by WindowKey.
func SplitWindowKey(wkey []byte) (start, end int64, key []byte, err error) {
	if len(wkey) < 16 {
		return 0, 0, nil, ErrBadEncoding
	}
	return int64(binary.BigEndian.Uint64(wkey)),
		int64(binary.BigEndian.Uint64(wkey[8:])),
		wkey[16:], nil
}

// WindowEmit selects when a windowed aggregate emits.
type WindowEmit int

const (
	// EmitPerUpdate emits the updated aggregate on every input record,
	// Kafka Streams' default (windowed KTable changelog).
	EmitPerUpdate WindowEmit = iota
	// EmitFinal emits once per window when the watermark passes the
	// window end plus grace, then drops the window's state.
	EmitFinal
)

type windowAggregate struct {
	name string
	spec WindowSpec
	agg  Aggregator
	mode WindowEmit
	ctx  ProcContext
	// wmKey is the watermark's state key, built once in Open; scratch is
	// where stateKey assembles keys, so a key costs only its string.
	wmKey   string
	scratch []byte
}

// WindowAggregate aggregates records per (window, key). Emitted records
// are keyed with WindowKey(start, end, key).
func WindowAggregate(name string, spec WindowSpec, mode WindowEmit, agg Aggregator) Processor {
	return &windowAggregate{name: name, spec: spec.normalize(), agg: agg, mode: mode}
}

func (w *windowAggregate) Open(ctx ProcContext) error {
	w.ctx = ctx
	w.wmKey = w.name + "/wm"
	return nil
}

// state layout:
//
//	<name>/wm                      -> watermark (8 bytes)
//	<name>/w/<start:be64>/<key>    -> accumulator
//
// Big-endian starts make Range iterate windows in time order, so firing
// expired windows scans a prefix.
func (w *windowAggregate) Process(_ int, d Datum, emit Emit) error {
	st := w.ctx.Store()
	grace := w.spec.Grace.Microseconds()

	wm := w.watermark(st)
	if d.EventTime > wm {
		wm = d.EventTime
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(wm))
		st.Put(w.wmKey, buf[:])
	}

	for _, b := range w.spec.windowsFor(d.EventTime) {
		if w.mode == EmitFinal && b.End+grace <= wm {
			continue // window already finalized; late record dropped
		}
		sk := w.stateKey(b.Start, d.Key)
		acc, _ := st.Get(sk)
		acc = w.agg(d.Key, d.Value, acc)
		st.Put(sk, acc)
		if w.mode == EmitPerUpdate {
			emit(0, Datum{Key: WindowKey(b.Start, b.End, d.Key), Value: acc, EventTime: d.EventTime})
		}
	}

	if w.mode == EmitFinal {
		w.fireExpired(wm, emit)
	}
	return nil
}

func (w *windowAggregate) watermark(st *StateStore) int64 {
	if v, ok := st.Get(w.wmKey); ok && len(v) == 8 {
		return int64(binary.LittleEndian.Uint64(v))
	}
	return -1
}

func (w *windowAggregate) stateKey(start int64, key []byte) string {
	b := append(w.scratch[:0], w.name...)
	b = append(b, "/w/"...)
	b = binary.BigEndian.AppendUint64(b, uint64(start))
	b = append(b, '/')
	b = append(b, key...)
	w.scratch = b
	return string(b)
}

// fireExpired emits and deletes every window whose end+grace has passed
// the watermark.
func (w *windowAggregate) fireExpired(wm int64, emit Emit) {
	st := w.ctx.Store()
	grace := w.spec.Grace.Microseconds()
	size := w.spec.Size.Microseconds()
	prefix := w.name + "/w/"
	type fired struct {
		start int64
		key   []byte
		acc   []byte
	}
	var toFire []fired
	st.Range(prefix, func(k string, v []byte) bool {
		rest := k[len(prefix):]
		if len(rest) < 9 { // 8-byte start + "/"
			return true
		}
		start := int64(binary.BigEndian.Uint64([]byte(rest[:8])))
		if start+size+grace > wm {
			return false // windows sorted by start; all later ones still open
		}
		toFire = append(toFire, fired{start: start, key: []byte(rest[9:]), acc: append([]byte(nil), v...)})
		return true
	})
	// A watermark jump can expire many windows at once; charge the bulk
	// firing so the cooperative engine yields at the next batch boundary.
	w.ctx.Charge(len(toFire))
	for _, f := range toFire {
		// Final results carry the window end as their event time (as in
		// Flink), not the time of the record whose arrival fired them.
		emit(0, Datum{Key: WindowKey(f.start, f.start+size, f.key), Value: f.acc, EventTime: f.start + size})
		st.Delete(w.stateKey(f.start, f.key))
	}
}
