package core

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Left-join variants of the inner joins in join.go, following Kafka
// Streams semantics: the left side always produces a result, with a nil
// right value when no match exists (stream-table), or when the join
// window expires unmatched (stream-stream).

// streamTableLeftJoin joins a stream (port 0) against a materialized
// table (port 1); stream records without a table row emit with a nil
// right value instead of being dropped.
type streamTableLeftJoin struct {
	name   string
	joiner Joiner
	ctx    ProcContext
}

// StreamTableLeftJoin builds a stream-table left join.
func StreamTableLeftJoin(name string, joiner Joiner) Processor {
	return &streamTableLeftJoin{name: name, joiner: joiner}
}

func (j *streamTableLeftJoin) Open(ctx ProcContext) error {
	j.ctx = ctx
	return nil
}

func (j *streamTableLeftJoin) Process(port int, d Datum, emit Emit) error {
	st := j.ctx.Store()
	tk := j.name + "/t/" + string(d.Key)
	switch port {
	case 1:
		if d.Value == nil {
			st.Delete(tk)
		} else {
			st.Put(tk, d.Value)
		}
		return nil
	case 0:
		row, _ := st.Get(tk) // nil when absent: left semantics
		emit(0, Datum{Key: d.Key, Value: j.joiner(d.Key, d.Value, row), EventTime: d.EventTime})
		return nil
	default:
		return fmt.Errorf("stream-table left join: bad port %d", port)
	}
}

// streamStreamLeftJoin is a windowed stream-stream left join: matched
// pairs emit immediately; left records whose window expires unmatched
// emit once with a nil right value at eviction time.
type streamStreamLeftJoin struct {
	name   string
	window time.Duration
	joiner Joiner
	ctx    ProcContext
	seq    uint64
}

// StreamStreamLeftJoin builds a windowed stream-stream left join.
func StreamStreamLeftJoin(name string, window time.Duration, joiner Joiner) Processor {
	return &streamStreamLeftJoin{name: name, window: window, joiner: joiner}
}

func (j *streamStreamLeftJoin) Open(ctx ProcContext) error {
	j.ctx = ctx
	return nil
}

// Buffer layout mirrors streamStreamJoin's, with a 1-byte matched flag
// prepended to the stored value:
//
//	<name>/<side>/<key>/<eventTime:be64>/<seq:be64> -> matched(1) value

func (j *streamStreamLeftJoin) Process(port int, d Datum, emit Emit) error {
	if port != 0 && port != 1 {
		return fmt.Errorf("stream-stream left join: bad port %d", port)
	}
	st := j.ctx.Store()
	myKey := freeBufKey(st, j.name, port, d.Key, d.EventTime, &j.seq)
	myMatched := false

	other := 1 - port
	win := j.window.Microseconds()
	prefix := fmt.Sprintf("%s/%d/%s/", j.name, other, d.Key)
	type match struct {
		key   string
		value []byte
		et    int64
	}
	var matches []match
	st.Range(prefix, func(k string, v []byte) bool {
		rest := []byte(k[len(prefix):])
		if len(rest) < 16 || len(v) < 1 {
			return true
		}
		et := int64(binary.BigEndian.Uint64(rest[:8]))
		if et < d.EventTime-win {
			return true
		}
		if et > d.EventTime+win {
			return false
		}
		matches = append(matches, match{key: k, value: v, et: et})
		return true
	})
	for _, m := range matches {
		myMatched = true
		if m.value[0] == 0 {
			// Mark the counterpart matched so eviction won't emit a
			// spurious left-null for it.
			st.Put(m.key, append([]byte{1}, m.value[1:]...))
		}
		var left, right []byte
		if port == 0 {
			left, right = d.Value, m.value[1:]
		} else {
			left, right = m.value[1:], d.Value
		}
		out := d.EventTime
		if m.et > out {
			out = m.et
		}
		emit(0, Datum{Key: d.Key, Value: j.joiner(d.Key, left, right), EventTime: out})
	}

	flag := byte(0)
	if myMatched {
		flag = 1
	}
	st.Put(myKey, append([]byte{flag}, d.Value...))
	j.evict(d, emit)
	return nil
}

// evict drops buffered entries of this key older than twice the window
// behind the newest record; unmatched LEFT entries emit (left, nil) as
// they expire — the left-join contract.
func (j *streamStreamLeftJoin) evict(d Datum, emit Emit) {
	st := j.ctx.Store()
	horizon := d.EventTime - 2*j.window.Microseconds()
	if horizon <= 0 {
		return
	}
	for side := 0; side < 2; side++ {
		prefix := fmt.Sprintf("%s/%d/%s/", j.name, side, d.Key)
		type dead struct {
			key   string
			value []byte
			et    int64
		}
		var expired []dead
		st.Range(prefix, func(k string, v []byte) bool {
			rest := []byte(k[len(prefix):])
			if len(rest) < 16 || len(v) < 1 {
				return true
			}
			et := int64(binary.BigEndian.Uint64(rest[:8]))
			if et >= horizon {
				return false
			}
			expired = append(expired, dead{key: k, value: v, et: et})
			return true
		})
		for _, e := range expired {
			if side == 0 && e.value[0] == 0 {
				emit(0, Datum{Key: d.Key, Value: j.joiner(d.Key, e.value[1:], nil), EventTime: e.et})
			}
			st.Delete(e.key)
		}
	}
}

// tableTableLeftJoin emits on either side's update whenever the left
// row exists; a missing right row joins as nil.
type tableTableLeftJoin struct {
	name   string
	joiner Joiner
	ctx    ProcContext
}

// TableTableLeftJoin builds a table-table left join.
func TableTableLeftJoin(name string, joiner Joiner) Processor {
	return &tableTableLeftJoin{name: name, joiner: joiner}
}

func (j *tableTableLeftJoin) Open(ctx ProcContext) error {
	j.ctx = ctx
	return nil
}

func (j *tableTableLeftJoin) Process(port int, d Datum, emit Emit) error {
	if port != 0 && port != 1 {
		return fmt.Errorf("table-table left join: bad port %d", port)
	}
	st := j.ctx.Store()
	mine := fmt.Sprintf("%s/%d/%s", j.name, port, d.Key)
	if d.Value == nil {
		st.Delete(mine)
	} else {
		st.Put(mine, d.Value)
	}
	left, lok := st.Get(fmt.Sprintf("%s/0/%s", j.name, d.Key))
	if !lok {
		return nil // left semantics: no output without a left row
	}
	right, _ := st.Get(fmt.Sprintf("%s/1/%s", j.name, d.Key))
	emit(0, Datum{Key: d.Key, Value: j.joiner(d.Key, left, right), EventTime: d.EventTime})
	return nil
}

// Merge forwards records from every input port unchanged — the union
// operator (paper §3.2: "Other operators, such as union, can be
// supported similarly"). Inputs must be co-partitioned.
func Merge() Processor {
	return ProcessorFunc(func(_ int, d Datum, emit Emit) error {
		emit(0, d)
		return nil
	})
}

// Peek observes records without altering the stream (diagnostics).
func Peek(fn func(d Datum)) Processor {
	return ProcessorFunc(func(_ int, d Datum, emit Emit) error {
		fn(d)
		emit(0, d)
		return nil
	})
}
