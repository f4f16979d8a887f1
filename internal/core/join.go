package core

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Join operators (paper §4: stream-stream inner join, stream-table
// inner join, table-table inner join), following Kafka Streams
// algorithms. Joins are two-input processors: port 0 is the left input,
// port 1 the right. Both inputs must be co-partitioned on the join key
// (the topology repartitions to guarantee it, paper §3.2 "Reading from
// multiple inputs").

// Joiner combines a left and right value into the joined output value.
type Joiner func(key, left, right []byte) []byte

// streamStreamJoin buffers both sides in state and emits a join result
// for every pair of records with equal keys whose event times are
// within the window of each other.
type streamStreamJoin struct {
	name   string
	window time.Duration
	joiner Joiner
	ctx    ProcContext
	seq    uint64
}

// StreamStreamJoin builds a windowed stream-stream inner join.
func StreamStreamJoin(name string, window time.Duration, joiner Joiner) Processor {
	return &streamStreamJoin{name: name, window: window, joiner: joiner}
}

func (j *streamStreamJoin) Open(ctx ProcContext) error {
	j.ctx = ctx
	return nil
}

// freeBufKey returns the state key a stream-stream join buffers the
// record under. Layout: <name>/<side>/<key>/<eventTime:be64>/<seq:be64>;
// event-time-ordered keys let eviction scan old entries first, and seq
// tells apart records of one key and event time. The counter lives in
// memory and restarts with the task, so a replacement instance can
// reach a number an earlier one already gave such a record: the key is
// probed and the counter advanced until it is free — storing under a
// taken key would overwrite a buffered record, and every later partner
// would join one record too few.
func freeBufKey(st *StateStore, name string, side int, key []byte, et int64, seq *uint64) string {
	var ts [16]byte
	binary.BigEndian.PutUint64(ts[:8], uint64(et))
	for {
		*seq++
		binary.BigEndian.PutUint64(ts[8:], *seq)
		k := fmt.Sprintf("%s/%d/%s/%s", name, side, key, ts[:])
		if _, taken := st.Get(k); !taken {
			return k
		}
	}
}

func (j *streamStreamJoin) Process(port int, d Datum, emit Emit) error {
	if port != 0 && port != 1 {
		return fmt.Errorf("stream-stream join: bad port %d", port)
	}
	st := j.ctx.Store()
	st.Put(freeBufKey(st, j.name, port, d.Key, d.EventTime, &j.seq), d.Value)

	// Scan the opposite side's buffer for this key within the window.
	// The scan is the join's bulk work; charge each visited entry so the
	// cooperative engine yields between batches when buffers grow large.
	other := 1 - port
	win := j.window.Microseconds()
	prefix := fmt.Sprintf("%s/%d/%s/", j.name, other, d.Key)
	st.Range(prefix, func(k string, v []byte) bool {
		j.ctx.Charge(1)
		rest := []byte(k[len(prefix):])
		if len(rest) < 16 {
			return true
		}
		et := int64(binary.BigEndian.Uint64(rest[:8]))
		if et < d.EventTime-win {
			return true // too old for this record; keep scanning
		}
		if et > d.EventTime+win {
			return false // sorted by time: all later entries out of window
		}
		var left, right []byte
		if port == 0 {
			left, right = d.Value, v
		} else {
			left, right = v, d.Value
		}
		out := d.EventTime
		if et > out {
			out = et
		}
		emit(0, Datum{Key: d.Key, Value: j.joiner(d.Key, left, right), EventTime: out})
		return true
	})
	j.evict(port, d)
	return nil
}

// evict drops buffered entries of this key older than twice the window
// behind the newest record, bounding state size.
func (j *streamStreamJoin) evict(port int, d Datum) {
	st := j.ctx.Store()
	horizon := d.EventTime - 2*j.window.Microseconds()
	if horizon <= 0 {
		return
	}
	for side := 0; side < 2; side++ {
		prefix := fmt.Sprintf("%s/%d/%s/", j.name, side, d.Key)
		var dead []string
		st.Range(prefix, func(k string, v []byte) bool {
			j.ctx.Charge(1)
			rest := []byte(k[len(prefix):])
			if len(rest) < 16 {
				return true
			}
			if int64(binary.BigEndian.Uint64(rest[:8])) >= horizon {
				return false
			}
			dead = append(dead, k)
			return true
		})
		for _, k := range dead {
			st.Delete(k)
		}
	}
	_ = port
}

// streamTableJoin joins a stream (port 0) against a materialized table
// (port 1). Table updates upsert state; stream records look the key up.
type streamTableJoin struct {
	name   string
	joiner Joiner
	ctx    ProcContext
}

// StreamTableJoin builds a stream-table inner join: stream records that
// find no table row are dropped (inner semantics).
func StreamTableJoin(name string, joiner Joiner) Processor {
	return &streamTableJoin{name: name, joiner: joiner}
}

func (j *streamTableJoin) Open(ctx ProcContext) error {
	j.ctx = ctx
	return nil
}

func (j *streamTableJoin) Process(port int, d Datum, emit Emit) error {
	st := j.ctx.Store()
	tk := j.name + "/t/" + string(d.Key)
	switch port {
	case 1: // table side: materialize
		if d.Value == nil {
			st.Delete(tk)
		} else {
			st.Put(tk, d.Value)
		}
		return nil
	case 0: // stream side: lookup
		row, ok := st.Get(tk)
		if !ok {
			return nil
		}
		emit(0, Datum{Key: d.Key, Value: j.joiner(d.Key, d.Value, row), EventTime: d.EventTime})
		return nil
	default:
		return fmt.Errorf("stream-table join: bad port %d", port)
	}
}

// tableTableJoin materializes both sides and emits the joined row
// whenever either side updates and both sides are present.
type tableTableJoin struct {
	name   string
	joiner Joiner
	ctx    ProcContext
}

// TableTableJoin builds a table-table inner join (NEXMark Q3 joins the
// auctions and persons tables this way).
func TableTableJoin(name string, joiner Joiner) Processor {
	return &tableTableJoin{name: name, joiner: joiner}
}

func (j *tableTableJoin) Open(ctx ProcContext) error {
	j.ctx = ctx
	return nil
}

func (j *tableTableJoin) Process(port int, d Datum, emit Emit) error {
	if port != 0 && port != 1 {
		return fmt.Errorf("table-table join: bad port %d", port)
	}
	st := j.ctx.Store()
	mine := fmt.Sprintf("%s/%d/%s", j.name, port, d.Key)
	theirs := fmt.Sprintf("%s/%d/%s", j.name, 1-port, d.Key)
	if d.Value == nil {
		st.Delete(mine)
		return nil
	}
	st.Put(mine, d.Value)
	row, ok := st.Get(theirs)
	if !ok {
		return nil
	}
	var left, right []byte
	if port == 0 {
		left, right = d.Value, row
	} else {
		left, right = row, d.Value
	}
	emit(0, Datum{Key: d.Key, Value: j.joiner(d.Key, left, right), EventTime: d.EventTime})
	return nil
}
