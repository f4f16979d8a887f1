package sharedlog

// The durability plane (opt-in): every committed cut, metadata-KV
// mutation, trim horizon, and aux attachment is appended to a
// CRC32C-checksummed, length-prefixed WAL (internal/wal) and synced
// before the append is acknowledged — ack-after-durable. The write
// sites sit on the ordering plane's existing serial paths (under l.mu
// in immediate mode, on the single cut-loop goroutine in sequencer
// mode), so cut frames land in LSN order and the single-writer
// invariant is untouched. Metadata and aux frames interleave freely:
// replay never re-validates guards, so only each key's final value
// matters, and an aux frame always follows the cut frame of the record
// it decorates.
//
// Recovery (Recover) replays the WAL's valid prefix: it rebuilds the
// committed segments, the tag index, the sequencer state (the next LSN
// is the rebuilt tail), and the metadata KV. The scan stops at the
// first torn or corrupt frame and truncates the device there instead of
// failing: everything before the bad frame is a verified prefix of the
// pre-crash log, and a prefix of a totally ordered log is itself a
// consistent log — which is exactly what the exactly-once protocols
// need (an unacknowledged suffix may be lost; nothing acknowledged is
// reordered or invented). Trim frames are buffered and applied after
// the scan, clamped to the rebuilt tail, so a trim whose covering cut
// frames were truncated away cannot leave the segment directory ahead
// of the store.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"impeller/internal/sim"
	"impeller/internal/wal"
)

// WAL frame kinds for the shared log's durability plane.
const (
	frameCut     byte = 1 // a committed cut: one or more records, contiguous LSNs
	frameMetaSet byte = 2 // metadata KV set (key, value)
	frameMetaDel byte = 3 // metadata KV delete (key)
	frameTrim    byte = 4 // trim horizon advanced
	frameAux     byte = 5 // aux data attached to a committed record
)

// WALCutFrame is the kind of the WAL frames that carry committed
// records, for fault injection that must aim past the first of them.
const WALCutFrame = frameCut

// durability is the log's WAL writer state. Cut writes are serialized
// by their call sites (l.mu or the cut loop); meta and aux writes rely
// on the device's internal lock for atomic frame interleaving.
type durability struct {
	dev       *wal.Device
	flushLat  sim.LatencyModel
	bandwidth int
	clock     sim.Clock
	scratch   []byte // cut-frame encode buffer; owned by the committer
}

// DefaultWALBandwidth approximates a local NVMe WAL partition's
// sequential write bandwidth, charged per synced byte when the
// durability plane runs under simulated latency.
const DefaultWALBandwidth = 400 << 20 // 400 MiB/s

// attachWAL arms the durability plane on an open (or freshly recovered)
// log: subsequent commits, metadata mutations, trims, and aux writes
// append frames to cfg.WAL.
func (l *Log) attachWAL() {
	l.dur = &durability{
		dev:       l.cfg.WAL,
		flushLat:  l.cfg.WALFlushLatency,
		bandwidth: l.cfg.WALBandwidth,
		clock:     l.cfg.Clock,
	}
	l.meta.journal = l.journalMeta
}

// chargeFlush models the WAL fsync: a fixed flush latency plus
// size-proportional bandwidth time, mirroring the kvstore's cost model.
func (d *durability) chargeFlush(bytes int) {
	var dur time.Duration
	if d.flushLat != nil {
		dur = d.flushLat.Sample()
	}
	if d.bandwidth > 0 {
		dur += time.Duration(float64(bytes) / float64(d.bandwidth) * float64(time.Second))
	}
	if dur > 0 {
		d.clock.Sleep(dur)
	}
}

// writeCut appends one cut frame covering recs (committed records with
// contiguous LSNs, in order) and syncs the device. Must be called from
// the committing path before append responses are delivered — the
// ack-after-durable invariant.
func (d *durability) writeCut(recs []*Record) {
	if len(recs) == 0 {
		return
	}
	d.scratch = encodeCutPayload(d.scratch[:0], recs)
	frame := wal.AppendFrame(nil, frameCut, d.scratch)
	d.dev.Append(frame)
	d.dev.Sync()
	d.chargeFlush(len(frame))
}

// journalMeta is the MetaStore's journal hook: one frame per mutation,
// synced immediately (metadata ops are control-plane rare; losing a
// fence to a power failure would be a correctness bug, not a perf
// trade).
func (l *Log) journalMeta(del bool, key string, value uint64) {
	d := l.dur
	payload := make([]byte, 8, 8+len(key))
	binary.LittleEndian.PutUint64(payload, value)
	payload = append(payload, key...)
	kind := frameMetaSet
	if del {
		kind = frameMetaDel
	}
	d.dev.Append(wal.AppendFrame(nil, kind, payload))
	d.dev.Sync()
}

// writeTrim journals an advanced trim horizon.
func (d *durability) writeTrim(upTo LSN) {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(upTo))
	d.dev.Append(wal.AppendFrame(nil, frameTrim, payload[:]))
	d.dev.Sync()
}

// writeAux journals an aux attachment. Aux data is advisory
// (last-writer-wins), so frames may interleave with cuts freely; the
// record's own cut frame always precedes it in the device order.
func (d *durability) writeAux(lsn LSN, aux []byte) {
	payload := make([]byte, 8, 8+len(aux))
	binary.LittleEndian.PutUint64(payload, uint64(lsn))
	payload = append(payload, aux...)
	d.dev.Append(wal.AppendFrame(nil, frameAux, payload))
	d.dev.Sync()
}

// Cut payload layout (little-endian):
//
//	u64 firstLSN | u32 n | n × ( u16 ntags | ntags × (u16 len | tag) | u32 len | payload )
//
// LSNs within a cut are contiguous by construction: the ordering
// decision assigns them in one serial pass, and entries whose
// conditional guard failed receive no LSN at all.
func encodeCutPayload(buf []byte, recs []*Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(recs[0].LSN))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, rec := range recs {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Tags)))
		for _, tag := range rec.Tags {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(tag)))
			buf = append(buf, tag...)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Payload)))
		buf = append(buf, rec.Payload...)
	}
	return buf
}

var errBadCutFrame = errors.New("sharedlog: malformed cut frame")

// decodeCutPayload parses one cut frame into fresh records. The decoder
// is total: arbitrary bytes either parse or return an error — recovery
// treats a parse failure like any other corrupt frame (truncate there).
func decodeCutPayload(b []byte) ([]*Record, error) {
	if len(b) < 12 {
		return nil, errBadCutFrame
	}
	first := LSN(binary.LittleEndian.Uint64(b))
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	// Cuts are never empty, and a record costs at least 6 bytes (u16
	// ntags + u32 payload len); reject corrupt counts before allocating.
	if n <= 0 || n > len(b)/6+1 {
		return nil, errBadCutFrame
	}
	recs := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, errBadCutFrame
		}
		ntags := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		tags := make([]Tag, 0, ntags)
		for j := 0; j < ntags; j++ {
			if len(b) < 2 {
				return nil, errBadCutFrame
			}
			tl := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			if len(b) < tl {
				return nil, errBadCutFrame
			}
			tags = append(tags, Tag(b[:tl]))
			b = b[tl:]
		}
		if len(b) < 4 {
			return nil, errBadCutFrame
		}
		pl := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if pl < 0 || len(b) < pl {
			return nil, errBadCutFrame
		}
		recs = append(recs, &Record{
			LSN:     first + LSN(i),
			Tags:    tags,
			Payload: append([]byte(nil), b[:pl]...),
		})
		b = b[pl:]
	}
	if len(b) != 0 {
		return nil, errBadCutFrame
	}
	return recs, nil
}

// ErrNoWAL reports a Recover call without a WAL device to recover from.
var ErrNoWAL = errors.New("sharedlog: Recover requires Config.WAL")

// Recover rebuilds a log from the WAL in cfg.WAL and returns it with
// the durability plane attached, ready to append. The replay validates
// every frame; at the first torn or corrupt one it stops, truncates the
// device to the valid prefix, and counts the truncation in Stats —
// recovery degrades to the longest verified prefix rather than failing.
// An empty device yields a fresh, empty, durable log.
func Recover(cfg Config) (*Log, error) {
	if cfg.WAL == nil {
		return nil, ErrNoWAL
	}
	dev := cfg.WAL
	// Open quiescent: no WAL attached (replay rebuilds in-memory state
	// and must not re-append the frames it came from) and no cut loop
	// (nothing may commit concurrently with the replay). Both are armed
	// after the replay finishes.
	plain := cfg
	plain.WAL = nil
	plain.OrderingInterval = 0
	l := Open(plain)
	l.cfg = cfg.withDefaults()

	r := wal.NewReader(dev.Bytes())
	var maxTrim LSN
	trims := 0
	corrupt := false
	validEnd := 0
scan:
	for {
		kind, payload, ok := r.Next()
		if !ok {
			corrupt = r.Err() != nil
			validEnd = r.Offset()
			break
		}
		switch kind {
		case frameCut:
			recs, err := decodeCutPayload(payload)
			if err != nil {
				// Checksum held but the payload does not parse: treat as
				// corruption at this frame — the prefix before it is still
				// a verified log.
				corrupt = true
				break scan
			}
			for _, rec := range recs {
				l.store.put(rec)
			}
			l.index.addRecords(recs)
			l.index.visible.Store(uint64(l.store.committedTail()))
			l.stats.recoveredRecords.Add(uint64(len(recs)))
		case frameMetaSet:
			if len(payload) < 8 {
				corrupt = true
				break scan
			}
			l.meta.Set(string(payload[8:]), binary.LittleEndian.Uint64(payload))
			l.stats.recoveredMetaOps.Add(1)
		case frameMetaDel:
			if len(payload) < 8 {
				corrupt = true
				break scan
			}
			l.meta.Delete(string(payload[8:]))
			l.stats.recoveredMetaOps.Add(1)
		case frameTrim:
			if len(payload) != 8 {
				corrupt = true
				break scan
			}
			// Deferred: applying a trim mid-replay could race the segment
			// directory ahead of cut frames that were truncated away.
			if h := LSN(binary.LittleEndian.Uint64(payload)); h > maxTrim {
				maxTrim = h
			}
			trims++
		case frameAux:
			if len(payload) < 8 {
				corrupt = true
				break scan
			}
			// The record's cut frame precedes this one; a failure means
			// the LSN was trimmed (a later trim frame we have not applied
			// yet would have retired it anyway) — aux is advisory, skip.
			_ = l.store.setAux(LSN(binary.LittleEndian.Uint64(payload)), payload[8:])
		default:
			// Unknown frame kind with a valid checksum: written by a
			// newer format. Replaying past it could misinterpret the log;
			// stop at the last frame this format understands.
			corrupt = true
			break scan
		}
		validEnd = r.Offset()
	}
	if corrupt {
		total := dev.Size()
		l.stats.walTruncations.Add(1)
		l.stats.walTruncatedBytes.Add(uint64(total - validEnd))
		dev.TruncateTo(validEnd)
	}
	// Apply the newest trim horizon, clamped to the rebuilt tail.
	if maxTrim > 0 {
		if tail := l.store.committedTail(); maxTrim > tail {
			maxTrim = tail
		}
		if maxTrim > l.store.trimHorizon() {
			l.store.trim(maxTrim)
			l.index.prune(maxTrim)
		}
	}
	l.stats.recoveredTrims.Add(uint64(trims))
	// Replay done: arm the durability plane and, in sequencer mode, the
	// cut loop — the log is now open for appends.
	l.attachWAL()
	if l.cfg.OrderingInterval > 0 {
		l.ordering = true
		l.seqShards = make([]*seqShard, l.cfg.OrderingShards)
		for i := range l.seqShards {
			l.seqShards[i] = &seqShard{name: fmt.Sprintf("sequencer/%d", i)}
		}
		go l.cutLoop()
	}
	return l, nil
}
