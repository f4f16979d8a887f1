package core

import (
	"encoding/binary"
	"sort"

	"impeller/internal/sharedlog"
)

// ProgressMarker is the payload of a KindMarker envelope: a consistent
// cut of a task's input, output, and state-change progress (paper §3.3).
//
// The encoding is "shrunk" per §3.5:
//
//   - only the END of the input range is stored (the start is never used
//     in recovery — the marker represents progress up to the end);
//   - only the STARTS of the output and change-log ranges are stored —
//     the marker's own LSN is a valid upper bound for both, because the
//     marker is the log record that logically follows the last output
//     and state-change record.
//
// A record is "committed" once a marker references its range; downstream
// tasks use the per-substream output ranges to run the three-case
// classification of §3.3.3, and the recovering task itself uses InputEnd
// (resume point), ChangeFirst (change-log replay), and SeqEnd (resume
// its duplicate-suppression sequence).
type ProgressMarker struct {
	// InputEnd is the LSN of the last input record processed, per input
	// cursor. Impeller tasks read all their input tags through a single
	// global cursor, so one LSN suffices. NoLSN means nothing consumed.
	InputEnd sharedlog.LSN
	// OutFirst maps each output substream tag to the first output LSN
	// appended to it since the previous marker. Substreams with no
	// output since the last marker are absent.
	OutFirst map[sharedlog.Tag]sharedlog.LSN
	// ChangeFirst is the first change-log LSN since the previous
	// marker, or NoLSN if the task made no state changes.
	ChangeFirst sharedlog.LSN
	// SeqEnd is the producer sequence number after the last output, so
	// a recovering instance resumes duplicate-suppression numbering.
	SeqEnd uint64
	// CheckpointEpoch is the latest state checkpoint covering this
	// marker (0 = none); recovery replays the change log only from
	// after that checkpoint (paper §3.5, "Accelerating state recovery").
	CheckpointEpoch uint64
}

// NoLSN marks an absent LSN field in a progress marker.
const NoLSN = sharedlog.MaxLSN

// Encode serializes the marker.
func (m *ProgressMarker) Encode() []byte {
	buf := make([]byte, 0, 8*4+2+len(m.OutFirst)*24)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.InputEnd))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.ChangeFirst))
	buf = binary.LittleEndian.AppendUint64(buf, m.SeqEnd)
	buf = binary.LittleEndian.AppendUint64(buf, m.CheckpointEpoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.OutFirst)))
	// Sort tags so encoding is deterministic (maps iterate randomly).
	tags := make([]string, 0, len(m.OutFirst))
	for t := range m.OutFirst {
		tags = append(tags, string(t))
	}
	sort.Strings(tags)
	for _, t := range tags {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t)))
		buf = append(buf, t...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.OutFirst[sharedlog.Tag(t)]))
	}
	return buf
}

// DecodeMarker parses a marker payload.
func DecodeMarker(buf []byte) (*ProgressMarker, error) {
	if len(buf) < 8*4+2 {
		return nil, ErrBadEncoding
	}
	m := &ProgressMarker{}
	m.InputEnd = sharedlog.LSN(binary.LittleEndian.Uint64(buf[0:]))
	m.ChangeFirst = sharedlog.LSN(binary.LittleEndian.Uint64(buf[8:]))
	m.SeqEnd = binary.LittleEndian.Uint64(buf[16:])
	m.CheckpointEpoch = binary.LittleEndian.Uint64(buf[24:])
	n := int(binary.LittleEndian.Uint16(buf[32:]))
	p := 34
	if n > 0 {
		m.OutFirst = make(map[sharedlog.Tag]sharedlog.LSN, n)
	}
	for i := 0; i < n; i++ {
		if p+2 > len(buf) {
			return nil, ErrBadEncoding
		}
		tl := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		if p+tl+8 > len(buf) {
			return nil, ErrBadEncoding
		}
		tag := sharedlog.Tag(buf[p : p+tl])
		p += tl
		m.OutFirst[tag] = sharedlog.LSN(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
	}
	if p != len(buf) {
		return nil, ErrBadEncoding
	}
	return m, nil
}

// UnshrunkSize reports what the marker would occupy without the §3.5
// shrinking optimization (full first+last LSN pairs for input, every
// output substream, and the change log); the marker-shrinking ablation
// bench compares it against len(Encode()).
func (m *ProgressMarker) UnshrunkSize() int {
	return unshrunkSize(len(m.Encode()), len(m.OutFirst))
}

// unshrunkSize adds to a marker's encoded size one extra LSN for the
// input range start, one per output substream range end, and one for
// the change-log range end.
func unshrunkSize(encoded, outputs int) int {
	return encoded + 8 + outputs*8 + 8
}
