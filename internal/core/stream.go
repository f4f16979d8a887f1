package core

import (
	"fmt"
	"hash/fnv"

	"impeller/internal/sharedlog"
)

// Tag construction (paper §3.2, Figure 3 and Figure 4). A stream is
// logically partitioned into substreams by tagging each record with
// (stream name, substream index); the task log and change log are
// per-task substreams tagged (T, task id) and (C, task id).

// DataTag returns the tag for substream sub of a data stream. Records
// carrying this tag are consumed by the downstream task that owns
// substream sub.
func DataTag(stream StreamID, sub int) sharedlog.Tag {
	return sharedlog.Tag(fmt.Sprintf("d/%s/%d", stream, sub))
}

// TaskLogTag returns the (T, task id) tag. A task's progress markers are
// additionally tagged with it so a recovering task finds its last marker
// by reading the substream tail (paper §3.3.1).
func TaskLogTag(task TaskID) sharedlog.Tag {
	return sharedlog.Tag("T/" + string(task))
}

// ChangeLogTag returns the (C, task id) tag carrying a stateful task's
// state-change records (paper §3.2).
func ChangeLogTag(task TaskID) sharedlog.Tag {
	return sharedlog.Tag("C/" + string(task))
}

// GroupChangeTag returns the change-log tag for one key group of a
// stage. Keyed by stage name — not task id — because key groups migrate
// between slots at rescale: whichever slot owns group g writes g's state
// changes here, and whichever slot acquires g later replays them. The
// Kafka-transaction baseline keeps the per-task ChangeLogTag (it has no
// rescale support and its epoch-gated replay is per-task).
func GroupChangeTag(stage string, group int) sharedlog.Tag {
	return sharedlog.Tag(fmt.Sprintf("C/%s/g%d", stage, group))
}

// TxnStreamTag returns the transaction stream tag for a coordinator in
// the Kafka-transaction baseline (paper §3.6). Coordinators are sharded;
// shard selects which coordinator's stream.
func TxnStreamTag(shard int) sharedlog.Tag {
	return sharedlog.Tag(fmt.Sprintf("X/%d", shard))
}

// OffsetStreamTag returns the per-task LSN-stream tag used by the
// Kafka-transaction baseline to record the latest input a task has
// processed (paper §3.6: "a per-task, per-stream LSN stream").
func OffsetStreamTag(task TaskID) sharedlog.Tag {
	return sharedlog.Tag("L/" + string(task))
}

// EgressOffsetsTag returns the egress-offsets substream tag for a named
// delivery sink over a stream. It carries KindEgressFrontier records:
// the sink's consumer-acknowledged delivery frontier, read back on
// restart so delivery resumes from the last ack instead of from zero.
func EgressOffsetsTag(stream StreamID, sink string) sharedlog.Tag {
	return sharedlog.Tag(egressOffsetsPrefix + string(stream) + "/" + sink)
}

// egressOffsetsPrefix begins every egress-offsets tag; the garbage
// collector lists the substreams by it.
const egressOffsetsPrefix = "E/"

// DeadLetterTag returns the dead-letter substream tag for a named
// delivery sink: output records that exhausted their permanent-error
// delivery budget are parked here instead of wedging the pipeline.
func DeadLetterTag(stream StreamID, sink string) sharedlog.Tag {
	return sharedlog.Tag(fmt.Sprintf("DL/%s/%s", stream, sink))
}

// InstanceKey returns the metadata-store key holding a task's current
// instance number (paper §3.4). Conditional appends guard against it.
func InstanceKey(task TaskID) string {
	return "inst/" + string(task)
}

// Partition maps a record key to a substream index in [0, n) with an
// FNV-1a hash, so identical keys always land in the same substream and
// are processed by the same task (paper §2.1, word-count example).
func Partition(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}
