package chaos

import (
	"fmt"
	"testing"
	"time"

	"impeller"
	"impeller/internal/sharedlog"
	"impeller/internal/wal"
)

// TestChaosPowerFailure is the whole-cluster power-failure matrix: all
// three fault-tolerance protocols × both execution engines run a
// NEXMark query on a durable cluster, lose power mid-run (hard stop,
// log closed first), recover a fresh cluster from the WAL device plus
// the checkpoint store's surviving image, and must converge to the
// oracle's exact exactly-once output across the restart — including the
// egress sink resuming from the ack frontier persisted before the
// failure. In -short mode each protocol runs on one engine.
func TestChaosPowerFailure(t *testing.T) {
	queries := []int{1, 11, 12}
	engines := []impeller.EngineMode{impeller.EngineGoroutine, impeller.EngineTasklet}
	for i, proto := range protocols {
		for j, engine := range engines {
			if testing.Short() && j != i%2 {
				continue
			}
			proto, query, engine := proto, queries[i], engine
			t.Run(fmt.Sprintf("q%d-%s-%v", query, proto, engine), func(t *testing.T) {
				t.Parallel()
				res, err := RunPower(PowerConfig{
					Query:    query,
					Protocol: proto,
					Seed:     7,
					Engine:   engine,
					// Exercise the checkpoint-store recovery path too:
					// phase one persists async snapshots (marker
					// protocol) that phase two rebuilds from the
					// CheckpointWAL image.
					SnapshotInterval: 60 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Log(res)
				if res.Violation != "" {
					t.Fatalf("exactly-once violation across power failure: %s", res.Violation)
				}
				if !res.Phase1Converged {
					t.Fatal("phase one never converged before the power failure")
				}
				if !res.Converged {
					t.Fatalf("output never converged after recovery: delivered=%d deduped=%d recovered=%d",
						res.Delivered, res.Deduped, res.Recovery.RecoveredRecords)
				}
				if res.Recovery.RecoveredRecords == 0 {
					t.Fatal("recovery replayed no records; the WAL was empty")
				}
				if res.Recovery.RecoveredMetaOps == 0 {
					t.Fatal("recovery replayed no metadata ops (fences, seq reservations)")
				}
				if res.Recovery.WALTruncations != 0 {
					t.Fatalf("clean power cycle truncated the WAL %d times (%d bytes)",
						res.Recovery.WALTruncations, res.Recovery.WALTruncatedBytes)
				}
				if !res.Resumed {
					t.Fatal("phase-two egress sink did not resume from the persisted ack frontier")
				}
			})
		}
	}
}

// TestChaosPowerFailureMidFlight pulls the plug while the query is
// still computing: input is durable but processing, delivery, and the
// egress frontier are all mid-flight when the cluster hard-stops. The
// recovered cluster must finish the interrupted work from the log and
// checkpoint store alone and converge to the exact oracle output — any
// re-delivery the replayed suffix causes must be absorbed by the
// consumer's dedupe, never double-applied.
func TestChaosPowerFailureMidFlight(t *testing.T) {
	queries := []int{1, 11, 12}
	for i, proto := range protocols {
		proto, query := proto, queries[i]
		t.Run(fmt.Sprintf("q%d-%s", query, proto), func(t *testing.T) {
			t.Parallel()
			res, err := RunPower(PowerConfig{
				Query:            query,
				Protocol:         proto,
				Seed:             7,
				MidFlight:        true,
				SnapshotInterval: 60 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res)
			if res.Violation != "" {
				t.Fatalf("exactly-once violation across mid-flight power failure: %s", res.Violation)
			}
			if !res.Converged {
				t.Fatalf("output never converged after mid-flight recovery: delivered=%d deduped=%d recovered=%d",
					res.Delivered, res.Deduped, res.Recovery.RecoveredRecords)
			}
			if res.Recovery.RecoveredRecords == 0 {
				t.Fatal("recovery replayed no records; the WAL was empty")
			}
		})
	}
}

// TestChaosPowerFailureCorruption is the storage-corruption plane: the
// power failure additionally damages the WAL device. A torn tail (the
// disk lied about its final sync) must be truncated at the last valid
// frame and the run must still converge exactly — torn frames hold only
// re-derivable state. A bit flip destroying committed mid-log history
// must also be truncated, and while convergence cannot be promised
// (input may be gone), the output must never contradict exactly-once
// semantics. Both cells leave SnapshotInterval at 0 so recovery replays
// the log alone: a truncated log must not strand a checkpoint that
// references positions beyond the recovered tail.
func TestChaosPowerFailureCorruption(t *testing.T) {
	cases := []struct {
		corruption   Corruption
		mustConverge bool
	}{
		{CorruptTornWrite, true},
		{CorruptBitFlip, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.corruption.String(), func(t *testing.T) {
			t.Parallel()
			res, err := RunPower(PowerConfig{
				Query:      1,
				Protocol:   impeller.ProgressMarker,
				Seed:       7,
				Corruption: tc.corruption,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res)
			if res.Violation != "" {
				t.Fatalf("corrupted WAL produced wrong output: %s", res.Violation)
			}
			if res.Recovery.WALTruncations == 0 || res.Recovery.WALTruncatedBytes == 0 {
				t.Fatalf("recovery did not truncate the corrupt region (truncations=%d bytes=%d)",
					res.Recovery.WALTruncations, res.Recovery.WALTruncatedBytes)
			}
			if res.Recovery.RecoveredRecords == 0 {
				t.Fatal("recovery replayed no records from the valid prefix")
			}
			if tc.mustConverge && !res.Converged {
				t.Fatalf("torn-tail run never converged: delivered=%d deduped=%d recovered=%d truncated=%dB",
					res.Delivered, res.Deduped, res.Recovery.RecoveredRecords, res.Recovery.WALTruncatedBytes)
			}
		})
	}
}

// TestBitFlipOffset: the flip lands inside a frame that follows a cut
// frame even when the first cut frame spans the device's midpoint — the
// layout that used to leave a valid prefix of metadata frames only.
func TestBitFlipOffset(t *testing.T) {
	const meta = 2 // any kind other than the cut kind
	frames := []struct {
		kind byte
		size int
	}{
		{meta, 16}, {meta, 16}, {meta, 16},
		{sharedlog.WALCutFrame, 4096}, // spans the midpoint
		{sharedlog.WALCutFrame, 512},
		{meta, 16},
	}
	var buf []byte
	var bounds []int
	for _, f := range frames {
		bounds = append(bounds, len(buf))
		buf = wal.AppendFrame(buf, f.kind, make([]byte, f.size))
	}
	if mid := len(buf) / 2; mid < bounds[3] || mid >= bounds[4] {
		t.Fatalf("layout: midpoint %d is not inside the first cut frame [%d, %d)", mid, bounds[3], bounds[4])
	}
	if off := bitFlipOffset(buf); off < bounds[4] || off >= bounds[5] {
		t.Errorf("flip at %d, want inside the frame after the first cut frame [%d, %d)", off, bounds[4], bounds[5])
	}
	// Midpoint already past a cut frame: the frame spanning it is hit.
	tail := wal.AppendFrame(append([]byte(nil), buf...), meta, make([]byte, 3*len(buf)))
	if off := bitFlipOffset(tail); off < len(buf) {
		t.Errorf("flip at %d, want inside the frame spanning the midpoint (from %d)", off, len(buf))
	}
}
