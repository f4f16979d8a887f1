package chaos

import (
	"fmt"
	"time"

	"impeller/internal/sharedlog"
	"impeller/internal/wal"
)

// Corruption selects the storage fault applied to the WAL device while
// a power-cut run's power is out.
type Corruption int

const (
	// CorruptNone is a clean power cycle: everything the log
	// acknowledged is on the device, recovery replays it all.
	CorruptNone Corruption = iota
	// CorruptTornWrite tears the tail of the device mid-frame — the
	// final durable frame is half-written, as if the disk lied about
	// its last sync. Recovery must truncate the torn frame and the run
	// must still converge: everything the torn frame held is
	// re-derivable (markers, frontier persists), never input data.
	CorruptTornWrite
	// CorruptBitFlip flips one bit in the middle of the synced region —
	// silent media corruption destroying committed history. Recovery
	// truncates from the flipped frame; the run cannot be expected to
	// converge (inputs may be gone) but must never emit wrong output.
	CorruptBitFlip
)

func (c Corruption) String() string {
	switch c {
	case CorruptNone:
		return "none"
	case CorruptTornWrite:
		return "torn-write"
	case CorruptBitFlip:
		return "bit-flip"
	}
	return fmt.Sprintf("corruption(%d)", int(c))
}

// tornTailBytes is how much CorruptTornWrite shaves off the device.
// Smaller than the minimum frame size (HeaderSize+1), so the final
// durable frame is always left torn, never removed whole — the
// truncation counter is deterministically exercised.
const tornTailBytes = wal.HeaderSize - 6

// bitFlipGrace bounds the convergence wait after a bit flip: corrupted
// history may have destroyed committed input, so convergence is not
// expected — only wrong output is fatal.
const bitFlipGrace = 3 * time.Second

// powerCut pulls the plug on d once its half of the input has been
// sent: drain the ingress buffers, converge first unless the cut is
// mid-flight, hard-stop the cluster, apply the storage fault, and
// recover a second cluster from the device and the checkpoint store's
// surviving image. It returns nil (and the verdict in res) when the
// first half never converged.
func (h *harness) powerCut(d *deployment, res *Result, wait time.Duration) (*deployment, error) {
	// Every first-half input is in the log before the plug is pulled:
	// input loss is a controlled variable, not an accident of flush
	// timing.
	if err := d.app.FlushIngress(); err != nil {
		return nil, fmt.Errorf("chaos: ingress flush before the power cut: %w", err)
	}
	if h.cfg.MidFlight {
		// Hard-kill the sink — no drain, no final frontier — exactly as
		// a power loss would; whatever frontier its periodic persists
		// reached is all the recovered cluster gets.
		d.sink.kill()
	} else {
		if res.Phase1Converged, res.Violation = h.converge(wait); !res.Phase1Converged {
			return nil, nil
		}
		// Graceful egress stop persists the final ack frontier; the
		// tasks and the log are then hard-stopped — everything after
		// this point must come off the device.
		d.sink.finish()
	}
	ckpt := d.cluster.Checkpoints().WAL()
	d.app.PowerFail()

	h.dev.PowerFail(0) // drop anything appended but never synced
	switch h.cfg.Corruption {
	case CorruptTornWrite:
		h.dev.TruncateTo(h.dev.Size() - tornTailBytes)
	case CorruptBitFlip:
		h.dev.FlipBit(bitFlipOffset(h.dev.Bytes()), 3)
	}

	start := time.Now()
	next, err := h.deploy(ckpt)
	if err != nil {
		return nil, err
	}
	res.RecoveryTime = time.Since(start)
	res.Recovery = next.cluster.LogStats()
	res.CkptTruncated = next.cluster.Checkpoints().TruncatedBytes()
	return next, nil
}

// bitFlipOffset picks the byte to corrupt: the middle of the frame that
// spans the device's midpoint, moved forward if need be to a frame that
// follows at least one cut frame. A flush boundary decides where the
// first cut frame falls; aiming by byte offset alone can leave a valid
// prefix of metadata frames only, and the cell would then fail for
// having nothing to replay although truncation behaved correctly.
func bitFlipOffset(buf []byte) int {
	mid := len(buf) / 2
	r := wal.NewReader(buf)
	sawCut := false
	for {
		start := r.Offset()
		kind, _, ok := r.Next()
		if !ok {
			return mid // no frame after a cut: nothing better to aim at
		}
		if end := r.Offset(); sawCut && end > mid {
			return start + (end-start)/2
		}
		sawCut = sawCut || kind == sharedlog.WALCutFrame
	}
}
