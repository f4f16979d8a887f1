package bench

import (
	"fmt"
	"io"
	"time"

	"impeller"
	"impeller/internal/sharedlog"
	"impeller/internal/wal"
)

// Durability experiment (-exp durability): the durability plane's two
// costs.
//
//   - Append overhead: the same NEXMark run twice — once on the default
//     in-memory log and once with the WAL device attached, so every
//     committed cut is checksummed, framed, appended, and flushed
//     before the append is acknowledged. Under -simulate the flush is
//     charged at the calibrated device latency; the p50/p99 delta is
//     the price of ack-after-durable.
//   - Recovery time vs log length: a synthetic durable log is built to
//     each target depth (records plus a sprinkling of metadata ops,
//     like the runtime's fences and seq reservations), the process
//     "dies", and sharedlog.Recover rebuilds the whole log from the
//     device — segments, tag index, sequencer state, metadata KV. The
//     replay is CPU-bound and linear in WAL bytes, so the MB/s column
//     should be flat and the wall time proportional to depth.

// durabilityPayload is the recovery phase's synthetic record size: the
// ballpark of an encoded NEXMark event.
const durabilityPayload = 128

// DurabilityRecoveryPoint is one depth point of the recovery phase.
type DurabilityRecoveryPoint struct {
	// Depth is the records appended before the simulated crash;
	// WALBytes the device size recovery had to scan.
	Depth    int
	WALBytes uint64
	// Records / MetaOps are what Recover replayed (Records == Depth on
	// a clean device).
	Records uint64
	MetaOps uint64
	// Recovery is the wall-clock Recover duration; MBPerSec the implied
	// replay bandwidth (flat when replay is linear, the design goal).
	Recovery time.Duration
	MBPerSec float64
}

// DurabilityResult is the experiment outcome: the off/on overhead pair
// and one recovery point per depth.
type DurabilityResult struct {
	Off, On  *RunResult
	Recovery []DurabilityRecoveryPoint
}

// RunDurability executes both phases: the overhead pair under progress
// markers on p.Query at p.Rate (default Q1 at 3000 events/s, matching
// the egress latency phase), then a recovery per log length in
// p.Depths (default 2000, 10000 and 50000 records).
func RunDurability(p Params, progress io.Writer) (*DurabilityResult, error) {
	p = p.or(1, 3000, 0)
	if len(p.Depths) == 0 {
		p.Depths = []int{2000, 10000, 50000}
	}
	res := &DurabilityResult{}
	for _, durable := range []bool{false, true} {
		cfg := p.run(impeller.ProgressMarker)
		if durable {
			cfg.Cluster.WAL = wal.NewDevice()
		}
		point, err := RunNexmark(cfg)
		if err != nil {
			return res, err
		}
		if progress != nil {
			fmt.Fprintf(progress, "  durable=%-5v %v\n", durable, point)
		}
		if durable {
			res.On = point
		} else {
			res.Off = point
		}
	}
	for _, depth := range p.Depths {
		p, err := measureDurableRecovery(depth)
		if err != nil {
			return res, err
		}
		res.Recovery = append(res.Recovery, *p)
		if progress != nil {
			fmt.Fprintf(progress, "  depth=%-7d wal=%-9d recovery=%-10v %.1f MB/s\n",
				p.Depth, p.WALBytes, p.Recovery.Round(10*time.Microsecond), p.MBPerSec)
		}
	}
	return res, nil
}

// measureDurableRecovery builds a durable log to depth records (with a
// metadata op every 64 — the control-plane/data-plane mix a real run
// journals), closes it as a power failure would, and times a full
// Recover from the device.
func measureDurableRecovery(depth int) (*DurabilityRecoveryPoint, error) {
	dev := wal.NewDevice()
	l := sharedlog.Open(sharedlog.Config{WAL: dev})
	buf := make([]byte, durabilityPayload)
	for i := range buf {
		buf[i] = byte(i)
	}
	tags := make([]sharedlog.Tag, 4)
	for i := range tags {
		tags[i] = sharedlog.Tag(fmt.Sprintf("bench/part/%d", i))
	}
	for i := 0; i < depth; i++ {
		if _, err := l.Append([]sharedlog.Tag{tags[i%len(tags)]}, buf); err != nil {
			l.Close()
			return nil, fmt.Errorf("bench: durable build append %d: %w", i, err)
		}
		if i%64 == 0 {
			l.Meta().Set(fmt.Sprintf("bench/seq/%d", i%8), uint64(i))
		}
	}
	l.Close()

	p := &DurabilityRecoveryPoint{Depth: depth, WALBytes: uint64(dev.Size())}
	start := time.Now()
	rec, err := sharedlog.Recover(sharedlog.Config{WAL: dev})
	p.Recovery = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("bench: recover at depth %d: %w", depth, err)
	}
	stats := rec.Stats()
	rec.Close()
	p.Records = stats.RecoveredRecords
	p.MetaOps = stats.RecoveredMetaOps
	if p.Recovery > 0 {
		p.MBPerSec = float64(p.WALBytes) / (1 << 20) / p.Recovery.Seconds()
	}
	if p.Records != uint64(depth) {
		return nil, fmt.Errorf("bench: recovery at depth %d replayed %d records", depth, p.Records)
	}
	return p, nil
}

// PrintDurability renders both phases.
func PrintDurability(w io.Writer, res *DurabilityResult) {
	fmt.Fprintf(w, "Durability: WAL append overhead, q%d at %d events/s (ack-after-durable vs in-memory)\n",
		res.Off.Config.Query, res.Off.Config.Rate)
	fmt.Fprintln(w, "wal    p50         p99         mean        recv     wal-bytes  flushes")
	for _, p := range []*RunResult{res.Off, res.On} {
		fmt.Fprintf(w, "%-6v %-11v %-11v %-11v %-8d %-10d %d\n",
			p.Config.Cluster.WAL != nil, p.P50.Round(100*time.Microsecond), p.P99.Round(100*time.Microsecond),
			p.Mean.Round(100*time.Microsecond), p.Received, p.Log.WALBytes, p.Log.WALFlushes)
	}
	if res.Off.P99 > 0 {
		fmt.Fprintf(w, "     overhead: p50 %+.1f%%  p99 %+.1f%%\n",
			100*(float64(res.On.P50)/float64(res.Off.P50)-1),
			100*(float64(res.On.P99)/float64(res.Off.P99)-1))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Durability: recovery time vs log length (full replay from the WAL device)")
	fmt.Fprintln(w, "depth    wal-bytes   records  metaops  recovery     replay")
	for _, p := range res.Recovery {
		fmt.Fprintf(w, "%-8d %-11d %-8d %-8d %-12v %.1f MB/s\n",
			p.Depth, p.WALBytes, p.Records, p.MetaOps,
			p.Recovery.Round(10*time.Microsecond), p.MBPerSec)
	}
}
