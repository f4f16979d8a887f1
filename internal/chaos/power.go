package chaos

import (
	"context"
	"fmt"
	"time"

	"impeller"
	"impeller/internal/nexmark"
	"impeller/internal/sharedlog"
	"impeller/internal/wal"
)

// Corruption selects the storage fault injected between the two phases
// of a power-failure run.
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

// PowerConfig parameterizes one two-phase power-failure run: phase one
// runs a query on a durable cluster and hard-stops it (power loss),
// phase two recovers a new cluster from the WAL device and the
// checkpoint store's image, sends the rest of the input, and verifies
// the oracle across the restart boundary.
type PowerConfig struct {
	// Query selects the NEXMark query (1, 11, or 12 — the oracles).
	Query int
	// Protocol selects the fault-tolerance protocol under test.
	Protocol impeller.Protocol
	// Seed fixes the generators (0 uses 1).
	Seed uint64
	// Events is the input count per generator across both phases
	// (default 400; the first half is sent before the power failure).
	Events int
	// Parallelism is the per-stage task count (default 2); Generators
	// the ingress writer count (default 2).
	Parallelism int
	Generators  int
	// CommitInterval is the protocol's commit interval (default 20 ms).
	CommitInterval time.Duration
	// SnapshotInterval enables asynchronous state checkpoints (marker
	// protocol); corruption runs leave it 0 so recovery replays the log
	// alone and a truncated tail cannot strand a checkpoint that
	// references positions beyond it.
	SnapshotInterval time.Duration
	// Engine selects the task execution engine.
	Engine impeller.EngineMode
	// Corruption is the storage fault injected while the power is out.
	Corruption Corruption
	// MidFlight pulls the plug as soon as the input is durable instead
	// of waiting for phase one to converge: tasks die mid-computation,
	// the egress sink is hard-killed (no drain, no final frontier), and
	// recovery must finish the interrupted work from the log and the
	// checkpoint store alone.
	MidFlight bool
	// Timeout bounds each phase's convergence wait (default 30 s).
	Timeout time.Duration
}

func (c PowerConfig) withDefaults() PowerConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Events <= 0 {
		c.Events = 400
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 2
	}
	if c.Generators <= 0 {
		c.Generators = 2
	}
	if c.CommitInterval <= 0 {
		c.CommitInterval = 20 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// PowerResult is the outcome of one power-failure run.
type PowerResult struct {
	Config PowerConfig
	// Phase1Converged reports the pre-failure half converged before the
	// plug was pulled; Converged reports full convergence after the
	// restart. Violation is terminal and must stay empty in every cell.
	Phase1Converged bool
	Converged       bool
	Violation       string
	// Delivered/Deduped are the consumer's distinct and absorbed
	// deliveries across both phases (its state survives the failure, as
	// a real downstream system's would).
	Delivered, Deduped uint64
	// Resumed reports whether the phase-two egress sink resumed from an
	// ack frontier persisted before the power failure.
	Resumed bool
	// Recovery snapshots the recovered log's counters right after phase
	// two's cluster came up: records and metadata ops replayed, and the
	// truncation counters the corruption cells assert on.
	Recovery sharedlog.Stats
	// CkptTruncated is how many bytes of checkpoint-store WAL tail the
	// kvstore recovery discarded (0 on a clean cycle).
	CkptTruncated int
	// RecoveryTime is how long phase two's cluster construction took —
	// WAL replay plus checkpoint-store recovery.
	RecoveryTime time.Duration
}

func (r *PowerResult) String() string {
	status := "ok"
	if r.Violation != "" {
		status = "VIOLATION: " + r.Violation
	} else if !r.Converged {
		status = "NOT CONVERGED"
	}
	return fmt.Sprintf("q%-2d %-18s %-10s recovered=%d metaops=%d trunc=%d(%dB) ckpttrunc=%dB rec=%v delivered=%d dedup=%d resumed=%v %s",
		r.Config.Query, r.Config.Protocol, r.Config.Corruption,
		r.Recovery.RecoveredRecords, r.Recovery.RecoveredMetaOps,
		r.Recovery.WALTruncations, r.Recovery.WALTruncatedBytes, r.CkptTruncated,
		r.RecoveryTime.Round(100*time.Microsecond),
		r.Delivered, r.Deduped, r.Resumed, status)
}

// tornTailBytes is how much CorruptTornWrite shaves off the device.
// Smaller than the minimum frame size (HeaderSize+1), so the final
// durable frame is always left torn, never removed whole — the
// truncation counter is deterministically exercised.
const tornTailBytes = wal.HeaderSize - 6

// RunPower executes one power-failure run. Phase one: run the query on
// a cluster whose shared log persists to a WAL device, send the first
// half of the input, converge, then pull the plug — the log is closed
// mid-flight, the task goroutines die, and the configured storage
// corruption is applied to the device. Phase two: build a new cluster
// that recovers from the device and the checkpoint store's surviving
// image, reattach the same external consumer, send the second half, and
// poll the oracle. The consumer's applied set must never contradict
// exactly-once semantics across the boundary; clean and torn-tail runs
// must additionally converge to the oracle's exact output.
func RunPower(cfg PowerConfig) (*PowerResult, error) {
	cfg = cfg.withDefaults()
	orc, err := newOracle(cfg.Query)
	if err != nil {
		return nil, err
	}
	res := &PowerResult{Config: cfg}
	topo, err := nexmark.BuildOpts(cfg.Query, nexmark.Options{PerUpdateWindows: true})
	if err != nil {
		return nil, err
	}
	clusterCfg := impeller.ClusterConfig{
		Protocol:             cfg.Protocol,
		CommitInterval:       cfg.CommitInterval,
		SnapshotInterval:     cfg.SnapshotInterval,
		DefaultParallelism:   cfg.Parallelism,
		IngressWriters:       cfg.Generators,
		IngressFlushInterval: 5 * time.Millisecond,
		LogShards:            logShards,
		OrderingInterval:     time.Millisecond,
		OrderingShards:       2,
		Seed:                 cfg.Seed,
		Engine:               cfg.Engine,
	}

	// The external world: the WAL device the log persists to, and the
	// consumer whose applied set (and dedupe floors) outlives the
	// cluster, as a downstream database would.
	dev := wal.NewDevice()
	outs := newOutputs(cfg.Query)
	cons := newEgressConsumer(outs)
	stream := nexmark.OutputStream(cfg.Query)
	half := cfg.Events / 2
	spacing := eventSpacing(cfg.Query)

	// send replays each generator's deterministic event stream and sends
	// the half selected by [from, to) — phase two regenerates the same
	// stream and skips the prefix, so the input is identical to what a
	// single uninterrupted run would have produced.
	send := func(app *impeller.App, from, to int) error {
		for g := 0; g < cfg.Generators; g++ {
			gen := nexmark.NewGenerator(cfg.Seed + uint64(g))
			for i := 0; i < to; i++ {
				et := eventBase + int64(i)*spacing
				ev := gen.Next(et)
				if i < from {
					continue
				}
				key := []byte(fmt.Sprintf("%d-%d", g, i))
				orc.record(key, ev.Payload)
				if err := app.SendVia(nexmark.EventStream, g, key, ev.Payload, et); err != nil {
					return err
				}
			}
		}
		return nil
	}
	converge := func(deadline time.Time) (bool, string) {
		for {
			done, violation := orc.check(outs)
			if done || violation != "" || time.Now().After(deadline) {
				return done, violation
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// ---- Phase one: durable cluster up to the power failure. ----
	phase1Cfg := clusterCfg
	phase1Cfg.WAL = dev
	cluster1 := impeller.NewCluster(phase1Cfg)
	app1, err := cluster1.Run(topo)
	if err != nil {
		cluster1.Close()
		return nil, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runner1 := newEgressRunner(app1, stream, cons, impeller.DeliveryOptions{})
	if !runner1.launch(runCtx) {
		return nil, fmt.Errorf("chaos: phase-one egress sink never started")
	}
	if err := send(app1, 0, half); err != nil {
		return nil, err
	}
	// Drain the ingress buffers so every phase-one input is in the log
	// before the plug is pulled: input loss is a controlled variable,
	// not an accident of flush timing.
	if err := app1.FlushIngress(); err != nil {
		return nil, fmt.Errorf("chaos: phase-one ingress flush: %w", err)
	}
	if cfg.MidFlight {
		// Hard-kill the sink — no drain, no final frontier — exactly as
		// a power loss would; whatever frontier its periodic persists
		// reached is all phase two gets.
		runner1.kill()
	} else {
		done, violation := converge(time.Now().Add(cfg.Timeout))
		res.Phase1Converged = done
		if violation != "" {
			res.Violation = violation
			return res, nil
		}
		if !done {
			return res, fmt.Errorf("chaos: phase one never converged (%d inputs)", orc.inputs())
		}
		// Graceful egress stop persists the final ack frontier; the
		// tasks and the log are then hard-stopped — everything after
		// this point must come off the device.
		runner1.finish()
	}
	ckptWAL := cluster1.Checkpoints().WAL()
	app1.PowerFail()

	// ---- The power is out: apply the configured storage fault. ----
	dev.PowerFail(0) // drop anything appended but never synced
	switch cfg.Corruption {
	case CorruptTornWrite:
		dev.TruncateTo(dev.Size() - tornTailBytes)
	case CorruptBitFlip:
		dev.FlipBit(bitFlipOffset(dev.Bytes()), 3)
	}

	// ---- Phase two: recover and finish the run. ----
	phase2Cfg := clusterCfg
	phase2Cfg.WAL = dev
	phase2Cfg.CheckpointWAL = ckptWAL
	recoverStart := time.Now()
	cluster2 := impeller.NewCluster(phase2Cfg)
	res.RecoveryTime = time.Since(recoverStart)
	res.Recovery = cluster2.LogStats()
	res.CkptTruncated = cluster2.Checkpoints().TruncatedBytes()
	defer cluster2.Close()
	app2, err := cluster2.Run(topo)
	if err != nil {
		return nil, err
	}
	defer app2.Stop()
	runner2 := newEgressRunner(app2, stream, cons, impeller.DeliveryOptions{})
	if !runner2.launch(runCtx) {
		return nil, fmt.Errorf("chaos: phase-two egress sink never started")
	}
	if err := send(app2, half, cfg.Events); err != nil {
		return nil, err
	}
	// Corrupted history may have destroyed committed input, so a
	// bit-flip run polls for a bounded grace window instead of a full
	// timeout: convergence is not expected, wrong output is still fatal.
	wait := cfg.Timeout
	if cfg.Corruption == CorruptBitFlip {
		wait = 3 * time.Second
		if wait > cfg.Timeout {
			wait = cfg.Timeout
		}
	}
	done, violation := converge(time.Now().Add(wait))
	res.Converged = done
	res.Violation = violation

	runner2.finish()
	stats, _, _ := runner2.snapshot()
	res.Resumed = stats.Resumed
	res.Delivered, res.Deduped, _ = cons.snapshot()
	return res, nil
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
