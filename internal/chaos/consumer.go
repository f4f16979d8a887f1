package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"impeller/internal/core"
	"impeller/internal/sim"
)

// egressConsumer is the harness's external system: the far side of the
// exactly-once boundary. It receives at-least-once deliveries from the
// delivery sink, deduplicates by the highest applied sequence number
// per (partition, producer) — the consumer-side half of the egress
// protocol — and applies each distinct record to the oracle's observed
// outputs. Its state outlives sink incarnations, exactly as a real
// downstream database would outlive a crashed egress process, so the
// oracle verifies exactly-once at the consumer's applied set, not at
// the sink's hand-off.
//
// It also plays the consumer fault plane, a seeded schedule of
// transient-error outages, latency spikes, and lost acknowledgments
// (the record is applied but the sink is told it failed, forcing a
// duplicate delivery the dedupe must absorb). All injected errors are
// unmarked — transient — so the sink retries forever; permanent
// failures are exercised by the unit tests, where the oracle is not
// watching for the records they drop.
type egressConsumer struct {
	outs  *outputs
	sched sim.ConsumerSchedule
	t0    time.Time // the run's clock origin, which sched's offsets count from

	mu          sync.Mutex
	applied     map[string]uint64 // highest applied seq per partition/producer
	ackLost     map[string]bool   // deliveries whose ack was already dropped once
	distinct    uint64
	deduped     uint64
	acksLost    uint64
	awaitFirst  bool
	restartedAt time.Time
	maxRecover  time.Duration
}

func newEgressConsumer(outs *outputs, sched sim.ConsumerSchedule, t0 time.Time) *egressConsumer {
	return &egressConsumer{outs: outs, sched: sched, t0: t0,
		applied: make(map[string]uint64), ackLost: make(map[string]bool)}
}

var (
	errConsumerOutage = errors.New("chaos: consumer transient outage")
	errAckLost        = errors.New("chaos: consumer acknowledgment lost")
)

// Deliver applies one delivery, unless a fault window rejects it first.
// Per-partition FIFO order plus ascending per-producer sequence numbers
// make max-seq dedupe sufficient: a redelivered record (sink restart,
// lost ack) always arrives with a seq at or below the applied floor.
func (c *egressConsumer) Deliver(ctx context.Context, d *core.Delivery) error {
	w := c.sched.Active(time.Since(c.t0))
	if w != nil && w.Kind == sim.ConsumerTransient {
		return errConsumerOutage
	}
	if w != nil && w.Kind == sim.ConsumerLatency && !sleepUntil(ctx, time.Now(), w.Delay) {
		return ctx.Err()
	}
	k := fmt.Sprintf("%d/%s", d.Partition, d.Producer)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.awaitFirst {
		c.maxRecover = max(c.maxRecover, time.Since(c.restartedAt))
		c.awaitFirst = false
	}
	if d.Seq <= c.applied[k] {
		c.deduped++
	} else {
		c.applied[k] = d.Seq
		c.distinct++
		c.outs.add(d.Record.Key, d.Record.Value)
	}
	if w != nil && w.Kind == sim.ConsumerAckLoss {
		// A lost ack is lost once per record; the redelivery is acked.
		if key := fmt.Sprintf("%s/%d", k, d.Seq); !c.ackLost[key] {
			c.ackLost[key] = true
			c.acksLost++
			return errAckLost
		}
	}
	return nil
}

// noteRestart marks a sink kill: the gap to the next successful
// delivery is the recovery-to-first-delivery measurement.
func (c *egressConsumer) noteRestart() {
	c.mu.Lock()
	c.awaitFirst = true
	c.restartedAt = time.Now()
	c.mu.Unlock()
}

func (c *egressConsumer) snapshot() (distinct, deduped, acksLost uint64, maxRecover time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.distinct, c.deduped, c.acksLost, c.maxRecover
}
