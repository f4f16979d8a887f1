package sharedlog

import (
	"context"
	"errors"
	"testing"
	"time"

	"impeller/internal/sim"
)

func TestIsRetryable(t *testing.T) {
	for _, err := range []error{ErrUnavailable, sim.ErrCrashed, sim.ErrPartitioned} {
		if !IsRetryable(err) {
			t.Errorf("IsRetryable(%v) = false, want true", err)
		}
	}
	for _, err := range []error{nil, ErrCondFailed, ErrTrimmed, ErrClosed,
		context.Canceled, context.DeadlineExceeded, errors.New("other")} {
		if IsRetryable(err) {
			t.Errorf("IsRetryable(%v) = true, want false", err)
		}
	}
}

// TestReadPartitionedShard asserts a partition between the client and
// every replica of a record makes reads fail ErrUnavailable, and that
// healing the partition restores them.
func TestReadPartitionedShard(t *testing.T) {
	faults := sim.NewFaultInjector()
	l := Open(Config{NumShards: 4, Replication: 2, Faults: faults})
	defer l.Close()

	lsn, err := l.Append([]Tag{"t"}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Record lsn lives on shards lsn%4 and (lsn+1)%4.
	s0 := l.shards[int(lsn)%4].name
	s1 := l.shards[(int(lsn)+1)%4].name
	faults.Partition("client", s0)
	if _, err := scanNext(l, lsn, "t"); err != nil {
		t.Fatalf("one partitioned replica should not block reads: %v", err)
	}
	faults.Partition("client", s1)
	if _, err := scanNext(l, lsn, "t"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("scan with all replicas partitioned = %v, want ErrUnavailable", err)
	}
	if _, err := l.Read(lsn); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Read with all replicas partitioned = %v, want ErrUnavailable", err)
	}
	if _, err := l.ReadPrev("t", MaxLSN); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ReadPrev with all replicas partitioned = %v, want ErrUnavailable", err)
	}
	faults.Heal("client", s0)
	rec, err := scanNext(l, lsn, "t")
	if err != nil || rec == nil {
		t.Fatalf("scan after heal = (%v, %v), want record", rec, err)
	}
}

// sleepRecorder is a clock that records Sleep charges instead of
// blocking, so delay-charging tests stay deterministic.
type sleepRecorder struct {
	sim.RealClock
	slept time.Duration
}

func (c *sleepRecorder) Sleep(d time.Duration) { c.slept += d }

// TestReadDelaySpike asserts an injected latency spike at the serving
// replica is actually charged to reads.
func TestReadDelaySpike(t *testing.T) {
	faults := sim.NewFaultInjector()
	clock := &sleepRecorder{}
	l := Open(Config{NumShards: 1, Faults: faults, Clock: clock})
	defer l.Close()

	lsn, err := l.Append([]Tag{"t"}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	faults.SetDelay("shard/0", 5*time.Millisecond)
	before := clock.slept
	if _, err := scanNext(l, lsn, "t"); err != nil {
		t.Fatal(err)
	}
	if got := clock.slept - before; got < 5*time.Millisecond {
		t.Fatalf("read charged %v, want >= 5ms spike", got)
	}
	faults.ClearDelay("shard/0")
	before = clock.slept
	if _, err := scanNext(l, lsn, "t"); err != nil {
		t.Fatal(err)
	}
	if got := clock.slept - before; got != 0 {
		t.Fatalf("read charged %v after ClearDelay, want 0", got)
	}
}

// TestAppendSequencerDelaySpike asserts a sequencer spike delays appends.
func TestAppendSequencerDelaySpike(t *testing.T) {
	faults := sim.NewFaultInjector()
	clock := &sleepRecorder{}
	l := Open(Config{Faults: faults, Clock: clock})
	defer l.Close()

	faults.SetDelay("sequencer", 2*time.Millisecond)
	if _, err := l.Append([]Tag{"t"}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if clock.slept < 2*time.Millisecond {
		t.Fatalf("append charged %v, want >= 2ms spike", clock.slept)
	}
}

// TestReadPrevChargesReadLatencyOnce pins ReadPrev's cost model: every
// completed backward read pays the read latency exactly once, plus the
// serving replica's injected delay when there is one — a repeat of the
// same read costs the same (there is no client cache to warm).
func TestReadPrevChargesReadLatencyOnce(t *testing.T) {
	faults := sim.NewFaultInjector()
	clock := &sleepRecorder{}
	const lat = time.Millisecond
	l := Open(Config{NumShards: 1, ReadLatency: sim.FixedLatency(lat), Clock: clock, Faults: faults})
	defer l.Close()
	if _, err := l.Append([]Tag{"t"}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, delay := range []time.Duration{0, 0, 5 * time.Millisecond} {
		if delay > 0 {
			faults.SetDelay("shard/0", delay)
		}
		clock.slept = 0
		rec, err := l.ReadPrev("t", MaxLSN)
		if err != nil || rec == nil {
			t.Fatalf("ReadPrev = (%v, %v), want record", rec, err)
		}
		if clock.slept != lat+delay {
			t.Fatalf("ReadPrev under %v replica delay slept %v, want %v", delay, clock.slept, lat+delay)
		}
	}
	clock.slept = 0
	if rec, err := l.ReadPrev("absent", MaxLSN); err != nil || rec != nil {
		t.Fatalf("ReadPrev(absent) = (%v, %v), want nil, nil", rec, err)
	}
	if clock.slept != lat {
		t.Fatalf("empty ReadPrev slept %v, want %v", clock.slept, lat)
	}
}
