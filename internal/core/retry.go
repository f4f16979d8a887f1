package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// RetryPolicy bounds the transient-fault retry loop wrapped around log
// operations. The taxonomy is: transient faults (a crashed storage
// shard, a partition between the client and the log, an unreachable
// replica quorum) are retried with jittered exponential backoff; fatal
// outcomes (a fencing conflict, a closed log, a cancelled context, the
// client's own node crashing) are returned immediately — retrying a
// fence rejection cannot change the answer, and a crashed node must
// die so the manager can restart it.
type RetryPolicy struct {
	// MaxAttempts caps tries per operation (default 10).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 2 ms); each retry
	// doubles it up to MaxDelay (default 100 ms), jittered ±50%.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OpTimeout bounds one operation's total retry budget (default
	// 2 s): once exceeded, the next transient error is returned.
	OpTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 10
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.OpTimeout <= 0 {
		p.OpTimeout = 2 * time.Second
	}
	return p
}

// retrier retries transient log faults on behalf of one client node.
// It is safe for concurrent use (sim.Rand locks internally; everything
// else is immutable after construction).
type retrier struct {
	policy  RetryPolicy
	clock   sim.Clock
	faults  *sim.FaultInjector
	node    string
	rng     *sim.Rand
	metrics *TaskMetrics
}

// newRetrier builds a retrier for the named client node. The jitter
// stream is derived deterministically from (env.Seed, node) so chaos
// runs with a fixed seed replay the same backoff choices. metrics may
// be nil.
func newRetrier(env *Env, node string, m *TaskMetrics) *retrier {
	seed := env.Seed
	if seed == 0 {
		seed = 1
	}
	for _, c := range node {
		seed = seed*1099511628211 + uint64(c) // FNV-style fold
	}
	clock := env.Clock
	if clock == nil {
		clock = sim.RealClock{}
	}
	return &retrier{
		policy:  env.Retry.withDefaults(),
		clock:   clock,
		faults:  env.Faults,
		node:    node,
		rng:     sim.NewRand(seed),
		metrics: m,
	}
}

// preflight consults the fault injector before an operation: the
// node's own crash is fatal (the task must die and be restarted once
// the node recovers); a partition between the node and the log is
// transient (it heals).
func (r *retrier) preflight() (fatal, transient error) {
	if r.faults == nil || r.node == "" {
		return nil, nil
	}
	if r.faults.Crashed(r.node) {
		return fmt.Errorf("core: %s: %w", r.node, sim.ErrCrashed), nil
	}
	if err := r.faults.Check(r.node, "log"); err != nil {
		return nil, err
	}
	return nil, nil
}

// do runs fn, retrying transient faults with jittered exponential
// backoff until it succeeds, turns fatal, exhausts MaxAttempts /
// OpTimeout, or ctx is cancelled (then ctx.Err() is returned so
// callers can classify a clean shutdown).
func (r *retrier) do(ctx context.Context, op string, fn func() error) error {
	deadline := r.clock.Now().Add(r.policy.OpTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		fatal, transient := r.preflight()
		if fatal != nil {
			return fmt.Errorf("core: %s: %w", op, fatal)
		}
		err := transient
		if err == nil {
			err = fn()
		}
		if err == nil {
			return nil
		}
		if !sharedlog.IsRetryable(err) {
			return err
		}
		lastErr = err
		if attempt+1 >= r.policy.MaxAttempts || !r.clock.Now().Before(deadline) {
			break
		}
		if r.metrics != nil {
			r.metrics.Retries.Add(1)
		}
		if !r.sleep(ctx, r.backoff(attempt)) {
			return ctx.Err()
		}
	}
	return fmt.Errorf("core: %s: retries exhausted: %w", op, lastErr)
}

// backoff computes the jittered exponential delay for attempt (0-based).
func (r *retrier) backoff(attempt int) time.Duration {
	d := r.policy.BaseDelay
	for i := 0; i < attempt && d < r.policy.MaxDelay; i++ {
		d *= 2
	}
	if d > r.policy.MaxDelay {
		d = r.policy.MaxDelay
	}
	// Jitter over [d/2, d]: desynchronizes clients retrying the same
	// outage without ever collapsing the wait to ~0.
	half := d / 2
	if half > 0 {
		d = half + time.Duration(r.rng.Uint64()%uint64(half+1))
	}
	return d
}

// sleep waits d on the environment clock, returning false if ctx was
// cancelled first.
func (r *retrier) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	select {
	case <-ctx.Done():
		return false
	case <-r.clock.After(d):
		return true
	}
}

// readFault is what a forward reader can do about a failed cursor read.
type readFault int

const (
	// readStopped: the read's context ended — the reader was cancelled
	// or the caller's own read deadline passed.
	readStopped readFault = iota
	// readSeeked: a trim passed the cursor, which now sits at the trim
	// horizon (returned alongside); the reader skipped what it had not
	// consumed.
	readSeeked
	// readRetry: a transient fault (a storage shard down, the reader cut
	// off from the log), already backed off; the cursor stays valid, so
	// poll again.
	readRetry
	// readFatal: anything else; the reader must stop with the error.
	readFatal
)

// handleReadErr sorts the error of a failed cursor read for the runtime's
// forward readers (Task.Run, Task.feed, Sink.Run) and does the handling
// they share: it repositions an invalidated cursor at the trim horizon
// and sleeps one backoff step after a transient fault.
func (r *retrier) handleReadErr(ctx context.Context, err error, cur *sharedlog.Cursor, log *sharedlog.Log) (readFault, LSN) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return readStopped, 0
	case errors.Is(err, sharedlog.ErrCursorInvalidated):
		horizon := log.TrimHorizon()
		cur.Seek(horizon)
		return readSeeked, horizon
	case sharedlog.IsRetryable(err):
		if r.metrics != nil {
			r.metrics.Retries.Add(1)
		}
		if !r.sleep(ctx, r.backoff(0)) {
			return readStopped, 0
		}
		return readRetry, 0
	default:
		return readFatal, 0
	}
}
