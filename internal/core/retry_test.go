package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

func testRetrier(t *testing.T, node string, p RetryPolicy) (*retrier, *sim.FaultInjector, *TaskMetrics) {
	t.Helper()
	faults := sim.NewFaultInjector()
	m := &TaskMetrics{}
	env := &Env{Faults: faults, Retry: p, Seed: 7}
	return newRetrier(env, node, m), faults, m
}

func TestRetryTransientThenSuccess(t *testing.T) {
	r, _, m := testRetrier(t, "", RetryPolicy{BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond})
	calls := 0
	err := r.do(context.Background(), "op", func() error {
		calls++
		if calls < 3 {
			return sharedlog.ErrUnavailable
		}
		return nil
	})
	if err != nil {
		t.Fatalf("do() = %v, want success after transient failures", err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
	if got := m.Retries.Load(); got != 2 {
		t.Fatalf("Retries metric = %d, want 2", got)
	}
}

func TestRetryFatalNotRetried(t *testing.T) {
	r, _, m := testRetrier(t, "", RetryPolicy{})
	for _, fatal := range []error{sharedlog.ErrCondFailed, sharedlog.ErrClosed, sharedlog.ErrTrimmed} {
		calls := 0
		err := r.do(context.Background(), "op", func() error {
			calls++
			return fatal
		})
		if !errors.Is(err, fatal) {
			t.Fatalf("do() = %v, want %v passed through", err, fatal)
		}
		if calls != 1 {
			t.Fatalf("fatal %v retried (%d calls)", fatal, calls)
		}
	}
	if got := m.Retries.Load(); got != 0 {
		t.Fatalf("Retries metric = %d, want 0 for fatal errors", got)
	}
}

func TestRetryExhausted(t *testing.T) {
	r, _, _ := testRetrier(t, "", RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 2 * time.Microsecond})
	calls := 0
	err := r.do(context.Background(), "op", func() error {
		calls++
		return sharedlog.ErrUnavailable
	})
	if calls != 3 {
		t.Fatalf("fn called %d times, want MaxAttempts=3", calls)
	}
	if !errors.Is(err, sharedlog.ErrUnavailable) {
		t.Fatalf("exhausted error %v does not wrap the last transient error", err)
	}
}

func TestRetryOwnNodeCrashIsFatal(t *testing.T) {
	r, faults, _ := testRetrier(t, "node/x", RetryPolicy{})
	faults.Crash("node/x")
	calls := 0
	err := r.do(context.Background(), "op", func() error { calls++; return nil })
	if !errors.Is(err, sim.ErrCrashed) {
		t.Fatalf("do() on crashed node = %v, want sim.ErrCrashed", err)
	}
	if calls != 0 {
		t.Fatal("operation ran on a crashed node")
	}
}

func TestRetryPartitionFromLogHeals(t *testing.T) {
	r, faults, _ := testRetrier(t, "node/x", RetryPolicy{
		MaxAttempts: 100, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
	faults.Partition("node/x", "log")
	go func() {
		time.Sleep(10 * time.Millisecond)
		faults.Heal("node/x", "log")
	}()
	calls := 0
	err := r.do(context.Background(), "op", func() error { calls++; return nil })
	if err != nil {
		t.Fatalf("do() = %v, want success after partition healed", err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want exactly 1 (preflight blocks while partitioned)", calls)
	}
}

func TestRetryCtxCancelled(t *testing.T) {
	r, _, _ := testRetrier(t, "", RetryPolicy{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := r.do(ctx, "op", func() error { t.Fatal("fn ran under cancelled ctx"); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("do() = %v, want context.Canceled", err)
	}
}

func TestRetryBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 100 * time.Millisecond}.withDefaults()
	r, _, _ := testRetrier(t, "", p)
	for attempt := 0; attempt < 12; attempt++ {
		ceil := p.BaseDelay << uint(attempt)
		if ceil > p.MaxDelay || ceil <= 0 {
			ceil = p.MaxDelay
		}
		for i := 0; i < 50; i++ {
			d := r.backoff(attempt)
			if d < ceil/2 || d > ceil {
				t.Fatalf("backoff(%d) = %v outside jitter range [%v, %v]", attempt, d, ceil/2, ceil)
			}
		}
	}
}

func TestRetryJitterDeterministicPerNode(t *testing.T) {
	mk := func(node string) []time.Duration {
		r, _, _ := testRetrier(t, node, RetryPolicy{})
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = r.backoff(i)
		}
		return out
	}
	a, b := mk("node/a"), mk("node/a")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed, node) produced different jitter at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := mk("node/b")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different nodes share an identical jitter stream")
	}
}

// TestManagerRestartBackoff crashes a task's compute node so every
// replacement instance dies during startup, and checks the monitor
// paces restarts instead of hot-looping, then resets the backoff once
// the node recovers and an instance stays healthy.
func TestManagerRestartBackoff(t *testing.T) {
	faults := sim.NewFaultInjector()
	env := &Env{
		Log:            sharedlog.Open(sharedlog.Config{Faults: faults}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       ProtoProgressMarker,
		CommitInterval: 5 * time.Millisecond,
		Faults:         faults,
	}
	defer env.Log.Close()
	mgr, err := NewManager(env, wordCountQuery(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	mgr.RestartBackoffMax = 50 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	mgr.SetTimeouts(40*time.Millisecond, 5*time.Millisecond)

	id := TaskID("wc/count/0")
	faults.Crash(ComputeNode(id))
	if err := mgr.Kill(id); err != nil {
		t.Fatal(err)
	}

	// While the node stays down every respawned instance exits with
	// sim.ErrCrashed almost immediately. Without backoff the monitor
	// would restart ~2 per monitor tick-pair (~300ms / 5ms = 60 times);
	// with exponential backoff capped at 50ms it is bounded by roughly
	// 300/50 + the ramp-up (~5) — allow generous slack for scheduling.
	time.Sleep(300 * time.Millisecond)
	down := mgr.Restarts(id)
	if down == 0 {
		t.Fatal("crashed-node task was never restarted")
	}
	if down > 20 {
		t.Fatalf("restarted %d times in 300ms with a down node; backoff is not pacing", down)
	}

	// Recover the node; an instance should come up, stay healthy, and
	// processing should work end to end again. That need not be a new
	// restart: an instance spawned just before the recovery can survive
	// it, so output arriving is the claim, not the restart count moving.
	faults.Recover(ComputeNode(id))

	ing := NewIngress("ingress/0", "lines", 1, mgr.Env(), nil)
	go func() { _ = ing.Run(ctx, 5*time.Millisecond) }()
	sink := NewGatedSink("counts", 1, mgr.Env())
	got := make(chan struct{}, 1)
	sink.OnRecord = func(Record, TaskID, time.Time) {
		select {
		case got <- struct{}{}:
		default:
		}
	}
	go func() { _ = sink.Run(ctx) }()
	for i := 0; i < 20; i++ {
		ing.Send([]byte(fmt.Sprint(i)), []byte("alive"), time.Now().UnixMicro())
	}
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no output after node recovery")
	}
}
