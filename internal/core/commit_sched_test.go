package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// schedInterval is long against every constant in the commit path, so a
// latency of "one interval" and one of "three" cannot be confused by a
// loaded test machine; schedSlack is the small constant the cascade is
// allowed on top of a tick.
const (
	schedInterval = time.Second
	schedSlack    = 400 * time.Millisecond
)

var schedEngines = []EngineMode{EngineGoroutine, EngineTasklet}

func TestCommitTickGrid(t *testing.T) {
	origin := time.Unix(1000, 0)
	env := (&Env{Clock: sim.NewManualClock(origin), CommitInterval: 100 * time.Millisecond}).withDefaults()
	at := func(ms int) time.Time { return origin.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct{ now, want int }{
		{0, 100}, {1, 100}, {37, 100}, {99, 100}, {100, 200}, {137, 200}, {1234, 1300},
	} {
		if got := env.commitTick(at(c.now)); !got.Equal(at(c.want)) {
			t.Errorf("commitTick(origin+%dms) = origin+%v, want origin+%dms", c.now, got.Sub(origin), c.want)
		}
	}
	// A copy of an anchored env keeps the origin: every manager built
	// over one cluster's env ticks on the same grid.
	if again := env.withDefaults(); !again.commitOrigin.Equal(env.commitOrigin) {
		t.Errorf("withDefaults re-anchored: %v != %v", again.commitOrigin, env.commitOrigin)
	}
}

// TestCommitDue pins the two rules of the commit-trigger decision.
func TestCommitDue(t *testing.T) {
	origin := time.Unix(1000, 0)
	before, tick := origin.Add(40*time.Millisecond), origin.Add(100*time.Millisecond)
	queued := func(p TaskID) []queuedBatch { return []queuedBatch{{batch: &Batch{Producer: p}}} }
	for _, c := range []struct {
		name     string
		proto    FTProtocol
		now      time.Time
		released bool
		dry      bool
		reported []TaskID
		queue    []queuedBatch
		want     bool
		offTick  bool
	}{
		{name: "tick", proto: ProtoProgressMarker, now: tick, want: true},
		{name: "tick with input waiting", proto: ProtoProgressMarker, now: tick, released: true, want: true},
		{name: "idle before tick", proto: ProtoProgressMarker, now: before, dry: true},
		{name: "markers that released nothing", proto: ProtoProgressMarker, now: before, dry: true, reported: []TaskID{"a"}},
		{name: "released, queue empty", proto: ProtoProgressMarker, now: before, released: true, dry: true, reported: []TaskID{"a"}, want: true, offTick: true},
		{name: "released, input waiting", proto: ProtoProgressMarker, now: before, released: true, reported: []TaskID{"a"}},
		{name: "head from a producer yet to report", proto: ProtoProgressMarker, now: before, released: true, dry: true, reported: []TaskID{"a"}, queue: queued("b")},
		{name: "head from a producer that reported", proto: ProtoProgressMarker, now: before, released: true, dry: true, reported: []TaskID{"a", "b"}, queue: queued("b"), want: true, offTick: true},
		{name: "kafka-txn stays timer-driven", proto: ProtoKafkaTxn, now: before, released: true, dry: true},
		{name: "aligned stays timer-driven", proto: ProtoAlignedCheckpoint, now: before, released: true, dry: true},
	} {
		env := (&Env{Clock: sim.NewManualClock(origin), Protocol: c.proto, CommitInterval: 100 * time.Millisecond}).withDefaults()
		task := &Task{env: env, queue: c.queue}
		task.sched.next = env.commitTick(origin)
		task.sched.released = c.released
		for _, p := range c.reported {
			task.noteMarker(p)
		}
		got := task.commitDue(c.now, c.dry)
		if got != c.want || (got && task.sched.offTick != c.offTick) {
			t.Errorf("%s: commitDue = %v (offTick %v), want %v (offTick %v)", c.name, got, task.sched.offTick, c.want, c.offTick)
		}
		if got && (task.sched.released || len(task.sched.reported) != 0) {
			t.Errorf("%s: a commit did not start a new round", c.name)
		}
		if got && !c.offTick && !task.sched.next.Equal(origin.Add(200*time.Millisecond)) {
			t.Errorf("%s: next tick %v, want origin+200ms", c.name, task.sched.next.Sub(origin))
		}
	}
}

// schedEnv builds a zero-latency marker-protocol env on a long commit
// interval. Tests that run tasks without a manager get the loop pool the
// manager would have created.
func schedEnv(t *testing.T, engine EngineMode) *Env {
	t.Helper()
	env := (&Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       ProtoProgressMarker,
		CommitInterval: schedInterval,
		Engine:         engine,
		EngineLoops:    2,
	}).withDefaults()
	t.Cleanup(env.Log.Close)
	return env
}

func withLoops(t *testing.T, env *Env) {
	t.Helper()
	if env.Engine == EngineTasklet {
		env.loops = newLoopPool(env.EngineLoops)
		t.Cleanup(env.loops.close)
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func passThroughStage(name string, inputs []StreamID, out StreamID, parallelism int, upstream []int) *Stage {
	return &Stage{
		Name:        name,
		Parallelism: parallelism,
		Inputs:      inputs,
		Outputs:     []OutputSpec{{Stream: out, Partitions: 1}},
		NewProcessor: func() Processor {
			return ProcessorFunc(func(_ int, d Datum, emit Emit) error { emit(0, d); return nil })
		},
		UpstreamProducers: upstream,
	}
}

// TestCommitGridSharedDeadline: two tasks started 37 ms apart have the
// same commit deadline — the grid, not the start time, sets the phase.
func TestCommitGridSharedDeadline(t *testing.T) {
	for _, engine := range schedEngines {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			t.Parallel()
			env := schedEnv(t, engine)
			withLoops(t, env)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var tasks [2]*Task
			var done [2]chan error
			for i := range tasks {
				if i > 0 {
					time.Sleep(37 * time.Millisecond)
				}
				stage := passThroughStage(fmt.Sprintf("g%d", i), []StreamID{"in"}, StreamID(fmt.Sprintf("out%d", i)), 1, nil)
				tasks[i] = NewTask(stage, 0, 1, env, TaskOptions{})
				env.Log.Meta().Set(InstanceKey(tasks[i].ID), 1)
				done[i] = make(chan error, 1)
				go func(i int) { done[i] <- tasks[i].Run(ctx) }(i)
			}
			// Stop well before the first tick; Run's return orders the
			// tasks' scheduler state before the reads below.
			time.Sleep(50 * time.Millisecond)
			cancel()
			for i := range done {
				<-done[i]
			}
			want := env.commitOrigin.Add(schedInterval)
			for i, task := range tasks {
				if !task.sched.next.Equal(want) {
					t.Errorf("task %d: commit deadline origin+%v, want origin+%v", i, task.sched.next.Sub(env.commitOrigin), schedInterval)
				}
			}
		})
	}
}

// scriptedUpstream drives one real task with hand-written upstream
// producers, so the order of data and markers in its input — the thing
// the cascade rule depends on — is the test's, not the scheduler's.
type scriptedUpstream struct {
	t    *testing.T
	env  *Env
	task *Task
	in   sharedlog.Tag

	mu   sync.Mutex
	seen map[string]int // output value -> deliveries at the gated sink
}

func startScripted(t *testing.T, engine EngineMode) *scriptedUpstream {
	t.Helper()
	env := schedEnv(t, engine)
	withLoops(t, env)
	s := &scriptedUpstream{t: t, env: env, in: DataTag("in", 0), seen: make(map[string]int)}
	stage := passThroughStage("x", []StreamID{"in"}, "out", 1, []int{4})
	s.task = NewTask(stage, 0, 1, env, TaskOptions{})
	env.Log.Meta().Set(InstanceKey(s.task.ID), 1)

	sink := NewGatedSink("out", 1, env)
	sink.OnRecord = func(r Record, _ TaskID, _ time.Time) {
		s.mu.Lock()
		s.seen[string(r.Value)]++
		s.mu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = s.task.Run(ctx) }()
	go func() { defer wg.Done(); _ = sink.Run(ctx) }()
	t.Cleanup(func() { cancel(); wg.Wait() })
	return s
}

func (s *scriptedUpstream) data(producer TaskID, instance, seq uint64, val string) LSN {
	s.t.Helper()
	b := &Batch{Kind: KindData, Producer: producer, Instance: instance,
		Records: []Record{{Seq: seq, Key: []byte(val), Value: []byte(val)}}}
	lsn, err := s.env.Log.Append([]sharedlog.Tag{s.in}, b.Encode())
	if err != nil {
		s.t.Fatal(err)
	}
	return lsn
}

func (s *scriptedUpstream) marker(producer TaskID, instance uint64, first LSN) {
	s.t.Helper()
	m := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN, OutFirst: map[sharedlog.Tag]LSN{s.in: first}}
	b := &Batch{Kind: KindMarker, Producer: producer, Instance: instance, Control: m.Encode()}
	if _, err := s.env.Log.Append([]sharedlog.Tag{s.in}, b.Encode()); err != nil {
		s.t.Fatal(err)
	}
}

func (s *scriptedUpstream) waitProcessed(n uint64) {
	s.t.Helper()
	waitFor(s.t, 5*time.Second, fmt.Sprintf("%d records processed", n), func() bool {
		return s.task.Metrics.Processed.Load() >= n
	})
}

// TestCommitCascadeScriptedRounds: four upstream producers in lock-step
// cost the downstream task one marker per round, not one per upstream
// marker; a producer that dies mid-round leaves the commit to the grid
// tick; and its replacement's first marker converges the output
// exactly-once.
func TestCommitCascadeScriptedRounds(t *testing.T) {
	producers := []TaskID{"p/0", "p/1", "p/2", "p/3"}
	for _, engine := range schedEngines {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			t.Parallel()
			s := startScripted(t, engine)
			m := s.task.Metrics
			// The first tick writes the forced post-recovery marker; the
			// scripted rounds then run in the quiet interval behind it.
			waitFor(t, 2*schedInterval, "the first tick's marker", func() bool { return m.Markers.Load() == 1 })

			want := make(map[string]int)
			round := func(seq uint64, reporting int) {
				first := make([]LSN, len(producers))
				for i, p := range producers {
					val := fmt.Sprintf("%s#%d", p, seq)
					first[i] = s.data(p, 1, seq, val)
					want[val] = 1
				}
				for i, p := range producers[:reporting] {
					s.marker(p, 1, first[i])
					// Each marker is ingested on its own: the hardest
					// schedule for "one commit per round".
					s.waitProcessed((seq-1)*uint64(len(producers)) + uint64(i) + 1)
				}
			}
			const rounds = 3
			for r := uint64(1); r <= rounds; r++ {
				round(r, len(producers))
				waitFor(t, schedSlack, "the round's cascade commit", func() bool { return m.CascadeCommits.Load() == r })
			}
			if got := m.Markers.Load(); got != 1+rounds {
				t.Fatalf("markers after %d lock-step rounds = %d, want %d (one per round)", rounds, got, 1+rounds)
			}

			// Round 4: p/3 dies after writing its batch and before its
			// marker. Its batch heads the queue unreported, so the round
			// is never complete and the tick commits what was released.
			cascades := m.CascadeCommits.Load()
			round(rounds+1, len(producers)-1)
			time.Sleep(50 * time.Millisecond)
			if got := m.Markers.Load(); got != 1+rounds {
				t.Fatalf("committed off-tick with an unreported producer at the queue head: markers = %d", got)
			}
			waitFor(t, schedInterval+schedSlack, "the grid-tick commit", func() bool { return m.Markers.Load() == 2+rounds })
			if got := m.CascadeCommits.Load(); got != cascades {
				t.Fatalf("cascade commits = %d, want %d: the incomplete round must commit on the tick", got, cascades)
			}
			// The tick also published what the task is waiting on.
			if p := m.Progress.Load(); p == nil || p.Queued != 1 || p.HeadProducer != producers[3] ||
				p.HeadClass != classUnknown.String() || p.LastMarker == NoLSN {
				t.Errorf("published progress %v, want one unknown batch of %s at the head and a last marker", p, producers[3])
			}

			// The replacement re-emits the lost batch under instance 2 and
			// commits it: the orphan is discarded, the round completes.
			val := fmt.Sprintf("%s#%d", producers[3], rounds+1)
			s.marker(producers[3], 2, s.data(producers[3], 2, rounds+1, val))
			s.waitProcessed((rounds + 1) * uint64(len(producers)))
			waitFor(t, schedSlack, "the replacement's cascade commit", func() bool { return m.CascadeCommits.Load() == cascades+1 })
			if got := m.DroppedUncommitted.Load(); got != 1 {
				t.Errorf("dropped uncommitted = %d, want the dead instance's one orphan", got)
			}
			waitFor(t, schedSlack, "every output at the gated sink", func() bool {
				s.mu.Lock()
				defer s.mu.Unlock()
				return len(s.seen) == len(want)
			})
			s.mu.Lock()
			defer s.mu.Unlock()
			for v, n := range s.seen {
				if n != 1 || want[v] != 1 {
					t.Errorf("output %q delivered %d times, want %d", v, n, want[v])
				}
			}
		})
	}
}

// threeLevel is Q8's shape: s0 branches one source stream two ways,
// s1 and s2 (two tasks each) re-key, and s3 joins the two — so s3 has
// four upstream producers and a record crosses three commit-gated
// boundaries (s0→s1/s2, →s3, →sink).
type threeLevel struct {
	t       *testing.T
	env     *Env
	mgr     *Manager
	ingress *Ingress

	mu      sync.Mutex
	sentAt  map[int]time.Time
	arrived map[int][]time.Time
}

func threeLevelQuery() *Query {
	parity := func(want byte) func(Datum) bool {
		return func(d Datum) bool { return (d.Key[len(d.Key)-1]-'0')%2 == want }
	}
	s0 := &Stage{
		Name:              "q/s0",
		Parallelism:       1,
		Inputs:            []StreamID{"in"},
		Outputs:           []OutputSpec{{Stream: "a", Partitions: 2}, {Stream: "b", Partitions: 2}},
		NewProcessor:      func() Processor { return Branch(parity(0), parity(1)) },
		UpstreamProducers: []int{1},
	}
	return &Query{Name: "q", Stages: []*Stage{
		s0,
		passThroughStage("q/s1", []StreamID{"a"}, "ak", 2, []int{1}),
		passThroughStage("q/s2", []StreamID{"b"}, "bk", 2, []int{1}),
		passThroughStage("q/s3", []StreamID{"ak", "bk"}, "out", 1, []int{2, 2}),
	}}
}

// viaS10 reports whether record id is routed through task q/s1/0.
func viaS10(id int) bool {
	return id%2 == 0 && Partition([]byte(strconv.Itoa(id)), 2) == 0
}

func startThreeLevel(t *testing.T, engine EngineMode) *threeLevel {
	t.Helper()
	env := schedEnv(t, engine)
	env.Faults = sim.NewFaultInjector()
	mgr, err := NewManager(env, threeLevelQuery())
	if err != nil {
		t.Fatal(err)
	}
	// The monitor period defaults to the commit interval; keep restarts
	// prompt under the long one.
	mgr.SetTimeouts(0, 20*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	c := &threeLevel{t: t, env: mgr.Env(), mgr: mgr, sentAt: make(map[int]time.Time), arrived: make(map[int][]time.Time)}
	c.ingress = NewIngress("ingress/0", "in", 1, c.env, nil)
	sink := NewGatedSink("out", 1, c.env)
	sink.OnRecord = func(r Record, _ TaskID, now time.Time) {
		id, _ := strconv.Atoi(string(r.Key))
		c.mu.Lock()
		c.arrived[id] = append(c.arrived[id], now)
		c.mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = c.ingress.Run(ctx, 2*time.Millisecond) }()
	go func() { defer wg.Done(); _ = sink.Run(ctx) }()
	t.Cleanup(func() { cancel(); mgr.Stop(); wg.Wait() })

	// Every task writes its forced first marker on the first tick.
	waitFor(t, 2*schedInterval, "every task's first marker", func() bool {
		for _, id := range mgr.TaskIDs() {
			if tm := mgr.TaskMetrics(id); tm == nil || tm.Markers.Load() == 0 {
				return false
			}
		}
		return true
	})
	return c
}

func (c *threeLevel) send(id int) {
	key := []byte(strconv.Itoa(id))
	c.mu.Lock()
	c.sentAt[id] = time.Now()
	c.mu.Unlock()
	c.ingress.Send(key, key, time.Now().UnixMicro())
}

func (c *threeLevel) delivered(pred func(id int) bool) (got, owed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.sentAt {
		if pred(id) {
			owed++
			if len(c.arrived[id]) > 0 {
				got++
			}
		}
	}
	return got, owed
}

func (c *threeLevel) markers(id TaskID) uint64 { return c.mgr.TaskMetrics(id).Markers.Load() }

// TestCommitCascadeThreeLevel: a record reaches a gated sink behind three
// commit boundaries within one interval (the wait for the source stage's
// tick) plus a small constant. On free-running per-task timers started
// together it needed two more intervals.
func TestCommitCascadeThreeLevel(t *testing.T) {
	for _, engine := range schedEngines {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			t.Parallel()
			c := startThreeLevel(t, engine)
			before := c.mgr.Metrics()
			// Spread sends over more than two rounds, every route in use.
			const n = 440
			for id := 0; id < n; id++ {
				c.send(id)
				time.Sleep(5 * time.Millisecond)
			}
			all := func(int) bool { return true }
			waitFor(t, schedInterval+schedSlack, "every record at the gated sink", func() bool {
				got, owed := c.delivered(all)
				return got == owed
			})
			c.mu.Lock()
			var worst time.Duration
			for id, sent := range c.sentAt {
				if len(c.arrived[id]) != 1 {
					t.Errorf("record %d delivered %d times", id, len(c.arrived[id]))
					continue
				}
				if d := c.arrived[id][0].Sub(sent); d > worst {
					worst = d
				}
			}
			c.mu.Unlock()
			if worst > schedInterval+schedSlack {
				t.Errorf("worst send→gated-sink latency %v, want ≤ one interval (%v) + %v", worst, schedInterval, schedSlack)
			}
			after := c.mgr.Metrics()
			if after.CascadeCommits == before.CascadeCommits {
				t.Errorf("no cascade commit in %d markers", after.Markers-before.Markers)
			}
			// Every cascade is caused by an upstream marker that released
			// something, so downstream markers are bounded by upstream
			// rounds; the sharp one-per-round bound is pinned on a
			// scripted schedule in TestCommitCascadeScriptedRounds.
			var upstream uint64
			for _, id := range []TaskID{"q/s1/0", "q/s1/1", "q/s2/0", "q/s2/1"} {
				upstream += c.markers(id)
			}
			ticks := uint64(time.Since(c.env.commitOrigin)/schedInterval) + 1
			if got := c.markers("q/s3/0"); got > upstream+ticks {
				t.Errorf("q/s3/0 wrote %d markers against %d upstream markers and %d ticks", got, upstream, ticks)
			}
			t.Logf("worst latency %v; markers %d, off-tick %d", worst, after.Markers-before.Markers, after.CascadeCommits-before.CascadeCommits)
		})
	}
}

// TestCommitCascadeUpstreamKilled: with one of s3's four upstream
// producers dead across a tick, s3 still commits and the records routed
// around the dead task still arrive within the tick's bound; when the
// task comes back everything converges exactly-once.
func TestCommitCascadeUpstreamKilled(t *testing.T) {
	for _, engine := range schedEngines {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			t.Parallel()
			c := startThreeLevel(t, engine)
			// Start early in a round, so the kill below lands mid-round.
			if phase := time.Since(c.env.commitOrigin) % schedInterval; phase > schedInterval/2 {
				time.Sleep(schedInterval - phase + 20*time.Millisecond)
			}
			const n = 200
			for id := 0; id < n; id++ {
				c.send(id)
			}
			// Mid-round: s1/0 holds its share in the unknown-state queue
			// (s0 has not committed it yet) when its node goes down.
			time.Sleep(20 * time.Millisecond)
			s3Before := c.markers("q/s3/0")
			c.env.Faults.Crash(ComputeNode("q/s1/0"))
			if err := c.mgr.Kill("q/s1/0"); err != nil {
				t.Fatal(err)
			}
			live := func(id int) bool { return !viaS10(id) }
			waitFor(t, schedInterval+schedSlack, "records routed around the dead task", func() bool {
				got, owed := c.delivered(live)
				return got == owed
			})
			if got, owed := c.delivered(viaS10); got != 0 || owed == 0 {
				t.Fatalf("%d of %d records crossed a dead task", got, owed)
			}
			if c.markers("q/s3/0") == s3Before {
				t.Fatal("q/s3/0 did not commit while one upstream producer was dead")
			}

			c.env.Faults.Recover(ComputeNode("q/s1/0"))
			waitFor(t, 2*schedInterval+schedSlack, "convergence after the restart", func() bool {
				got, owed := c.delivered(func(int) bool { return true })
				return got == owed
			})
			if c.mgr.Restarts("q/s1/0") == 0 {
				t.Error("q/s1/0 was never restarted")
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			for id := range c.sentAt {
				if len(c.arrived[id]) != 1 {
					t.Errorf("record %d delivered %d times", id, len(c.arrived[id]))
				}
			}
		})
	}
}
