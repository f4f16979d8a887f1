package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
)

// wordCountQuery builds the paper's running example (Figure 1): stage 1
// tokenizes lines into words repartitioned by word; stage 2 counts per
// word. The final counts stream has one partition consumed by the sink.
func wordCountQuery(p1, p2, ingressWriters int) *Query {
	return &Query{
		Name: "wc",
		Stages: []*Stage{
			{
				Name:        "wc/split",
				Parallelism: p1,
				Inputs:      []StreamID{"lines"},
				Outputs:     []OutputSpec{{Stream: "words", Partitions: p2}},
				NewProcessor: func() Processor {
					return FlatMap(func(d Datum) []Datum {
						var out []Datum
						for _, w := range bytes.Fields(d.Value) {
							out = append(out, Datum{Key: w, Value: []byte("1"), EventTime: d.EventTime})
						}
						return out
					})
				},
				UpstreamProducers: []int{ingressWriters},
			},
			{
				Name:              "wc/count",
				Parallelism:       p2,
				Inputs:            []StreamID{"words"},
				Outputs:           []OutputSpec{{Stream: "counts", Partitions: 1}},
				NewProcessor:      func() Processor { return Count("cnt") },
				Stateful:          true,
				UpstreamProducers: []int{p1},
			},
		},
	}
}

// testCluster wires a query, ingress, and gated sink over a zero-latency
// log for correctness tests.
type testCluster struct {
	t       *testing.T
	env     *Env
	mgr     *Manager
	ingress *Ingress
	sink    *Sink
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu     sync.Mutex
	counts map[string]uint64 // word -> last count seen
}

func startWordCount(t *testing.T, proto FTProtocol, p1, p2 int) *testCluster {
	t.Helper()
	return startWordCountEngine(t, proto, p1, p2, EngineGoroutine)
}

// startWordCountEngine is startWordCount with an explicit execution
// engine; tasklet runs pin two event loops so tasks share loops even on
// a single-core host.
func startWordCountEngine(t *testing.T, proto FTProtocol, p1, p2 int, engine EngineMode) *testCluster {
	t.Helper()
	env := &Env{
		Log:            sharedlog.Open(sharedlog.Config{}),
		Checkpoints:    kvstore.Open(kvstore.Config{}),
		Protocol:       proto,
		CommitInterval: 25 * time.Millisecond,
		Engine:         engine,
		EngineLoops:    2,
	}
	q := wordCountQuery(p1, p2, 1)
	mgr, err := NewManager(env, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	c := &testCluster{t: t, env: mgr.Env(), mgr: mgr, cancel: cancel, counts: make(map[string]uint64)}

	if ck := mgr.Ckpt(); ck != nil {
		ck.AddParticipant("ingress/0")
	}
	c.ingress = NewIngress("ingress/0", "lines", p1, mgr.Env(), mgr.Ckpt())
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = c.ingress.Run(ctx, 5*time.Millisecond)
	}()

	c.sink = NewGatedSink("counts", 1, mgr.Env())
	c.sink.OnRecord = func(r Record, _ TaskID, _ time.Time) {
		c.mu.Lock()
		c.counts[string(r.Key)] = binary.LittleEndian.Uint64(r.Value)
		c.mu.Unlock()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = c.sink.Run(ctx)
	}()

	t.Cleanup(func() {
		c.cancel()
		c.mgr.Stop()
		c.wg.Wait()
		c.env.Log.Close()
	})
	return c
}

func (c *testCluster) send(lines []string) map[string]uint64 {
	want := make(map[string]uint64)
	for i, line := range lines {
		c.ingress.Send([]byte(fmt.Sprint(i)), []byte(line), time.Now().UnixMicro())
		for _, w := range bytes.Fields([]byte(line)) {
			want[string(w)]++
		}
	}
	return want
}

// waitCounts polls until the sink's last-seen counts match want.
func (c *testCluster) waitCounts(want map[string]uint64, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		ok := len(c.counts) >= len(want)
		if ok {
			for w, n := range want {
				if c.counts[w] != n {
					ok = false
					break
				}
			}
		}
		snapshot := fmt.Sprint(c.counts)
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("counts never converged.\nwant: %v\ngot:  %s", want, snapshot)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var testLines = []string{
	"the quick brown fox",
	"the lazy dog",
	"the quick dog jumps",
	"brown dog brown fox",
	"jumps over the lazy fox",
}

func expectedCounts(lines []string) map[string]uint64 {
	want := make(map[string]uint64)
	for _, l := range lines {
		for _, w := range bytes.Fields([]byte(l)) {
			want[string(w)]++
		}
	}
	return want
}

func TestWordCountExactlyOnceMarker(t *testing.T) {
	c := startWordCount(t, ProtoProgressMarker, 2, 2)
	want := c.send(testLines)
	c.waitCounts(want, 10*time.Second)
}

func TestWordCountExactlyOnceTxn(t *testing.T) {
	c := startWordCount(t, ProtoKafkaTxn, 2, 2)
	want := c.send(testLines)
	c.waitCounts(want, 10*time.Second)
}

func TestWordCountExactlyOnceAligned(t *testing.T) {
	c := startWordCount(t, ProtoAlignedCheckpoint, 2, 2)
	want := c.send(testLines)
	c.waitCounts(want, 10*time.Second)
}

func TestWordCountUnsafeNoFailures(t *testing.T) {
	c := startWordCount(t, ProtoUnsafe, 2, 2)
	want := c.send(testLines)
	c.waitCounts(want, 10*time.Second)
}

// sendLoad streams many lines while the test injects failures.
func sendLoad(c *testCluster, n int) map[string]uint64 {
	want := make(map[string]uint64)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < n; i++ {
		line := fmt.Sprintf("%s %s %s", words[i%6], words[(i*7)%6], words[(i*13)%6])
		c.ingress.Send([]byte(fmt.Sprint(i)), []byte(line), time.Now().UnixMicro())
		for _, w := range bytes.Fields([]byte(line)) {
			want[string(w)]++
		}
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return want
}

func TestWordCountExactlyOnceUnderCrashMarker(t *testing.T) {
	c := startWordCount(t, ProtoProgressMarker, 2, 2)
	done := make(chan map[string]uint64)
	go func() { done <- sendLoad(c, 1500) }()

	// Crash a stateful task twice and a stateless task once mid-stream.
	time.Sleep(60 * time.Millisecond)
	if err := c.mgr.Kill("wc/count/0"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if err := c.mgr.Kill("wc/split/1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if err := c.mgr.Kill("wc/count/0"); err != nil {
		t.Fatal(err)
	}

	want := <-done
	c.waitCounts(want, 30*time.Second)
	if c.mgr.Restarts("wc/count/0") == 0 {
		t.Fatal("task was never restarted")
	}
}

func TestWordCountExactlyOnceUnderCrashTxn(t *testing.T) {
	c := startWordCount(t, ProtoKafkaTxn, 2, 2)
	done := make(chan map[string]uint64)
	go func() { done <- sendLoad(c, 1000) }()
	time.Sleep(80 * time.Millisecond)
	if err := c.mgr.Kill("wc/count/1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := c.mgr.Kill("wc/split/0"); err != nil {
		t.Fatal(err)
	}
	want := <-done
	c.waitCounts(want, 30*time.Second)
}

func TestWordCountExactlyOnceUnderCrashAligned(t *testing.T) {
	c := startWordCount(t, ProtoAlignedCheckpoint, 2, 2)
	done := make(chan map[string]uint64)
	go func() { done <- sendLoad(c, 1000) }()
	// Let at least one checkpoint complete before crashing.
	deadline := time.Now().Add(5 * time.Second)
	for c.mgr.Ckpt().LastCompleted() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no aligned checkpoint ever completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.mgr.Kill("wc/count/0"); err != nil {
		t.Fatal(err)
	}
	want := <-done
	c.waitCounts(want, 30*time.Second)
}

func TestWordCountZombieNeutralized(t *testing.T) {
	c := startWordCount(t, ProtoProgressMarker, 1, 1)
	c.mgr.SetTimeouts(100*time.Millisecond, 0)

	// First wave of load, then partition the counting task from the
	// manager: it keeps running (zombie) while a replacement starts
	// (paper §3.4).
	want := sendLoad(c, 400)
	time.Sleep(50 * time.Millisecond)
	if err := c.mgr.Zombify("wc/count/0"); err != nil {
		t.Fatal(err)
	}

	// Keep data flowing while zombie and replacement overlap.
	deadline := time.Now().Add(15 * time.Second)
	i := 0
	for c.mgr.Restarts("wc/count/0") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("zombie was never replaced")
		}
		c.ingress.Send([]byte(fmt.Sprint(i)), []byte("zomb"), time.Now().UnixMicro())
		want["zomb"]++
		i++
		time.Sleep(2 * time.Millisecond)
	}
	// Second wave processed after the replacement took over; counts
	// must stay exact even though the zombie may still emit until its
	// next (fenced) progress marker.
	for k, v := range sendLoad(c, 400) {
		want[k] += v
	}
	c.waitCounts(want, 30*time.Second)
}

func TestDuplicateAppendSuppression(t *testing.T) {
	// A producer retry appends the same batch twice (paper §3.5,
	// "Duplicate appends to a single substream"); the consumer must
	// process it once.
	c := startWordCount(t, ProtoProgressMarker, 1, 1)
	batch := &Batch{
		Kind:     KindSource,
		Producer: "flaky-ingress",
		Instance: 1,
		Records: []Record{
			{Seq: 1, EventTime: time.Now().UnixMicro(), Key: []byte("k"), Value: []byte("dup dup")},
		},
	}
	payload := batch.Encode()
	for i := 0; i < 2; i++ { // duplicate append
		if _, err := c.env.Log.Append([]sharedlog.Tag{DataTag("lines", 0)}, payload); err != nil {
			t.Fatal(err)
		}
	}
	c.waitCounts(map[string]uint64{"dup": 2}, 10*time.Second)
	// Give it one more interval to be sure no double count arrives.
	time.Sleep(100 * time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts["dup"] != 2 {
		t.Fatalf("dup count = %d after duplicate append, want 2", c.counts["dup"])
	}
}

func TestMarkerModeRecoveryUsesCheckpoint(t *testing.T) {
	env := &Env{
		Log:              sharedlog.Open(sharedlog.Config{}),
		Checkpoints:      kvstore.Open(kvstore.Config{}),
		Protocol:         ProtoProgressMarker,
		CommitInterval:   20 * time.Millisecond,
		SnapshotInterval: 50 * time.Millisecond,
	}
	defer env.Log.Close()
	q := wordCountQuery(1, 1, 1)
	mgr, err := NewManager(env, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	ing := NewIngress("ingress/0", "lines", 1, mgr.Env(), nil)
	go func() { _ = ing.Run(ctx, 5*time.Millisecond) }()
	for i := 0; i < 500; i++ {
		ing.Send([]byte("k"), []byte("word word word"), time.Now().UnixMicro())
	}

	// Wait for a checkpoint to cover some progress.
	cp := mgr.Checkpointer("wc/count/0")
	if cp == nil {
		t.Fatal("no checkpointer for stateful task")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := cp.Covered(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never covered a marker")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := c0RestartAndVerify(mgr); err != nil {
		t.Fatal(err)
	}
}

func c0RestartAndVerify(mgr *Manager) error {
	id := TaskID("wc/count/0")
	if err := mgr.RestartNow(id); err != nil {
		return err
	}
	// The restarted instance should report a checkpoint-based recovery.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if mgr.TaskMetrics(id).RecoveredFromCheckpoint.Load() == 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery did not use the checkpoint")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoveryReplaysChangeLogInBatches pins what recovery costs in log
// round trips: a stateful task killed behind a deep change log is
// replaced, and the replacement replays every change through cursor
// fetches of DefaultReadBatch records plus readahead — not one round
// trip per log record.
func TestRecoveryReplaysChangeLogInBatches(t *testing.T) {
	const minChanges, minLogRecords = 2000, 3 * DefaultReadBatch
	c := startWordCount(t, ProtoProgressMarker, 1, 1)
	id := TaskID("wc/count/0")
	m := c.mgr.TaskMetrics(id)

	// Bursts a few milliseconds apart: every output flush in between
	// appends one change-log record, so the log grows deep in records
	// and not only in changes.
	want := make(map[string]uint64)
	sent := 0
	deadline := time.Now().Add(30 * time.Second)
	for m.ChangeRecords.Load() < minChanges ||
		len(scanTag(t, c.env.Log, GroupChangeTag("wc/count", 0))) < minLogRecords {
		if time.Now().After(deadline) {
			t.Fatalf("change log reached only %d changes", m.ChangeRecords.Load())
		}
		for i := 0; i < 20; i++ {
			for burst := 0; burst < 10; burst++ {
				line := fmt.Sprintf("w%d w%d", sent%97, sent%89)
				c.ingress.Send([]byte(fmt.Sprint(sent)), []byte(line), time.Now().UnixMicro())
				want[fmt.Sprintf("w%d", sent%97)]++
				want[fmt.Sprintf("w%d", sent%89)]++
				sent++
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	c.waitCounts(want, 30*time.Second) // everything applied and committed
	changes := m.ChangeRecords.Load()
	opens, reads, records := m.RecoveryCursor.Opens.Load(), m.RecoveryCursor.BatchReads.Load(), m.RecoveryCursor.Records.Load()
	replayed := m.RecoveredChanges.Load()

	if err := c.mgr.RestartNow(id); err != nil {
		t.Fatal(err)
	}
	// One more word through the replacement: once it is counted, recovery
	// is over and the restored counts were right.
	c.ingress.Send([]byte("last"), []byte("w0"), time.Now().UnixMicro())
	want["w0"]++
	c.waitCounts(want, 30*time.Second)

	opens = m.RecoveryCursor.Opens.Load() - opens
	reads = m.RecoveryCursor.BatchReads.Load() - reads
	records = m.RecoveryCursor.Records.Load() - records
	replayed = m.RecoveredChanges.Load() - replayed
	if replayed < changes {
		t.Fatalf("replacement replayed %d of %d change records", replayed, changes)
	}
	if opens == 0 || records < minLogRecords {
		t.Fatalf("replay opened %d cursors over %d log records, want ≥ 1 over ≥ %d", opens, records, minLogRecords)
	}
	if limit := records/DefaultReadBatch + 2*opens; reads > limit {
		t.Fatalf("replay took %d round trips for %d log records on %d cursors, want ≤ %d", reads, records, opens, limit)
	}
	t.Logf("replayed %d changes in %d log records with %d round trips", replayed, records, reads)
}

func TestGCTrimsConsumedPrefix(t *testing.T) {
	env := &Env{
		Log:              sharedlog.Open(sharedlog.Config{}),
		Checkpoints:      kvstore.Open(kvstore.Config{}),
		Protocol:         ProtoProgressMarker,
		CommitInterval:   20 * time.Millisecond,
		SnapshotInterval: 40 * time.Millisecond,
	}
	env.GC = NewGCController(env.Log)
	defer env.Log.Close()
	q := wordCountQuery(1, 1, 1)
	mgr, err := NewManager(env, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	ing := NewIngress("ingress/0", "lines", 1, mgr.Env(), nil)
	go func() { _ = ing.Run(ctx, 5*time.Millisecond) }()
	for i := 0; i < 300; i++ {
		ing.Send([]byte("k"), []byte("a b c"), time.Now().UnixMicro())
	}
	// Wait until both tasks committed and checkpoints covered progress,
	// then collect and verify the horizon advanced.
	deadline := time.Now().Add(15 * time.Second)
	for {
		h, err := env.GC.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if h > 0 {
			// Recovery must still work after trimming.
			if err := mgr.RestartNow("wc/count/0"); err != nil {
				t.Fatal(err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("GC never advanced the trim horizon")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestManagerValidatesQuery(t *testing.T) {
	env := &Env{Log: sharedlog.Open(sharedlog.Config{}), Checkpoints: kvstore.Open(kvstore.Config{})}
	defer env.Log.Close()
	if _, err := NewManager(env, &Query{Name: "bad"}); err == nil {
		t.Fatal("empty query accepted")
	}
	q := wordCountQuery(1, 1, 1)
	q.Stages[0].UpstreamProducers = nil
	env.Protocol = ProtoAlignedCheckpoint
	if _, err := NewManager(env, q); err == nil {
		t.Fatal("aligned protocol without UpstreamProducers accepted")
	}
}

func TestQueryValidate(t *testing.T) {
	q := wordCountQuery(2, 2, 1)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := wordCountQuery(1, 1, 1)
	dup.Stages = append(dup.Stages, dup.Stages[0])
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate stage accepted")
	}
	bad := wordCountQuery(1, 1, 1)
	bad.Stages[0].Parallelism = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero parallelism accepted")
	}
}
