package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"impeller/internal/kvstore"
	"impeller/internal/sharedlog"
)

// Test scaffolding for the egress layer: a marker-protocol environment
// driven by hand-appended data batches and progress markers, delivering
// to an in-memory consumer that deduplicates by (partition, producer,
// seq) exactly as an external system following the protocol would.

func newEgressEnv() *Env {
	return (&Env{
		Log:         sharedlog.Open(sharedlog.Config{}),
		Checkpoints: kvstore.Open(kvstore.Config{}),
		Protocol:    ProtoProgressMarker,
		Retry:       RetryPolicy{BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond, MaxAttempts: 10, OpTimeout: 2 * time.Second},
	}).withDefaults()
}

// appendCommitted appends one data batch carrying seqs and the marker
// that commits it, returning the data record's LSN.
func appendCommitted(t testing.TB, env *Env, stream StreamID, part int, producer TaskID, seqs ...uint64) LSN {
	t.Helper()
	lsn := appendData(t, env, stream, part, producer, seqs...)
	appendMarker(t, env, stream, part, producer, lsn)
	return lsn
}

func appendData(t testing.TB, env *Env, stream StreamID, part int, producer TaskID, seqs ...uint64) LSN {
	t.Helper()
	b := &Batch{Kind: KindData, Producer: producer, Instance: 1}
	for _, seq := range seqs {
		b.Records = append(b.Records, Record{Seq: seq, Key: []byte(fmt.Sprintf("k%d", seq)), Value: []byte("v")})
	}
	lsn, err := env.Log.Append([]sharedlog.Tag{DataTag(stream, part)}, b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func appendMarker(t testing.TB, env *Env, stream StreamID, part int, producer TaskID, first LSN) {
	t.Helper()
	m := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN,
		OutFirst: map[sharedlog.Tag]sharedlog.LSN{DataTag(stream, part): first}}
	mb := &Batch{Kind: KindMarker, Producer: producer, Instance: 1, Control: m.Encode()}
	if _, err := env.Log.Append([]sharedlog.Tag{DataTag(stream, part)}, mb.Encode()); err != nil {
		t.Fatal(err)
	}
}

// memConsumer is a protocol-following external system: it applies each
// (partition, producer, seq) once, counting redundant deliveries as
// deduped. script, when set, runs before the apply and its error is
// returned without applying.
type memConsumer struct {
	script func(d *Delivery) error

	mu      sync.Mutex
	applied []Delivery
	floors  map[string]uint64
	deduped int
}

func newMemConsumer() *memConsumer { return &memConsumer{floors: make(map[string]uint64)} }

func (c *memConsumer) Deliver(ctx context.Context, d *Delivery) error {
	if c.script != nil {
		if err := c.script(d); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := fmt.Sprintf("%d/%s", d.Partition, d.Producer)
	if d.Seq <= c.floors[k] {
		c.deduped++
		return nil
	}
	c.floors[k] = d.Seq
	c.applied = append(c.applied, *d)
	return nil
}

func (c *memConsumer) appliedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.applied)
}

func (c *memConsumer) appliedSeqs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.applied))
	for i := range c.applied {
		out[i] = c.applied[i].Seq
	}
	return out
}

func waitUntil(t testing.TB, desc string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", desc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeliverySinkDeliversCommittedInOrder(t *testing.T) {
	env := newEgressEnv()
	defer env.Log.Close()
	cons := newMemConsumer()
	ds, err := NewDeliverySink("out", 1, env, cons, DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- ds.Run(context.Background()) }()

	appendCommitted(t, env, "out", 0, "up/0", 1, 2, 3)
	appendData(t, env, "out", 0, "up/0", 4, 5) // uncommitted: must not deliver

	waitUntil(t, "3 committed deliveries", func() bool { return cons.appliedCount() == 3 })
	seqs := cons.appliedSeqs()
	for i, want := range []uint64{1, 2, 3} {
		if seqs[i] != want {
			t.Fatalf("delivery order = %v, want [1 2 3]", seqs)
		}
	}
	if got := ds.Stats().Delivered; got != 3 {
		t.Fatalf("Delivered = %d, want 3", got)
	}
	if cons.appliedCount() != 3 {
		t.Fatal("uncommitted records leaked to the consumer")
	}
	ds.Stop()
	if err := <-runErr; err != nil {
		t.Fatalf("graceful stop returned %v", err)
	}
}

func TestDeliverySinkRetriesTransientErrors(t *testing.T) {
	env := newEgressEnv()
	defer env.Log.Close()
	cons := newMemConsumer()
	var mu sync.Mutex
	failures := 0
	cons.script = func(d *Delivery) error {
		mu.Lock()
		defer mu.Unlock()
		// Unmarked errors are transient by default: retried in place.
		if d.Seq == 1 && failures < 2 {
			failures++
			return errors.New("consumer unavailable")
		}
		return nil
	}
	ds, err := NewDeliverySink("out", 1, env, cons, DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ds.Run(context.Background()) }()

	appendCommitted(t, env, "out", 0, "up/0", 1, 2)
	waitUntil(t, "deliveries after transient faults", func() bool { return cons.appliedCount() == 2 })
	st := ds.Stats()
	if st.TransientErrors != 2 || st.Redelivered != 1 {
		t.Fatalf("stats = %+v, want 2 transient errors and 1 redelivered", st)
	}
	if st.DeadLettered != 0 || st.PermanentFailures != 0 {
		t.Fatalf("transient faults must not dead-letter: %+v", st)
	}
	ds.Stop()
}

func TestDeliverySinkDeadLettersPermanentFailures(t *testing.T) {
	env := newEgressEnv()
	defer env.Log.Close()
	cons := newMemConsumer()
	cons.script = func(d *Delivery) error {
		if d.Seq == 2 {
			return PermanentError(errors.New("schema mismatch"))
		}
		return nil
	}
	ds, err := NewDeliverySink("out", 1, env, cons, DeliveryOptions{PermanentAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ds.Run(context.Background()) }()

	appendCommitted(t, env, "out", 0, "up/0", 1, 2, 3)
	// The pipeline must move past the poisoned record.
	waitUntil(t, "deliveries around the dead letter", func() bool { return cons.appliedCount() == 2 })
	waitUntil(t, "dead-letter accounting", func() bool { return ds.Stats().DeadLettered == 1 })
	st := ds.Stats()
	if st.PermanentFailures != 2 {
		t.Fatalf("PermanentFailures = %d, want 2 (PermanentAttempts)", st.PermanentFailures)
	}
	ds.Stop()

	// The record itself is parked on the dead-letter substream.
	dead := scanTag(t, env.Log, DeadLetterTag("out", "0"))
	if len(dead) == 0 {
		t.Fatal("dead-letter stream is empty")
	}
	b, err := DecodeBatch(dead[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != KindDeadLetter || len(b.Records) != 1 || b.Records[0].Seq != 2 {
		t.Fatalf("dead letter = kind %s records %v", b.Kind, b.Records)
	}
	if b.Producer != "up/0" {
		t.Fatalf("dead letter producer = %s", b.Producer)
	}
}

func TestDeliverySinkBackpressure(t *testing.T) {
	env := newEgressEnv()
	defer env.Log.Close()
	cons := newMemConsumer()
	release := make(chan struct{})
	cons.script = func(d *Delivery) error {
		<-release
		return nil
	}
	ds, err := NewDeliverySink("out", 1, env, cons, DeliveryOptions{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ds.Run(ctx) }()

	lsn := appendData(t, env, "out", 0, "up/0", 1, 2, 3, 4, 5, 6, 7, 8)
	appendMarker(t, env, "out", 0, "up/0", lsn)

	// With the consumer wedged, admission stops at the window bound —
	// the read loop is blocked in submit, not queueing without bound.
	waitUntil(t, "window fill", func() bool { return ds.Stats().Enqueued == 2 })
	time.Sleep(20 * time.Millisecond)
	if got := ds.Stats().Enqueued; got != 2 {
		t.Fatalf("enqueued %d deliveries past a window of 2", got)
	}
	close(release)
	waitUntil(t, "drain after release", func() bool { return cons.appliedCount() == 8 })
	ds.Stop()
}

// TestDeliverySinkResumesFromFrontier is the regression test for the
// restart contract: a killed-and-restarted sink resumes from the
// persisted ack frontier and does not re-deliver acknowledged records.
func TestDeliverySinkResumesFromFrontier(t *testing.T) {
	env := newEgressEnv()
	defer env.Log.Close()
	cons1 := newMemConsumer()
	ds1, err := NewDeliverySink("out", 1, env, cons1, DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ds1.Run(context.Background()) }()
	appendCommitted(t, env, "out", 0, "up/0", 1, 2, 3, 4, 5)
	waitUntil(t, "first incarnation deliveries", func() bool { return cons1.appliedCount() == 5 })
	ds1.Stop() // graceful: persists the final ack frontier

	// A fresh consumer proves nothing is re-delivered: any redelivery
	// of seqs 1-5 would show up as an apply here.
	cons2 := newMemConsumer()
	ds2, err := NewDeliverySink("out", 1, env, cons2, DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := ds2.Stats(); !st.Resumed {
		t.Fatal("second incarnation did not find the persisted frontier")
	}
	go func() { _ = ds2.Run(context.Background()) }()
	appendCommitted(t, env, "out", 0, "up/0", 6, 7)
	waitUntil(t, "new deliveries after resume", func() bool { return cons2.appliedCount() == 2 })
	for _, seq := range cons2.appliedSeqs() {
		if seq <= 5 {
			t.Fatalf("acknowledged seq %d was re-delivered after restart", seq)
		}
	}
	ds2.Stop()
}

// TestDeliverySinkHardKillRedelivers: a crash (context cancellation,
// no final frontier) redelivers the tail after the last periodic
// frontier; the consumer's dedupe absorbs it and every record is
// applied exactly once.
func TestDeliverySinkHardKillRedelivers(t *testing.T) {
	env := newEgressEnv()
	defer env.Log.Close()
	cons := newMemConsumer() // shared across incarnations: it is the external system
	ds1, err := NewDeliverySink("out", 1, env, cons, DeliveryOptions{FrontierInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { _ = ds1.Run(ctx1); close(done1) }()

	const total = 40
	for seq := uint64(1); seq <= total; seq += 2 {
		appendCommitted(t, env, "out", 0, "up/0", seq, seq+1)
	}
	waitUntil(t, "partial delivery before kill", func() bool { return cons.appliedCount() >= 10 })
	kill()
	<-done1

	ds2, err := NewDeliverySink("out", 1, env, cons, DeliveryOptions{FrontierInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ds2.Run(context.Background()) }()
	waitUntil(t, "exactly-once completion after crash", func() bool { return cons.appliedCount() == total })
	seen := make(map[uint64]bool)
	for _, seq := range cons.appliedSeqs() {
		if seen[seq] {
			t.Fatalf("seq %d applied twice", seq)
		}
		seen[seq] = true
	}
	ds2.Stop()
}

// TestSinkCountsTrimmedLost is the satellite-1 regression: a trim past
// a lagging sink's position must be accounted as loss, not silently
// skipped by the TrimHorizon reseek.
func TestSinkCountsTrimmedLost(t *testing.T) {
	env := newEgressEnv()
	defer env.Log.Close()
	sink := NewGatedSink("out", 1, env)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// First pass: seqs 1-2 delivered, establishing the seq floor.
	appendCommitted(t, env, "out", 0, "up/0", 1, 2)
	_ = sink.Run(cancelled) // drain-on-cancel sweep ingests what is durable
	if c := sink.Counts(); c.Received != 2 || c.TrimmedLost != 0 {
		t.Fatalf("first pass counts = %+v", c)
	}

	// Seqs 3-4 land and are trimmed away before the sink reads them.
	appendCommitted(t, env, "out", 0, "up/0", 3, 4)
	if err := env.Log.Trim(env.Log.Tail()); err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, env, "out", 0, "up/0", 5, 6)
	_ = sink.Run(cancelled)

	c := sink.Counts()
	if c.Invalidations == 0 {
		t.Fatal("sink never observed the trim invalidation")
	}
	if c.TrimmedLost != 2 {
		t.Fatalf("TrimmedLost = %d, want 2 (seqs 3-4 trimmed undelivered)", c.TrimmedLost)
	}
	if c.Received != 4 {
		t.Fatalf("Received = %d, want 4", c.Received)
	}
}

// TestSinkDrainOnCancel is the satellite-2 regression: batches whose
// commit markers are already durable at shutdown are delivered by the
// cancellation sweep, and batches still lacking a commit decision are
// counted as undrained instead of vanishing.
func TestSinkDrainOnCancel(t *testing.T) {
	env := newEgressEnv()
	defer env.Log.Close()
	sink := NewGatedSink("out", 1, env)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Data and its marker are both durable before Run is ever
	// scheduled: without the sweep, cancellation would drop them.
	appendCommitted(t, env, "out", 0, "up/0", 1, 2)
	if err := sink.Run(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v", err)
	}
	c := sink.Counts()
	if c.Received != 2 || c.Undrained != 0 {
		t.Fatalf("marked batch not drained on cancel: %+v", c)
	}

	// A batch with no marker has no commit decision: the sweep must
	// leave it undelivered but accounted. (A fresh sink, as after a
	// restart: it re-reads the committed prefix too.)
	appendData(t, env, "out", 0, "up/0", 3, 4, 5)
	sink2 := NewGatedSink("out", 1, env)
	_ = sink2.Run(cancelled)
	c = sink2.Counts()
	if c.Received != 2 {
		t.Fatalf("unmarked batch delivered: %+v", c)
	}
	if c.Undrained != 3 {
		t.Fatalf("Undrained = %d, want 3", c.Undrained)
	}
}

func TestFrontierCodecRoundTrip(t *testing.T) {
	acked := map[ackKey]uint64{
		{0, "q1/out/0"}: 17,
		{3, "q1/out/1"}: 9,
		{1, ""}:         1,
	}
	buf := encodeFrontier(1234, acked)
	resume, got, err := decodeFrontier(buf)
	if err != nil {
		t.Fatal(err)
	}
	if resume != 1234 || len(got) != len(acked) {
		t.Fatalf("decoded resume=%d acked=%v", resume, got)
	}
	for k, v := range acked {
		if got[k] != v {
			t.Fatalf("acked[%v] = %d, want %d", k, got[k], v)
		}
	}
	if _, _, err := decodeFrontier(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated frontier decoded")
	}
	if _, _, err := decodeFrontier(nil); err == nil {
		t.Fatal("empty frontier decoded")
	}
}

func TestPermanentErrorMarking(t *testing.T) {
	base := errors.New("bad record")
	if !IsPermanentDeliveryError(PermanentError(base)) {
		t.Fatal("PermanentError not detected")
	}
	if !IsPermanentDeliveryError(fmt.Errorf("wrapped: %w", PermanentError(base))) {
		t.Fatal("wrapped PermanentError not detected")
	}
	if IsPermanentDeliveryError(base) {
		t.Fatal("plain error classified permanent")
	}
	if !errors.Is(PermanentError(base), base) {
		t.Fatal("PermanentError does not unwrap to its cause")
	}
}
