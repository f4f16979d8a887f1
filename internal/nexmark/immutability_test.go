package nexmark

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/sharedlog"
)

// TestLogPayloadsStayImmutable: a decoded batch is a view of the log's
// payload, shared by every reader of the record — the next stage, the
// ungated and gated sinks and the delivery sink. Q1 (map), Q12 (window
// aggregate) and Q8 (join) run on both engines with all three readers
// attached, each keeping the views it is handed. Every committed payload
// is hashed once the output has converged, and again after the readers
// have drained and stopped: equal hashes mean no operator, sink or
// consumer wrote through a view. Two more checks close the gaps the
// hashes leave: every source record still carries the bytes that were
// sent, and every view a reader kept still equals the copy taken when it
// was handed out, so a view stays valid after its callback returns.
func TestLogPayloadsStayImmutable(t *testing.T) {
	for _, q := range []int{1, 12, 8} {
		for _, engine := range []impeller.EngineMode{impeller.EngineGoroutine, impeller.EngineTasklet} {
			t.Run(fmt.Sprintf("q%d/%s", q, engine), func(t *testing.T) {
				checkPayloadsImmutable(t, q, engine)
			})
		}
	}
}

func checkPayloadsImmutable(t *testing.T, q int, engine impeller.EngineMode) {
	cluster := impeller.NewCluster(impeller.ClusterConfig{
		CommitInterval:       20 * time.Millisecond,
		DefaultParallelism:   2,
		IngressFlushInterval: 4 * time.Millisecond,
		Engine:               engine,
	})
	defer cluster.Close()
	topo, err := BuildOpts(q, Options{PerUpdateWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	app, err := cluster.Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	appStopped := false
	defer func() {
		if !appStopped {
			app.Stop()
		}
	}()

	var kept keptViews
	out := OutputStream(q)
	onRecord := func(r impeller.Record, _ impeller.TaskID, _ time.Time) { kept.add(r.Key, r.Value) }
	app.Sink(out, false, onRecord)
	gated := app.Sink(out, true, onRecord)
	var delivered atomic.Uint64
	ds, err := app.NewDeliverySink(out, consumerFunc(func(_ context.Context, d *impeller.Delivery) error {
		kept.add(d.Record.Key, d.Record.Value)
		delivered.Add(1)
		return nil
	}), impeller.DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- ds.Run(context.Background()) }()

	// Event time is compressed (5 ms apart, 15 s in all) so Q12's windows
	// roll over and Q8's persons and auctions meet inside its window.
	const events = 3000
	sent := make(map[string][]byte, events)
	g := NewGenerator(uint64(q))
	base := time.Now().UnixMicro()
	for i := 0; i < events; i++ {
		et := base + int64(i)*5_000
		key := fmt.Sprint(i)
		payload := g.Next(et).Payload
		sent[key] = payload
		if err := app.Send(EventStream, []byte(key), payload, et); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.FlushIngress(); err != nil {
		t.Fatal(err)
	}

	// Converged: the delivery sink has caught up with the gated sink, and
	// neither moved for ten polls.
	deadline := time.Now().Add(30 * time.Second)
	last, still := uint64(0), 0
	for still < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("output never converged: delivered %d, gated %d", delivered.Load(), gated.Counts().Received)
		}
		time.Sleep(20 * time.Millisecond)
		n := delivered.Load()
		if n > 0 && n == last && n == gated.Counts().Received {
			still++
		} else {
			last, still = n, 0
		}
	}

	log := cluster.Log()
	tail := log.Tail()
	before := hashPayloads(t, log, tail)
	ds.Stop()
	if err := <-runErr; err != nil {
		t.Fatalf("delivery sink: %v", err)
	}
	app.Stop()
	appStopped = true
	after := hashPayloads(t, log, tail)
	for lsn := range before {
		if before[lsn] != after[lsn] {
			t.Errorf("payload at LSN %d changed while the readers drained", lsn)
		}
	}

	sources := 0
	for lsn := sharedlog.LSN(0); lsn < tail; lsn++ {
		rec, err := log.Read(lsn)
		if err != nil || rec == nil {
			continue
		}
		b, err := core.DecodeBatch(rec.Payload)
		if err != nil || b.Kind != core.KindSource {
			continue
		}
		for _, r := range b.Records {
			sources++
			if want, ok := sent[string(r.Key)]; !ok || !bytes.Equal(r.Value, want) {
				t.Fatalf("source record %q at LSN %d no longer holds the bytes sent", r.Key, lsn)
			}
		}
	}
	if sources != events {
		t.Fatalf("found %d source records in the log, sent %d", sources, events)
	}
	kept.verify(t)
}

// hashPayloads hashes every payload below tail, indexed by LSN.
func hashPayloads(t *testing.T, log *sharedlog.Log, tail sharedlog.LSN) map[sharedlog.LSN]uint64 {
	t.Helper()
	out := make(map[sharedlog.LSN]uint64, tail)
	for lsn := sharedlog.LSN(0); lsn < tail; lsn++ {
		rec, err := log.Read(lsn)
		if err != nil {
			t.Fatalf("read LSN %d: %v", lsn, err)
		}
		if rec != nil {
			out[lsn] = maphash.Bytes(hashSeed, rec.Payload)
		}
	}
	return out
}

var hashSeed = maphash.MakeSeed()

// keptViews holds every view a reader was handed beside a copy of what
// it held at the time.
type keptViews struct {
	mu    sync.Mutex
	views [][]byte
	data  [][]byte
}

func (k *keptViews) add(views ...[]byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, v := range views {
		k.views = append(k.views, v)
		k.data = append(k.data, append([]byte(nil), v...))
	}
}

func (k *keptViews) verify(t *testing.T) {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.views) == 0 {
		t.Fatal("no reader was handed any record")
	}
	for i, v := range k.views {
		if !bytes.Equal(v, k.data[i]) {
			t.Fatalf("a kept view changed after its callback returned: %q, was %q", v, k.data[i])
		}
	}
}

type consumerFunc func(context.Context, *impeller.Delivery) error

func (f consumerFunc) Deliver(ctx context.Context, d *impeller.Delivery) error { return f(ctx, d) }
