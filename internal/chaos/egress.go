package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"impeller"
	"impeller/internal/core"
)

// egressRunner supervises the delivery sink across scheduled hard
// kills. A kill cancels the running incarnation's context — no drain,
// no final frontier, exactly the crash the egress protocol must survive
// — and the next incarnation is a fresh DeliverySink that resumes from
// the last ack frontier persisted to the egress-offsets substream. The
// consumer (and its dedupe state) persists across incarnations.
type egressRunner struct {
	app      *impeller.App
	stream   impeller.StreamID
	consumer core.Consumer

	mu           sync.Mutex
	ds           *core.DeliverySink
	cancel       context.CancelFunc
	runDone      chan struct{}
	incarnations int
	stats        core.DeliveryStats
	counts       core.SinkCounts
}

func newEgressRunner(app *impeller.App, stream impeller.StreamID, consumer core.Consumer) *egressRunner {
	return &egressRunner{app: app, stream: stream, consumer: consumer}
}

// launch starts a new sink incarnation, retrying construction while the
// log rides out infra faults (loading the persisted frontier reads the
// log). Returns false only if ctx dies first.
func (e *egressRunner) launch(ctx context.Context) bool {
	for {
		ds, err := e.app.NewDeliverySink(e.stream, e.consumer, core.DeliveryOptions{})
		if err == nil {
			ictx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			e.mu.Lock()
			e.ds, e.cancel, e.runDone = ds, cancel, done
			e.incarnations++
			e.mu.Unlock()
			go func() {
				_ = ds.Run(ictx)
				close(done)
			}()
			return true
		}
		if !sleepUntil(ctx, time.Now(), 5*time.Millisecond) {
			return false
		}
	}
}

// kill hard-crashes the current incarnation: cancel, wait for Run to
// unwind, fold its counters. Unpersisted acks die with it — the next
// incarnation redelivers that suffix and the consumer's dedupe absorbs
// it.
func (e *egressRunner) kill() {
	e.mu.Lock()
	ds, cancel, done := e.ds, e.cancel, e.runDone
	e.mu.Unlock()
	if ds == nil {
		return
	}
	cancel()
	<-done
	e.fold(ds)
}

// finish gracefully stops the current incarnation (drain the window,
// persist the final frontier) and folds its counters.
func (e *egressRunner) finish() {
	e.mu.Lock()
	ds, cancel := e.ds, e.cancel
	e.ds = nil
	e.mu.Unlock()
	if ds == nil {
		return
	}
	ds.Stop()
	cancel()
	e.fold(ds)
}

func (e *egressRunner) fold(ds *core.DeliverySink) {
	e.mu.Lock()
	e.stats.Add(ds.Stats())
	c := ds.Sink().Counts()
	e.counts.Add(c)
	if ds == e.ds {
		e.ds = nil
	}
	e.mu.Unlock()
}

// describe renders the live incarnation's read position and counters for
// the stuck dump: a sink whose safe position trails the tasks' markers
// is the one holding the missing output.
func (e *egressRunner) describe() string {
	e.mu.Lock()
	ds := e.ds
	e.mu.Unlock()
	if ds == nil {
		return "sink: no live incarnation"
	}
	c, st := ds.Sink().Counts(), ds.Stats()
	return fmt.Sprintf("sink: safe=%d received=%d duplicates=%d droppedUncommitted=%d trimmedLost=%d enqueued=%d delivered=%d deadLettered=%d resume=%d",
		ds.Sink().SafePos(), c.Received, c.Duplicates, c.DroppedUncommitted, c.TrimmedLost,
		st.Enqueued, st.Delivered, st.DeadLettered, st.ResumeLSN)
}

func (e *egressRunner) snapshot() (core.DeliveryStats, core.SinkCounts, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats, e.counts, e.incarnations
}
