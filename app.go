package impeller

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"impeller/internal/core"
)

// App is a running stream query: its task manager, ingress writers, and
// any attached sinks.
type App struct {
	cluster  *Cluster
	topology *Topology
	query    *core.Query
	mgr      *core.Manager

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	ingresses map[StreamID][]*core.Ingress
	rr        map[StreamID]*atomic.Uint64
	sinks     []*core.Sink
}

// Run compiles the topology and starts its tasks on the cluster.
func (c *Cluster) Run(b *Topology) (*App, error) {
	q, err := b.build(c.cfg.DefaultParallelism, c.cfg.IngressWriters)
	if err != nil {
		return nil, err
	}
	mgr, err := core.NewManager(c.env, q)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := mgr.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	a := &App{
		cluster:   c,
		topology:  b,
		query:     q,
		mgr:       mgr,
		ctx:       ctx,
		cancel:    cancel,
		ingresses: make(map[StreamID][]*core.Ingress),
		rr:        make(map[StreamID]*atomic.Uint64),
	}

	// One set of ingress writers per source stream. Substream counts
	// come from the consuming stage's key-group count, which is fixed
	// for the job's life — rescaling reassigns groups to task slots but
	// never re-routes data, so ingress routing is epoch-invariant.
	for stream := range b.sources {
		partitions := 0
		for _, st := range q.Stages {
			for _, in := range st.Inputs {
				if in == stream && st.KeyGroups > partitions {
					partitions = st.KeyGroups
				}
			}
		}
		if partitions == 0 {
			continue // declared but never consumed
		}
		writers := make([]*core.Ingress, c.cfg.IngressWriters)
		for i := range writers {
			id := core.TaskID(fmt.Sprintf("ingress/%s/%d", stream, i))
			if ck := mgr.Ckpt(); ck != nil {
				ck.AddParticipant(id)
			}
			writers[i] = core.NewIngress(id, stream, partitions, mgr.Env(), mgr.Ckpt())
			a.wg.Add(1)
			go func(g *core.Ingress) {
				defer a.wg.Done()
				_ = g.Run(ctx, c.cfg.IngressFlushInterval)
			}(writers[i])
		}
		a.ingresses[stream] = writers
		a.rr[stream] = &atomic.Uint64{}
	}
	return a, nil
}

// Send submits one input record to a source stream, distributing across
// the cluster's ingress writers round-robin.
func (a *App) Send(stream StreamID, key, value []byte, eventTime int64) error {
	writers := a.ingresses[stream]
	if len(writers) == 0 {
		return fmt.Errorf("impeller: %s is not a consumed source stream", stream)
	}
	i := a.rr[stream].Add(1)
	writers[(i-1)%uint64(len(writers))].Send(key, value, eventTime)
	return nil
}

// SendVia submits via a specific ingress writer (deterministic tests).
func (a *App) SendVia(stream StreamID, writer int, key, value []byte, eventTime int64) error {
	writers := a.ingresses[stream]
	if writer < 0 || writer >= len(writers) {
		return fmt.Errorf("impeller: no ingress writer %d for %s", writer, stream)
	}
	writers[writer].Send(key, value, eventTime)
	return nil
}

// Sink attaches a consumer to an output stream. Gated sinks deliver
// only committed records (exactly-once verification); ungated sinks
// observe records at emission — the paper's latency measurement point.
func (a *App) Sink(stream StreamID, gated bool, onRecord func(r Record, producer TaskID, now time.Time)) *core.Sink {
	partitions := a.topology.SinkPartitions(stream)
	var s *core.Sink
	if gated {
		s = core.NewGatedSink(stream, partitions, a.mgr.Env())
	} else {
		s = core.NewSink(stream, partitions, a.mgr.Env())
	}
	s.OnRecord = onRecord
	a.mu.Lock()
	a.sinks = append(a.sinks, s)
	a.mu.Unlock()
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		_ = s.Run(a.ctx)
	}()
	return s
}

// NewDeliverySink builds a transactional egress sink over an output
// stream: committed records flow through a bounded in-flight window to
// consumer, acknowledged offsets persist to the stream's egress-offsets
// substream, and a restarted sink resumes from the last acknowledged
// frontier. Unlike Sink, the caller owns the lifecycle — call Run, then
// Stop (graceful drain) or cancel Run's context (hard crash) — so a
// killed sink can be replaced by a fresh incarnation that resumes where
// the acks left off.
func (a *App) NewDeliverySink(stream StreamID, consumer Consumer, opts DeliveryOptions) (*core.DeliverySink, error) {
	return core.NewDeliverySink(stream, a.topology.SinkPartitions(stream), a.mgr.Env(), consumer, opts)
}

// Manager exposes the task manager (failure injection, metrics).
func (a *App) Manager() *core.Manager { return a.mgr }

// StageNames lists the query's stage names in topology order. Useful
// with Rescale, whose stage argument is a name like "<query>/<stage>".
func (a *App) StageNames() []string {
	names := make([]string, len(a.query.Stages))
	for i, st := range a.query.Stages {
		names[i] = st.Name
	}
	return names
}

// Rescale moves a stage to newSlots task slots on the live log without
// a restart (progress-marker protocol only; newSlots is capped by the
// stage's MaxParallelism). It returns the committed assignment epoch.
func (a *App) Rescale(ctx context.Context, stage string, newSlots int) (uint64, error) {
	return a.mgr.Rescale(ctx, stage, newSlots)
}

// AssignmentEpoch reports a stage's current assignment epoch (1 until
// the first rescale commits).
func (a *App) AssignmentEpoch(stage string) uint64 {
	return a.mgr.AssignmentEpoch(stage)
}

// Metrics aggregates task metrics across the query.
func (a *App) Metrics() core.QueryMetrics { return a.mgr.Metrics() }

// InputCount reports records accepted by all ingress writers.
func (a *App) InputCount() uint64 {
	var n uint64
	for _, writers := range a.ingresses {
		for _, w := range writers {
			n += w.Sent()
		}
	}
	return n
}

// Stop shuts the app down: ingress flushes once more, tasks stop.
func (a *App) Stop() {
	a.cancel()
	a.mgr.Stop()
	a.wg.Wait()
}

// FlushIngress forces every ingress writer to flush its buffered input
// to the log immediately. Tests drain buffered input this way before
// injecting a power failure, so input loss is a controlled variable
// rather than an accident of flush timing.
func (a *App) FlushIngress() error {
	var firstErr error
	for _, writers := range a.ingresses {
		for _, w := range writers {
			if err := w.Flush(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// PowerFail models a whole-cluster power loss: the shared log is closed
// FIRST — in-flight and future appends fail with ErrClosed, exactly as
// if the machines lost power — and only then are the task goroutines
// torn down. Anything buffered but not yet acknowledged by the log
// (ingress buffers, unflushed batches) is lost, as it would be on real
// hardware; everything the log acknowledged is on the WAL device, ready
// for a new cluster to Recover. The cluster is unusable afterwards.
func (a *App) PowerFail() {
	a.cluster.log.Close()
	a.cancel()
	a.mgr.Stop()
	a.wg.Wait()
	a.cluster.ckpt.Close()
}
