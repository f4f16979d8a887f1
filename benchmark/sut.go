package main

// sut.go is the only file of the benchmark that calls into the system
// under test; README.md lists the API surface it pins. Cluster settings
// are assigned field by field, never through composite-literal keys, so
// regrouping ClusterConfig's fields into an embedded struct keeps this
// file compiling. It uses none of the per-record read calls (ReadNext*,
// ReadNextAny*) or the legacy encoder the ROADMAP lists for deletion.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"impeller"
	"impeller/internal/core"
	"impeller/internal/kvstore"
	"impeller/internal/nexmark"
	"impeller/internal/sharedlog"
	"impeller/internal/wal"
	"impeller/internal/wire"
)

// --- input: the NEXMark generator and event decoders ---

type eventGenerator struct{ g *nexmark.Generator }

func newEventGenerator(seed uint64) eventGenerator {
	return eventGenerator{nexmark.NewGenerator(seed)}
}

func (e eventGenerator) next(eventTime int64) []byte { return e.g.Next(eventTime).Payload }

func isBid(payload []byte) bool     { return nexmark.KindOf(payload) == nexmark.KindBid }
func isPerson(payload []byte) bool  { return nexmark.KindOf(payload) == nexmark.KindPerson }
func isAuction(payload []byte) bool { return nexmark.KindOf(payload) == nexmark.KindAuction }

// q1Convert is Q1's result for one bid: the price converted at 908/1000,
// everything else unchanged.
func q1Convert(payload []byte) ([]byte, error) {
	bid, err := nexmark.DecodeBid(payload)
	if err != nil {
		return nil, err
	}
	bid.Price = bid.Price * 908 / 1000
	return bid.Encode(), nil
}

func bidderOf(payload []byte) (uint64, error) {
	bid, err := nexmark.DecodeBid(payload)
	if err != nil {
		return 0, err
	}
	return bid.Bidder, nil
}

func personOf(payload []byte) (id uint64, name string, err error) {
	p, err := nexmark.DecodePerson(payload)
	if err != nil {
		return 0, "", err
	}
	return p.ID, p.Name, nil
}

func auctionOf(payload []byte) (id, seller uint64, err error) {
	a, err := nexmark.DecodeAuction(payload)
	if err != nil {
		return 0, 0, err
	}
	return a.ID, a.Seller, nil
}

// Window sizes the references need, in µs.
var (
	q12WindowMicros = nexmark.Q12Window.Size.Microseconds()
	q8WindowMicros  = nexmark.Q8Window.Microseconds()
)

// splitQ12Key parses a Q12 output key into its window start and bidder.
func splitQ12Key(key []byte) (start int64, bidder uint64, ok bool) {
	start, _, k, err := impeller.SplitWindowKey(key)
	if err != nil || len(k) != 8 {
		return 0, 0, false
	}
	return start, binary.LittleEndian.Uint64(k), true
}

// q12Count parses a Q12 output value.
func q12Count(value []byte) uint64 { return nexmark.CountValue(value) }

// splitQ8 parses a Q8 output (key: person id; value: person name, auction
// id). The name aliases value.
func splitQ8(key, value []byte) (person uint64, name []byte, auction uint64, ok bool) {
	if len(key) != 8 || len(value) < 2 {
		return 0, nil, 0, false
	}
	n := int(binary.LittleEndian.Uint16(value))
	if len(value) != 2+n+8 {
		return 0, nil, 0, false
	}
	return binary.LittleEndian.Uint64(key), value[2 : 2+n], binary.LittleEndian.Uint64(value[2+n:]), true
}

// --- the running system ---

type delivery = impeller.Delivery

// sut is one in-process cluster running one workload's query with the
// two readers every workload attaches to the output stream.
type sut struct {
	cluster  *impeller.Cluster
	app      *impeller.App
	deliver  *core.DeliverySink
	delivery chan error // result of deliver.Run
	device   *wal.Device

	source      []*core.TaskMetrics // the source stage's tasks
	restartTask core.TaskID         // task 0 of the last stage
}

// startSUT builds the cluster, starts the query, attaches an ungated sink
// calling onEmit at the emission point and a delivery sink feeding
// consumer at the exactly-once delivery point.
func startSUT(w *workload, seed uint64, onEmit func(eventTime int64, now time.Time), consumer impeller.Consumer) (*sut, error) {
	var cfg impeller.ClusterConfig
	cfg.Protocol = impeller.ProgressMarker
	cfg.DefaultParallelism = w.parallelism
	cfg.IngressWriters = ingressWriters
	cfg.IngressFlushInterval = w.flush
	cfg.CommitInterval = w.commit
	cfg.SnapshotInterval = w.snapshot
	cfg.Seed = seed
	if w.tasklet {
		cfg.Engine = impeller.EngineTasklet
		cfg.EngineLoops = runtime.NumCPU()
	}
	s := &sut{}
	if w.simLatency {
		cfg.SimulateLatency = true
		s.device = wal.NewDevice()
		cfg.WAL = s.device
	}
	topo, err := nexmark.BuildOpts(w.query, nexmark.Options{PerUpdateWindows: true})
	if err != nil {
		return nil, err
	}
	s.cluster = impeller.NewCluster(cfg)
	s.app, err = s.cluster.Run(topo)
	if err != nil {
		s.cluster.Close()
		return nil, err
	}
	out := nexmark.OutputStream(w.query)
	s.app.Sink(out, false, func(r impeller.Record, _ impeller.TaskID, now time.Time) {
		onEmit(r.EventTime, now)
	})
	s.deliver, err = s.app.NewDeliverySink(out, consumer, impeller.DeliveryOptions{})
	if err != nil {
		s.app.Stop()
		s.cluster.Close()
		return nil, err
	}
	s.delivery = make(chan error, 1) // one send, by the goroutine below
	go func() { s.delivery <- s.deliver.Run(context.Background()) }()

	stages := s.app.StageNames()
	mgr := s.app.Manager()
	for _, id := range mgr.TaskIDs() {
		if strings.HasPrefix(string(id), stages[0]+"/") {
			s.source = append(s.source, mgr.TaskMetrics(id))
		}
	}
	s.restartTask = core.TaskID(stages[len(stages)-1] + "/0")
	return s, nil
}

func (s *sut) send(writer int, key, payload []byte, eventTime int64) error {
	return s.app.SendVia(nexmark.EventStream, writer, key, payload, eventTime)
}

// sourceProcessed is the number of events the source stage has applied.
func (s *sut) sourceProcessed() uint64 {
	var n uint64
	for _, m := range s.source {
		n += m.Processed.Load()
	}
	return n
}

// restart kills and respawns task 0 of the last stage; it returns once
// the replacement is spawned, before it has recovered.
func (s *sut) restart() error { return s.app.Manager().RestartNow(s.restartTask) }

// stop shuts the readers, the query and the cluster down, in that order,
// and waits for each.
func (s *sut) stop() error {
	s.deliver.Stop()
	err := <-s.delivery
	s.app.Stop()
	s.cluster.Close()
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// counters is every counter the system keeps, read once after a run.
type counters struct {
	query    core.QueryMetrics
	log      sharedlog.Stats
	delivery core.DeliveryStats
	// source stage: events applied, and log records its cursors returned.
	sourceProcessed, sourceLogRecords uint64
	buffered                          uint64 // records that sat in an unknown-state queue
	// restarted task: what its last recovery replayed.
	recoveredChanges   uint64
	recoveryNanos      int64
	recoveryBatchReads uint64
	walBytes           uint64
	walFlushes         uint64
}

func (s *sut) counters() counters {
	c := counters{
		query:    s.app.Metrics(),
		log:      s.cluster.LogStats(),
		delivery: s.deliver.Stats(),
	}
	for _, m := range s.source {
		c.sourceProcessed += m.Processed.Load()
		c.sourceLogRecords += m.Cursor.Records.Load()
	}
	for _, id := range s.app.Manager().TaskIDs() {
		c.buffered += s.app.Manager().TaskMetrics(id).Buffered.Load()
	}
	if m := s.app.Manager().TaskMetrics(s.restartTask); m != nil {
		c.recoveredChanges = m.RecoveredChanges.Load()
		c.recoveryNanos = m.RecoveryNanos.Load()
		c.recoveryBatchReads = m.RecoveryCursor.BatchReads.Load()
	}
	if s.device != nil {
		c.walBytes, _, c.walFlushes = s.device.Stats()
	}
	return c
}

// outputPartitions is the partition count of query q's output stream.
func outputPartitions(q int) int {
	topo, err := nexmark.Build(q)
	if err != nil {
		panic(err)
	}
	return topo.SinkPartitions(nexmark.OutputStream(q))
}

// --- per-layer drives: each returns a function making one fixed batch of
// calls into a layer's public functions, and how many records that is.
// layers.go times them and counts their allocations. ---

const driveBatch = 64

// bidBatch is a 64-record batch shaped like Q1's traffic.
func bidBatch(seed uint64) *core.Batch {
	gen := nexmark.NewGenerator(seed)
	b := &core.Batch{Kind: core.KindData, Producer: "q1/s0/0", Instance: 1}
	for len(b.Records) < driveBatch {
		ev := gen.Next(eventTimeZero)
		if ev.Kind != nexmark.KindBid {
			continue
		}
		seq := uint64(len(b.Records) + 1)
		b.Records = append(b.Records, core.Record{
			Seq: seq, EventTime: eventTimeZero,
			Key: binary.BigEndian.AppendUint64(nil, seq), Value: ev.Payload,
		})
	}
	return b
}

func driveWireEncode(seed uint64) (func(), int) {
	b := bidBatch(seed)
	return func() {
		buf := wire.GetBuf()
		buf.B = b.AppendTo(buf.B)
		wire.PutBuf(buf)
	}, driveBatch
}

func driveWireDecode(seed uint64) (func(), int) {
	enc := bidBatch(seed).Encode()
	return func() {
		if _, err := core.DecodeBatch(enc); err != nil {
			panic(err)
		}
	}, driveBatch
}

// ingressDrive is an ingress writer on a stream no task consumes, so
// what is timed is Send and Flush — the calls App.SendVia and
// App.FlushIngress forward to — and nothing downstream of them. The idle
// Q1 app is there for its runtime environment.
type ingressDrive struct {
	cluster *impeller.Cluster
	app     *impeller.App
	writer  *core.Ingress
	keys    [][]byte
	payload []byte
}

func newIngressDrive(seed uint64) (*ingressDrive, error) {
	var cfg impeller.ClusterConfig
	cfg.DefaultParallelism = 2
	cfg.Seed = seed
	topo, err := nexmark.Build(1)
	if err != nil {
		return nil, err
	}
	d := &ingressDrive{cluster: impeller.NewCluster(cfg)}
	if d.app, err = d.cluster.Run(topo); err != nil {
		d.cluster.Close()
		return nil, err
	}
	d.writer = core.NewIngress("ingress/drive/0", "drive", 2, d.app.Manager().Env(), nil)
	b := bidBatch(seed)
	d.payload = b.Records[0].Value
	for i := range b.Records {
		d.keys = append(d.keys, b.Records[i].Key)
	}
	return d, nil
}

func (d *ingressDrive) send() {
	for _, k := range d.keys {
		d.writer.Send(k, d.payload, eventTimeZero)
	}
}

func (d *ingressDrive) flush() {
	if err := d.writer.Flush(); err != nil {
		panic(err)
	}
}

func (d *ingressDrive) close() {
	d.app.Stop()
	d.cluster.Close()
}

// logDrive is a bare shared log taking 64×200 B batches on one hot tag.
type logDrive struct {
	log     *sharedlog.Log
	entries []sharedlog.AppendEntry
}

func newLogDrive(ordering time.Duration, shards int) *logDrive {
	var cfg sharedlog.Config
	cfg.NumShards = 4
	cfg.Replication = 3
	cfg.OrderingInterval = ordering
	cfg.OrderingShards = shards
	d := &logDrive{log: sharedlog.Open(cfg)}
	tags := []sharedlog.Tag{"d/drive/0"}
	payload := make([]byte, 200)
	for i := 0; i < driveBatch; i++ {
		d.entries = append(d.entries, sharedlog.AppendEntry{Tags: tags, Payload: payload})
	}
	return d
}

func (d *logDrive) appendBatch() {
	if _, err := d.log.AppendBatch(d.entries); err != nil {
		panic(err)
	}
}

// warmCursor reads back what appendBatch wrote, 64 records a call.
func (d *logDrive) warmCursor() func() int {
	cur := d.log.OpenCursor([]sharedlog.Tag{"d/drive/0"}, 0)
	return func() int {
		recs, err := cur.NextBatch(driveBatch)
		if err != nil {
			panic(err)
		}
		return len(recs)
	}
}

// replay reads the whole tag from LSN 0 with a cold cursor.
func (d *logDrive) replay() int {
	cur := d.log.OpenCursor([]sharedlog.Tag{"d/drive/0"}, 0)
	n := 0
	for {
		recs, err := cur.NextBatch(driveBatch)
		if err != nil {
			panic(err)
		}
		if len(recs) == 0 {
			return n
		}
		n += len(recs)
	}
}

func (d *logDrive) close() { d.log.Close() }

// driveWALFrame frames and syncs 4 KiB payloads to a fresh device.
func driveWALFrame() (func(), int) {
	dev := wal.NewDevice()
	payload := make([]byte, 4096)
	var frame []byte
	return func() {
		frame = wal.AppendFrame(frame[:0], 1, payload)
		dev.Append(frame)
		dev.Sync()
	}, len(payload)
}

// walRecover rebuilds a log from a device a workload wrote and reports
// the bytes it scanned.
func walRecover(dev *wal.Device) (int, error) {
	var cfg sharedlog.Config
	cfg.NumShards = 4
	cfg.Replication = 3
	cfg.WAL = dev
	log, err := sharedlog.Recover(cfg)
	if err != nil {
		return 0, err
	}
	log.Close()
	return dev.Size(), nil
}

// driveKVPut writes a 64 KiB snapshot with synchronous writes.
func driveKVPut() (func(), func()) {
	var cfg kvstore.Config
	cfg.SyncWrites = true
	st := kvstore.Open(cfg)
	snap := make([]byte, 64<<10)
	i := 0
	return func() {
		i++
		if err := st.Put(fmt.Sprintf("ckpt/drive/%d", i%8), snap); err != nil {
			panic(err)
		}
	}, st.Close
}

// stubContext is the ProcContext the operator drives run under.
type stubContext struct{ store *core.StateStore }

func (c stubContext) Store() *core.StateStore { return c.store }
func (c stubContext) TaskID() core.TaskID     { return "drive/0" }
func (c stubContext) Substream() int          { return 0 }
func (c stubContext) Charge(int)              {}

// opDrive runs one of the workloads' operator shapes over n of the
// pre-generated events. Every state mutation is encoded as a change
// record, as the task runtime would, so the change-log cost is in.
type opDrive struct {
	proc    core.Processor
	port    func(payload []byte) int // -1 skips the event
	rekey   func(key, payload []byte) []byte
	changes int // bytes of change records encoded
}

func newOpDrive(shape string) (*opDrive, error) {
	d := &opDrive{port: func([]byte) int { return 0 }, rekey: func(k, _ []byte) []byte { return k }}
	bidder := func(_, payload []byte) []byte {
		b, _ := bidderOf(payload)
		return binary.LittleEndian.AppendUint64(nil, b)
	}
	bidsOnly := func(p []byte) int {
		if isBid(p) {
			return 0
		}
		return -1
	}
	switch shape {
	case "map": // Q1: Chain(Filter, Map)
		d.proc = core.Chain(
			core.Filter(func(x core.Datum) bool { return isBid(x.Value) }),
			core.Map(func(x core.Datum) *core.Datum {
				v, err := q1Convert(x.Value)
				if err != nil {
					return nil
				}
				x.Value = v
				return &x
			}))
	case "window": // Q12's second stage
		d.port, d.rekey = bidsOnly, bidder
		d.proc = core.WindowAggregate("q12", nexmark.Q12Window, core.EmitPerUpdate,
			func(_, _, acc []byte) []byte {
				return binary.LittleEndian.AppendUint64(nil, q12Count(acc)+1)
			})
	case "join": // Q8's join stage
		d.port = func(p []byte) int {
			switch {
			case isPerson(p):
				return 0
			case isAuction(p):
				return 1
			}
			return -1
		}
		d.rekey = func(_, p []byte) []byte {
			id, _, err := personOf(p)
			if err != nil {
				_, id, _ = auctionOf(p)
			}
			return binary.LittleEndian.AppendUint64(nil, id)
		}
		d.proc = core.StreamStreamJoin("q8join", nexmark.Q8Window, func(_, person, auction []byte) []byte {
			_, name, _ := personOf(person)
			id, _, _ := auctionOf(auction)
			return binary.LittleEndian.AppendUint64([]byte(name), id)
		})
	case "count":
		d.port, d.rekey = bidsOnly, bidder
		d.proc = core.Count("count")
	default:
		return nil, fmt.Errorf("no operator shape %q", shape)
	}
	store := core.NewStateStore(func(_ string, v []byte, deleted bool) {
		d.changes += len(core.EncodeChange(v, deleted))
	})
	if err := d.proc.Open(stubContext{store}); err != nil {
		return nil, err
	}
	return d, nil
}

// datum is one pre-routed operator input.
type datum struct {
	port int
	d    core.Datum
}

// prepare routes events [from, to) of in to the operator's ports.
func (d *opDrive) prepare(in *input, from, to int) []datum {
	var out []datum
	for i := from; i < to; i++ {
		p := in.payload(i)
		port := d.port(p)
		if port < 0 {
			continue
		}
		out = append(out, datum{port, core.Datum{Key: d.rekey(in.key(i), p), Value: p, EventTime: in.eventTime(i)}})
	}
	return out
}

func (d *opDrive) process(data []datum) {
	emit := func(int, core.Datum) {}
	for i := range data {
		if err := d.proc.Process(data[i].port, data[i].d, emit); err != nil {
			panic(err)
		}
	}
}

// stateDrive is a state store of n 8-byte keys with 16-byte values.
type stateDrive struct {
	store *core.StateStore
	keys  []string
	value []byte
}

func newStateDrive(n int) *stateDrive {
	d := &stateDrive{store: core.NewStateStore(nil), value: make([]byte, 16)}
	for i := 0; i < n; i++ {
		d.keys = append(d.keys, fmt.Sprintf("s/%08d", i))
	}
	d.put()
	return d
}

func (d *stateDrive) put() {
	for _, k := range d.keys {
		d.store.Put(k, d.value)
	}
}

func (d *stateDrive) snapshot() []byte { return d.store.Snapshot() }

func (d *stateDrive) restore(snap []byte) {
	if err := core.NewStateStore(nil).RestoreSnapshot(snap); err != nil {
		panic(err)
	}
}
