package sharedlog

// The ordering plane, split Scalog-style into two layers:
//
//   - The per-shard local-ordering layer (seqShard). In sequencer mode
//     every append is routed round-robin to one of OrderingShards local
//     sequencers. Each shard owns its pending list behind its own short
//     lock and models its local persist bandwidth by charging
//     ShardAppendLatency serially per shard — so appends on different
//     shards never contend on a lock or on simulated storage.
//
//   - The cut/publish layer (cutLoop). Every OrderingInterval the cut
//     aggregator steals each shard's pending batches and, under l.mu,
//     assigns each shard a contiguous range of global LSNs, re-validates
//     conditional-append guards against the metadata KV at that moment,
//     writes the records to the committed store, and indexes the whole
//     cut with one vectorized pass. LSN assignment is the global total
//     order, so it is a serial decision by construction — the visible
//     tail advances in total order by cut, and the lock-free read plane
//     (store.go, index.go, cursor.go) only ever observes fully
//     published state.
//
// Immediate mode (OrderingInterval == 0) bypasses the shard layer: each
// append or batch is its own cut, ordered and published inline under
// one acquisition of l.mu (commitImmediate) through the same
// orderLocked → publishLocked → writeCut sequence the cut loop runs.

import (
	"sync"
	"sync/atomic"
)

// seqShard is one local sequencer: the per-shard half of the ordering
// plane. Appends enqueue here without touching the global ordering
// mutex; the cut aggregator steals the pending list at each cut. The
// shard is a named fault-injection target ("sequencer/<i>") so chaos
// schedules can crash or slow an individual local sequencer mid-cut.
type seqShard struct {
	name string

	// mu guards pending only. It is held for O(1) per enqueue and one
	// pointer swap per cut, so it never becomes the contention point the
	// single ordering mutex used to be.
	mu      sync.Mutex
	pending []*pendingBatch

	// persistMu serializes the local persist simulation: a shard's
	// storage writes one group at a time, which is what makes aggregate
	// append throughput scale with the number of ordering shards.
	persistMu sync.Mutex

	// spare is the recycled backing array for pending, owned by the cut
	// loop between cuts.
	spare []*pendingBatch

	// cuts / records count the cuts this shard contributed >= 1 entry to
	// and the entries it pushed through them (Stats reports per-shard
	// cut counters and skew from these).
	cuts    atomic.Uint64
	records atomic.Uint64
}

// pendingBatch is a group of appends waiting on one shard for the next
// sequencer cut. A single Append is a batch of one (drawn from
// batchPool so the warm append path stays allocation-flat); AppendBatch
// enqueues many entries behind one response so the whole group is
// ordered contiguously within the cut.
//
// Ownership protocol: the submitter owns the batch until it is enqueued
// on a shard; stealing the shard's pending list (cut loop or Close,
// mutually exclusive under shard.mu) transfers ownership to exactly one
// stealer, which fills results and then performs the single send on
// resp; receiving on resp returns ownership to the submitter. resp is
// never closed, so pooled batches can be recycled safely.
type pendingBatch struct {
	entries []pendingEntry
	results []appendResult // one per entry, index-aligned; valid when resp delivers nil
	resp    chan error     // capacity 1: nil = ordered, ErrClosed = log shut down
}

// batchPool recycles single-entry batches for the ordering-mode Append
// hot path, eliminating the per-call response-channel and result-slice
// allocations.
var batchPool = sync.Pool{
	New: func() any {
		return &pendingBatch{
			entries: make([]pendingEntry, 1),
			results: make([]appendResult, 1),
			resp:    make(chan error, 1),
		}
	},
}

// pendingEntry is one record of a pending batch, with its
// conditional-append guard re-validated at ordering time.
type pendingEntry struct {
	rec         *Record
	conditional bool
	condKey     string
	condWant    uint64
}

type appendResult struct {
	lsn LSN
	err error
}

// Append appends payload with tags and returns the assigned LSN. The
// append is atomic with respect to every tag: the single record appears
// in each tag's substream at the same global position. tags must be
// non-empty.
func (l *Log) Append(tags []Tag, payload []byte) (LSN, error) {
	return l.append(tags, payload, "", 0, false)
}

// ConditionalAppend appends only if the metadata key still holds want.
// Impeller fences zombie tasks by guarding progress-marker appends on
// the task's instance number (paper §3.4). Returns ErrCondFailed if the
// guard no longer holds.
func (l *Log) ConditionalAppend(tags []Tag, payload []byte, key string, want uint64) (LSN, error) {
	return l.append(tags, payload, key, want, true)
}

func (l *Log) append(tags []Tag, payload []byte, condKey string, condWant uint64, conditional bool) (LSN, error) {
	if len(tags) == 0 {
		return 0, errAppendNeedsTag
	}
	if err := l.cfg.Faults.Check("client", "sequencer"); err != nil {
		return 0, err
	}
	if d := l.cfg.Faults.DelayOf("sequencer"); d > 0 {
		l.cfg.Clock.Sleep(d) // injected latency spike at the sequencer
	}
	if m := l.cfg.AppendLatency; m != nil {
		l.cfg.Clock.Sleep(m.Sample())
	}
	// The record owns copies of its inputs; once committed it is shared
	// with every reader and never mutated again.
	rec := &Record{
		Tags:    append([]Tag(nil), tags...),
		Payload: append([]byte(nil), payload...),
	}

	if !l.ordering {
		// The degenerate group of one, through the same order → publish
		// → persist sequence as AppendBatch and the cut loop. The arrays
		// stay on the stack: the single-record path allocates only the
		// record.
		entry := [1]pendingEntry{{rec: rec, conditional: conditional, condKey: condKey, condWant: condWant}}
		var result [1]appendResult
		var group [1]*Record
		if err := l.commitImmediate(entry[:], result[:], group[:0]); err != nil {
			return 0, err
		}
		return result[0].lsn, result[0].err
	}
	// Ordering mode: route to a local sequencer shard. The guard is
	// validated at the sequencer cut — the moment the LSN is assigned —
	// not at enqueue time, so a fence between enqueue and cut still
	// excludes the append.
	s := l.routeShard()
	if err := l.cfg.Faults.Check("client", s.name); err != nil {
		return 0, err // crashed local sequencer; retryable, a retry re-routes
	}
	l.chargeShardPersist(s)
	b := batchPool.Get().(*pendingBatch)
	b.entries[0] = pendingEntry{
		rec:         rec,
		conditional: conditional,
		condKey:     condKey,
		condWant:    condWant,
	}
	if err := s.enqueue(l, b); err != nil {
		b.entries[0] = pendingEntry{}
		batchPool.Put(b)
		return 0, err
	}
	if err := <-b.resp; err != nil {
		b.entries[0] = pendingEntry{}
		batchPool.Put(b)
		return 0, err
	}
	res := b.results[0]
	b.entries[0] = pendingEntry{} // drop the record reference before pooling
	batchPool.Put(b)
	return res.lsn, res.err
}

// routeShard picks the ordering shard for the next append. Round-robin
// keeps the shards load-balanced without any coordination beyond one
// atomic increment.
func (l *Log) routeShard() *seqShard {
	if len(l.seqShards) == 1 {
		return l.seqShards[0]
	}
	return l.seqShards[l.rr.Add(1)%uint64(len(l.seqShards))]
}

// chargeShardPersist models the local persist at an ordering shard: one
// group at a time per shard (serialized under persistMu), concurrent
// across shards. This — not the enqueue lock — is the per-shard
// resource that bounds a single shard's append bandwidth.
func (l *Log) chargeShardPersist(s *seqShard) {
	m := l.cfg.ShardAppendLatency
	if m == nil {
		return
	}
	d := m.Sample()
	if d <= 0 {
		return
	}
	s.persistMu.Lock()
	l.cfg.Clock.Sleep(d)
	s.persistMu.Unlock()
}

// enqueue adds b to the shard's pending list, failing fast with
// ErrClosed once the log is shut down. The closed check happens under
// shard.mu: Close marks the log closed before stealing each shard's
// pending list, so a batch either lands in a steal (and is failed by
// Close) or observes closed here — it can never be stranded.
func (s *seqShard) enqueue(l *Log, b *pendingBatch) error {
	s.mu.Lock()
	if l.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	s.pending = append(s.pending, b)
	s.mu.Unlock()
	return nil
}

// steal takes the shard's entire pending list, leaving the recycled
// spare array in its place. Called by the cut loop each cut and by
// Close at shutdown; shard.mu makes the two exclusive, so every batch
// has exactly one stealer (and therefore exactly one resp send).
func (s *seqShard) steal() []*pendingBatch {
	s.mu.Lock()
	stolen := s.pending
	s.pending = s.spare
	s.spare = nil
	s.mu.Unlock()
	return stolen
}

// recycle hands a drained steal result back to the shard as the next
// pending backing array. Taken under shard.mu because steal (cut loop
// or Close) reads spare under the same lock.
func (s *seqShard) recycle(arr []*pendingBatch) {
	s.mu.Lock()
	if s.spare == nil {
		s.spare = arr[:0]
	}
	s.mu.Unlock()
}

// condHoldsLocked reports whether the metadata guard still holds.
func (l *Log) condHoldsLocked(key string, want uint64) bool {
	got, ok := l.meta.Get(key)
	return ok && got == want
}

// orderLocked runs the ordering decision for a group of entries:
// validates each conditional guard, assigns contiguous LSNs, and
// publishes the records to the committed store. Index insertion is left
// to the caller (publishLocked) so a whole group — or a whole sequencer
// cut spanning many groups — gets one vectorized index pass. Committed
// records are appended to recs and returned; results is filled
// index-aligned with entries. Caller holds l.mu.
func (l *Log) orderLocked(entries []pendingEntry, results []appendResult, recs []*Record) []*Record {
	for i := range entries {
		e := &entries[i]
		if e.conditional && !l.condHoldsLocked(e.condKey, e.condWant) {
			results[i] = appendResult{err: ErrCondFailed}
			l.stats.condFailed.Add(1)
			continue
		}
		lsn := l.store.nextLSN()
		e.rec.LSN = lsn
		l.store.put(e.rec)
		results[i] = appendResult{lsn: lsn}
		recs = append(recs, e.rec)
	}
	return recs
}

// commitImmediate is immediate mode's whole commit: one acquisition of
// l.mu covers the guard checks and LSN assignment (atomic together, so
// with FenceIncrement two markers can never both commit for the same
// task instance), the publication, and — still under l.mu, the serial
// persist path, so frames land in LSN order — one WAL frame and sync
// for the group before the append returns (ack-after-durable). recs is
// the caller's scratch for the committed records.
func (l *Log) commitImmediate(entries []pendingEntry, results []appendResult, recs []*Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	recs = l.orderLocked(entries, results, recs)
	l.publishLocked(recs)
	if l.dur != nil {
		l.dur.writeCut(recs)
	}
	return nil
}

// publishLocked is the one routine that makes records readable. The
// group — one record, one AppendBatch, or a whole sequencer cut — is
// already in the store (orderLocked), so a reader that finds an LSN
// through the index sees the record behind it. Three steps, in this
// order: insert every (tag, LSN) of the group; store the visible tail
// past the group's last LSN; then wake the readers blocked on the
// touched tags. A cursor fetch clamps to the tail it loaded before its
// lookups, so it sees either none of the group or all of it; the wake
// pass follows the store so no reader parks on a tail that already
// moved (tagIndex.wakeWaiters). Caller holds l.mu — index insertion
// must stay serialized in LSN order so per-tag LSN lists stay sorted.
func (l *Log) publishLocked(recs []*Record) {
	if len(recs) == 0 {
		return
	}
	l.index.addRecords(recs)
	if l.publishHook != nil {
		l.publishHook()
	}
	l.index.visible.Store(uint64(recs[len(recs)-1].LSN) + 1)
	woken := l.index.wakeWaiters()
	l.stats.appends.Add(uint64(len(recs)))
	if woken > 0 {
		l.stats.wakeups.Add(uint64(woken))
	}
}

// cutLoop is the cut/publish layer: Scalog-style global ordering over
// the local sequencer shards. Every OrderingInterval it collects each
// live shard's pending batches and assigns the whole cut global LSNs
// under one acquisition of l.mu — shard by shard, so each shard's
// committed records occupy a contiguous LSN range within the cut — then
// indexes everything with one vectorized pass.
//
// Fault semantics per shard:
//   - a crashed shard ("sequencer/<i>") is excluded from the cut; its
//     pending appends stay queued until it recovers and a later cut
//     picks them up (new appends to it fail fast with ErrCrashed);
//   - a delayed shard stalls the cut by its injected delay before its
//     list is stolen — the global cut advances at the pace of the
//     slowest live shard, which is exactly the coupling the Scalog
//     design accepts in exchange for contention-free appends.
func (l *Log) cutLoop() {
	stolen := make([][]*pendingBatch, len(l.seqShards))
	var recs []*Record
	for {
		select {
		case <-l.done:
			return
		case <-l.cfg.Clock.After(l.cfg.OrderingInterval):
		}
		// Local layer: collect per-shard pending lists.
		for i, s := range l.seqShards {
			stolen[i] = nil
			if l.cfg.Faults.Crashed(s.name) {
				continue // excluded from this cut; pending waits for recovery
			}
			if d := l.cfg.Faults.DelayOf(s.name); d > 0 {
				l.cfg.Clock.Sleep(d) // slow local sequencer stalls the cut
			}
			stolen[i] = s.steal()
		}
		// Global layer: one ordering decision for the whole cut.
		total := 0
		recs = recs[:0]
		l.mu.Lock()
		for i, s := range l.seqShards {
			shardEntries := 0
			for _, b := range stolen[i] {
				if cap(b.results) < len(b.entries) {
					b.results = make([]appendResult, len(b.entries))
				} else {
					b.results = b.results[:len(b.entries)]
				}
				recs = l.orderLocked(b.entries, b.results, recs)
				shardEntries += len(b.entries)
			}
			if shardEntries > 0 {
				s.cuts.Add(1)
				s.records.Add(uint64(shardEntries))
				total += shardEntries
			}
		}
		l.publishLocked(recs)
		l.mu.Unlock()
		// Durability: frame and sync the whole cut before any append
		// response is delivered (ack-after-durable). Off the global mutex —
		// the cut loop is the only committer in sequencer mode, so frames
		// still land in LSN order — and one flush covers the entire cut,
		// which is the group-commit amortization the durability plane
		// inherits from the ordering plane.
		if l.dur != nil {
			l.dur.writeCut(recs)
		}
		if total > 0 {
			l.stats.cuts.Add(1)
			l.stats.cutBatch.Add(uint64(total))
		}
		// Deliver results and recycle the stolen arrays as next cut's
		// spares. The send transfers batch ownership back to the
		// submitter; nothing may touch b afterwards.
		for i, s := range l.seqShards {
			if stolen[i] == nil {
				continue
			}
			for j, b := range stolen[i] {
				b.resp <- nil
				stolen[i][j] = nil // drop the reference before recycling
			}
			s.recycle(stolen[i])
		}
		for i := range recs {
			recs[i] = nil // don't pin records past their cut
		}
	}
}
