package sharedlog

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The per-tag index of the committed-read plane. Lookups take only a
// sharded RWMutex read lock (hashed by tag), never the ordering mutex,
// so selective reads scale with readers. The ordering plane appends
// under the shard write lock — a short critical section per tag.
//
// Blocking readers register a waiter on each tag they watch; a commit
// detaches and wakes exactly the waiters of the tags it carries. This
// replaces the old global broadcast channel that woke every blocked
// reader on every commit (the thundering herd the wakeup counters in
// Stats make visible).

const indexShards = 16 // power of two; tags hash across these

type tagIndex struct {
	shards [indexShards]indexShard

	// visible is the visible tail: one past the highest LSN whose whole
	// publication group is in the index. Forward readers ignore index
	// entries at or above it, so the prefix they merge is closed — a
	// multi-tag reader can never see a group's higher LSN under one tag
	// before its lower LSN landed under another, and skip past it.
	// Stored by publishLocked (and by Recover while it replays).
	visible atomic.Uint64

	// buckets is addRecords' per-shard scratch, kept for wakeWaiters and
	// reused by the next group; toWake is wakeWaiters' scratch. Both are
	// owned by the (serialized) publisher.
	buckets [indexShards][]tagInsert
	toWake  []*waiter
}

type indexShard struct {
	mu sync.RWMutex
	m  map[Tag]*tagEntry
}

// tagEntry is one tag's substream: its committed LSNs in ascending
// order, plus the readers currently blocked on it.
type tagEntry struct {
	lsns    []LSN
	waiters []*waiter
}

// waiter is one blocked cursor. It may be registered on several tags;
// the first commit on any of them wins the CAS and closes the channel,
// so a waiter wakes at most once.
type waiter struct {
	ch    chan struct{}
	woken atomic.Bool
}

func newWaiter() *waiter { return &waiter{ch: make(chan struct{})} }

// wake signals the waiter; reports whether this call was the one that
// woke it (false if it was already woken through another tag).
func (w *waiter) wake() bool {
	if w.woken.CompareAndSwap(false, true) {
		close(w.ch)
		return true
	}
	return false
}

func newTagIndex() *tagIndex {
	idx := &tagIndex{}
	for i := range idx.shards {
		idx.shards[i].m = make(map[Tag]*tagEntry)
	}
	return idx
}

// shardIdx hashes tag onto a shard index (FNV-1a).
func shardIdx(tag Tag) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= prime64
	}
	return h & (indexShards - 1)
}

func (x *tagIndex) shardFor(tag Tag) *indexShard {
	return &x.shards[shardIdx(tag)]
}

// tagInsert is one (tag, lsn) pair of a vectorized index pass.
type tagInsert struct {
	tag Tag
	lsn LSN
}

// addRecords is the insert pass of a publication: it indexes a group of
// committed records, bucketing the (tag, lsn) inserts by shard first so
// each touched shard's write lock is taken once per group instead of
// once per tag occurrence. recs must be in ascending LSN order and the
// call must be serialized with every other index insertion (the
// ordering plane calls it under l.mu, Recover before the log is
// shared) — that keeps each per-tag LSN list sorted for the read
// plane's binary searches and lets the buckets be reused across calls.
//
// Nothing inserted here is readable until the caller stores the
// visible tail past the group, and no waiter is woken before that
// store: see wakeWaiters.
func (x *tagIndex) addRecords(recs []*Record) {
	for i := range x.buckets {
		x.buckets[i] = x.buckets[i][:0]
	}
	for _, rec := range recs {
		for _, tag := range rec.Tags {
			i := shardIdx(tag)
			x.buckets[i] = append(x.buckets[i], tagInsert{tag: tag, lsn: rec.LSN})
		}
	}
	for i := range x.buckets {
		ins := x.buckets[i]
		if len(ins) == 0 {
			continue
		}
		s := &x.shards[i]
		s.mu.Lock()
		for _, in := range ins {
			e := s.m[in.tag]
			if e == nil {
				e = &tagEntry{}
				s.m[in.tag] = e
			}
			e.lsns = append(e.lsns, in.lsn)
		}
		s.mu.Unlock()
	}
}

// wakeWaiters is the wake pass of a publication: it detaches and wakes
// the readers blocked on the tags the last addRecords touched, and
// returns how many it woke. It must run after the visible tail was
// stored past the group. Collecting the waiters during the insert pass
// instead would lose wakeups: a reader that registers after its tag's
// insert but before the tail store re-checks against the old tail,
// finds nothing, parks — and the insert pass has already passed it by.
// Run after the store, every waiter either is still registered here or
// registered late enough that its re-check sees the new tail.
func (x *tagIndex) wakeWaiters() int {
	woken := 0
	for i := range x.buckets {
		ins := x.buckets[i]
		if len(ins) == 0 {
			continue
		}
		s := &x.shards[i]
		s.mu.Lock()
		for _, in := range ins {
			if e := s.m[in.tag]; e != nil && len(e.waiters) > 0 {
				x.toWake = append(x.toWake, e.waiters...)
				e.waiters = nil
			}
		}
		s.mu.Unlock()
	}
	for i, w := range x.toWake {
		if w.wake() {
			woken++
		}
		x.toWake[i] = nil
	}
	x.toWake = x.toWake[:0]
	return woken
}

// nextN appends to dst up to max LSNs carrying tag in [from, below), in
// ascending order, and returns the extended slice. One shard read lock
// and one binary search serve the whole run. below is the visible tail
// the cursor fetch loaded before its first lookup: an LSN at or past it
// belongs to a group still being inserted, whose lower LSNs may not be
// under their tags yet.
func (x *tagIndex) nextN(tag Tag, from, below LSN, dst []LSN, max int) []LSN {
	s := x.shardFor(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.m[tag]
	if e == nil {
		return dst
	}
	i := sort.Search(len(e.lsns), func(i int) bool { return e.lsns[i] >= from })
	for ; i < len(e.lsns) && len(dst) < max && e.lsns[i] < below; i++ {
		dst = append(dst, e.lsns[i])
	}
	return dst
}

// prev returns the last LSN carrying tag at or before from.
func (x *tagIndex) prev(tag Tag, from LSN) (LSN, bool) {
	s := x.shardFor(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.m[tag]
	if e == nil {
		return 0, false
	}
	i := sort.Search(len(e.lsns), func(i int) bool { return e.lsns[i] > from })
	if i == 0 {
		return 0, false
	}
	return e.lsns[i-1], true
}

// count reports how many live records carry tag.
func (x *tagIndex) count(tag Tag) int {
	s := x.shardFor(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.m[tag]
	if e == nil {
		return 0
	}
	return len(e.lsns)
}

// tagsWithPrefix lists the tags beginning with prefix that have live
// LSNs.
func (x *tagIndex) tagsWithPrefix(prefix string) []Tag {
	var out []Tag
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.RLock()
		for tag, e := range s.m {
			if len(e.lsns) > 0 && strings.HasPrefix(string(tag), prefix) {
				out = append(out, tag)
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// register subscribes w to every tag; the next commit carrying one of
// them wakes it. The caller must re-check for a committed record after
// registering — a record may have landed between its check and the
// registration.
func (x *tagIndex) register(tags []Tag, w *waiter) {
	for _, tag := range tags {
		s := x.shardFor(tag)
		s.mu.Lock()
		e := s.m[tag]
		if e == nil {
			e = &tagEntry{}
			s.m[tag] = e
		}
		e.waiters = append(e.waiters, w)
		s.mu.Unlock()
	}
}

// unregister removes w from every tag it was registered on. Safe to
// call after the waiter fired (commit detaches the woken tag's list,
// but w may still sit on the other tags of a multi-tag wait).
func (x *tagIndex) unregister(tags []Tag, w *waiter) {
	for _, tag := range tags {
		s := x.shardFor(tag)
		s.mu.Lock()
		if e := s.m[tag]; e != nil {
			for i, o := range e.waiters {
				if o == w {
					last := len(e.waiters) - 1
					e.waiters[i] = e.waiters[last]
					e.waiters[last] = nil
					e.waiters = e.waiters[:last]
					break
				}
			}
			if len(e.lsns) == 0 && len(e.waiters) == 0 {
				delete(s.m, tag)
			}
		}
		s.mu.Unlock()
	}
}

// prune drops every indexed LSN below upTo, deleting tags whose
// substream is now empty (unless readers still wait on them).
func (x *tagIndex) prune(upTo LSN) {
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.Lock()
		for tag, e := range s.m {
			cut := sort.Search(len(e.lsns), func(i int) bool { return e.lsns[i] >= upTo })
			if cut == 0 {
				continue
			}
			if cut == len(e.lsns) && len(e.waiters) == 0 {
				delete(s.m, tag)
				continue
			}
			// Compact into a fresh slice so the trimmed prefix's backing
			// array is released.
			e.lsns = append([]LSN(nil), e.lsns[cut:]...)
		}
		s.mu.Unlock()
	}
}
