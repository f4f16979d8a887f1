package sharedlog

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"impeller/internal/testutil"
)

// The batched append path must be a pure amortization: the same records
// pushed through AppendBatch and through single Append/ConditionalAppend
// calls must produce identical per-tag histories, identical guard
// outcomes, and the same multi-tag atomicity. The property test below
// drives a batched log and a single-append log with the same entry
// stream (including metadata mutations between chunks) and compares.

func TestAppendBatchValidation(t *testing.T) {
	l := Open(Config{})
	defer l.Close()
	if res, err := l.AppendBatch(nil); res != nil || err != nil {
		t.Fatalf("empty batch = %v, %v", res, err)
	}
	_, err := l.AppendBatch([]AppendEntry{{Tags: []Tag{"a"}}, {}})
	if err == nil {
		t.Fatal("entry without tags accepted")
	}
	l.Close()
	if _, err := l.AppendBatch([]AppendEntry{{Tags: []Tag{"a"}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v", err)
	}
}

func TestAppendBatchContiguousLSNs(t *testing.T) {
	l := Open(Config{})
	defer l.Close()
	entries := make([]AppendEntry, 16)
	for i := range entries {
		entries[i] = AppendEntry{Tags: []Tag{Tag(fmt.Sprintf("t%d", i%4))}, Payload: []byte{byte(i)}}
	}
	res, err := l.AppendBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(entries) {
		t.Fatalf("got %d results for %d entries", len(res), len(entries))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("entry %d: %v", i, r.Err)
		}
		if r.LSN != res[0].LSN+LSN(i) {
			t.Fatalf("entry %d: LSN %d, want contiguous from %d", i, r.LSN, res[0].LSN)
		}
	}
}

func TestAppendBatchMultiTagAtomicity(t *testing.T) {
	l := Open(Config{})
	defer l.Close()
	tags := []Tag{"x", "y", "z"}
	res, err := l.AppendBatch([]AppendEntry{
		{Tags: tags, Payload: []byte("all")},
		{Tags: []Tag{"x"}, Payload: []byte("only-x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range tags {
		rec, err := scanNext(l, 0, tag)
		if err != nil || rec == nil {
			t.Fatalf("scan(%s) = %v, %v", tag, rec, err)
		}
		if rec.LSN != res[0].LSN {
			t.Fatalf("tag %s sees LSN %d, want the single shared LSN %d", tag, rec.LSN, res[0].LSN)
		}
	}
}

// batchPropertyLog drives one log: chunks are appended either via
// AppendBatch or entry-by-entry, returning per-entry commit outcomes.
type batchPropertyLog struct {
	l       *Log
	batched bool
}

func (p *batchPropertyLog) apply(chunk []AppendEntry) ([]error, error) {
	if p.batched {
		res, err := p.l.AppendBatch(chunk)
		if err != nil {
			return nil, err
		}
		errs := make([]error, len(res))
		for i, r := range res {
			errs[i] = r.Err
		}
		return errs, nil
	}
	errs := make([]error, len(chunk))
	for i, e := range chunk {
		var err error
		if e.Conditional {
			_, err = p.l.ConditionalAppend(e.Tags, e.Payload, e.CondKey, e.CondWant)
		} else {
			_, err = p.l.Append(e.Tags, e.Payload)
		}
		if err != nil && !errors.Is(err, ErrCondFailed) {
			return nil, err
		}
		errs[i] = err
	}
	return errs, nil
}

func TestAppendBatchEquivalentToSingles(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"immediate", Config{}},
		{"sequencer", Config{OrderingInterval: 100 * time.Microsecond}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			batched := &batchPropertyLog{l: Open(mode.cfg), batched: true}
			single := &batchPropertyLog{l: Open(mode.cfg)}
			defer batched.l.Close()
			defer single.l.Close()

			tagPool := []Tag{"t0", "t1", "t2", "t3"}
			const fenceKey = "instance/counter"
			chunks := 40
			if testing.Short() {
				chunks = 12
			}
			var n int // payload counter; payloads double as record identity
			for c := 0; c < chunks; c++ {
				// Mutate the guard key identically on both logs between
				// chunks, so conditional entries face the same fence state.
				if rng.Intn(2) == 0 {
					v := rng.Uint64() % 3
					batched.l.Meta().Set(fenceKey, v)
					single.l.Meta().Set(fenceKey, v)
				}
				chunk := make([]AppendEntry, 1+rng.Intn(8))
				for i := range chunk {
					n++
					nTags := 1 + rng.Intn(3)
					perm := rng.Perm(len(tagPool))[:nTags]
					tags := make([]Tag, nTags)
					for j, p := range perm {
						tags[j] = tagPool[p]
					}
					chunk[i] = AppendEntry{
						Tags:    tags,
						Payload: []byte{byte(n), byte(n >> 8)},
					}
					if rng.Intn(3) == 0 {
						chunk[i].Conditional = true
						chunk[i].CondKey = fenceKey
						chunk[i].CondWant = rng.Uint64() % 3
					}
				}
				bErrs, err := batched.apply(chunk)
				if err != nil {
					t.Fatal(err)
				}
				sErrs, err := single.apply(chunk)
				if err != nil {
					t.Fatal(err)
				}
				for i := range chunk {
					if (bErrs[i] == nil) != (sErrs[i] == nil) {
						t.Fatalf("chunk %d entry %d: batched err %v, single err %v — guard outcomes diverged",
							c, i, bErrs[i], sErrs[i])
					}
					if bErrs[i] != nil && !errors.Is(bErrs[i], ErrCondFailed) {
						t.Fatalf("chunk %d entry %d: unexpected batched error %v", c, i, bErrs[i])
					}
				}
			}

			// Per-tag histories must be byte-identical, and on the batched
			// log a multi-tag record must surface the same LSN from every
			// tag it carries (atomic visibility).
			lsnByPayload := make(map[string]LSN)
			for _, tag := range tagPool {
				var bSeq, sSeq []string
				for cur := LSN(0); ; {
					rec, err := scanNext(batched.l, cur, tag)
					if err != nil {
						t.Fatal(err)
					}
					if rec == nil {
						break
					}
					key := string(rec.Payload)
					bSeq = append(bSeq, key)
					if prev, ok := lsnByPayload[key]; ok && prev != rec.LSN {
						t.Fatalf("tag %s: record %x at LSN %d, earlier tag saw LSN %d — multi-tag append not atomic", tag, rec.Payload, rec.LSN, prev)
					}
					lsnByPayload[key] = rec.LSN
					cur = rec.LSN + 1
				}
				for cur := LSN(0); ; {
					rec, err := scanNext(single.l, cur, tag)
					if err != nil {
						t.Fatal(err)
					}
					if rec == nil {
						break
					}
					sSeq = append(sSeq, string(rec.Payload))
					cur = rec.LSN + 1
				}
				if len(bSeq) != len(sSeq) {
					t.Fatalf("tag %s: batched history has %d records, single has %d", tag, len(bSeq), len(sSeq))
				}
				for i := range bSeq {
					if bSeq[i] != sSeq[i] {
						t.Fatalf("tag %s: histories diverge at %d: batched %x, single %x", tag, i, bSeq[i], sSeq[i])
					}
				}
			}
		})
	}
}

// TestAppendBatchConcurrentStress mixes AppendBatch and single Append
// calls from many writers over shared tags while readers follow each
// tag; run under -race this exercises the batch path's interaction with
// the lock-free read plane. Readers assert per-tag LSN monotonicity and
// per-writer order; the final check counts every record exactly once.
func TestAppendBatchConcurrentStress(t *testing.T) {
	l := Open(Config{})
	defer l.Close()
	tagPool := []Tag{"s0", "s1", "s2"}
	const writers = 6
	iters := 150
	if testing.Short() {
		iters = 40
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: one per tag, continuously re-scanning.
	for _, tag := range tagPool {
		wg.Add(1)
		go func(tag Tag) {
			defer wg.Done()
			lastSeq := make(map[byte]uint32)
			var cur LSN
			for {
				rec, err := scanNext(l, cur, tag)
				if err != nil {
					t.Errorf("reader %s: %v", tag, err)
					return
				}
				if rec == nil {
					select {
					case <-stop:
						return
					default:
						continue
					}
				}
				if rec.LSN < cur {
					t.Errorf("reader %s: LSN went backwards (%d after cursor %d)", tag, rec.LSN, cur)
					return
				}
				w, seq := rec.Payload[0], uint32(rec.Payload[1])|uint32(rec.Payload[2])<<8
				if prev, ok := lastSeq[w]; ok && seq <= prev {
					t.Errorf("reader %s: writer %d seq %d after %d — submission order lost", tag, w, seq, prev)
					return
				}
				lastSeq[w] = seq
				cur = rec.LSN + 1
			}
		}(tag)
	}

	wantPerTag := make(map[Tag]int)
	var wantMu sync.Mutex
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			seq := uint32(0)
			localWant := make(map[Tag]int)
			for i := 0; i < iters; i++ {
				if rng.Intn(2) == 0 {
					entries := make([]AppendEntry, 1+rng.Intn(6))
					for j := range entries {
						seq++
						tag := tagPool[rng.Intn(len(tagPool))]
						entries[j] = AppendEntry{
							Tags:    []Tag{tag},
							Payload: []byte{byte(w), byte(seq), byte(seq >> 8)},
						}
						localWant[tag]++
					}
					if _, err := l.AppendBatch(entries); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				} else {
					seq++
					tag := tagPool[rng.Intn(len(tagPool))]
					if _, err := l.Append([]Tag{tag}, []byte{byte(w), byte(seq), byte(seq >> 8)}); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					localWant[tag]++
				}
			}
			wantMu.Lock()
			for tag, n := range localWant {
				wantPerTag[tag] += n
			}
			wantMu.Unlock()
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	for _, tag := range tagPool {
		if got := l.CountTag(tag); got != wantPerTag[tag] {
			t.Fatalf("tag %s: %d records committed, want %d", tag, got, wantPerTag[tag])
		}
	}
	st := l.Stats()
	if st.BatchAppends == 0 || st.MeanAppendBatch <= 1 {
		t.Fatalf("batch stats not accounted: %+v", st)
	}
}

// TestAppendBatchAllocsPerRecord gates the batched append hot path's
// allocation budget. The path block-allocates one Record vector, one
// tag block, and one payload block per batch, so per-record cost is
// copying — the per-batch slices (blocks, pending entries, results)
// amortize to ~0.4 allocations per record at batch size 64, with
// index/store growth amortized doubling on top. Budget: 4 per record —
// loose enough to absorb growth spikes, tight enough that reintroducing
// per-entry allocation (3+/record) fails the gate.
func TestAppendBatchAllocsPerRecord(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	l := Open(Config{})
	defer l.Close()
	const batch = 64
	payload := make([]byte, 64)
	entries := make([]AppendEntry, batch)
	for i := range entries {
		entries[i] = AppendEntry{Tags: []Tag{Tag(fmt.Sprintf("t%d", i%4))}, Payload: payload}
	}
	if _, err := l.AppendBatch(entries); err != nil { // warm segments + index
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := l.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / batch
	t.Logf("AppendBatch: %.1f allocs/batch, %.2f allocs/record (budget 4)", allocs, perRecord)
	if perRecord > 4 {
		t.Errorf("AppendBatch allocates %.2f/record, budget 4 — hot path regressed", perRecord)
	}
}
