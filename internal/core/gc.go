package core

import (
	"context"
	"errors"
	"sync"

	"impeller/internal/sharedlog"
)

// GCController implements Impeller's garbage collection (paper §3.5):
// every reader that can fall behind reports the lowest LSN it still
// needs (its "floor"); a master GC task computes the global minimum and
// issues the shared log's prefix-trim. The holders (DESIGN.md §2.6):
//
//   - a task: its latest progress marker, and everything above its
//     committed InputEnd. Only marker-protocol tasks report; under
//     Kafka transactions and aligned checkpoints a task's floor stays at
//     the 0 registered at start, so those logs never trim;
//   - a stateful stage: its key groups' change streams, pinned from
//     their first record. A rescale's acquirer rebuilds a migrated group
//     from the start of its stream (a checkpoint covers one slot's group
//     set, never another's), so a checkpoint cannot release the prefix
//     it covers until checkpoints are per group (ROADMAP item 2);
//   - a Sink, while Run runs: its SafePos;
//   - a DeliverySink: its persisted frontier. It is never forgotten, and
//     NewGCController seeds it from the log, so it holds while no
//     incarnation runs and across a whole-cluster restart;
//   - a rescaled slot, reset to 0 when it acquires key groups until its
//     first marker re-establishes its frontier.
type GCController struct {
	log *sharedlog.Log

	mu     sync.Mutex
	floors map[TaskID]LSN
	pins   map[string][]sharedlog.Tag
}

// NewGCController builds a controller for log, holding the floor of
// every delivery sink whose frontier the log already records.
func NewGCController(log *sharedlog.Log) *GCController {
	g := &GCController{log: log, floors: make(map[TaskID]LSN), pins: make(map[string][]sharedlog.Tag)}
	for _, tag := range log.TagsWithPrefix(egressOffsetsPrefix) {
		floor := log.TrimHorizon() // unreadable: trim no further
		if f, err := readFrontier(log, tag); err == nil && f != nil {
			floor = f.floor()
		}
		g.floors[TaskID(tag)] = floor
	}
	return g
}

// Report records a consumer's floor: the lowest LSN it may still read.
// Reports are monotonic; a lower report than before is ignored.
func (g *GCController) Report(id TaskID, floor LSN) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cur, ok := g.floors[id]; !ok || floor > cur {
		g.floors[id] = floor
	}
}

// Reset overwrites a consumer's floor regardless of monotonicity. The
// rescaler uses it when a task slot acquires key groups: the slot's new
// replay needs may sit below everything it previously reported, so its
// floor must drop until it re-establishes a frontier.
func (g *GCController) Reset(id TaskID, floor LSN) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.floors[id] = floor
}

// Forget removes a consumer (a stopped sink, a retired slot) from the
// floor set.
func (g *GCController) Forget(id TaskID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.floors, id)
}

// Pin keeps every record carrying one of tags: the horizon never passes
// the first live one. Positions below it that hold none of tags are
// still released, so a reader of a pinned substream whose cursor a trim
// passed skips nothing by seeking to the horizon (skipTrimmed).
func (g *GCController) Pin(id string, tags []sharedlog.Tag) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pins[id] = tags
}

// SafeHorizon returns the global minimum floor, held at the first record
// of every pinned substream, and false when no consumer has reported
// yet.
func (g *GCController) SafeHorizon() (LSN, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.floors) == 0 {
		return 0, false
	}
	min := sharedlog.MaxLSN
	for _, f := range g.floors {
		if f < min {
			min = f
		}
	}
	for _, tags := range g.pins {
		if first, ok := g.log.FirstLSN(tags); ok && first < min {
			min = first
		}
	}
	return min, true
}

// Collect trims the log to the current safe horizon and returns the new
// horizon.
func (g *GCController) Collect() (LSN, error) {
	h, ok := g.SafeHorizon()
	if !ok {
		return g.log.TrimHorizon(), nil
	}
	if err := g.log.Trim(h); err != nil {
		return 0, err
	}
	return g.log.TrimHorizon(), nil
}

// Run collects every 10 commit intervals until ctx is done.
func (g *GCController) Run(ctx context.Context, env *Env) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-env.Clock.After(env.CommitInterval * 10):
		}
		if _, err := g.Collect(); err != nil {
			return
		}
	}
}

// skipTrimmed repositions a change-stream replay cursor that a trim
// passed at the horizon, and reports whether err was that. Nothing is
// skipped: a stateful stage pins its change streams (Pin), so the
// released positions held none of their records.
func skipTrimmed(err error, cur *sharedlog.Cursor, log *sharedlog.Log) bool {
	if !errors.Is(err, sharedlog.ErrCursorInvalidated) {
		return false
	}
	cur.Seek(log.TrimHorizon())
	return true
}
