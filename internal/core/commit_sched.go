package core

import "time"

// Commit scheduling (DESIGN.md "Commit scheduling"): when a task runs
// t.commit is decided here, for both engines, by two rules.
//
// Grid ticks. The timer deadline is the next multiple of CommitInterval
// measured from one origin per cluster, so a period never absorbs the
// time an ingest slice took before the clock was read and every task of
// a cluster ticks at the same instants. Source-stage tasks (their input
// is committed on arrival), the Kafka-transaction baseline and aligned
// checkpoints commit on ticks only.
//
// Cascade (progress markers only). A downstream task's input is released
// by upstream markers, which land just after the shared tick; waiting
// for its own next tick would tax the record one whole interval per
// stage boundary. Instead the task commits as soon as an upstream round
// has released everything it can: a marker freed at least one batch,
// no input is waiting, and the unknown-state queue is empty or headed by
// a producer that already reported this round (its batch follows its
// marker, so only that producer's next marker can free it — and the
// queue drains in order, so nothing behind it moves either). The grid
// tick stays as the upper bound: a dead or idle upstream changes nothing
// about liveness.

// commitSched is a task's commit-trigger state; only the task's current
// owner (its goroutine, or the loop on the tasklet engine) touches it.
type commitSched struct {
	// next is the grid tick the task commits at, at the latest.
	next time.Time
	// reported holds the upstream producers whose marker arrived since
	// the task's last commit opportunity — the current round.
	reported map[TaskID]struct{}
	// released: a marker-covered batch was processed this round.
	released bool
	// offTick: the commit now running was triggered by the cascade.
	offTick bool
}

// AnchorCommitGrid fixes the origin every commit tick is measured from
// at the clock's current reading (monotonic under the real clock).
// NewCluster calls it once so all queries of a cluster share one grid;
// an Env that was never anchored is anchored by the manager built over
// it.
func (e *Env) AnchorCommitGrid() {
	if e.Clock != nil {
		e.commitOrigin = e.Clock.Now()
	} else {
		e.commitOrigin = time.Now()
	}
}

// commitTick returns the first grid instant strictly after now.
func (e *Env) commitTick(now time.Time) time.Time {
	n := now.Sub(e.commitOrigin) / e.CommitInterval
	return e.commitOrigin.Add((n + 1) * e.CommitInterval)
}

// noteMarker records that producer's marker was observed this round.
func (t *Task) noteMarker(producer TaskID) {
	if t.sched.reported == nil {
		t.sched.reported = make(map[TaskID]struct{})
	}
	t.sched.reported[producer] = struct{}{}
}

// commitDue is the one commit-trigger decision. Both engines call it
// after each ingest slice; dry reports that no fetched input is waiting
// to be ingested (and, on the tasklet engine, no drain is paused by the
// step budget). A true result starts a new round.
func (t *Task) commitDue(now time.Time, dry bool) bool {
	s := &t.sched
	switch {
	case !now.Before(s.next):
		s.next = t.env.commitTick(now)
		s.offTick = false
	case t.env.Protocol == ProtoProgressMarker && s.released && dry && t.roundComplete():
		s.offTick = true
	default:
		return false
	}
	clear(s.reported)
	s.released = false
	return true
}

// roundComplete reports that nothing more can leave the unknown-state
// queue before some producer's next marker.
func (t *Task) roundComplete() bool {
	if len(t.queue) == 0 {
		return true
	}
	_, ok := t.sched.reported[t.queue[0].batch.Producer]
	return ok
}
