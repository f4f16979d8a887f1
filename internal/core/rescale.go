package core

import (
	"context"
	"errors"
	"fmt"

	"impeller/internal/sharedlog"
)

// Rescaler executes an elastic split or merge of a stage's task slots
// on the live log (DESIGN.md §10). Data tags never change — the stage's
// key space stays partitioned into its fixed key groups — so rescaling
// is purely a re-assignment of groups to slots, committed as a new
// assignment epoch in the log's metadata KV. The transition happens at
// a marker boundary: fencing a slot makes its last committed progress
// marker final, and that marker's input frontier is exactly where the
// acquiring slot resumes the migrated groups.
type Rescaler struct {
	M *Manager
	// Hook, when set, is called at named transition points
	// ("assignment-written" after step 1, "fenced" after step 4); a
	// non-nil error aborts the transition at that point. Chaos tests
	// use it to kill the rescaler mid-transition.
	Hook func(point string) error
}

func (r *Rescaler) hook(point string) error {
	if r.Hook == nil {
		return nil
	}
	return r.Hook(point)
}

// Rescale is a convenience wrapper running a hook-less Rescaler.
func (m *Manager) Rescale(ctx context.Context, stage string, newSlots int) (uint64, error) {
	return (&Rescaler{M: m}).Rescale(ctx, stage, newSlots)
}

// Rescale moves stage to newSlots task slots and returns the committed
// assignment epoch.
//
// Protocol, in order:
//
//  1. write epoch-(E+1) assignment keys (slot count + owner map) to the
//     metadata KV; P/<stage>/epoch still reads E,
//  2. fence every changed or retired slot (FenceIncrement) — the marker
//     boundary: no further marker of the old instance can be ordered,
//  3. read each fenced slot's last marker and publish every migrating
//     group's handoff floor (the donor's committed InputEnd + 1) under
//     epoch E+1,
//  4. park each retired slot's output counter in meta (the collector
//     may trim the tombstone before the slot is revived) and append a
//     tombstone marker for it, so downstream trackers stop waiting for
//     the fenced instance's covering markers and classify its
//     in-flight batches as uncommitted,
//  5. CAS P/<stage>/epoch E→E+1 — the commit point; a lost CAS means a
//     concurrent rescale won,
//  6. install the assignment in the manager: spawn changed and new
//     slots, retire handles beyond the new slot count.
//
// Dying anywhere before step 5 leaves the job on epoch E: the fenced
// instances exit with ErrZombie and the monitor restarts them under the
// old assignment once the transition flag clears. Handoff and owner
// keys already written for the unreached epoch are inert — recovery
// never scans past the committed epoch, and a later attempt rewrites
// them (stale floors are additionally screened by ownerChangedAt).
func (r *Rescaler) Rescale(ctx context.Context, stageName string, newSlots int) (uint64, error) {
	m := r.M
	if m == nil {
		return 0, errors.New("core: rescaler has no manager")
	}
	if m.env.Protocol != ProtoProgressMarker {
		return 0, errors.New("core: rescaling requires the progress-marker protocol")
	}
	stage := m.stageByName(stageName)
	if stage == nil {
		return 0, fmt.Errorf("core: unknown stage %s", stageName)
	}
	meta := m.env.Log.Meta()
	cur, err := LoadAssignment(meta, stage.Name)
	if err != nil {
		return 0, err
	}
	if cur == nil {
		return 0, fmt.Errorf("core: stage %s has no assignment (manager not started?)", stageName)
	}
	if newSlots < 1 || newSlots > cur.Groups {
		return 0, fmt.Errorf("core: stage %s: %d slots out of range 1..%d key groups", stageName, newSlots, cur.Groups)
	}
	if newSlots == cur.Slots {
		return cur.Epoch, nil
	}
	// Pause the monitor's healing for this stage: a replacement spawned
	// between our fence and the epoch commit could advance a donor's
	// frontier past its published handoff floor.
	m.mu.Lock()
	if m.rescaling[stage.Name] {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: stage %s is already mid-rescale", stageName)
	}
	m.rescaling[stage.Name] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.rescaling, stage.Name)
		m.mu.Unlock()
	}()

	next := contiguousAssignment(stage.Name, cur.Epoch+1, cur.Groups, newSlots)
	storeEpochKeys(meta, next)
	if err := r.hook("assignment-written"); err != nil {
		return 0, err
	}

	retry := newRetrier(m.env, "", nil)
	for sub := 0; sub < cur.Slots; sub++ {
		oldGroups := cur.GroupsOf(sub)
		retired := sub >= next.Slots
		var newGroups []int
		if !retired {
			newGroups = next.GroupsOf(sub)
		}
		if !retired && equalInts(oldGroups, newGroups) {
			continue // untouched slot keeps running across the epoch
		}
		id := TaskID(fmt.Sprintf("%s/%d", stage.Name, sub))
		inst := m.env.Log.FenceIncrement(InstanceKey(id))
		// The fence precedes this read, so the marker it returns is the
		// slot's final committed frontier. Markers stamped past the
		// committed epoch — tombstones left by an earlier attempt that
		// died mid-transition — are skipped: their empty InputEnd would
		// publish a zero floor and make the acquirer re-commit history.
		last, b, err := lastMarkerAtEpoch(func(from LSN) (*sharedlog.Record, error) {
			var rec *sharedlog.Record
			e := retry.do(ctx, "rescale read marker "+string(id), func() error {
				var re error
				rec, re = m.env.Log.ReadPrev(TaskLogTag(id), from)
				return re
			})
			return rec, e
		}, cur.Epoch)
		if err != nil {
			return 0, err
		}
		floor := LSN(0)
		seqEnd := parkedSeq(meta, id) // a revived slot not yet committed
		if last != nil {
			mk, err := DecodeMarker(b.Control)
			if err != nil {
				return 0, err
			}
			if mk.InputEnd != NoLSN {
				floor = mk.InputEnd + 1
			}
			seqEnd = mk.SeqEnd
		}
		for _, g := range oldGroups {
			if retired || !containsInt(newGroups, g) {
				setHandoffFloor(meta, stage.Name, next.Epoch, g, floor)
			}
		}
		if retired {
			parkSeq(meta, id, seqEnd)
			if err := r.tombstone(ctx, retry, stage, id, oldGroups, inst, next.Epoch, seqEnd); err != nil {
				return 0, err
			}
		}
	}
	if err := r.hook("fenced"); err != nil {
		return 0, err
	}

	if !meta.CompareAndSwap(assignEpochKey(stage.Name), cur.Epoch, next.Epoch) {
		return 0, fmt.Errorf("core: stage %s: epoch %d committed by a concurrent rescale", stageName, next.Epoch)
	}
	m.applyAssignment(stage, next)
	return next.Epoch, nil
}

// tombstone appends a final empty marker for a retired slot, tagged
// with the slot's output substreams, its task log, and (stateful) its
// old group change streams. Downstream trackers bump the producer's
// instance past the fenced one and stop waiting for a covering marker;
// group replays drop the fenced instance's uncommitted pending changes.
// A later scale-up reviving the slot reads the tombstone as its last
// marker: SeqEnd carries the retired instance's output counter forward
// for dedup continuity, while InputEnd/ChangeFirst are empty — every
// group the revived slot owns arrives with a handoff floor.
func (r *Rescaler) tombstone(ctx context.Context, retry *retrier, stage *Stage, id TaskID, oldGroups []int, inst uint64, epoch uint64, seqEnd uint64) error {
	var tags []sharedlog.Tag
	for _, out := range stage.Outputs {
		tags = append(tags, out.Tags()...)
	}
	tags = append(tags, TaskLogTag(id))
	if stage.Stateful {
		for _, g := range oldGroups {
			tags = append(tags, GroupChangeTag(stage.Name, g))
		}
	}
	mk := &ProgressMarker{InputEnd: NoLSN, ChangeFirst: NoLSN, SeqEnd: seqEnd}
	payload := (&Batch{
		Kind:     KindMarker,
		Producer: id,
		Instance: inst,
		Epoch:    epoch,
		Control:  mk.Encode(),
	}).Encode()
	err := retry.do(ctx, "rescale tombstone "+string(id), func() error {
		_, e := r.M.env.Log.ConditionalAppend(tags, payload, InstanceKey(id), inst)
		return e
	})
	if errors.Is(err, sharedlog.ErrCondFailed) {
		return fmt.Errorf("core: rescale of %s lost a fencing race on %s", stage.Name, id)
	}
	return err
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
