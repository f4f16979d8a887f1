package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"impeller/internal/sharedlog"
)

// Assignment plane (DESIGN.md §10). A stage's key space is split into a
// fixed number of key groups (G, chosen at build time); records route to
// groups with the same FNV hash previously used for substreams, so data
// tags d/<stream>/<g> never change. What does change — at rescale — is
// which task slot owns which group. That mapping is epoch-versioned
// state in the shared log's metadata KV:
//
//	P/<stage>/epoch        current assignment epoch E (0 = uninitialized)
//	P/<stage>/groups       key-group count G (fixed for the job's life)
//	P/<stage>/<e>/slots    task-slot count at epoch e
//	P/<stage>/<e>/owner/<g> owning slot of group g at epoch e, stored +1
//	H/<stage>/<e>/<g>      state-handoff floor for group g entering
//	                       epoch e, stored +1 (see handoff keys below)
//	R/<task>/seq           a retired slot's output counter (parkSeq)
//
// Owner and floor values are stored +1 so slot 0 / LSN 0 are
// distinguishable from a missing key (MetaStore reads missing keys as
// 0). Epoch keys for e+1 are fully written before P/<stage>/epoch is
// CAS'd e→e+1, so any reader that observes epoch e finds e's keys.

// Assignment is one epoch's group→slot map for a stage.
type Assignment struct {
	// Stage is the stage name (not a task id: groups outlive slots).
	Stage string
	// Epoch is the assignment epoch, starting at 1.
	Epoch uint64
	// Groups is the stage's fixed key-group count G.
	Groups int
	// Slots is the task-slot count at this epoch.
	Slots int
	// Owner[g] is the slot owning group g.
	Owner []int
}

// contiguousOwners returns the canonical contiguous group→slot map:
// owner(g) = g*slots/groups. Each slot owns a contiguous group range,
// every group has exactly one owner, and when groups == slots the map
// is the identity — the pre-rescaling behavior.
func contiguousOwners(groups, slots int) []int {
	owner := make([]int, groups)
	for g := range owner {
		owner[g] = g * slots / groups
	}
	return owner
}

// contiguousAssignment builds the canonical assignment at an epoch.
func contiguousAssignment(stage string, epoch uint64, groups, slots int) *Assignment {
	return &Assignment{
		Stage:  stage,
		Epoch:  epoch,
		Groups: groups,
		Slots:  slots,
		Owner:  contiguousOwners(groups, slots),
	}
}

// GroupsOf returns the groups owned by slot, in ascending order.
func (a *Assignment) GroupsOf(slot int) []int {
	var out []int
	for g, s := range a.Owner {
		if s == slot {
			out = append(out, g)
		}
	}
	return out
}

// validate checks structural well-formedness: every group owned by an
// in-range slot and every slot owning at least one group.
func (a *Assignment) validate() error {
	if a.Groups <= 0 || a.Slots <= 0 || a.Slots > a.Groups {
		return fmt.Errorf("core: assignment %s@%d: %d slots over %d groups", a.Stage, a.Epoch, a.Slots, a.Groups)
	}
	if len(a.Owner) != a.Groups {
		return fmt.Errorf("core: assignment %s@%d: owner map covers %d of %d groups", a.Stage, a.Epoch, len(a.Owner), a.Groups)
	}
	used := make([]bool, a.Slots)
	for g, s := range a.Owner {
		if s < 0 || s >= a.Slots {
			return fmt.Errorf("core: assignment %s@%d: group %d owned by out-of-range slot %d", a.Stage, a.Epoch, g, s)
		}
		used[s] = true
	}
	for s, ok := range used {
		if !ok {
			return fmt.Errorf("core: assignment %s@%d: slot %d owns no groups", a.Stage, a.Epoch, s)
		}
	}
	return nil
}

// groupsSig is an order-insensitive signature of a slot's owned group
// set, stamped into marker checkpoints so a checkpoint taken under a
// different ownership is never restored (the shadow store would be
// missing — or wrongly include — migrated groups' state).
func groupsSig(groups []int) uint64 {
	sorted := append([]int(nil), groups...)
	sort.Ints(sorted)
	h := fnv.New64a()
	var buf [8]byte
	for _, g := range sorted {
		putUint64(buf[:], uint64(g))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Metadata-KV key constructors.

func assignEpochKey(stage string) string { return "P/" + stage + "/epoch" }

func assignGroupsKey(stage string) string { return "P/" + stage + "/groups" }

func assignSlotsKey(stage string, epoch uint64) string {
	return fmt.Sprintf("P/%s/%d/slots", stage, epoch)
}

func assignOwnerKey(stage string, epoch uint64, group int) string {
	return fmt.Sprintf("P/%s/%d/owner/%d", stage, epoch, group)
}

// handoffKey holds the replay floor for group g entering epoch e: the
// donor slot's committed input frontier + 1 at the moment it was fenced,
// stored +1. A slot that acquires g at epoch e starts g's replay exactly
// there — below would re-deliver records the donor already committed,
// above would lose records the donor had not yet processed.
func handoffKey(stage string, epoch uint64, group int) string {
	return fmt.Sprintf("H/%s/%d/%d", stage, epoch, group)
}

func setHandoffFloor(meta *sharedlog.MetaStore, stage string, epoch uint64, group int, floor LSN) {
	meta.Set(handoffKey(stage, epoch, group), uint64(floor)+1)
}

func handoffFloor(meta *sharedlog.MetaStore, stage string, epoch uint64, group int) (LSN, bool) {
	v, ok := meta.Get(handoffKey(stage, epoch, group))
	if !ok {
		return 0, false
	}
	return LSN(v - 1), true
}

// parkedSeqKey parks a retired slot's output counter: the SeqEnd of its last
// committed marker. Its retirement tombstone carries the counter too,
// but the slot's floor goes with it, so the collector may trim the
// tombstone before a scale-up revives the slot. The revived instance
// then finds no marker at all and resumes numbering from here;
// restarting at zero would make every downstream dedup drop its output
// as duplicates.
func parkedSeqKey(task TaskID) string { return "R/" + string(task) + "/seq" }

func parkSeq(meta *sharedlog.MetaStore, task TaskID, seq uint64) {
	meta.Set(parkedSeqKey(task), seq)
}

// parkedSeq is the counter parked for task, 0 if it never retired.
func parkedSeq(meta *sharedlog.MetaStore, task TaskID) uint64 {
	v, _ := meta.Get(parkedSeqKey(task))
	return v
}

// ownerChangedAt reports whether group g changed owner entering epoch e
// according to the committed owner keys. Missing keys default to
// "changed" — a floor under an unreadable epoch is safer applied than
// ignored (applying merely re-reads records the per-producer dedup
// suppresses; ignoring could skip unconsumed ones).
func ownerChangedAt(meta *sharedlog.MetaStore, stage string, e uint64, g int) bool {
	if e < 2 {
		return true
	}
	prev, ok := meta.Get(assignOwnerKey(stage, e-1, g))
	if !ok {
		return true
	}
	cur, ok := meta.Get(assignOwnerKey(stage, e, g))
	if !ok {
		return true
	}
	return prev != cur
}

// storeEpochKeys writes epoch a.Epoch's slots/owner keys. It does NOT
// move P/<stage>/epoch — the caller commits the transition with a CAS
// after the keys are durably written.
func storeEpochKeys(meta *sharedlog.MetaStore, a *Assignment) {
	meta.Set(assignSlotsKey(a.Stage, a.Epoch), uint64(a.Slots))
	for g, s := range a.Owner {
		meta.Set(assignOwnerKey(a.Stage, a.Epoch, g), uint64(s)+1)
	}
}

// loadAssignmentAt reads epoch e's keys. Missing or malformed keys are
// an error: epochs are fully written before they become current.
func loadAssignmentAt(meta *sharedlog.MetaStore, stage string, epoch uint64) (*Assignment, error) {
	groups, ok := meta.Get(assignGroupsKey(stage))
	if !ok || groups == 0 {
		return nil, fmt.Errorf("core: assignment %s@%d: groups key missing", stage, epoch)
	}
	slots, ok := meta.Get(assignSlotsKey(stage, epoch))
	if !ok || slots == 0 {
		return nil, fmt.Errorf("core: assignment %s@%d: slots key missing", stage, epoch)
	}
	a := &Assignment{Stage: stage, Epoch: epoch, Groups: int(groups), Slots: int(slots), Owner: make([]int, groups)}
	for g := range a.Owner {
		v, ok := meta.Get(assignOwnerKey(stage, epoch, g))
		if !ok || v == 0 {
			return nil, fmt.Errorf("core: assignment %s@%d: owner key for group %d missing", stage, epoch, g)
		}
		a.Owner[g] = int(v - 1)
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// LoadAssignment reads the stage's current assignment, or (nil, nil) if
// the stage has never been initialized.
func LoadAssignment(meta *sharedlog.MetaStore, stage string) (*Assignment, error) {
	epoch, ok := meta.Get(assignEpochKey(stage))
	if !ok || epoch == 0 {
		return nil, nil
	}
	return loadAssignmentAt(meta, stage, epoch)
}

// InitAssignment installs the epoch-1 contiguous assignment for a stage
// if none exists, and returns the current assignment either way. Safe to
// race: the epoch CAS 0→1 picks one winner and losers re-load.
func InitAssignment(meta *sharedlog.MetaStore, stage string, groups, slots int) (*Assignment, error) {
	if cur, err := LoadAssignment(meta, stage); err != nil || cur != nil {
		return cur, err
	}
	a := contiguousAssignment(stage, 1, groups, slots)
	if err := a.validate(); err != nil {
		return nil, err
	}
	meta.Set(assignGroupsKey(stage), uint64(groups))
	storeEpochKeys(meta, a)
	if !meta.CompareAndSwap(assignEpochKey(stage), 0, 1) {
		return LoadAssignment(meta, stage)
	}
	return a, nil
}
