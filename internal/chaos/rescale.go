package chaos

import (
	"errors"
	"fmt"
	"time"

	"impeller/internal/core"
	"impeller/internal/nexmark"
)

// errAbortRescale is returned by the doomed attempts' hook: the
// rescaler "dies" at that point and the transition never commits.
var errAbortRescale = errors.New("chaos: rescaler killed mid-transition")

// rescalerAbortPoints are the hook points a doomed attempt dies at, in
// protocol order: after the epoch-(E+1) assignment keys are written;
// after the old slots are fenced and handoff floors published.
var rescalerAbortPoints = []string{"assignment-written", "fenced"}

// rescale plays the plan's rescale schedule against d: live splits and
// merges of the query's primary stage, spread evenly across the input
// window. Before every committed step, one doomed Rescaler per abort
// point dies mid-transition, leaving fenced instances, inert next-epoch
// keys and stale handoff floors behind for the committed attempt — and
// for recovery — to tolerate. An aborted attempt must leave the epoch
// unmoved; the monitor restarts its fenced instances under the old
// assignment. A misbehaving step is recorded as res.Violation.
func (h *harness) rescale(d *deployment, res *Result) {
	stage := nexmark.RescaleStage(h.cfg.Query)
	interval := faultWindow / time.Duration(len(h.plan.Steps)+1)
	for i, slots := range h.plan.Steps {
		if !sleepUntil(h.ctx, h.t0, time.Duration(i+1)*interval) {
			return
		}
		before := d.mgr.AssignmentEpoch(stage)
		for _, point := range rescalerAbortPoints {
			doomed := &core.Rescaler{M: d.mgr, Hook: func(p string) error {
				if p == point {
					return errAbortRescale
				}
				return nil
			}}
			if _, err := doomed.Rescale(h.ctx, stage, slots); !errors.Is(err, errAbortRescale) {
				res.Violation = fmt.Sprintf("doomed attempt at %q returned %v", point, err)
			}
			res.Aborted++
			if e := d.mgr.AssignmentEpoch(stage); e != before {
				res.Violation = fmt.Sprintf("aborted attempt at %q moved the epoch %d→%d", point, before, e)
			}
		}
		epoch, err := d.mgr.Rescale(h.ctx, stage, slots)
		if err != nil {
			res.Violation = fmt.Sprintf("step %d (to %d slots): %v", i, slots, err)
			return
		}
		if epoch != before+1 {
			res.Violation = fmt.Sprintf("step %d committed epoch %d, want %d", i, epoch, before+1)
			return
		}
		res.Epochs = append(res.Epochs, epoch)
	}
}
