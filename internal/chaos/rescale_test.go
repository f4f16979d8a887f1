package chaos

import (
	"testing"

	"impeller"
)

// runRescaleCell runs one rescale chaos cell and enforces the cell's
// invariants: the oracle converged with no exactly-once violation,
// every scheduled step committed exactly one epoch, the doomed
// mid-transition attempts all aborted without moving the epoch, and at
// least one fenced append was actually rejected by the log (otherwise
// no zombie raced its replacement and the run proved nothing).
func runRescaleCell(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Protocol, cfg.Rescale = impeller.ProgressMarker, true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.Violation != "" {
		t.Fatalf("exactly-once violation: %s", res.Violation)
	}
	if !res.Converged {
		t.Fatalf("output never converged: delivered %d of %d inputs", res.Delivered, res.Sent)
	}
	if len(res.Epochs) != len(res.Plan.Steps) {
		t.Fatalf("committed %d of %d rescale steps", len(res.Epochs), len(res.Plan.Steps))
	}
	if want := len(res.Epochs) * len(rescalerAbortPoints); res.Aborted != want {
		t.Fatalf("aborted %d doomed attempts, want %d", res.Aborted, want)
	}
	if res.CondFailed == 0 {
		t.Fatal("no conditional append was ever rejected; fencing untested")
	}
	return res
}

// TestChaosRescale kills the rescaler mid-transition (after the
// next-epoch assignment is written; after the old slots are fenced)
// before every committed split/merge of Q12's window stage, with task
// kills riding along, and verifies exactly-once at the consumer.
func TestChaosRescale(t *testing.T) {
	runRescaleCell(t, Config{Query: 12, Seed: 3, Faults: Faults{Kills: 3}})
}

// TestChaosRescaleTasklet is the same cell on the cooperative engine.
func TestChaosRescaleTasklet(t *testing.T) {
	runRescaleCell(t, Config{Query: 12, Seed: 3, Faults: Faults{Kills: 3}, Engine: impeller.EngineTasklet})
}

// TestChaosRescaleStateless runs the cell over Q1: no state handoff,
// but assignment epochs, fencing, and ingress routing still transition.
func TestChaosRescaleStateless(t *testing.T) {
	runRescaleCell(t, Config{Query: 1, Seed: 7})
}
