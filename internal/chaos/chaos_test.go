package chaos

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"impeller"
	"impeller/internal/nexmark"
)

var protocols = []impeller.Protocol{
	impeller.ProgressMarker,
	impeller.KafkaTxn,
	impeller.AlignedCheckpoint,
}

// TestChaos is the exactly-once chaos matrix: three NEXMark queries ×
// three fault-tolerance protocols, each under a seeded fault schedule
// of at least 20 injected faults across the log and process planes.
// In -short mode one query runs per protocol.
func TestChaos(t *testing.T) {
	queries := []int{1, 11, 12}
	for i, proto := range protocols {
		for j, query := range queries {
			if testing.Short() && j != i {
				continue
			}
			proto, query := proto, query
			t.Run(fmt.Sprintf("q%d-%s", query, proto), func(t *testing.T) {
				t.Parallel()
				res, err := Run(Config{Query: query, Protocol: proto, Seed: 7, Faults: DefaultFaults})
				if err != nil {
					t.Fatal(err)
				}
				t.Log(res)
				if res.Violation != "" {
					t.Fatalf("exactly-once violation: %s", res.Violation)
				}
				if !res.Converged {
					t.Fatalf("output never converged: sent=%d bids=%d delivered=%d restarts=%d",
						res.Sent, res.Bids, res.Delivered, res.Restarts)
				}
				if res.Plan.Faults < 20 {
					t.Fatalf("plan injected %d faults, want >= 20", res.Plan.Faults)
				}
				if res.Restarts == 0 {
					t.Fatal("no task ever restarted; the schedule injected nothing")
				}
				assertEgress(t, res)
				if proto == impeller.ProgressMarker {
					if res.Zombified == 0 {
						t.Fatal("no zombie was ever planted")
					}
					if res.CondFailed == 0 {
						t.Fatal("no zombie append was fenced (CondFailed = 0)")
					}
				}
			})
		}
	}
}

// assertEgress checks the transactional egress layer's invariants on a
// converged run: the killed sink's replacements actually resumed from a
// persisted frontier, redelivered work was absorbed by the consumer's
// dedupe rather than double-applied (the oracle would have flagged a
// double-apply as a violation), and nothing was dead-lettered — the
// fault plane injects only transient consumer errors.
func assertEgress(t *testing.T, res *Result) {
	t.Helper()
	wantSinks := res.Config.Faults.SinkKills + 1
	if res.SinkIncarnations != wantSinks {
		t.Fatalf("egress ran %d sink incarnations, want %d", res.SinkIncarnations, wantSinks)
	}
	if !res.Delivery.Resumed {
		t.Fatal("no sink incarnation ever resumed from a persisted ack frontier")
	}
	if res.Delivery.DeadLettered != 0 {
		t.Fatalf("%d records dead-lettered under purely transient faults", res.Delivery.DeadLettered)
	}
	if res.Delivery.TransientErrors == 0 {
		t.Fatal("no consumer fault window ever rejected a delivery")
	}
	if res.RecoverToDeliver <= 0 {
		t.Fatal("no delivery observed after a sink kill (recovery-to-first-delivery unmeasured)")
	}
	// Every consumer apply is either a distinct record or an absorbed
	// duplicate, and every apply was acked except the ones whose ack the
	// fault plane dropped: distinct + deduped = acked + acksLost.
	if res.Delivered == 0 || res.Delivered+res.ConsumerDeduped != res.Delivery.Delivered+res.ConsumerAcksLost {
		t.Fatalf("consumer applied %d distinct + %d deduped; sink acked %d with %d acks lost",
			res.Delivered, res.ConsumerDeduped, res.Delivery.Delivered, res.ConsumerAcksLost)
	}
}

// TestChaosShards4 runs the matrix's hardest ordering configuration:
// four sequencer shards, so the global cut aggregates across twice as
// many crash/delay targets as the default, on top of the full egress
// fault plane. One cell per protocol keeps the runtime bounded.
func TestChaosShards4(t *testing.T) {
	queries := []int{1, 11, 12}
	for i, proto := range protocols {
		proto, query := proto, queries[i]
		t.Run(fmt.Sprintf("q%d-%s", query, proto), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Query: query, Protocol: proto, Seed: 11, OrderingShards: 4, Faults: DefaultFaults})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res)
			if res.Violation != "" {
				t.Fatalf("exactly-once violation: %s", res.Violation)
			}
			if !res.Converged {
				t.Fatalf("output never converged: sent=%d bids=%d delivered=%d restarts=%d",
					res.Sent, res.Bids, res.Delivered, res.Restarts)
			}
			assertEgress(t, res)
		})
	}
}

// TestChaosQ8 adds the two-input cell the matrix lacked: Q8's join tasks
// read the person and the auction substreams — and their upstreams'
// markers — through one multi-tag cursor, the reader shape that lost
// records when a cursor could see half a publication group. 1 ms cuts
// at 2 and 4 ordering shards under progress markers, in -short too; the
// oracle holds the exact owed (person, auction) pair multiset.
func TestChaosQ8(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("q8-%s-shards%d", impeller.ProgressMarker, shards), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Query: 8, Protocol: impeller.ProgressMarker, Seed: 7,
				OrderingShards: shards, Faults: DefaultFaults,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res)
			if res.Violation != "" {
				t.Fatalf("exactly-once violation: %s", res.Violation)
			}
			if !res.Converged {
				t.Fatalf("output never converged: sent=%d pairs=%d delivered=%d restarts=%d",
					res.Sent, res.Bids, res.Delivered, res.Restarts)
			}
			if res.Bids == 0 || res.Delivered != uint64(res.Bids) {
				t.Fatalf("delivered %d pairs, oracle owes %d", res.Delivered, res.Bids)
			}
			if res.Restarts == 0 {
				t.Fatal("no task ever restarted; the schedule injected nothing")
			}
			assertEgress(t, res)
		})
	}
}

// TestChaosTasklet pins chaos cells to the cooperative tasklet engine:
// the full fault plan (kills, zombies, node crashes, infra faults, sink
// kills, consumer faults) must produce the same exactly-once outcome
// when every operator runs as a tasklet on shared event loops. One cell
// per protocol, plus Q8 under progress markers: two inputs and several
// tags behind one cursor, and a join whose Charge calls pause the step
// mid-drain. The progress-marker cells also require a fenced zombie,
// proving the fencing race exists under cooperative scheduling too.
// In -short mode only the progress-marker cells run.
func TestChaosTasklet(t *testing.T) {
	cells := []struct {
		query int
		proto impeller.Protocol
	}{
		{1, impeller.ProgressMarker},
		{8, impeller.ProgressMarker},
		{11, impeller.KafkaTxn},
		{12, impeller.AlignedCheckpoint},
	}
	for _, c := range cells {
		if testing.Short() && c.proto != impeller.ProgressMarker {
			continue
		}
		proto, query := c.proto, c.query
		t.Run(fmt.Sprintf("q%d-%s", query, proto), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Query: query, Protocol: proto, Seed: 7, Engine: impeller.EngineTasklet, Faults: DefaultFaults})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res)
			if res.Violation != "" {
				t.Fatalf("exactly-once violation: %s", res.Violation)
			}
			if !res.Converged {
				t.Fatalf("output never converged: sent=%d bids=%d delivered=%d restarts=%d",
					res.Sent, res.Bids, res.Delivered, res.Restarts)
			}
			if res.Restarts == 0 {
				t.Fatal("no task ever restarted; the schedule injected nothing")
			}
			assertEgress(t, res)
			if proto == impeller.ProgressMarker {
				if res.Zombified == 0 {
					t.Fatal("no zombie was ever planted")
				}
				if res.CondFailed == 0 {
					t.Fatal("no zombie append was fenced (CondFailed = 0)")
				}
			}
		})
	}
}

// TestEngineEquivalence: for every (query, protocol) the goroutine and
// tasklet engines must deliver the same oracle-verified output on
// identical fault-free inputs — same distinct delivered count, zero
// duplicates reaching the consumer, full convergence. The inputs are
// seeded and the fault planes are disabled, so any divergence is an
// engine bug, not scheduling noise. In -short mode the diagonal runs.
func TestEngineEquivalence(t *testing.T) {
	queries := []int{1, 11, 12}
	for i, proto := range protocols {
		for j, query := range queries {
			if testing.Short() && j != i {
				continue
			}
			proto, query := proto, query
			t.Run(fmt.Sprintf("q%d-%s", query, proto), func(t *testing.T) {
				t.Parallel()
				var delivered [2]uint64
				for _, engine := range []impeller.EngineMode{impeller.EngineGoroutine, impeller.EngineTasklet} {
					// No Faults: a plain end-to-end execution whose
					// output the oracle still verifies.
					res, err := Run(Config{Query: query, Protocol: proto, Seed: 7, Engine: engine})
					if err != nil {
						t.Fatalf("%v: %v", engine, err)
					}
					if res.Violation != "" {
						t.Fatalf("%v: exactly-once violation: %s", engine, res.Violation)
					}
					if !res.Converged {
						t.Fatalf("%v: output never converged: sent=%d bids=%d delivered=%d",
							engine, res.Sent, res.Bids, res.Delivered)
					}
					delivered[engine] = res.Delivered
				}
				if delivered[impeller.EngineGoroutine] != delivered[impeller.EngineTasklet] {
					t.Fatalf("engines diverged: goroutine delivered %d records, tasklet %d",
						delivered[impeller.EngineGoroutine], delivered[impeller.EngineTasklet])
				}
			})
		}
	}
}

// TestGenPlanDeterministic: the same config must yield the same plan —
// fault times, target draws and rescale steps — and a different seed a
// different one.
func TestGenPlanDeterministic(t *testing.T) {
	cfg := Config{Query: 11, Protocol: impeller.ProgressMarker, Seed: 42, Faults: DefaultFaults, Rescale: true}
	p1, p2 := GenPlan(cfg), GenPlan(cfg)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed produced different plans")
	}
	if len(p1.Steps) != rescaleSteps {
		t.Fatalf("plan has %d rescale steps, want %d", len(p1.Steps), rescaleSteps)
	}
	cfg.Seed = 43
	p3 := GenPlan(cfg)
	if reflect.DeepEqual(p1.Tasks, p3.Tasks) {
		t.Fatal("different seed produced the same task-fault stream")
	}
	if reflect.DeepEqual(p1.Steps, p3.Steps) {
		t.Fatal("different seed produced the same rescale steps")
	}
	if p1.Faults < 20 {
		t.Fatalf("default plan has %d faults, want >= 20", p1.Faults)
	}
	// The egress plane is part of the plan: two sink kills inside the
	// window, sorted, plus the consumer fault schedule.
	if len(p1.SinkKills) != 2 {
		t.Fatalf("plan has %d sink kills, want 2", len(p1.SinkKills))
	}
	for i, at := range p1.SinkKills {
		if at <= 0 || at >= faultWindow {
			t.Fatalf("sink kill %d at %v is outside the fault window", i, at)
		}
		if i > 0 && at < p1.SinkKills[i-1] {
			t.Fatal("sink kills are not sorted")
		}
	}
	if p1.Consumer.Faults < 10 {
		t.Fatalf("consumer schedule has %d fault windows, want >= 10", p1.Consumer.Faults)
	}
	if p := GenPlan(Config{Query: 1}); p.Faults != 0 || len(p.Tasks)+len(p.SinkKills)+len(p.Steps) != 0 {
		t.Fatalf("zero Faults planned %d faults", p.Faults)
	}
}

// TestGenPlanTargetsLiveAfterRescale: a plan names its fault targets as
// draws resolved against the task set live when each fault fires, so
// after a rescale every fault still resolves to a live task — including
// the slots the rescale created.
func TestGenPlanTargetsLiveAfterRescale(t *testing.T) {
	cluster := impeller.NewCluster(impeller.ClusterConfig{DefaultParallelism: parallelism})
	defer cluster.Close()
	topo, err := nexmark.BuildOpts(12, nexmark.Options{MaxParallelism: maxParallelism})
	if err != nil {
		t.Fatal(err)
	}
	app, err := cluster.Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	before := app.Manager().TaskIDs()
	if _, err := app.Rescale(context.Background(), nexmark.RescaleStage(12), 5); err != nil {
		t.Fatal(err)
	}
	live := app.Manager().TaskIDs()
	hitNew := false
	for _, f := range GenPlan(Config{Query: 12, Seed: 42, Faults: DefaultFaults}).Tasks {
		id := f.target(live)
		if !slices.Contains(live, id) {
			t.Fatalf("%v fault at %v resolved to %s, not a live task", f.Kind, f.At, id)
		}
		hitNew = hitNew || !slices.Contains(before, id)
	}
	if len(live) <= len(before) || !hitNew {
		t.Fatalf("rescale grew %d tasks to %d, and no fault resolved to a new slot", len(before), len(live))
	}
}

// TestGenPlanAlignedHasNoZombies: aligned-checkpoint runs convert
// zombies to kills (no fencing race to exercise) without shrinking
// the fault budget.
func TestGenPlanAlignedHasNoZombies(t *testing.T) {
	marker := GenPlan(Config{Query: 1, Protocol: impeller.ProgressMarker, Seed: 5, Faults: DefaultFaults})
	aligned := GenPlan(Config{Query: 1, Protocol: impeller.AlignedCheckpoint, Seed: 5, Faults: DefaultFaults})
	for _, f := range aligned.Tasks {
		if f.Kind == ZombifyTask {
			t.Fatalf("aligned plan contains a zombify at %v", f.At)
		}
	}
	if aligned.Faults < marker.Faults {
		t.Fatalf("aligned plan has %d faults, marker has %d", aligned.Faults, marker.Faults)
	}
	found := false
	for _, f := range marker.Tasks {
		if f.Kind == ZombifyTask {
			found = true
		}
	}
	if !found {
		t.Fatal("marker plan contains no zombify")
	}
}

// TestStuckDumpEveryPhase: a run that does not converge in time reports
// where every task and the sink stood, whichever phases it played — a
// mid-flight power cut (dumping the recovered cluster) and a rescale.
// The convergence wait is forced to zero, so both cells end STUCK.
func TestStuckDumpEveryPhase(t *testing.T) {
	cells := map[string]Config{
		"power-midflight": {Query: 1, Seed: 7, PowerCut: true, MidFlight: true},
		"rescale":         {Query: 12, Seed: 3, Faults: Faults{Kills: 3}, Rescale: true},
	}
	for name, cfg := range cells {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := run(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			s := res.String()
			t.Log(s)
			if res.Converged || res.Violation != "" || !strings.Contains(s, " STUCK\n") {
				t.Fatalf("want a STUCK run, got converged=%v violation=%q", res.Converged, res.Violation)
			}
			for _, want := range []string{"\n  q", " restarts=", "\n  sink: "} {
				if !strings.Contains(s, want) {
					t.Fatalf("stuck dump lacks %q", want)
				}
			}
		})
	}
}
