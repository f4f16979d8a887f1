package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"impeller"
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
				res, err := Run(Config{Query: query, Protocol: proto, Seed: 7})
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
	wantSinks := res.Config.SinkKills + 1
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
			res, err := Run(Config{Query: query, Protocol: proto, Seed: 11, OrderingShards: 4})
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
				OrderingShards: shards, OrderingInterval: time.Millisecond,
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
			res, err := Run(Config{Query: query, Protocol: proto, Seed: 7, Engine: impeller.EngineTasklet})
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

// faultFree disables every fault plane: the run is a plain end-to-end
// execution whose output the oracle still verifies, so two engines can
// be compared on identical inputs.
func faultFree(query int, proto impeller.Protocol, engine impeller.EngineMode) Config {
	return Config{
		Query: query, Protocol: proto, Seed: 7, Engine: engine,
		InfraFaults: -1, Kills: -1, Zombies: -1, NodeCrashes: -1,
		SinkKills: -1, ConsumerFaults: -1,
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
					res, err := Run(faultFree(query, proto, engine))
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

// TestGenPlanDeterministic: the same (config, targets) must yield the
// same plan, and a different seed a different one.
func TestGenPlanDeterministic(t *testing.T) {
	targets := []impeller.TaskID{"a/0", "a/1", "b/0", "b/1"}
	cfg := Config{Query: 11, Protocol: impeller.ProgressMarker, Seed: 42}
	p1 := GenPlan(cfg, targets)
	p2 := GenPlan(cfg, targets)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed produced different plans")
	}
	// Target order must not matter: the plan sorts before sampling.
	shuffled := []impeller.TaskID{"b/1", "a/0", "b/0", "a/1"}
	if p3 := GenPlan(cfg, shuffled); !reflect.DeepEqual(p1, p3) {
		t.Fatal("target order changed the plan")
	}
	cfg.Seed = 43
	if p4 := GenPlan(cfg, targets); reflect.DeepEqual(p1.Tasks, p4.Tasks) {
		t.Fatal("different seed produced the same task-fault stream")
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
		if at <= 0 || at >= cfgDuration(cfg) {
			t.Fatalf("sink kill %d at %v is outside the fault window", i, at)
		}
		if i > 0 && at < p1.SinkKills[i-1] {
			t.Fatal("sink kills are not sorted")
		}
	}
	if p1.Consumer.Faults < 10 {
		t.Fatalf("consumer schedule has %d fault windows, want >= 10", p1.Consumer.Faults)
	}
}

func cfgDuration(c Config) (d time.Duration) { return c.withDefaults().Duration }

// TestGenPlanAlignedHasNoZombies: aligned-checkpoint runs convert
// zombies to kills (no fencing race to exercise) without shrinking
// the fault budget.
func TestGenPlanAlignedHasNoZombies(t *testing.T) {
	targets := []impeller.TaskID{"a/0", "a/1"}
	marker := GenPlan(Config{Query: 1, Protocol: impeller.ProgressMarker, Seed: 5}, targets)
	aligned := GenPlan(Config{Query: 1, Protocol: impeller.AlignedCheckpoint, Seed: 5}, targets)
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
