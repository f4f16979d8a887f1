package main

import "time"

// workload fixes one cell of the benchmark: which query, how the cluster
// is configured, the open-loop rate of the latency phase and the size of
// the closed-loop drain. README.md records why each exists; the one-line
// reasons live in BENCHMARK.json.
type workload struct {
	name  string
	query int
	// tasklet selects the cooperative engine; otherwise one goroutine per
	// task.
	tasklet     bool
	parallelism int
	flush       time.Duration // ingress flush interval
	commit      time.Duration // progress-marker interval
	snapshot    time.Duration // state checkpoint interval; 0 = none
	// simLatency charges the calibrated Boki/Kafka round trips and puts
	// the log on a WAL device. Ordering stays immediate: with sequencer
	// cuts a two-input stage loses records now and then (README.md,
	// "What the benchmark found"), and a workload must not fail.
	simLatency bool
	// rate is the latency phase's offered load in events/s (a multiple of
	// 1000, so every 1 ms slot carries the same count).
	rate int
	// drainPerSecond sizes each closed-loop drain: N = drainPerSecond ×
	// -seconds events, so a longer run drains proportionally more.
	drainPerSecond int
	// idleBeforeRecover lets the last periodic snapshot land so recovery
	// restores from it instead of depending on where the drain ended.
	idleBeforeRecover time.Duration
}

// ingressWriters is the number of ingress writers and of generator
// goroutines feeding them, one each.
const ingressWriters = 2

// The rates were sized on a 2-vCPU box to sit well below each cell's
// drain capacity (README.md, "How the rates were sized").
var workloads = []workload{
	{
		name: "q1-hot", query: 1, parallelism: 2,
		flush: time.Millisecond, commit: 10 * time.Millisecond,
		rate: 100_000, drainPerSecond: 50_000,
	},
	{
		name: "q12-state", query: 12, parallelism: 2,
		flush: 10 * time.Millisecond, commit: 100 * time.Millisecond,
		rate: 40_000, drainPerSecond: 15_000,
	},
	{
		name: "q8-durable-sim", query: 8, parallelism: 2,
		flush: 10 * time.Millisecond, commit: 100 * time.Millisecond,
		snapshot: 2 * time.Second, simLatency: true,
		rate: 20_000, drainPerSecond: 7_500,
		idleBeforeRecover: 2500 * time.Millisecond,
	},
	{
		name: "q1-dense-tasklet", query: 1, tasklet: true, parallelism: 16,
		flush: 10 * time.Millisecond, commit: 100 * time.Millisecond,
		rate: 60_000, drainPerSecond: 25_000,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
