GO ?= go

.PHONY: check build vet fmt test race bench bench-compare bench-gate benchmark-check loc chaos fuzz-smoke alloc smoke

# check is the full gate: build, vet, formatting, unit tests, the
# race-detector run over the packages with real concurrency, the
# short seeded chaos suite, the decoder fuzz smokes, the experiment
# smokes and the benchmark's allocation ceilings — plus the benchmark
# module, which the root build does not reach.
check: build vet fmt test benchmark-check race chaos fuzz-smoke smoke bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# benchmark-check vets and tests benchmark/, a module of its own that
# reaches the system through the public API only (benchmark/sut.go): a
# rename there breaks the benchmark driver, not `go build ./...`.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# race covers the shared log and the runtime core, where appenders,
# blocking readers, trims, and fault injection interleave, and the root
# package, whose app.go owns the ingress flush timers, the sinks and
# FlushIngress.
race:
	$(GO) test -race . ./internal/sharedlog/... ./internal/core/...

# chaos runs the short seeded chaos suite under the race detector:
# NEXMark queries under deterministic fault plans (task kills, zombies,
# shard crashes, partitions, sink kills, power cuts, live rescales) with
# exactly-once verification.
chaos:
	$(GO) test -race -short -run 'TestChaos|TestGenPlan' ./internal/chaos/ -timeout 300s

# fuzz-smoke runs a short randomized burst on every decoder fuzz
# target on top of its checked-in seed corpus (the seeds alone also run
# under `make test`): the WAL frame reader, the shared log's cut
# payload codec, checkpoint-store WAL recovery, and the runtime's
# batch, marker-checkpoint, aligned-snapshot, and egress-frontier
# decoders — every byte format that recovery feeds with potentially
# corrupt input.
FUZZTIME ?= 3s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCutPayload -fuzztime $(FUZZTIME) ./internal/sharedlog/
	$(GO) test -run '^$$' -fuzz FuzzRecover -fuzztime $(FUZZTIME) ./internal/kvstore/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMarkerCheckpoint -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeAlignedSnapshot -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrontier -fuzztime $(FUZZTIME) ./internal/core/

# alloc runs the hot-path allocation gates explicitly (they also run as
# part of `make test`): the write-side batch encoder, the read-side warm
# cursor NextBatch (0 allocs/record), DecodeBatch (2 per batch), a task
# step from log record to flushed output and the delivery sink's ack
# path (each ≤ 0.1 per record). Must run without -race — race
# instrumentation allocates.
alloc:
	$(GO) test -run 'Alloc' ./internal/sharedlog/ ./internal/core/ -v

# smoke runs three short impeller-bench experiments as fast siblings of
# the chaos gate; the full runs with the committed numbers are in
# results/ (see EXPERIMENTS.md).
#  - scaling: a two-point curve of the sharded ordering plane (4 ordering
#    shards must beat 1 on aggregate append throughput).
#  - egress: transactional sink delivery — delivered-record latency per
#    protocol, then chaos-verified recovery from hard sink kills with the
#    replacement resuming from the persisted ack frontier.
#  - rescale: a scripted mid-run split through the public API under a
#    step load (the oracle-verified rescale chaos cells run in `chaos`).
smoke:
	$(GO) run ./cmd/impeller-bench -exp scaling -shards 1,4 -clients 96 -duration 600ms
	$(GO) run ./cmd/impeller-bench -exp egress -duration 800ms -scale 0.05
	$(GO) run ./cmd/impeller-bench -exp rescale -duration 2s -scale 0.05

# bench-gate runs every benchmark workload once (seed 1, 5 s) and fails
# if a metric is over the workload's ceiling in BENCH_GATE, entries
# workload:allocs_per_event[:heap_live_mb]. The alloc ceilings sit about
# 5 % above what PR 26 measured; the metrics repeat within 0.1–0.6 % run
# to run, so only a real regression crosses one. The heap ceilings, on
# the Q1 workloads whose every floor advances, hold the log trimmed:
# PR 28 measured 1.4–3.6 MB (q1-hot) and 6.3 MB (q1-dense-tasklet) there,
# against 101 and 65 MB before trimming was the default, so a return to
# unbounded retention fails as an allocation regression does. Latency
# stays a manual 10-seed `--compare` (EXPERIMENTS.md). Runs write to a
# temp file and nothing under benchmark/. ~30 s.
BENCH_GATE = q1-hot:5.7:16 q12-state:12.3 q8-durable-sim:4.75 q1-dense-tasklet:6.0:16
bench-gate:
	@out="$$(mktemp)"; log="$$(mktemp)"; trap 'rm -f "$$out" "$$log"' EXIT; \
	for entry in $(BENCH_GATE); do \
		w="$${entry%%:*}"; ceilings="$${entry#*:}"; \
		allocs="$${ceilings%%:*}"; heap="$${ceilings#$$allocs}"; heap="$${heap#:}"; \
		bash benchmark/run.sh --workload "$$w" --seed 1 --seconds 5 --out "$$out" > "$$log" 2>&1 || \
			{ cat "$$log"; echo "bench-gate: $$w failed"; exit 1; }; \
		for mc in allocs_per_event:$$allocs heap_live_mb:$$heap; do \
			m="$${mc%%:*}"; ceiling="$${mc#*:}"; \
			[ -n "$$ceiling" ] || continue; \
			got="$$(tail -n 1 "$$out" | grep -o "\"$$m\":{\"value\":[^,]*" | cut -d: -f3)"; \
			echo "bench-gate: $$w $$m $$got (ceiling $$ceiling)"; \
			awk -v g="$$got" -v c="$$ceiling" 'BEGIN { exit !(g != "" && g + 0 <= c + 0) }' || \
				{ echo "bench-gate: $$w is over its $$m ceiling"; exit 1; }; \
		done; \
	done

# loc prints the size figure ROADMAP tracks: lines of non-test Go
# outside benchmark/ (a module of its own), by wc -l.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

# bench runs the sharedlog micro-benchmarks (no -race; see results/).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sharedlog/

# bench-compare reruns the sharedlog benchmarks and prints per-benchmark
# deltas against the committed baseline (results/bench_baseline.txt).
# Refresh the baseline by redirecting `make bench` output there on a
# quiet machine.
bench-compare:
	@$(GO) test -run '^$$' -bench . -benchmem ./internal/sharedlog/ > /tmp/bench_current.txt || \
		{ cat /tmp/bench_current.txt; exit 1; }
	@$(GO) run ./cmd/benchdelta results/bench_baseline.txt /tmp/bench_current.txt
