# Local developer workflow. CI reuses these targets so the two never
# drift: .github/workflows/ci.yml calls only `make` targets (build,
# lint-budget, lint-extra, test, scenarios, cache-smoke,
# telemetry-smoke, fastforward-smoke, parallel-smoke, scale-smoke,
# simd-smoke, fuzz-smoke, bench-smoke, bench-compare) rather than
# restating the commands.

GO ?= go

# Pinned external tool versions (also pinned in CI). Installed on
# demand by `make lint-extra`; the core `lint` target needs nothing
# beyond the repository itself.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build lint lint-budget lint-extra test bench bench-smoke bench-compare fuzz-smoke fmt-check scenarios sweep-cached cache-smoke telemetry-smoke fastforward-smoke parallel-smoke scale-smoke simd-smoke

all: build lint test

build:
	$(GO) build ./...

# Determinism and hot-path invariants, machine-enforced. See DESIGN.md
# "Determinism invariants & static analysis". perfbench/ is a nested
# module that `./...` skips, so it is vetted on its own: an API change in
# sim, server or cache must break lint, not the benchmark run.
lint: fmt-check
	$(GO) vet ./...
	$(GO) vet -C perfbench ./...
	$(GO) run ./cmd/desalint ./...

# Lint with a wall-clock budget: the dataflow-backed analyzers
# (inertsafety, cachekey, sharedstate) must stay cheap enough to run on
# every push, so CI uses this target and fails if the full lint pass
# exceeds 120 seconds — only a real blow-up (say, an accidental
# inter-procedural fixpoint) trips it, not runner noise.
lint-budget:
	@start=$$(date +%s); \
	$(MAKE) lint || exit 1; \
	end=$$(date +%s); \
	elapsed=$$((end - start)); \
	echo "lint took $${elapsed}s (budget 120s)"; \
	if [ $$elapsed -gt 120 ]; then echo "lint exceeded the 120s budget"; exit 1; fi

# External linters; kept out of `lint` so the default workflow works
# fully offline. CI runs this with the same pinned versions.
lint-extra:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	$(GO) test -race -shuffle=on ./...

# Full benchmark run for local perf work.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration each: catches compile errors and panics in the
# benchmark harness without turning CI into a perf run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkScheduler$$|BenchmarkSchedulerFixedDelay$$|BenchmarkChannelBroadcast$$|BenchmarkScenarioCache|BenchmarkTelemetry' -benchtime 1x -benchmem .

# Ten seconds of coverage-guided fuzzing of the event kernel's firing
# order against the container/heap reference (internal/des
# heap_diff_test.go). The seed corpus is every differential trial, so a
# short run already starts from the fixed-delay lane's edge cases.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSchedulerOrder -fuzztime 10s ./internal/des

# Regression gate against the committed baseline. A short time-based
# benchtime keeps the gate fast while giving the nanosecond benches
# enough iterations to be stable; the generous threshold means only
# real regressions trip it, not shared-runner noise. Tighten locally
# for perf work.
bench-compare:
	$(GO) run ./cmd/bench -benchtime 0.3s -o /dev/null -compare BENCH_after.json -max-regress 100

# The incremental-sweep loop: the same reduced fig6 sweep twice through
# one content-addressed cache. The second pass must be served entirely
# from disk (the stats line on stderr shows hits) and print identical
# tables.
sweep-cached:
	rm -rf .sweep-cache
	$(GO) run ./cmd/experiments -run fig6 -topologies 5 -duration 1s -cache .sweep-cache -cache-stats
	$(GO) run ./cmd/experiments -run fig6 -topologies 5 -duration 1s -cache .sweep-cache -cache-stats

# Cache round trip under the race detector: the content-addressed store
# (write, read back, corrupt-entry recovery) and the sim-level cached
# runs, keyed by ScenarioKey and the engine fingerprint.
cache-smoke:
	$(GO) test -race -run 'Cache|TestRoundTrip|TestCorrupt|TestEngineFingerprint|TestScenarioKey' ./internal/cache/ ./internal/sim/

# Telemetry round trip on the canonical trajectory scenario: two exports
# of the same run must be byte-identical (the determinism contract), and
# simtrace must be able to summarize and filter the artifact.
telemetry-smoke:
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/telemetry-trajectory.json -telemetry .telemetry-a.jsonl
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/telemetry-trajectory.json -telemetry .telemetry-b.jsonl
	cmp .telemetry-a.jsonl .telemetry-b.jsonl
	$(GO) run ./cmd/simtrace summarize .telemetry-a.jsonl
	$(GO) run ./cmd/simtrace filter -kind agg .telemetry-a.jsonl > /dev/null
	rm -f .telemetry-a.jsonl .telemetry-b.jsonl

# Fast-forward equivalence on the sparse showcase scenario: the analytic
# idle-time skip must print byte-identical results to slot-by-slot
# operation (DESIGN.md §12). The scenario is the one whose countdowns are
# nearly all bulk jumps, so any settlement bug shows up here first.
fastforward-smoke:
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/fastforward-sparse.json > .ff-off.txt
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/fastforward-sparse.json -fastforward > .ff-on.txt
	cmp .ff-off.txt .ff-on.txt
	rm -f .ff-off.txt .ff-on.txt

# Worker-count invariance on the partitioned parallel kernel: the same
# auto-partitioned scenario executed by one worker and by four must
# print byte-identical results (DESIGN.md §14). The scenario is large
# and spread enough to split into multiple grid partitions, so this
# exercises the cross-partition flush path, not just the sequential
# fallback.
parallel-smoke:
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/parallel-uniform.json -workers 1 > .par-w1.txt
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/parallel-uniform.json -workers 4 > .par-w4.txt
	cmp .par-w1.txt .par-w4.txt
	rm -f .par-w1.txt .par-w4.txt

# Large-N end-to-end smoke: the committed ~10k-node uniform scenario
# (kept in testdata/scale/ so the `scenarios` glob skips it) must build,
# run, and export bounded telemetry inside the same wall-clock budget
# pattern as lint-budget. It exercises the whole scale path at once:
# batched Build, the incremental grid, and the telemetry.maxNodes
# cardinality cap (the header must report the 4-node sample).
scale-smoke:
	@start=$$(date +%s); \
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/scale/uniform-10k.json -telemetry .scale.jsonl || exit 1; \
	grep -q '"sampledNodes":4' .scale.jsonl || { echo "telemetry header lacks the bounded-cardinality sample count"; exit 1; }; \
	rm -f .scale.jsonl; \
	end=$$(date +%s); \
	elapsed=$$((end - start)); \
	echo "scale-smoke took $${elapsed}s (budget 120s)"; \
	if [ $$elapsed -gt 120 ]; then echo "scale-smoke exceeded the 120s budget"; exit 1; fi

# Daemon end-to-end smoke: boot cmd/simd on a random port, POST a
# committed scenario and byte-compare the served body against a local
# `netsim -scenario ... -json` run (the service's correctness gate: all
# three serve paths — fresh run, cache hit, coalesced — must produce
# identical bytes). A repeat POST must be a cache hit with the stats
# counters to prove it, a telemetry stream must pipe straight into
# `simtrace summarize -`, and SIGTERM must drain and exit 0.
simd-smoke:
	@set -e; \
	rm -rf .simd-smoke; mkdir -p .simd-smoke; \
	$(GO) build -o .simd-smoke/simd ./cmd/simd; \
	$(GO) build -o .simd-smoke/netsim ./cmd/netsim; \
	$(GO) build -o .simd-smoke/simtrace ./cmd/simtrace; \
	.simd-smoke/simd -addr 127.0.0.1:0 -cache .simd-smoke/cache > .simd-smoke/log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	i=0; until grep -q 'listening on' .simd-smoke/log 2>/dev/null; do \
		i=$$((i + 1)); [ $$i -le 100 ] || { echo "simd never became ready:"; cat .simd-smoke/log; exit 1; }; \
		sleep 0.1; \
	done; \
	addr=$$(sed -n 's/^simd: listening on //p' .simd-smoke/log); \
	echo "simd up at $$addr"; \
	.simd-smoke/netsim -scenario internal/sim/testdata/paper-drts-dcts.json -json > .simd-smoke/local.json; \
	curl -sf -X POST --data-binary @internal/sim/testdata/paper-drts-dcts.json "http://$$addr/v1/runs" > .simd-smoke/served1.json; \
	cmp .simd-smoke/local.json .simd-smoke/served1.json; \
	curl -sf -X POST --data-binary @internal/sim/testdata/paper-drts-dcts.json "http://$$addr/v1/runs" > .simd-smoke/served2.json; \
	cmp .simd-smoke/local.json .simd-smoke/served2.json; \
	echo "served bytes match local run (fresh and cached)"; \
	curl -sf "http://$$addr/v1/stats" > .simd-smoke/stats.json; \
	grep -q '"cacheMisses":1' .simd-smoke/stats.json || { echo "stats lack the first-run miss:"; cat .simd-smoke/stats.json; exit 1; }; \
	grep -q '"cacheHits":1' .simd-smoke/stats.json || { echo "stats lack the repeat-POST hit:"; cat .simd-smoke/stats.json; exit 1; }; \
	grep -q '"executed":1' .simd-smoke/stats.json || { echo "stats show re-execution on the repeat POST:"; cat .simd-smoke/stats.json; exit 1; }; \
	curl -sf -X POST --data-binary @internal/sim/testdata/telemetry-trajectory.json "http://$$addr/v1/runs?telemetry=1" | .simd-smoke/simtrace summarize -; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	echo "simd-smoke passed (graceful shutdown exited 0)"; \
	rm -rf .simd-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Runs every checked-in scenario file end to end (shortened to keep CI
# fast): the declarative path must stay able to execute its own goldens.
scenarios:
	@for f in internal/sim/testdata/*.json; do \
		echo "== $$f"; \
		$(GO) run ./cmd/netsim -scenario $$f || exit 1; \
	done
