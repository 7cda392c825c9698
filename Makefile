# Developer entry points. `make check` is the gate every change must pass:
# build + vet + gofmt drift + simlint + race-enabled tests, plus the runs
# `go test -race ./...` cannot do: the checkdebug-tagged packet tests, the
# sweep cache replay and the incast command's oracle gate. It runs each
# test once; the *-smoke targets that only select tests `race` already runs
# stay for standalone use.

GO ?= go

.PHONY: all build vet test race fmt-check lint lint-fix-check typestate-smoke packet-checkdebug check bench alloc-check fault-smoke sweep-smoke oracle-smoke oracle-e2e baseline clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fails (and lists the offenders) if any file is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# simlint is the repository's own static analysis (internal/lint): it
# enforces determinism (no wall clock, no math/rand, no order-sensitive map
# iteration, no goroutines in sim-scheduled or hot-path code), sim-time and
# flow-sensitive unit discipline, sweep worker-race and cache-key
# completeness, the telemetry nil-safety contract, the //inv: interval
# contracts (range proofs backed by same-function internal/check asserts,
# narrow-counter overflow), and the //state: typestate contracts
# (pooled-packet exactly-once free, scheduler handle lifecycles, ownership
# transfer). -stale-allow also fails the build on //lint:allow directives
# that no longer suppress anything. Stdlib-only.
lint:
	$(GO) run ./cmd/simlint -stale-allow ./...

# Autofix regression gate: apply simlint -fix to the before/after fixtures
# and require byte-identical golden output plus an idempotent second pass.
lint-fix-check:
	$(GO) test -run 'TestFixGoldens|TestApplyEdits|TestRunFix' ./internal/lint ./cmd/simlint

# Typestate smoke: the engine's join/widening unit tests and the three
# lifecycle-analyzer fixtures (poollife, handlestate, ownxfer, plus the
# clean Port->Link->Host hand-off), then the packet pool's checkdebug
# poison tests — the runtime tripwire behind the static exactly-once-free
# proof — in both build-tag modes.
typestate-smoke: packet-checkdebug
	$(GO) test -run 'JoinEnv|MergeAtJoin|LoopWidening|Fixtures/(poollife|handlestate|ownxfer|ownclean)' ./internal/lint
	$(GO) test ./internal/packet

# The packet pool's poison tests under the checkdebug build tag, which no
# untagged test run compiles.
packet-checkdebug:
	$(GO) test -tags checkdebug ./internal/packet

check: build vet fmt-check lint race packet-checkdebug sweep-smoke oracle-e2e

# Fault-injection smoke: a full-mix faulted sweep must complete, stay
# deterministic, conserve every packet/byte, and keep DCTCP+ no worse than
# DCTCP per fault class (the resilience gate behind EXPERIMENTS.md).
fault-smoke:
	$(GO) test -run 'Faulted|Conservation|Resilience|RequestRetry' \
		./internal/fault ./internal/exp ./internal/workload

# Sweep-orchestration smoke: run a tiny grid twice against the same cache.
# The second pass must be pure cache replay (100% hit rate) and its
# aggregate table must be byte-identical to the first pass — the
# end-to-end guarantee behind internal/sweep's content-addressed cache.
sweep-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/sweep" ./cmd/sweep; \
	args="-q -name smoke -protocols dctcp+,dctcp -flows 20,40 -seeds 1,2 \
		-rounds 6 -warmup 2 -rtomin 10ms -cache-dir $$dir/cache"; \
	"$$dir/sweep" $$args >"$$dir/first.txt"; \
	"$$dir/sweep" $$args -resume >"$$dir/second.txt"; \
	grep -q "0 run, 8 cached (hit rate 100%)" "$$dir/second.txt" || { \
		echo "sweep-smoke: second pass was not pure cache replay:"; \
		cat "$$dir/second.txt"; exit 1; }; \
	sed -n '1,/^$$/p' "$$dir/first.txt" >"$$dir/first.tbl"; \
	sed -n '1,/^$$/p' "$$dir/second.txt" >"$$dir/second.tbl"; \
	cmp -s "$$dir/first.tbl" "$$dir/second.tbl" || { \
		echo "sweep-smoke: cached aggregates differ from first pass:"; \
		diff "$$dir/first.tbl" "$$dir/second.tbl"; exit 1; }; \
	echo "sweep-smoke: 8/8 cache hits, aggregates byte-identical"

# Trace-oracle conformance smoke: the incast command's -oracle gate
# (oracle-e2e), then the rule-level oracle tests, the full protocol ×
# fault-class matrices (TestOracleMatrix and its background sibling
# TestOracleBackgroundMatrix, which pins TCP's known finding) and the
# metamorphic harness must run violation-free.
oracle-smoke: oracle-e2e
	$(GO) test ./internal/oracle
	$(GO) test -run 'Oracle' ./internal/exp ./internal/sweep
	@echo "oracle-smoke: protocol x fault matrix oracle-clean"

# The incast command's -oracle gate must pass a faulted multi-protocol
# sweep end to end. On violation the command writes the minimized
# event-window trace to $(ORACLE_TRACE), which CI uploads as the failure
# artifact.
ORACLE_TRACE ?= oracle-violations.txt
oracle-e2e:
	$(GO) run ./cmd/incast -protocols tcp,dctcp,dctcp+,d2tcp+ -flows 48 \
		-rounds 4 -warmup 1 -faults all -oracle -oracle-trace $(ORACLE_TRACE) >/dev/null
	@echo "oracle-e2e: incast -oracle gate clean"

# Benchmarks with the alloc column: the sim, netsim and tcp hot paths must
# report 0 allocs/op (the AllocsPerRun tests in those packages pin it).
bench:
	$(GO) test -bench=. -benchmem ./internal/sim ./internal/netsim ./internal/tcp

# Just the allocation-budget regression tests, without the benchmarks.
alloc-check:
	$(GO) test -run 'AllocBudget|AllocFree' ./internal/sim ./internal/netsim ./internal/tcp

# Regenerate the committed telemetry baseline manifest (reduced scale; see
# cmd/report -h for the full-figure knobs).
baseline:
	$(GO) run ./cmd/report -rounds 24 -warmup 6 -baseline BENCH_baseline.json

clean:
	$(GO) clean ./...
