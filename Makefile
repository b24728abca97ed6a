GO ?= go

.PHONY: build test race verify fuzz-smoke bench obsbench bench4 bench5 microbench report clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the full gate: formatting, static checks (staticcheck when
# installed — CI installs a pinned version), the race-enabled test
# run, and a short fuzz smoke over the two untrusted-input surfaces.
verify:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke

# fuzz-smoke runs each fuzz target briefly: enough to catch shallow
# decoder/parser panics on every verify, without CI-scale fuzzing.
fuzz-smoke:
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=5s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzParse -fuzztime=5s -run '^$$' ./internal/sqlparser

# bench regenerates the machine-readable benchmark artifact extending
# the perf trajectory (BENCH_1.json is the pre-caching baseline).
bench:
	$(GO) run ./cmd/taubench -exp report -reps 3 -json BENCH_2.json

# obsbench regenerates the observability artifact: per-query stage
# breakdowns (EXPLAIN ANALYZE) and tracer overhead, sampled vs. off.
obsbench:
	$(GO) run ./cmd/taubench -exp obsreport -reps 15 -json BENCH_3.json

# bench4 regenerates the batched-execution artifact: BENCH_3's contents
# plus the interleaved A/A-controlled batch section (shared prepared
# plans vs plan reuse ablated, with plan-reuse counters as evidence).
# CI gates its geomean against this file.
bench4:
	$(GO) run ./cmd/taubench -exp obsreport -reps 15 -json BENCH_4.json

# bench5 regenerates the bitemporal workload artifact: BT-SMALL audit
# queries under both strategies with the interleaved A/A noise bound.
bench5:
	$(GO) run ./cmd/taubench -workload BT-SMALL -reps 15 -json BENCH_5.json

# microbench runs the Go benchmark suite once over every cell.
microbench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# report regenerates the original baseline artifact.
report:
	$(GO) run ./cmd/taubench -exp report -reps 3 -json BENCH_1.json

clean:
	$(GO) clean ./...
