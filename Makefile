GO ?= go

.PHONY: check quick vet build test race smoke trace-smoke dst-smoke cover bench-snapshot bench-check

# The full verification gate (vet, build, test, race test).
check:
	sh scripts/check.sh

# The same gate in -short mode: skips soak/stress tests.
quick:
	QUICK=1 sh scripts/check.sh

# vet and test also cover perfbench: it is its own module (the repo
# benchmark), so the root ./... never builds it, yet it compiles against
# internal APIs.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	cd perfbench && $(GO) test ./...

race:
	$(GO) test -race ./...

# Every study with a smoke size (B1 broker, B2 chaos, B6 federation, B3
# wire, B7 SLO, B4 scale) at seconds scale, each through its acceptance
# gate; exits non-zero if any gate fails. experiments.Studies lists the
# studies, their smoke sizes and their gates.
smoke:
	$(GO) run ./cmd/benchgrid -smoke

# Runs the causal-trace analyzer over a B1 smoke run and exits non-zero
# on any unattributed event, broken request tree, or critical path that
# does not sum exactly to its request's end-to-end latency.
trace-smoke:
	$(GO) run ./cmd/tracegrid -smoke -check

# Deterministic simulation testing: 200 randomized co-allocation
# scenarios plus 40 federated ones (leader and follower crashes,
# elections, shard hand-offs) checked against the protocol invariant
# library; exits non-zero (with a shrunk, replayable reproduction) on any
# violation. See TESTING.md for the seed-replay workflow.
dst-smoke:
	$(GO) run ./cmd/dstgrid -seeds 200 -fed-seeds 40 -smoke

# Re-measure the performance baseline: full 1s-per-bench suite, the
# deterministic scenarios, and the full-size B4 scale run (minutes of
# wall clock), written to BENCH_grid.json. Commit the result when a perf
# change is intentional.
bench-snapshot:
	$(GO) run ./cmd/perfgrid -out BENCH_grid.json -scale

# Fast perf regression check against the committed baseline: smoke-length
# benches, report-only unless STRICT_BENCH=1 (then >20% ns/op fails).
bench-check:
	$(GO) run ./cmd/perfgrid -smoke -compare BENCH_grid.json

# Total statement coverage across all packages. check.sh warns (but
# does not fail) when the total drops below its floor.
cover:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1
