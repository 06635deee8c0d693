#!/bin/sh
# check.sh — the full verification gate: vet, build, tests, race tests.
#
# Usage:
#   scripts/check.sh          # everything, including the full -race run
#   QUICK=1 scripts/check.sh  # -short mode for both test passes (skips
#                             # soak/stress tests; suits pre-commit hooks)
set -eu
cd "$(dirname "$0")/.."

short=""
if [ "${QUICK:-0}" = "1" ]; then
    short="-short"
fi

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# perfbench is its own module (the repo benchmark), so the root ./...
# never builds it; an internal API change could break it unnoticed.
echo "== perfbench module: go vet + go test"
(cd perfbench && go vet ./... && go test $short ./...)

echo "== go test -shuffle=on $short ./..."
go test -shuffle=on $short ./...

echo "== go test -race -shuffle=on $short ./..."
go test -race -shuffle=on $short ./...

echo "== study smoke (every smoke-sized study through its gate)"
go run ./cmd/benchgrid -smoke >/dev/null

echo "== trace smoke (causal-tracing invariants)"
go run ./cmd/tracegrid -smoke -check >/dev/null

echo "== dst smoke (protocol invariants over 200 random + 40 federated scenarios)"
go run ./cmd/dstgrid -seeds 200 -fed-seeds 40 -smoke >/dev/null

# Enforced per-package coverage floor for the kernel and the LRM — the
# two packages the million-scale fast paths live in. Unlike the
# report-only total below, a drop here fails the gate: an untested wheel
# level or backfill branch is exactly where a scale regression hides.
kernel_floor=70
echo "== kernel coverage gate (floor: ${kernel_floor}% for internal/vtime, internal/lrm)"
for pkg in ./internal/vtime ./internal/lrm; do
    go test $short -coverprofile=.cover.pkg.out "$pkg" >/dev/null
    pct=$(go tool cover -func=.cover.pkg.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f .cover.pkg.out
    echo "$pkg statement coverage: ${pct}%"
    if [ "$(printf '%s\n' "$pct" "$kernel_floor" | sort -g | head -1)" != "$kernel_floor" ]; then
        echo "FAIL: $pkg coverage ${pct}% is below the enforced ${kernel_floor}% floor" >&2
        exit 1
    fi
done

if [ "${QUICK:-0}" != "1" ]; then
    # Perf observatory: validate the snapshot shape (>= 8 series, 0
    # allocs/op on the histogram hot path) and compare a short measuring
    # run against the committed BENCH_grid.json baseline. The compare is
    # report-only — wall-clock benches are noisy on shared machines —
    # unless STRICT_BENCH=1 promotes >20% ns/op regressions to failures.
    echo "== perf smoke + bench compare (report-only; STRICT_BENCH=1 to gate)"
    go run ./cmd/perfgrid -smoke -compare BENCH_grid.json

    # Report-only coverage floor: warn when total statement coverage
    # drops below the floor, but do not fail the gate — coverage is a
    # trend indicator here, not a merge blocker.
    cover_floor=70
    echo "== coverage (report-only floor: ${cover_floor}%)"
    go test ./... -coverprofile=.cover.out >/dev/null
    total=$(go tool cover -func=.cover.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f .cover.out
    echo "total statement coverage: ${total}%"
    if [ "$(printf '%s\n' "$total" "$cover_floor" | sort -g | head -1)" != "$cover_floor" ]; then
        echo "WARNING: total coverage ${total}% is below the ${cover_floor}% floor" >&2
    fi
fi

echo "ok: all checks passed"
