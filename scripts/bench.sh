#!/bin/sh
# Benchmark baseline runner: benchmarks the figure harness (repo root),
# the event kernel (internal/sim), the cache hierarchy (internal/hier),
# the network fabric (internal/net) and the compact flow table
# (internal/flow) with allocation stats, then
# condenses the raw stream into BENCH_sim.json (benchmark name ->
# averaged ns/op, B/op, allocs/op and custom metrics) via cmd/benchjson.
# Each run also appends one labelled line to BENCH_history.jsonl, so
# successive PRs accumulate a perf timeline next to the baseline.
#
#   COUNT=5 OUT=after.json scripts/bench.sh      # override repetitions/output
#   LABEL=pr7 scripts/bench.sh                   # override the history label
#
# The default label comes from the HEAD commit: "pr<N>-<hash>" when its
# subject starts with "PR <N>:", "rev-<hash>" otherwise, with "-dirty"
# appended when the working tree has uncommitted changes (the numbers
# then belong to a change on top of that commit, not to the commit).
#
# The raw `go test` output is kept next to the JSON for eyeballing.
set -eu
cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"
OUT="${OUT:-BENCH_sim.json}"
RAW="${RAW:-${OUT%.json}.txt}"
HISTORY="${HISTORY:-BENCH_history.jsonl}"
if [ -z "${LABEL:-}" ]; then
    sha=$(git rev-parse --short HEAD 2>/dev/null || echo unversioned)
    pr=$(git log -1 --format=%s 2>/dev/null | sed -n 's/^PR \([0-9][0-9]*\):.*/\1/p')
    if [ -n "$pr" ]; then
        LABEL="pr$pr-$sha"
    else
        LABEL="rev-$sha"
    fi
    if ! git diff --quiet HEAD 2>/dev/null; then
        LABEL="$LABEL-dirty"
    fi
fi

go test -run '^$' -bench . -benchmem -count "$COUNT" . ./internal/sim ./internal/hier ./internal/net ./internal/flow | tee "$RAW"
go run ./cmd/benchjson -o "$OUT" -history "$HISTORY" -label "$LABEL" "$RAW"
