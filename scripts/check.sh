#!/bin/sh
# Pre-merge gate: gofmt, vet, build, full tests, the race detector over the
# internal packages, a forced-parallel race pass over the experiment
# worker pool, and a one-iteration compile-and-run smoke over every
# benchmark. Mirrors `make check` for environments without make.
set -eux
cd "$(dirname "$0")/.."
# Formatting gate: gofmt must have nothing to rewrite.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
go test -race ./internal/...
GOMAXPROCS=2 go test -race ./internal/experiment
GOMAXPROCS=2 go test -race ./internal/net
GOMAXPROCS=2 go test -race ./internal/fault
# Race pass over the sharded event-domain engine and sharded clusters.
# The engine runs every domain on the caller's goroutine, so the
# detector here guards against any goroutine creeping back into the
# epoch loop, the mailbox flushes or the shared packet pool.
GOMAXPROCS=4 go test -race -count=1 -run 'TestEngine' ./internal/sim
GOMAXPROCS=4 go test -race -count=1 -run 'TestClusterShard|TestClusterRunOpts' .
go test -run '^$' -bench . -benchtime=1x ./...
# Perf gate, part 1: the fused packet-lifecycle smoke must run, and the
# steady-state loop must stay at zero heap allocations per packet —
# TestAllocsPerPacket measures the steady window directly and fails the
# gate on any per-packet allocation (see alloc_test.go). The same gate
# covers the million-flow engine (TestChurnAllocsPerRequest: 128k
# resident flows churning at zero allocs per request; TestChurnFootprint:
# at most 100 B of live heap per resident flow), the sharded event cost
# (TestDispatchesPerRequestSharded: a cross-domain hop dispatches no
# more events than an in-domain one) and the pooled fabric (link
# transit and switch forwarding at 0 allocs/op; the warm client round
# trip at 0 allocs, asserted by TestClientRoundTripAllocs).
go test -run '^$' -bench 'BenchmarkPacketLifecycle' -benchtime=1x -benchmem .
go test -run 'TestAllocsPerPacket|TestNullPoolByteIdentical|TestChurnAllocsPerRequest|TestChurnFootprint|TestDispatchesPerRequestSharded' -count=1 .
go test -run 'TestClientRoundTripAllocs' -count=1 -bench 'BenchmarkLinkTransit|BenchmarkSwitchForward' -benchtime=1x -benchmem ./internal/net
# Observability smoke: run a short traced scenario and validate that
# the Chrome trace and the metrics JSON both parse.
go test -run 'TestObsArtifactsParse' -count=1 ./cmd/idiosim
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
# The same smoke with a .csv trace path writes the per-packet CSV.
go run ./cmd/idiosim -scenario scenarios/mixed_nfs.json \
    -trace "$obsdir/trace.csv" -trace-sample 16 > /dev/null
test "$(head -n 1 "$obsdir/trace.csv")" = "core,seq,arrival_us,ready_us,start_us,done_us,notify_us,queue_us,service_us,total_us"
# Golden tables under parallel cells: all 15 pinned -quick tables (rpc,
# qos, chaos, churn, fig4, fig5, fig9-fig14, breakdown, ablations and
# degradation) run with -j 2 must match the committed corpus, which
# TestGolden checks at -j 1 (the wall-clock footer goes to stderr).
for exp in rpc qos chaos churn fig4 fig5 fig9 fig10 fig11 fig12 fig13 fig14 breakdown ablations degradation; do
    go run ./cmd/idiosim -exp "$exp" -quick -j 2 > "$obsdir/$exp.txt"
    cmp "$obsdir/$exp.txt" "testdata/golden/${exp}_quick.txt"
done
# Sharded smoke: the same scenario partitioned into 4 event domains
# must produce byte-identical stdout and stats to the single-domain
# run — the tentpole determinism guarantee, checked end to end.
go run ./cmd/idiosim -scenario scenarios/rpc_closed_loop.json \
    -stats "$obsdir/rpc1.stats" > "$obsdir/rpc1.out"
go run ./cmd/idiosim -scenario scenarios/rpc_closed_loop.json -shards 4 \
    -stats "$obsdir/rpc4.stats" > "$obsdir/rpc4.out"
cmp "$obsdir/rpc1.out" "$obsdir/rpc4.out"
cmp "$obsdir/rpc1.stats" "$obsdir/rpc4.stats"
# QoS smoke: the mixed-class scenario must stay byte-identical between
# single-domain and sharded runs — per-class histogram merging is
# order-independent by construction.
go run ./cmd/idiosim -scenario scenarios/qos_mix.json \
    -stats "$obsdir/qos1.stats" > "$obsdir/qos1.out"
go run ./cmd/idiosim -scenario scenarios/qos_mix.json -shards 4 \
    -stats "$obsdir/qos4.stats" > "$obsdir/qos4.out"
cmp "$obsdir/qos1.out" "$obsdir/qos4.out"
cmp "$obsdir/qos1.stats" "$obsdir/qos4.stats"
# Chaos smoke: the chaos scenario — timeline phases scheduled on the
# domain owning each target — must stay byte-identical between
# single-domain and sharded runs, and both drained runs must hold the
# pool-leak gate: a leak surfaces as the "pkt pool: outstanding=" line,
# absent when healthy. Every domain draws from the host pool, so the
# sharded run's gate covers switch- and client-side packets too.
go run ./cmd/idiosim -scenario scenarios/chaos_recovery.json \
    -stats "$obsdir/chaos1.stats" > "$obsdir/chaos_scenario.txt"
go run ./cmd/idiosim -scenario scenarios/chaos_recovery.json -shards 4 \
    -stats "$obsdir/chaos4.stats" > "$obsdir/chaos4.out"
cmp "$obsdir/chaos_scenario.txt" "$obsdir/chaos4.out"
cmp "$obsdir/chaos1.stats" "$obsdir/chaos4.stats"
for out in chaos_scenario.txt chaos4.out; do
    if grep -q "pkt pool: outstanding=" "$obsdir/$out"; then
        echo "chaos scenario leaked packets ($out)" >&2
        exit 1
    fi
done
# Churn smoke: the churn scenario — whose per-flow state lives in the
# compact flow table with every deadline on the hashed timer wheel —
# must stay byte-identical between single-domain and sharded runs,
# stats dump included.
go run ./cmd/idiosim -scenario scenarios/churn_flows.json \
    -stats "$obsdir/churn1.stats" > "$obsdir/churn1.out"
go run ./cmd/idiosim -scenario scenarios/churn_flows.json -shards 4 \
    -stats "$obsdir/churn4.stats" > "$obsdir/churn4.out"
cmp "$obsdir/churn1.out" "$obsdir/churn4.out"
cmp "$obsdir/churn1.stats" "$obsdir/churn4.stats"
# Pool-leak gate after the chaos smokes: the lossy-fabric regression
# test asserts PktPool.Outstanding == 0 with every resilience path hit.
go test -run 'TestLossyFabricNoPoolLeak|TestClusterAllocsPerRequest' -count=1 .
# Perf gate, part 2: compare quick lifecycle runs — the packet loop and
# the million-flow churn loop — against the committed baseline;
# benchjson prints a WARNING for every >10% ns/pkt (or ns/req)
# regression. Advisory, not failing — wall-clock numbers on shared
# machines are too noisy for a hard gate, but the warning lands in the
# check output where a reviewer will see it.
if [ -f BENCH_sim.json ]; then
    go test -run '^$' -bench 'BenchmarkPacketLifecycle|BenchmarkMillionFlowSteadyState' -benchmem -benchtime=3x . > "$obsdir/lifecycle.txt"
    go run ./cmd/benchjson -baseline BENCH_sim.json -o "$obsdir/lifecycle.json" "$obsdir/lifecycle.txt"
fi
