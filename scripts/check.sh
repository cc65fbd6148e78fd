#!/bin/sh
# Pre-merge gate: gofmt, vet, build, full tests, the race detector over the
# internal packages, a forced-parallel race pass over the experiment
# worker pool, and a one-iteration compile-and-run smoke over every
# benchmark. Mirrors `make check` for environments without make.
set -eux
cd "$(dirname "$0")/.."
# Formatting gate: gofmt must have nothing to rewrite.
test -z "$(gofmt -l .)"
# One run builder: the experiments and the CLI describe their runs and
# let scenario.Build wire them; neither constructs a host or a cluster.
if grep -rnE 'idio\.(NewSystem|NewSystemE|NewHostE|NewCluster)\(' --include='*.go' \
    --exclude='*_test.go' internal/experiment cmd/idiosim; then
    echo "check: build runs with scenario.Build, not idio.NewSystem/NewHostE/NewCluster" >&2
    exit 1
fi
go vet ./...
go build ./...
go test ./...
go test -race ./internal/...
GOMAXPROCS=2 go test -race ./internal/experiment
GOMAXPROCS=2 go test -race ./internal/net
GOMAXPROCS=2 go test -race ./internal/fault
# Race pass over the checkpoint run loop and the cluster tests. Every
# host of a cluster runs on one simulator on the caller's goroutine, so
# the detector here guards against any goroutine creeping into the run
# loop, the fabric or the shared packet pool.
GOMAXPROCS=4 go test -race -count=1 -run 'TestEngine' ./internal/sim
GOMAXPROCS=4 go test -race -count=1 -run 'TestCluster|TestLossyFabric' .
# Scenario fuzzing: a short run of FuzzScenario past its seeds (tier-1
# runs the seeds alone). Any accepted document must end in an error or
# a finished, watchdog-bounded run.
go test -run '^$' -fuzz FuzzScenario -fuzztime 15s -parallel 2 ./internal/scenario
go test -run '^$' -bench . -benchtime=1x ./...
# Perf gate, part 1: the fused packet-lifecycle smoke must run, and the
# steady-state loop must stay at zero heap allocations per packet —
# TestAllocsPerPacket measures the steady window directly and fails the
# gate on any per-packet allocation (see alloc_test.go). The same gate
# covers the million-flow engine (TestChurnAllocsPerRequest: 128k
# resident flows churning at zero allocs per request; TestChurnFootprint:
# at most 100 B of live heap per resident flow) and the pooled fabric (link
# transit and switch forwarding at 0 allocs/op; the warm client round
# trip at 0 allocs, asserted by TestClientRoundTripAllocs).
go test -run '^$' -bench 'BenchmarkPacketLifecycle' -benchtime=1x -benchmem .
go test -run 'TestAllocsPerPacket|TestNullPoolByteIdentical|TestChurnAllocsPerRequest|TestChurnFootprint' -count=1 .
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
# Fabric smokes: the closed-loop RPC and mixed-class QoS scenarios must
# run to completion. (TestClusterShardedRandomWorkloads in tier-1 pins
# that Shards leaves full Results unchanged.)
go run ./cmd/idiosim -scenario scenarios/rpc_closed_loop.json \
    -stats "$obsdir/rpc1.stats" > "$obsdir/rpc1.out"
go run ./cmd/idiosim -scenario scenarios/qos_mix.json \
    -stats "$obsdir/qos1.stats" > "$obsdir/qos1.out"
# Chaos smoke: the drained chaos scenario must hold the pool-leak gate:
# a leak surfaces as the "pkt pool: outstanding=" line, absent when
# healthy. Clients draw from the host pool, so the gate covers switch-
# and client-side packets too.
go run ./cmd/idiosim -scenario scenarios/chaos_recovery.json \
    -stats "$obsdir/chaos1.stats" > "$obsdir/chaos_scenario.txt"
if grep -q "pkt pool: outstanding=" "$obsdir/chaos_scenario.txt"; then
    echo "chaos scenario leaked packets" >&2
    exit 1
fi
# Churn smoke: the churn scenario, whose per-flow state lives in the
# compact flow table with every deadline on the hashed timer wheel,
# must run to completion.
go run ./cmd/idiosim -scenario scenarios/churn_flows.json \
    -stats "$obsdir/churn1.stats" > "$obsdir/churn1.out"
# Pool-leak gate after the chaos smokes: the lossy-fabric regression
# test asserts PktPool.Outstanding == 0 with every resilience path hit.
go test -run 'TestLossyFabricNoPoolLeak|TestClusterAllocsPerRequest' -count=1 .
# Perf gate, part 2: compare quick lifecycle runs — the packet loop and
# the million-flow churn loop — against the committed baseline;
# benchjson prints a WARNING for every >10% regression of the headline
# metric (ns/pkt, else ns/req, else ns/op). Advisory, not failing —
# wall-clock numbers on shared machines are too noisy for a hard gate,
# but the warning lands in the check output where a reviewer will see
# it.
if [ -f BENCH_sim.json ]; then
    go test -run '^$' -bench 'BenchmarkPacketLifecycle|BenchmarkMillionFlowSteadyState' -benchmem -benchtime=3x . > "$obsdir/lifecycle.txt"
    go run ./cmd/benchjson -baseline BENCH_sim.json -o "$obsdir/lifecycle.json" "$obsdir/lifecycle.txt"
fi
