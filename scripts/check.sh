#!/bin/sh
# Pre-merge gate, the one definition of it (`make check` runs this
# script): gofmt, the README's quickstart sample, vet, build, full
# tests, the race detector over the internal packages (with
# forced-parallel passes over the experiment worker pool, the fabric,
# the fault layer, the run loop and the cluster tests), simbench's
# workload smoke, scenario and hierarchy fuzzing, a one-iteration smoke
# over every benchmark, the allocation gates, and the observability,
# fabric, chaos and churn smokes.
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
# One placement path: the hierarchy reaches every line through its
# placement record or a back-pointer, so a line-addressed search
# (cache Find, directory scan) in its non-test code may appear only in
# Residency and CheckCoherence, which walk structures for tests.
if awk '/^func /{fn=$0} !/^[[:space:]]*\/\// && /\.(Find|scan)\(/ && fn !~ /\) (Residency|CheckCoherence)\(/ {print FILENAME":"FNR": "$0; bad=1} END{exit !bad}' \
    $(ls internal/hier/*.go | grep -v '_test\.go$'); then
    echo "check: internal/hier searches for a line outside Residency and CheckCoherence" >&2
    exit 1
fi
# The README's quickstart sample is the example's summary line as the
# golden corpus pins it, verbatim, so the sample cannot drift from what
# `go run ./examples/quickstart` prints.
qs=$(grep -v '^[[:space:]]*$' testdata/golden/example_quickstart.txt | tail -n 1)
if ! grep -qF -- "$qs" README.md; then
    echo "check: README lacks the last line of testdata/golden/example_quickstart.txt" >&2
    exit 1
fi
go vet ./...
go build ./...
go test ./...
# Benchmark smoke: simbench's own tests run every workload at tiny
# scale, so a model change that panics in a benchmark workload fails
# here before the benchmark does.
(cd simbench && go test ./...)
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
# Hierarchy fuzzing: random op sequences over every invariant config,
# run in lockstep on the hierarchy and on its line-addressed spec
# (internal/hier/spec_test.go), which must agree after each op, with
# CheckCoherence (coherence, back-pointer and placement-record
# invariants) after each op too. An input runs up to 512 ops, so the default minimization
# (60 s per new input) would spend the whole budget on the first few
# finds; 100 runs per input keeps the search going.
go test -run '^$' -fuzz FuzzHierOps -fuzztime 15s -fuzzminimizetime 100x -parallel 2 ./internal/hier
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
# The CSV sink is the per-packet stage record: traced at -trace-sample
# 1, every processed packet is exactly one data row.
go run ./cmd/idiosim -scenario scenarios/mixed_nfs.json \
    -trace "$obsdir/all.csv" -trace-sample 1 > "$obsdir/all.out"
rows=$(($(wc -l < "$obsdir/all.csv") - 1))
processed=$(sed -n 's/.* processed=\([0-9]*\) .*/\1/p' "$obsdir/all.out")
test "$rows" = "$processed"
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
