GO ?= go

.PHONY: check bench figures

# check is the full pre-merge gate, scripts/check.sh: gofmt, vet,
# build, tests, race passes, fuzzing, smokes and perf gates.
check:
	./scripts/check.sh

# bench records a measured baseline (3 repetitions, alloc stats) into
# BENCH_sim.json via scripts/bench.sh.
bench:
	./scripts/bench.sh

# figures regenerates every experiment table (reduced-size, CI-friendly).
figures:
	$(GO) run ./cmd/idiosim -exp all -quick
