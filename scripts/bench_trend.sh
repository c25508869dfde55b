#!/bin/sh
# bench_trend.sh appends a dated JSON snapshot of the key benchmarks (clean
# and faulted steady state, the reused constrained QP solve and the serial
# Figure-5 sweep, plus the LARGE-scale structured-solver and
# localized-DEUCON steps) and the sweep/fault/LARGE-workload digests to
# BENCH_<date>.json, tracking the performance trajectory of the simulator
# core across PRs.
#
# Each benchmark line records ns/op, B/op, and allocs/op from -benchmem; each
# digest line records an FNV-64a hash of a full-precision sweep series at a
# given worker count (equal digests across worker counts and across PRs prove
# the outputs are bit-identical, so a perf change did not move the science).
#
# Usage: scripts/bench_trend.sh [outfile]    (or: make bench-json)
#   BENCHTIME=20x scripts/bench_trend.sh     # override the benchtime
set -eu
cd "$(dirname "$0")/.."

date="$(date +%Y-%m-%d)"
out="${1:-BENCH_${date}.json}"
benchtime="${BENCHTIME:-10x}"

benches='BenchmarkSimulatorMedium$|BenchmarkSimulatorSteadyState$|BenchmarkSimulatorFaultedSteadyState$|BenchmarkFig4SimpleSweep$|BenchmarkFig4SimpleSweepSerial$|BenchmarkControllerStepMedium$|BenchmarkDeuconLocalStep$|BenchmarkControllerStepLarge128$|BenchmarkControllerStepLarge128Dense$|BenchmarkDeuconLocalStepLarge128$|BenchmarkDeuconLocalStepLarge1024$|BenchmarkQPSolverReused$'

# The LARGE Figure-4 sweeps run full 120-period closed loops per iteration
# (~2 s at 128 processors, ~25 s at 1024), so they get one iteration each:
# the number tracked is the near-linear 128→1024 scaling ratio, not ns/op
# noise. The serial Figure-5 sweep (MEDIUM, constrained solves on the u ≤ B
# boundary) is the active-set QP's end-to-end cost, also one iteration.
large_benches='BenchmarkFig4Large128$|BenchmarkFig4Large1024$|BenchmarkFig5MediumSweepSerial$'

{
	go test -run '^$' -bench "$benches" -benchmem -benchtime "$benchtime" .
	go test -run '^$' -bench "$large_benches" -benchmem -benchtime 1x .
} |
awk -v date="$date" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns     = $(i-1)
		if ($i == "B/op")      bytes  = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	printf "{\"date\":\"%s\",\"bench\":\"%s\",\"iters\":%s,\"ns_per_op\":%s", date, name, $2, ns
	if (bytes != "")  printf ",\"b_per_op\":%s,\"allocs_per_op\":%s", bytes, allocs
	print "}"
}' >>"$out"

go run ./cmd/euconsim -sweep-digest |
	sed "s/^{/{\"date\":\"${date}\",/" >>"$out"

go run ./cmd/euconsim -faults proc2-crash-recover -fault-digest |
	sed "s/^{/{\"date\":\"${date}\",/" >>"$out"

# LARGE workload digests: the centralized step response on the structured
# solver plus the localized DEUCON closed loop at every worker count. Equal
# digests across workers and PRs prove the scaling work is bit-exact.
go run ./cmd/euconsim -workload large128 |
	sed "s/^{/{\"date\":\"${date}\",/" >>"$out"
go run ./cmd/euconsim -workload large1024 |
	sed "s/^{/{\"date\":\"${date}\",/" >>"$out"

# Chaos smoke wall time: how long the 25-scenario CI campaign takes, so a
# regression in fault-storm throughput shows up in the trend record. The
# binary is prebuilt so the stamp measures the campaign, not the compiler.
go build -o /tmp/euconfuzz.bench ./cmd/euconfuzz
chaos_start=$(date +%s%N)
/tmp/euconfuzz.bench -seed 1 -n 25 >/dev/null
chaos_end=$(date +%s%N)
rm -f /tmp/euconfuzz.bench
chaos_ms=$(( (chaos_end - chaos_start) / 1000000 ))
printf '{"date":"%s","bench":"ChaosSmoke25","wall_ms":%s}\n' "$date" "$chaos_ms" >>"$out"

# Distributed-runtime farm: 1000 in-process node agents over loopback TCP
# against one controller daemon for 200 sampling periods with injected
# crashes/rejoins. The JSON line carries wall time, p50/p99 end-to-end
# sampling-period latency, and frames/sec — the latency trajectory of the
# binary lane protocol and the membership layer across PRs. The binary is
# prebuilt so the stamp measures the control plane, not the compiler.
go build -o /tmp/euconfarm.bench ./cmd/euconfarm
/tmp/euconfarm.bench -json |
	sed "s/^{/{\"date\":\"${date}\",/" >>"$out"

# The same 1000-agent fleet degraded (Farm1000Lossy): free-running with
# per-agent clock drift, 5% seeded frame drops with delays/dups/reorders in
# both directions, and 4 partition/heal cycles. The line adds injected-drop
# and re-convergence fields — the robustness trajectory next to the clean
# latency trajectory. The 120ms pace keeps the sampling period above the
# fleet's p99 feedback latency (~103ms clean): a faster pace under-samples
# the loop and the re-convergence gate trips by design (EXPERIMENTS.md,
# "Lossy-network robustness").
/tmp/euconfarm.bench -json -codec binary2 -interval 120ms -skew 0.005 \
	-transport-faults drop=0.05,delayprob=0.5,delay=20ms,dup=0.01,reorder=0.01,seed=7 -partitions 4 |
	sed "s/^{/{\"date\":\"${date}\",/" >>"$out"
rm -f /tmp/euconfarm.bench

# euconlint full-tree wall time: the interprocedural analyzers (transitive
# noalloc proofs, CHA, exhaustiveness, concurrency flow) load and type-check
# the whole module, so analyzer-cost regressions show up in the trend record.
# The binary is prebuilt so the stamp measures analysis, not the compiler.
go build -o /tmp/euconlint.bench ./cmd/euconlint
lint_start=$(date +%s%N)
/tmp/euconlint.bench ./... ./cmd/... >/dev/null
lint_end=$(date +%s%N)
rm -f /tmp/euconlint.bench
lint_ms=$(( (lint_end - lint_start) / 1000000 ))
printf '{"date":"%s","bench":"EuconlintFullTree","wall_ms":%s}\n' "$date" "$lint_ms" >>"$out"

echo "appended benchmark snapshot to $out"
