#!/bin/sh
# Tier-1 check: gofmt -s, vet, euconlint, build, race-enabled tests,
# benchmark smoke, the steady-state zero-allocation gates (simulator, the
# interior MPC step on MEDIUM, the localized DEUCON step at 128 and 1024
# processors, and the constrained solve through a reused qp.LSI), the
# sweep/fault/LARGE-workload digest diffs against
# scripts/golden/, and the
# chaos smoke campaigns (25 seeded fault storms on SIMPLE, 6 localized
# fault storms at 128 processors, and 2 partition scenarios against a real
# 8-agent TCP fleet, every robustness invariant enforced), and the
# distributed-runtime smokes (euconfarm: 64 node agents over loopback TCP
# riding through injected crashes without a controller restart, clean and
# again under transport loss, clock drift, and a partition/heal cycle).
# Usage: ./scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> euconlint ./... ./cmd/... (make lint)"
go run ./cmd/euconlint ./... ./cmd/...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> benchmark smoke (1 iteration, -short)"
go test -short -run '^$' -bench . -benchtime 1x ./...

echo "==> steady-state allocation gate (BenchmarkSimulatorSteadyState)"
bench_out=$(go test -run '^$' -bench 'BenchmarkSimulatorSteadyState$' -benchmem -benchtime 5x .)
echo "$bench_out"
allocs=$(echo "$bench_out" | awk '/BenchmarkSimulatorSteadyState/ {print $(NF-1)}')
if [ -z "$allocs" ]; then
	echo "FAIL: BenchmarkSimulatorSteadyState did not run; the allocation gate has no teeth"
	exit 1
fi
if [ "$allocs" != "0" ]; then
	echo "FAIL: BenchmarkSimulatorSteadyState reports $allocs allocs/op; the steady state must not allocate"
	exit 1
fi

echo "==> interior MPC step allocation gate (BenchmarkControllerStepMedium)"
step_out=$(go test -run '^$' -bench 'BenchmarkControllerStepMedium$' -benchmem -benchtime 5x .)
echo "$step_out"
step_allocs=$(echo "$step_out" | awk '/BenchmarkControllerStepMedium/ {print $(NF-1)}')
if [ -z "$step_allocs" ]; then
	echo "FAIL: BenchmarkControllerStepMedium did not run; the interior-step allocation gate has no teeth"
	exit 1
fi
if [ "$step_allocs" != "0" ]; then
	echo "FAIL: BenchmarkControllerStepMedium reports $step_allocs allocs/op; the interior MPC step (mpc.StepTo fast path) must not allocate"
	exit 1
fi

echo "==> localized-DEUCON allocation gate (BenchmarkDeuconLocalStepLarge128)"
loc_out=$(go test -run '^$' -bench 'BenchmarkDeuconLocalStepLarge128$' -benchmem -benchtime 5x .)
echo "$loc_out"
loc_allocs=$(echo "$loc_out" | awk '/BenchmarkDeuconLocalStepLarge128/ {print $(NF-1)}')
if [ -z "$loc_allocs" ]; then
	echo "FAIL: BenchmarkDeuconLocalStepLarge128 did not run; the localized-step allocation gate has no teeth"
	exit 1
fi
if [ "$loc_allocs" != "0" ]; then
	echo "FAIL: BenchmarkDeuconLocalStepLarge128 reports $loc_allocs allocs/op; the localized per-processor step must not allocate in steady state"
	exit 1
fi

echo "==> constrained QP allocation gate (BenchmarkQPSolverReused)"
qp_out=$(go test -run '^$' -bench 'BenchmarkQPSolverReused$' -benchmem -benchtime 5x .)
echo "$qp_out"
qp_allocs=$(echo "$qp_out" | awk '/BenchmarkQPSolverReused/ {print $(NF-1)}')
if [ -z "$qp_allocs" ]; then
	echo "FAIL: BenchmarkQPSolverReused did not run; the constrained-solve allocation gate has no teeth"
	exit 1
fi
if [ "$qp_allocs" != "0" ]; then
	echo "FAIL: BenchmarkQPSolverReused reports $qp_allocs allocs/op; a reused qp.LSI's active-set solve must not allocate"
	exit 1
fi

echo "==> localized-DEUCON allocation gate at 1024 processors (BenchmarkDeuconLocalStepLarge1024)"
loc1024_out=$(go test -run '^$' -bench 'BenchmarkDeuconLocalStepLarge1024$' -benchmem -benchtime 5x .)
echo "$loc1024_out"
loc1024_allocs=$(echo "$loc1024_out" | awk '/BenchmarkDeuconLocalStepLarge1024/ {print $(NF-1)}')
if [ -z "$loc1024_allocs" ]; then
	echo "FAIL: BenchmarkDeuconLocalStepLarge1024 did not run; the 1024-processor allocation gate has no teeth"
	exit 1
fi
if [ "$loc1024_allocs" != "0" ]; then
	echo "FAIL: BenchmarkDeuconLocalStepLarge1024 reports $loc1024_allocs allocs/op; local steps that fall back to the active-set solve must not allocate"
	exit 1
fi

echo "==> fault scenario digest vs scripts/golden/ (proc2-crash-recover)"
scratch=$(mktemp)
trap 'rm -f "$scratch"' EXIT
go run ./cmd/euconsim -faults proc2-crash-recover -fault-digest > "$scratch"
if ! diff -u scripts/golden/fault-proc2-crash-recover.digest "$scratch"; then
	echo "FAIL: faulted sweep digest moved; fault injection or degradation behaviour changed."
	echo "If intentional, regenerate with:"
	echo "  go run ./cmd/euconsim -faults proc2-crash-recover -fault-digest > scripts/golden/fault-proc2-crash-recover.digest"
	exit 1
fi

echo "==> fig4/fig5 sweep digests vs scripts/golden/ (structured solver must not move the science)"
go run ./cmd/euconsim -sweep-digest > "$scratch"
if ! diff -u scripts/golden/sweep-fig4-fig5.digest "$scratch"; then
	echo "FAIL: fig4/fig5 sweep digests moved; the dense and structured solver paths diverged"
	echo "or a controller change altered the reproduced results."
	echo "If intentional, regenerate with:"
	echo "  go run ./cmd/euconsim -sweep-digest > scripts/golden/sweep-fig4-fig5.digest"
	exit 1
fi

echo "==> LARGE-128 workload digests vs scripts/golden/ (localized DEUCON, workers 1/2/8)"
go run ./cmd/euconsim -workload large128 > "$scratch"
if ! diff -u scripts/golden/workload-large128.digest "$scratch"; then
	echo "FAIL: LARGE-128 digests moved; the structured solver, the localized controller,"
	echo "or the parallel merge changed behaviour (digests must match at every worker count)."
	echo "If intentional, regenerate with:"
	echo "  go run ./cmd/euconsim -workload large128 > scripts/golden/workload-large128.digest"
	echo "  go run ./cmd/euconsim -workload large1024 > scripts/golden/workload-large1024.digest"
	exit 1
fi

echo "==> chaos smoke (make chaos-smoke: 25 seeded fault storms + 6 localized storms at 128 procs)"
go run ./cmd/euconfuzz -seed 1 -n 25
go run ./cmd/euconfuzz -campaign large128 -seed 1 -n 6 -periods 100

echo "==> partition campaign smoke (real 8-agent TCP fleet under partitions and transport loss)"
go run ./cmd/euconfuzz -campaign partition -seed 1 -n 2 -periods 100

echo "==> distributed-runtime smoke (euconfarm: 64 agents over loopback TCP, crashes injected)"
go run ./cmd/euconfarm -smoke

echo "==> lossy-network smoke (FarmLossy: 64 agents, 5% drop + 20ms delays + dup/reorder, drifting clocks, one partition/heal cycle)"
go run ./cmd/euconfarm -smoke -codec binary2 -interval 10ms -skew 0.01 \
	-transport-faults drop=0.05,delayprob=0.3,delay=20ms,dup=0.01,reorder=0.01,seed=7 -partitions 1

echo "==> OK"
