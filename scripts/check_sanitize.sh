#!/usr/bin/env bash
# Builds the repo under a sanitizer (ThreadSanitizer by default) and runs
# the test suite, so the thread-pool tensor backend stays race-free and
# the checkpoint/snapshot serialization code stays UB-free. The suite
# includes the AOT inference-plan tests (tests/plan_test.cc); under
# `thread`, PlanTest.ManyThreadsShareOnePlan hammers one immutable
# compiled plan from 8 threads, with single windows and with batches of
# 3 and 16 whose rows share the thread pool, which is the race check for
# the plan-shared / slab-per-row contract of serve/plan.h. The plan
# suite also covers every registered model's plan, including the
# data-dependent kIndexSelect / kProbSparseMask / kTimeDelayAggregate
# kernels and the fused kAttention kernel
# (PlanInventoryTest.EveryRegisteredModelServesFromAPlan, whose mode
# matrix adds every quantizable bundle as int8 and runs each 96 -> 24
# bundle's plans at one and four tensor threads, so TSan sees the
# attention kernel's ParallelFor at more than one pool size), the
# fusion pass (PlanTest.FusionFiresOnDefaultConfig) and the standalone
# bias+activation kernel it otherwise folds away
# (PlanCompileTest.SharedGemmOutputKeepsAStandaloneBiasAct), and the
# arena liveness allocator's adversarial cases (ArenaLayoutTest.*:
# interleaved lifetimes, same-size reuse, alignment, overlap detection),
# so sanitizers see the fused and unfused kernels and the allocator edge
# paths too, and the storage pool's steady-state allocation budget
# (AllocationContractTest.*; PlanServingNeverReachesTheHeap serves fp32
# LiPFormer, int8 LiPFormer and DLinear at 1 and 4 threads) runs
# instrumented. Under `address`,
# AttentionKernelTest.RawKernelMatchesComposedChainOnExactBuffers and
# NanReachesTheRowsThatReadIt call raw::AttentionRows on exactly sized
# std::vector buffers over the registry's attention shapes, so ASan sees
# any read past a row or a query-block tail, and BroadcastKernelTest.*
# (RowKernelMatchesReferenceLoopOnExactBuffers,
# UnpatternedStridesWalkOneElementRows, InstanceNormShiftsMatchReference,
# PermuteCopyMatchesReference) does the same for the broadcast row
# kernel and the odometer it shares with PermuteCopy, at 1 and 4 threads,
# so TSan sees chunks that start and end mid-row. The bundle loaders'
# single-read tests (SessionTest.LoadBundleModelReadsTheBundleOnce and
# QuantizeBundleFileReadsTheBundleOnce) publish a bundle through a FIFO
# from a writer thread while the loader runs under std::async. The
# serving layer's concurrency edges ride along as well:
# SessionTest.SubmitRacingShutdownResolvesEveryFuture
# (32 submitters vs Shutdown), ResolvedCallerSeesItselfInCompletedStats
# (the stats commit-before-fulfill ordering contract),
# BlockingSubmitAppliesFlowControl / BlockingSubmitUnblocksOnShutdown
# (the kBlock producer path), and ModelRegistryTest.
# SubmitsNeverFailAcrossReloadStorm, which races four kBlock client
# threads against alternating good/corrupt hot-reload publishes — the
# TSan check for the registry's shared_ptr swap protocol. The batcher's
# work-conserving worker never waits for stragglers, so the tests that
# need a request to sit in the queue pin the worker inside one forward
# stalled by fault injection (500 ms, 2 s in the deadline test) and
# submit behind it: SessionTest.WorkerTakesTheBacklogWithoutWaiting
# (the backlog becomes one batch, memcmp'd against serial answers),
# BatcherExpiresMissedDeadlines, ExpiredRequestsDoNotPinQueueCapacity,
# BlockingSubmitUnblocksOnShutdown, QueueDelayCapShedsBacklogOnlyRequests
# and BlockingSubmitRespectsDeadlineWhileWaitingForSpace; those stalls
# are the margin an instrumented build needs. Under `undefined`,
# CliMainTest.{Deadline,MaxQueueDelay,BreakerCooldown,ReloadPoll}
# AboveOneDayReturnsUsageCode and MaxBatchAbove4096ReturnsUsageCode push
# serve's numeric flags past their bounds, where the millisecond
# conversions and the deadline arithmetic used to overflow. Under
# `address` and `undefined`, RobustnessTest.
# CraftedTensorHeadersReturnInvalidArgument hands ReadCheckpoint three
# 45-byte tensor headers whose byte size wraps in 64 bits or exceeds the
# file, which must be rejected before anything is allocated, and
# StoragePoolTest.SizeClassRounding asks the storage pool for more than
# its largest size class. The `chaos`
# ctest (scripts/check_chaos.sh) also runs here, driving bench_loadgen's
# overload + fault-injection phases under the sanitizer; its goodput
# floor is relaxed below (sanitizer builds gate the correctness
# invariants — zero breaker trips without faults, breaker recovery,
# deadline and non-finite zeros — not throughput, which the instrumented
# build cannot promise).
#
# Usage:
#   scripts/check_sanitize.sh [thread|address|undefined]
#
# Uses a dedicated build directory per sanitizer (build-tsan/build-asan/
# build-ubsan) so the regular build/ tree is untouched.

set -euo pipefail

SANITIZER="${1:-thread}"
case "${SANITIZER}" in
  thread)    BUILD_DIR="build-tsan" ;;
  address)   BUILD_DIR="build-asan" ;;
  undefined) BUILD_DIR="build-ubsan" ;;
  *)
    echo "usage: $0 [thread|address|undefined]" >&2
    exit 2
    ;;
esac

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "${REPO_ROOT}"

echo "== configuring ${BUILD_DIR} with LIPF_SANITIZE=${SANITIZER}"
cmake -B "${BUILD_DIR}" -S . -DLIPF_SANITIZE="${SANITIZER}"
# lipformer_cli is needed too: the crash_resume ctest drives it, and
# bench_loadgen backs the chaos ctest.
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target lipformer_tests lipformer_cli bench_loadgen

echo "== running tests under ${SANITIZER} sanitizer"
# Sanitizer builds run the model 10-20x slower: the chaos gate keeps its
# correctness invariants but cannot hold a production goodput floor, and
# the open-loop phases need more wall-clock to see enough batches.
export LIPF_CHAOS_GOODPUT_FLOOR_PCT="${LIPF_CHAOS_GOODPUT_FLOOR_PCT:-50}"
export LIPF_CHAOS_DURATION_MS="${LIPF_CHAOS_DURATION_MS:-6000}"
# halt_on_error makes a single race fail the run instead of just logging.
if [ "${SANITIZER}" = "thread" ]; then
  export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
elif [ "${SANITIZER}" = "undefined" ]; then
  export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
else
  export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
fi
ctest --test-dir "${BUILD_DIR}" --output-on-failure

echo "== ${SANITIZER} sanitizer run passed"
