#!/usr/bin/env sh
# Full CI pipeline: configure, build, lint (clang-tidy on changed files +
# the static leakage linter cross-checked against the trace oracle),
# tier-1 tests, then the same suite under AddressSanitizer + UBSan, then
# the concurrency tests under ThreadSanitizer — each sanitizer in its own
# build tree.
#
#   tools/ci.sh [build-dir]
#
# build-dir: plain (uninstrumented) build directory, default build-ci.
# The sanitized passes reuse tools/run_sanitized_tests.sh with their own
# trees (build-ci-sanitize, build-ci-tsan) so instrumented and plain
# objects never mix.  The TSan pass covers the code that runs on more
# than one thread: the sharded campaign runtime (thread pool, parallel
# acquisition, parallel fixed-vs-random) and the service's socket front
# end (accept loop, connection threads, shutdown verb).
#
# Set SCE_CI_SKIP_SANITIZERS=1 to run only the plain suite (useful on
# hosts whose toolchain lacks the sanitizer runtimes).  A toolchain
# without libtsan skips just the TSan stage, with a notice.
set -eu

BUILD_DIR="${1:-build-ci}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> configuring $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=Release

echo "==> building"
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "==> lint: clang-tidy (changed files)"
"$SRC_DIR/tools/run_clang_tidy.sh" "$BUILD_DIR"

echo "==> lint: static leakage analysis"
# The countermeasure deployment (constant-flow kernels) is the designated
# clean configuration: it must pass the gate, and the cross-check pins
# every contract to the uarch trace oracle.  The JSON report is the CI
# artifact.
"$BUILD_DIR/tools/leakage_lint" --model mnist --mode constant-flow \
  --fail-on leaks_control_flow --fail-on-undeclared --cross-check \
  --json lint_report.json
# The gate must also *fail*: the same model with data-dependent kernels
# leaks, and leakage_lint has to say so with a non-zero exit.
if "$BUILD_DIR/tools/leakage_lint" --model mnist --mode data-dependent \
     --fail-on leaks_control_flow --quiet; then
  echo "==> lint gate failed to reject the data-dependent model" >&2
  exit 1
fi
echo "==> lint gate rejects the data-dependent model (expected)"

echo "==> lint: derived contracts agree with the trace oracle (zoo x modes x paths)"
# The symbolic engine derives every layer's LeakageContract from its
# kernel code; --cross-check replays the instrumented kernels on probe
# inputs and requires the trace oracle to observe exactly the derived
# variance.  --fail-on-unverified additionally requires every contract to
# be backed by an authority (the oracle on the instrumented path,
# refinement to the instrumented contract on the fast path).  Any oracle
# disagreement, unmodeled zoo layer or unverified fast contract exits
# non-zero.  The SARIF report from the deployment configuration (fast
# path) is the CI artifact.
for sce_model in mnist cifar sequence; do
  for sce_mode in data-dependent constant-flow; do
    for sce_path in instrumented fast; do
      "$BUILD_DIR/tools/leakage_lint" --model "$sce_model" \
        --mode "$sce_mode" --path "$sce_path" --fail-on-unverified \
        --cross-check --quiet
    done
  done
done
"$BUILD_DIR/tools/leakage_lint" --model mnist --mode data-dependent \
  --path fast --fail-on-unverified --quiet --sarif lint_findings.sarif
echo "==> derived contracts agree with the trace oracle (12/12 cells verified)"

echo "==> running tier-1 suite"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "==> chaos: supervised-runtime kill-point matrix"
# Deterministic kill points — cancel at exact measurement counts,
# pre-expired deadlines, instrument death with failover, cadence
# checkpoint cuts — each cell gating on bit-identical recovery.  Any
# divergence between an interrupted-then-resumed run and the
# uninterrupted reference exits non-zero.
"$BUILD_DIR/tools/chaos_harness"

echo "==> smoke: record-once/replay-many hardware sweep"
# Tiny sample budget: the point is to exercise the sweep engine end to
# end (record, replay, verify_live bit-identity — the bench exits
# non-zero on any replay/live mismatch) and to publish the speedup
# accounting in BENCH_uarch_sweep.json as a CI artifact.
SCE_BENCH_SAMPLES=4 "$BUILD_DIR/bench/ablation_uarch_sweep"

echo "==> smoke: evaluation service (submit, cache hit, shutdown)"
# Boot the multi-tenant evaluation server, submit the mnist campaign
# twice with identical (weights, config), and assert the second reply is
# served from the result cache with zero new measurements
# (--expect-cached exits 3 otherwise).  The client publishes cold/warm
# wall-clock and measurement accounting in BENCH_service.json as the CI
# artifact.
SVC_SOCK="$BUILD_DIR/eval.sock"
SVC_LOG="$BUILD_DIR/eval_server.log"
rm -f "$SVC_SOCK" BENCH_service.json
rm -rf "$BUILD_DIR/eval_work"
"$BUILD_DIR/tools/leakage_eval_server" --socket "$SVC_SOCK" \
  --work-dir "$BUILD_DIR/eval_work" --executors 2 > "$SVC_LOG" 2>&1 &
SVC_PID=$!
svc_up=0
for _ in $(seq 1 100); do
  [ -S "$SVC_SOCK" ] && { svc_up=1; break; }
  sleep 0.1
done
if [ "$svc_up" != 1 ]; then
  echo "==> evaluation server did not come up" >&2
  cat "$SVC_LOG" >&2 || true
  exit 1
fi
SVC_CLIENT="$BUILD_DIR/tools/leakage_eval_client"
SVC_ARGS="--socket $SVC_SOCK --arch mnist-cnn --categories 0,1 \
  --samples 4 --examples-per-class 4 --wait --bench-json BENCH_service.json"
"$SVC_CLIENT" submit $SVC_ARGS --bench-label cold --expect-executed
"$SVC_CLIENT" submit $SVC_ARGS --bench-label warm --expect-cached
"$SVC_CLIENT" shutdown --socket "$SVC_SOCK"
wait "$SVC_PID"
echo "==> evaluation service smoke OK (warm submit served from cache)"

echo "==> bench: fast-vs-scalar inference speedups"
# Publishes BENCH_inference.json (allocating / planned-scalar /
# planned-fast per model, plus conv/dense hot-loop scalar-vs-fast
# timings) as the CI artifact backing the fast kernels' speedup claims.
"$BUILD_DIR/bench/micro_kernels" --benchmark_filter=DoNotRunMicrobenches

if [ "${SCE_CI_SKIP_SANITIZERS:-0}" = "1" ]; then
  echo "==> SCE_CI_SKIP_SANITIZERS=1: skipping sanitized passes"
else
  echo "==> fast-vs-instrumented bit-identity under address;undefined"
  # The KernelPath suite asserts the SIMD fast kernels are bit-for-bit
  # identical to the instrumented scalar loops (every zoo model, both
  # kernel modes, edge shapes, plan buffer reuse), and StaticSinkDispatch
  # that the simulator, TraceSink and DiscardSink instantiations of those
  # loops compute and count alike.  Running them under ASan/UBSan first
  # gives the refactor-critical gates their own named stage; the full
  # sanitized suite below reuses the same build tree.
  "$SRC_DIR/tools/run_sanitized_tests.sh" "address;undefined" \
    "${BUILD_DIR}-sanitize" 'KernelPath|StaticSinkDispatch'

  echo "==> running tier-1 suite under address;undefined"
  "$SRC_DIR/tools/run_sanitized_tests.sh" "address;undefined" \
    "${BUILD_DIR}-sanitize"

  if echo 'int main(void){return 0;}' | \
     cc -fsanitize=thread -x c - -o /dev/null 2>/dev/null; then
    echo "==> running concurrency tests under thread sanitizer"
    "$SRC_DIR/tools/run_sanitized_tests.sh" "thread" "${BUILD_DIR}-tsan" \
      'ThreadPool|CampaignParallel|FixedVsRandom|Socket'
  else
    echo "==> toolchain lacks libtsan: skipping TSan stage"
  fi
fi

echo "==> CI OK"
