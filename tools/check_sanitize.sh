#!/usr/bin/env sh
# Run the full test suite under AddressSanitizer + UBSan in a dedicated
# build tree, then the reactor/serving suite under ThreadSanitizer in a
# second tree. Use after touching I/O, framing, or checksum code — the
# corruption-sweep tests exercise every byte-level parse path, and this is
# the CI job that proves none of them read out of bounds or hit UB. The
# TSan pass covers the places the codebase hands data between threads on
# a hot path: reactor <-> worker-pool completion traffic, and cold
# generations that read one opened trace through their own cursors.
#
#   tools/check_sanitize.sh [sanitizer] [build-dir] [tsan-build-dir]
#
#   sanitizer       PICP_SANITIZE value (default: address,undefined)
#   build-dir       out-of-source build directory (default: build-asan)
#   tsan-build-dir  build directory for the TSan pass (default: build-tsan;
#                   "none" skips the TSan pass)
set -eu

SANITIZE="${1:-address,undefined}"
BUILD_DIR="${2:-build-asan}"
TSAN_BUILD_DIR="${3:-build-tsan}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DPICP_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j
# halt_on_error keeps a UB report from being drowned out by later tests.
# The claims tier is excluded: its gates assert wall-clock accuracy claims
# (MAPE against measured kernel timings), and a sanitizer's nonuniform
# 10-50x slowdown makes those timings meaningless, not merely slow.
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -LE claims \
  -j "$(nproc 2>/dev/null || echo 4)"
# Chaos smoke under the sanitizer: the failpoint storms exercise the error
# unwind paths (torn writes, injected errno, crash recovery) that the happy
# path never touches — exactly where lifetime bugs hide. The instrumented
# ctest tier above already ran check_chaos once; this second run with
# abort_on_error surfaces leaks/UB reports the harness's own asserts
# would otherwise swallow into a generic FAIL.
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
  "$SRC_DIR/tools/check_chaos.sh" "$BUILD_DIR/tools/picpredict" \
  "$BUILD_DIR/check_chaos_sanitize_work"
echo "sanitizer suite (${SANITIZE}) passed"

# ThreadSanitizer pass over the concurrent serving stack. Scoped to the
# suites that actually cross threads — the reactor's pool dispatch and
# completion queue, the HTTP server end-to-end, the thread pool itself,
# the registry counters and gauges the reactor and the workers (through
# the artifact caches) share, concurrent misses of one cache key, the
# observability layer (trace stages ride worker threads; the access log
# is reactor-written but mutex-guarded for embedders), trace cursors plus
# the service's lock-free concurrent generations (TraceIo, ServeDegraded,
# PipelineSplit), and the span tracer's per-thread buffers and the stage
# hook behind every ScopedSpan (ChromeTrace, TelemetrySession; the real
# pipeline's stages on a reactor are ReactorStageTest) — because a
# full-suite TSan run costs 10x+ and everything else is single-threaded by
# construction.
if [ "$TSAN_BUILD_DIR" != "none" ]; then
  cmake -B "$TSAN_BUILD_DIR" -S "$SRC_DIR" -DPICP_SANITIZE=thread
  cmake --build "$TSAN_BUILD_DIR" -j --target picp_tests
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$TSAN_BUILD_DIR/tests/picp_tests" \
    --gtest_filter='Reactor*:Http*:ThreadPool*:ArtifactCache*:AccessLog*:RequestTrace*:TraceId*:HistogramQuantile*:Prometheus*:TraceIo*:ServeDegraded*:PipelineSplit*:ChromeTrace*:TelemetrySession*'
  echo "thread-sanitizer reactor suite passed"
fi
