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
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"  # check_chaos.sh runs in its work dir
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

# ThreadSanitizer pass over the code that crosses threads. Scoped to the
# suites that actually do — the reactor's pool dispatch and completion
# queue, the HTTP server end-to-end, the thread pool itself with its one
# split rule, its callers claiming chunks beside the workers (one call
# while every worker is busy, a task passing its own pool, two calls on one
# pool) and the chunked bucket sort (ThreadPool, StableBucketSort),
# the registry counters and gauges the reactor and the workers (through
# the artifact caches) share, concurrent misses of one cache key, the
# observability layer (trace stages ride worker threads; the access log
# is reactor-written but mutex-guarded for embedders), trace cursors plus
# the service's lock-free concurrent generations and the pipeline's pool,
# started once under concurrent first generations (TraceIo, ServeDegraded,
# PipelineSplit), the span tracer's per-thread buffers and the stage hook
# behind every ScopedSpan (ChromeTrace, TelemetrySession; the real
# pipeline's stages on a reactor are ReactorStageTest), and the chunked
# particle loops of workload and picsim: the accounting's filings, which
# file each interval's particles by owner and its ghosts (the one ghost
# search) by visited rank, and the one tally of both comm matrices, split
# over ranks (WorkloadGenerator.ParallelGhostSearchBitIdenticalToSerial, and
# GeneratorReplay, whose proxy runs it on 4 threads), the generator's
# two-stage interval loop, which reads and maps the next interval on a pool
# thread beside the current one's accounting
# (WorkloadGenerator.OverlappedGenerationEqualsInline, GeneratorReplay's
# pooled replay, and PipelineSplit's pooled failures), the grid rebuild
# (CollisionGrid) and threaded proxy runs whose measurement reads those
# lists (SimDriver.ThreadCountInvariant,
# SimDriver.MeasurementProducesRecordsForActiveRanks) — because a
# full-suite TSan run costs 10x+ and everything else is single-threaded by
# construction.
if [ "$TSAN_BUILD_DIR" != "none" ]; then
  cmake -B "$TSAN_BUILD_DIR" -S "$SRC_DIR" -DPICP_SANITIZE=thread
  cmake --build "$TSAN_BUILD_DIR" -j --target picp_tests
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$TSAN_BUILD_DIR/tests/picp_tests" \
    --gtest_filter='Reactor*:Http*:ThreadPool*:ArtifactCache*:AccessLog*:RequestTrace*:TraceId*:HistogramQuantile*:Prometheus*:TraceIo*:ServeDegraded*:PipelineSplit*:ChromeTrace*:TelemetrySession*:StableBucketSort*:WorkloadGenerator.ParallelGhostSearchBitIdenticalToSerial:WorkloadGenerator.OverlappedGenerationEqualsInline:Mappers/GeneratorReplay*:CollisionGrid*:SimDriver.ThreadCountInvariant:SimDriver.MeasurementProducesRecordsForActiveRanks'
  echo "thread-sanitizer suite passed"
fi
