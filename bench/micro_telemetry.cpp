// Micro-benchmarks of the telemetry hot paths: a registry update, which
// every process pays because metrics record with or without a session,
// and a stage timer in a session that writes spans and — the number the
// <2% budget for running without a session rests on — in none.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "telemetry/telemetry.hpp"

namespace {

using namespace picp;

telemetry::SessionOptions session(bool enabled) {
  telemetry::SessionOptions options;
  options.enabled = enabled;
  return options;
}

void BM_CounterIncrement(benchmark::State& state) {
  telemetry::configure(session(true));
  telemetry::Counter& counter =
      telemetry::registry().counter("bench.counter");
  for (auto _ : state) counter.add();
  state.SetItemsProcessed(state.iterations());
  telemetry::configure(session(false));
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::configure(session(true));
  const double bounds[] = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2};
  telemetry::Histogram& histogram =
      telemetry::registry().histogram("bench.histogram", bounds);
  double value = 1e-7;
  for (auto _ : state) {
    histogram.observe(value);
    value = value < 1e-1 ? value * 10.0 : 1e-7;  // sweep every bucket
  }
  state.SetItemsProcessed(state.iterations());
  telemetry::configure(session(false));
}
BENCHMARK(BM_HistogramObserve);

void BM_ScopedSpanEnabled(benchmark::State& state) {
  // A session with a directory: each span adds to its phase and is
  // buffered for the trace (never written here: no finalize).
  telemetry::SessionOptions traced = session(true);
  traced.directory =
      (std::filesystem::temp_directory_path() / "picp_micro_telemetry")
          .string();
  telemetry::configure(traced);
  telemetry::Phase& phase = telemetry::phase("bench.span");
  for (auto _ : state) {
    const telemetry::ScopedSpan span("bench.span", phase, "bench");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  telemetry::configure(session(false));
  std::filesystem::remove_all(traced.directory);
}
BENCHMARK(BM_ScopedSpanEnabled);

void BM_ScopedSpanDisabled(benchmark::State& state) {
  telemetry::configure(session(false));
  telemetry::Phase& phase = telemetry::phase("bench.span_off");
  for (auto _ : state) {
    const telemetry::ScopedSpan span("bench.span_off", phase, "bench");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedSpanDisabled);

}  // namespace
