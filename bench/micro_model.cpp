// Micro-benchmarks of the Model Generator: expression evaluation (the GP
// inner loop), OLS fitting, and full symbolic-regression searches; and of
// model evaluation: the predictor's per-(rank, interval) compute table.

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <vector>

#include "core/features.hpp"
#include "core/predictor.hpp"
#include "model/linear.hpp"
#include "model/symreg.hpp"
#include "util/rng.hpp"

namespace {

using namespace picp;

Dataset synthetic(std::size_t rows, std::size_t features) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < features; ++f)
    names.push_back("x" + std::to_string(f));
  Dataset data(names);
  Xoshiro256 rng(1);
  std::vector<double> row(features);
  for (std::size_t i = 0; i < rows; ++i) {
    double y = 1e-6;
    for (std::size_t f = 0; f < features; ++f) {
      row[f] = rng.uniform(1, 100);
      y += 1e-7 * row[f];
    }
    data.add(row, y);
  }
  return data;
}

void BM_ExprEvaluate(benchmark::State& state) {
  const Expr expr =
      Expr::from_tokens("add mul v0 v1 div sq v2 add c3.5 sqrt v0");
  const std::array<double, 3> x = {12.0, 0.5, 7.0};
  for (auto _ : state) benchmark::DoNotOptimize(expr.evaluate(x));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExprEvaluate);

void BM_FitLinear(benchmark::State& state) {
  const Dataset data = synthetic(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    const LinearModel model = fit_linear(data);
    benchmark::DoNotOptimize(model.intercept());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FitLinear)->Arg(1000)->Arg(10000);

void BM_FitPolynomial(benchmark::State& state) {
  const Dataset data = synthetic(2000, 3);
  for (auto _ : state) {
    const PolynomialModel model =
        fit_polynomial(data, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(&model);
  }
}
BENCHMARK(BM_FitPolynomial)->Arg(2)->Arg(3);

void BM_FitSymbolic(benchmark::State& state) {
  const Dataset data = synthetic(500, 2);
  SymRegParams params;
  params.population = static_cast<std::size_t>(state.range(0));
  params.generations = 10;
  params.threads = 1;
  for (auto _ : state) {
    const SymbolicModel model = fit_symbolic(data, params);
    benchmark::DoNotOptimize(model.scale());
  }
}
BENCHMARK(BM_FitSymbolic)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/// Compute table at R = range(0), T = 40: seven linear kernels, ~5k
/// synthetic migration pairs per interval. One item is one (rank, interval)
/// cell.
void BM_PredictorComputeTable(benchmark::State& state) {
  const auto ranks = static_cast<Rank>(state.range(0));
  const std::size_t intervals = 40;
  const std::size_t pairs = 5000;
  Xoshiro256 rng(2);
  WorkloadResult w;
  w.num_ranks = ranks;
  w.iterations.resize(intervals);
  w.comp_real = CompMatrix(ranks, intervals);
  w.comp_ghost = CompMatrix(ranks, intervals);
  w.comm_real = CommMatrix(ranks, intervals);
  w.comm_ghost = CommMatrix(ranks, intervals);
  const auto r_count = static_cast<std::uint64_t>(ranks);
  for (std::size_t t = 0; t < intervals; ++t) {
    for (Rank r = 0; r < ranks; ++r) {
      w.comp_real.set(r, t, static_cast<std::int64_t>(rng.uniform_below(50)));
      w.comp_ghost.set(r, t, static_cast<std::int64_t>(rng.uniform_below(20)));
    }
    for (std::size_t i = 0; i < pairs; ++i)
      w.comm_real.add(static_cast<Rank>(rng.uniform_below(r_count)),
                      static_cast<Rank>(rng.uniform_below(r_count)), t);
  }
  w.elements_per_rank.assign(static_cast<std::size_t>(ranks), 8);

  ModelSet models;
  for (int k = 0; k < kNumKernels; ++k) {
    const auto kernel = static_cast<Kernel>(k);
    auto features = kernel_features(kernel);
    std::vector<double> coef(features.size(), 1e-8 * (k + 1));
    models.set(kernel_name(kernel),
               std::make_unique<LinearModel>(std::move(coef), 1e-7, features),
               features);
  }
  const Predictor predictor(models, 0.023);
  for (auto _ : state) {
    const std::vector<double> table = predictor.compute_table(w);
    benchmark::DoNotOptimize(table.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(intervals));
}
BENCHMARK(BM_PredictorComputeTable)
    ->Arg(1044)
    ->Arg(8352)
    ->Unit(benchmark::kMillisecond);

}  // namespace
