// The predictor's table against the per-cell definition it replaces, and
// the model-set checks its constructor makes.

#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/trainer.hpp"
#include "model/linear.hpp"
#include "model/symreg.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace picp {
namespace {

/// A random workload: per-rank loads, element counts and `pairs` random
/// migrations per interval (0 leaves every comm slice empty).
WorkloadResult random_workload(Rank ranks, std::size_t intervals,
                               std::size_t pairs, Xoshiro256& rng) {
  WorkloadResult w;
  w.num_ranks = ranks;
  w.comp_real = CompMatrix(ranks, intervals);
  w.comp_ghost = CompMatrix(ranks, intervals);
  w.comm_real = CommMatrix(ranks, intervals);
  w.comm_ghost = CommMatrix(ranks, intervals);
  const auto r_count = static_cast<std::uint64_t>(ranks);
  for (std::size_t t = 0; t < intervals; ++t) {
    w.iterations.push_back(50 * t);
    for (Rank r = 0; r < ranks; ++r) {
      // A third of the cells idle, as on the sparse side of bin mapping.
      const bool idle = rng.uniform_below(3) == 0;
      w.comp_real.set(r, t, idle ? 0 : static_cast<std::int64_t>(
                                            rng.uniform_below(5000)));
      w.comp_ghost.set(r, t,
                       static_cast<std::int64_t>(rng.uniform_below(400)));
    }
    for (std::size_t i = 0; i < pairs; ++i)
      w.comm_real.add(static_cast<Rank>(rng.uniform_below(r_count)),
                      static_cast<Rank>(rng.uniform_below(r_count)), t,
                      1 + static_cast<std::int64_t>(rng.uniform_below(20)));
  }
  for (Rank r = 0; r < ranks; ++r)
    w.elements_per_rank.push_back(
        1 + static_cast<std::int64_t>(rng.uniform_below(64)));
  return w;
}

/// A random model for kernel k over its canonical features: linear,
/// polynomial or symbolic. Intercepts and offsets can be negative, so some
/// cells predict below zero and exercise the clamp.
std::unique_ptr<PerfModel> random_model(Kernel k, Xoshiro256& rng) {
  const std::vector<std::string> names = kernel_features(k);
  const std::size_t n = names.size();
  switch (rng.uniform_below(3)) {
    case 0: {
      std::vector<double> coef;
      for (std::size_t f = 0; f < n; ++f)
        coef.push_back(rng.uniform(-1e-7, 4e-7));
      return std::make_unique<LinearModel>(std::move(coef),
                                           rng.uniform(-2e-4, 1e-5), names);
    }
    case 1: {
      std::vector<std::vector<int>> exps = {std::vector<int>(n, 0),
                                            std::vector<int>(n, 0),
                                            std::vector<int>(n, 0)};
      exps[1][0] = 1;
      exps[2][n - 1] = 2;
      return std::make_unique<PolynomialModel>(
          std::move(exps),
          std::vector<double>{rng.uniform(-1e-4, 1e-5),
                              rng.uniform(1e-9, 1e-7),
                              rng.uniform(-1e-11, 1e-11)},
          names);
    }
    default: {
      const std::string last = "v" + std::to_string(n - 1);
      return std::make_unique<SymbolicModel>(
          Expr::from_tokens("add mul v0 " + last + " sqrt v0"),
          rng.uniform(1e-9, 1e-8), rng.uniform(-1e-5, 1e-6), names);
    }
  }
}

/// The per-cell definition of the table: the sum over modeled kernels, in
/// kernel order, of ModelSet::predict on features_from_workload.
std::vector<double> reference_table(const ModelSet& models,
                                    const WorkloadResult& w, double filter) {
  const auto r_count = static_cast<std::size_t>(w.num_ranks);
  std::vector<double> table(r_count * w.num_intervals(), 0.0);
  for (std::size_t t = 0; t < w.num_intervals(); ++t)
    for (Rank r = 0; r < w.num_ranks; ++r) {
      double total = 0.0;
      for (int k = 0; k < kNumKernels; ++k) {
        const auto kernel = static_cast<Kernel>(k);
        if (!models.has(kernel_name(kernel))) continue;
        total += models.predict(
            kernel_name(kernel),
            features_from_workload(kernel, w, r, t, filter));
      }
      table[t * r_count + static_cast<std::size_t>(r)] = total;
    }
  return table;
}

TEST(PredictorTest, ComputeTableIsBitIdenticalToPerCellReference) {
  Xoshiro256 rng(20260417);
  const double filter = 0.023;
  for (const Rank ranks : {1, 7, 300}) {
    for (const std::size_t intervals : {std::size_t{1}, std::size_t{5}}) {
      // Empty slices, then dense ones: every pair for small R, ~20
      // destinations per rank at R = 300.
      const auto r_count = static_cast<std::size_t>(ranks);
      for (const std::size_t pairs :
           {std::size_t{0}, r_count * std::min<std::size_t>(r_count, 20)}) {
        SCOPED_TRACE("R=" + std::to_string(ranks) +
                     " T=" + std::to_string(intervals) +
                     " pairs=" + std::to_string(pairs));
        const WorkloadResult w =
            random_workload(ranks, intervals, pairs, rng);
        ModelSet models;
        for (int k = 0; k < kNumKernels; ++k) {
          const auto kernel = static_cast<Kernel>(k);
          if (rng.uniform_below(4) == 0) continue;  // leave some kernels out
          models.set(kernel_name(kernel), random_model(kernel, rng),
                     kernel_features(kernel));
        }
        const Predictor predictor(models, filter);
        EXPECT_TRUE(predictor.compute_table(w) ==
                    reference_table(models, w, filter));

        for (const std::string& name : models.kernels()) {
          const Kernel kernel = kernel_from_name(name);
          for (std::size_t t = 0; t < intervals; ++t)
            for (Rank r = 0; r < ranks; r += 1 + ranks / 16)
              ASSERT_EQ(predictor.predict_kernel(kernel, w, r, t),
                        models.predict(name, features_from_workload(
                                                 kernel, w, r, t, filter)))
                  << name << " rank " << r << " interval " << t;
        }
      }
    }
  }
}

TEST(PredictorTest, RejectsReorderedFeatures) {
  ModelSet models;
  models.set("project",
             std::make_unique<LinearModel>(
                 std::vector<double>{1e-8, 2e-8, 3e-8}, 0.0,
                 std::vector<std::string>{"ngp", "np", "filter"}),
             {"ngp", "np", "filter"});
  try {
    const Predictor predictor(models, 0.05);
    FAIL() << "a reordered feature list must not construct";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("project"), std::string::npos)
        << e.what();
  }
}

TEST(PredictorTest, RejectsUnknownKernel) {
  ModelSet models;
  models.set("interp",
             std::make_unique<LinearModel>(std::vector<double>{1e-8}, 0.0,
                                           std::vector<std::string>{"np"}),
             {"np"});
  try {
    const Predictor predictor(models, 0.05);
    FAIL() << "an unknown kernel name must not construct";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("interp"), std::string::npos)
        << e.what();
  }
}

TEST(PredictorTest, TrainedSetsConstruct) {
  KernelTimings timings;
  Xoshiro256 rng(3);
  for (std::uint32_t i = 0; i < 120; ++i) {
    TimingRecord rec;
    rec.interval = i % 6;
    rec.rank = static_cast<Rank>(i % 8);
    rec.np = std::floor(rng.uniform(1, 500));
    rec.ngp = std::floor(rng.uniform(0, 100));
    rec.nmove = std::floor(rng.uniform(0, 50));
    rec.nel = std::floor(rng.uniform(1, 64));
    rec.filter = 0.05;
    for (int k = 0; k < kNumKernels; ++k) {
      rec.kernel = static_cast<Kernel>(k);
      rec.seconds = 1e-6 + 1e-8 * (k + 1) * (rec.np + rec.ngp + rec.nmove +
                                             rec.nel);
      timings.add(rec);
    }
  }
  for (const FitMethod method : {FitMethod::kLinear, FitMethod::kPolynomial,
                                 FitMethod::kSymbolic, FitMethod::kAuto}) {
    ModelGenConfig config;
    config.method = method;
    config.poly_degree = 2;
    config.symreg.population = 32;
    config.symreg.generations = 4;
    config.symreg.threads = 1;
    const ModelSet models = train_models(timings, config);
    ASSERT_EQ(models.kernels().size(),
              static_cast<std::size_t>(kNumKernels));
    EXPECT_NO_THROW({ const Predictor predictor(models, 0.05); });
  }
}

}  // namespace
}  // namespace picp
