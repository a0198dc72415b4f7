#include "core/validation.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/claims.hpp"
#include "model/linear.hpp"
#include "util/error.hpp"
#include "util/shape_check.hpp"

namespace picp {
namespace {

/// Workload + timings where predicted == measured by construction.
struct Fixture {
  WorkloadResult workload;
  KernelTimings timings;
  ModelSet models;

  Fixture() {
    workload.num_ranks = 4;
    workload.iterations = {0, 50, 100};
    workload.comp_real = CompMatrix(4, 3);
    workload.comp_ghost = CompMatrix(4, 3);
    workload.comm_real = CommMatrix(4, 3);
    workload.comm_ghost = CommMatrix(4, 3);
    for (std::size_t t = 0; t < 3; ++t)
      for (Rank r = 0; r < 4; ++r)
        workload.comp_real.set(r, t, 10 * (r + 1) + static_cast<Rank>(t));

    // Model: t = 1e-6 * np.
    models.set("push",
               std::make_unique<LinearModel>(std::vector<double>{1e-6}, 0.0,
                                             std::vector<std::string>{"np"}),
               {"np"});

    for (std::uint32_t t = 0; t < 3; ++t)
      for (Rank r = 0; r < 4; ++r) {
        TimingRecord rec;
        rec.interval = t;
        rec.rank = r;
        rec.kernel = Kernel::kPush;
        rec.np = static_cast<double>(workload.comp_real.at(r, t));
        rec.seconds = 1e-6 * rec.np;  // exactly the model
        timings.add(rec);
      }
  }
};

TEST(Validation, PerfectModelGivesZeroMape) {
  const Fixture f;
  const Predictor predictor(f.models, 0.05);
  const ValidationReport report =
      validate_predictions(f.timings, predictor, f.workload);
  ASSERT_EQ(report.kernels.size(), 1u);
  EXPECT_EQ(report.kernels[0].kernel, "push");
  EXPECT_EQ(report.kernels[0].samples, 12u);
  EXPECT_NEAR(report.kernels[0].mape, 0.0, 1e-9);
  EXPECT_NEAR(report.average_mape, 0.0, 1e-9);
}

TEST(Validation, BiasedModelReportsError) {
  Fixture f;
  // Replace with a model 20% high.
  f.models.set("push",
               std::make_unique<LinearModel>(std::vector<double>{1.2e-6}, 0.0,
                                             std::vector<std::string>{"np"}),
               {"np"});
  const Predictor predictor(f.models, 0.05);
  const ValidationReport report =
      validate_predictions(f.timings, predictor, f.workload);
  EXPECT_NEAR(report.kernels[0].mape, 20.0, 1e-6);
  EXPECT_NEAR(report.kernels[0].peak_error, 20.0, 1e-6);
  EXPECT_NEAR(report.average_mape, 20.0, 1e-6);
}

TEST(Validation, FloorSkipsTinyMeasurements) {
  Fixture f;
  TimingRecord rec;
  rec.interval = 0;
  rec.rank = 0;
  rec.kernel = Kernel::kPush;
  rec.np = 10;
  rec.seconds = 1e-12;  // below the floor
  f.timings.add(rec);
  const Predictor predictor(f.models, 0.05);
  const ValidationReport report =
      validate_predictions(f.timings, predictor, f.workload, 1e-7);
  EXPECT_EQ(report.kernels[0].samples, 12u);
}

TEST(Validation, OutOfRangeIntervalsSkipped) {
  Fixture f;
  TimingRecord rec;
  rec.interval = 99;
  rec.rank = 0;
  rec.kernel = Kernel::kPush;
  rec.np = 10;
  rec.seconds = 1e-5;
  f.timings.add(rec);
  const Predictor predictor(f.models, 0.05);
  const ValidationReport report =
      validate_predictions(f.timings, predictor, f.workload);
  EXPECT_EQ(report.kernels[0].samples, 12u);
}

TEST(Validation, RecordsForRanksTheWorkloadLacksThrow) {
  // Ranks come from a timings file; one past the last rank would read the
  // next interval's row, and a negative one before the matrix.
  for (const Rank rank : {4, -1}) {
    Fixture f;
    TimingRecord rec;
    rec.interval = 0;
    rec.rank = rank;
    rec.kernel = Kernel::kPush;
    rec.np = 11;
    rec.seconds = 1e-5;
    f.timings.add(rec);
    const Predictor predictor(f.models, 0.05);
    try {
      validate_predictions(f.timings, predictor, f.workload);
      ADD_FAILURE() << "rank " << rank << " was scored";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("no rank " + std::to_string(rank) + ", interval 0"),
                std::string::npos)
          << what;
    }
  }
}

TEST(Validation, WeightedAverageAcrossKernels) {
  Fixture f;
  // Add a second kernel with known 10% error on 12 samples.
  f.models.set("interpolate",
               std::make_unique<LinearModel>(std::vector<double>{1.1e-6}, 0.0,
                                             std::vector<std::string>{"np"}),
               {"np"});
  for (std::uint32_t t = 0; t < 3; ++t)
    for (Rank r = 0; r < 4; ++r) {
      TimingRecord rec;
      rec.interval = t;
      rec.rank = r;
      rec.kernel = Kernel::kInterpolate;
      rec.np = static_cast<double>(f.workload.comp_real.at(r, t));
      rec.seconds = 1e-6 * rec.np;
      f.timings.add(rec);
    }
  const Predictor predictor(f.models, 0.05);
  const ValidationReport report =
      validate_predictions(f.timings, predictor, f.workload);
  ASSERT_EQ(report.kernels.size(), 2u);
  EXPECT_NEAR(report.average_mape, 5.0, 1e-6);  // (0% * 12 + 10% * 12) / 24
}

TEST(PredictorTest, ComputeTableSumsKernels) {
  Fixture f;
  const Predictor predictor(f.models, 0.05);
  const auto table = predictor.compute_table(f.workload);
  ASSERT_EQ(table.size(), 12u);
  // Only "push" is modeled: table entry = 1e-6 * np.
  EXPECT_NEAR(table[0], 1e-6 * 10, 1e-15);
  EXPECT_NEAR(table[4 * 2 + 3], 1e-6 * 42, 1e-15);
}

TEST(PredictorTest, SimInputWiresMatrices) {
  Fixture f;
  const Predictor predictor(f.models, 0.05);
  NetworkParams net;
  const TraceSimInput input = predictor.sim_input(f.workload, net);
  EXPECT_EQ(input.num_ranks, 4);
  EXPECT_EQ(input.num_intervals, 3u);
  EXPECT_EQ(input.comm_real, &f.workload.comm_real);
  EXPECT_EQ(input.comm_ghost, &f.workload.comm_ghost);
}

// ClaimsFig7's worst-kernel gate: a kernel judged on a couple of records
// must not set the peak, but a model that is wrong everywhere still fails.
ValidationReport report_of(
    std::initializer_list<std::pair<std::size_t, double>> kernels) {
  ValidationReport report;
  for (const auto& [samples, mape] : kernels) {
    KernelAccuracy k;
    k.kernel = "k" + std::to_string(report.kernels.size());
    k.samples = samples;
    k.mape = mape;
    k.aggregate_mape = mape;
    report.kernels.push_back(k);
  }
  return report;
}

TEST(MapeSummary, FewRecordKernelDoesNotSetThePeak) {
  claims::MapeSummary summary;
  summary.add(report_of({{31, 20.0}, {2, 95.0}, {40, 12.0}}));
  summary.add(report_of({{33, 35.0}, {1, 99.0}}));
  EXPECT_DOUBLE_EQ(summary.peak_kernel_mape(), 35.0);
  EXPECT_TRUE(shape::below_threshold(summary.peak_kernel_mape(), 90.0,
                                     "worst per-kernel MAPE (%)")
                  .pass);
  // The few-record kernels still count in both averages.
  EXPECT_EQ(summary.samples(), 31u + 2 + 40 + 33 + 1);
  EXPECT_EQ(summary.kernels(), 5u);
  EXPECT_DOUBLE_EQ(summary.record_mape(),
                   (31 * 20.0 + 2 * 95.0 + 40 * 12.0 + 33 * 35.0 + 99.0) /
                       107.0);
  EXPECT_DOUBLE_EQ(summary.aggregate_mape(),
                   (20.0 + 95.0 + 12.0 + 35.0 + 99.0) / 5.0);
}

TEST(MapeSummary, ConstantPredictorStillFailsTheGate) {
  // A constant predictor misses every kernel by more than 100% on many
  // records.
  claims::MapeSummary summary;
  summary.add(report_of({{34, 140.0}, {31, 180.0}, {120, 260.0}}));
  summary.add(report_of({{32, 150.0}, {3, 400.0}}));
  EXPECT_DOUBLE_EQ(summary.peak_kernel_mape(), 260.0);
  EXPECT_FALSE(shape::below_threshold(summary.peak_kernel_mape(), 90.0,
                                      "worst per-kernel MAPE (%)")
                   .pass);
  EXPECT_GT(summary.aggregate_mape(), 100.0);
}

}  // namespace
}  // namespace picp
