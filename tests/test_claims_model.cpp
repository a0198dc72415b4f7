// Claims: Fig 7 — per-kernel prediction accuracy. The paper reports an
// average MAPE of 8.42% with a 17.7% peak; the fixture's linear models over
// microsecond-scale kernels land near 7% aggregate MAPE, and the gates
// leave room for timer noise and sanitizer slowdowns while still failing
// on genuinely broken models (a constant predictor blows past 100%).
// As in the paper, models are trained on the extreme configurations only;
// the middle configuration is a pure prediction target.

#include <gtest/gtest.h>

#include <string>

#include "core/claims.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "core/validation.hpp"
#include "model/model_set.hpp"
#include "picsim/instrumentation.hpp"
#include "support/claims_fixture.hpp"
#include "support/shape_gtest.hpp"
#include "trace/trace_reader.hpp"

namespace picp::testing {
namespace {

TEST(ClaimsFig7, PredictionErrorStaysWithinGates) {
  const ClaimsFixture& fixture = claims_fixture();
  const SimConfig cfg = claims_config();
  const std::vector<Rank> ladder = claims_rank_counts();

  const ModelSet models = ModelSet::load(fixture.models_path);
  const SpectralMesh mesh = claims_mesh();
  const PredictionPipeline pipeline(mesh, models);
  const Predictor predictor(models, cfg.filter_size);

  const std::vector<std::pair<Rank, std::string>> configs = {
      {ladder[0], fixture.timings_base},
      {ladder[1], fixture.timings_mid},
      {ladder[3], fixture.timings_top},
  };

  claims::MapeSummary summary;
  // The kernel behind the peak, so a failed gate says how many records it
  // judged: a kernel with one or two records above the floor is timer noise.
  std::string peak_kernel;
  double peak_mape = -1.0;
  Rank peak_ranks = 0;
  std::size_t peak_records = 0;
  for (const auto& [ranks, timings_path] : configs) {
    PredictionConfig pc;
    pc.mapper_kind = cfg.mapper_kind;
    pc.num_ranks = ranks;
    pc.filter_size = cfg.filter_size;
    TraceReader trace(fixture.trace_path);
    const WorkloadResult workload = pipeline.generate_workload(trace, pc);
    const KernelTimings measured = KernelTimings::load_csv(timings_path);
    const ValidationReport report =
        validate_predictions(measured, predictor, workload, 1e-6);
    for (const KernelAccuracy& k : report.kernels)
      if (k.mape > peak_mape) {
        peak_kernel = k.kernel;
        peak_mape = k.mape;
        peak_ranks = ranks;
        peak_records = k.samples;
      }
    summary.add(report);
  }
  ASSERT_GT(summary.samples(), 0u);
  ASSERT_GE(summary.kernels(), 3u)
      << "Fig 7: expected per-kernel accuracy for at least three kernels";

  // Paper: 8.42% average; fixture measures ~7% aggregate / ~20% per-record.
  EXPECT_SHAPE(shape::below_threshold(summary.aggregate_mape(), 25.0,
                                      "Fig 7 aggregate MAPE (%)"));
  EXPECT_SHAPE(shape::below_threshold(summary.record_mape(), 50.0,
                                      "Fig 7 per-record MAPE (%)"));
  // Paper peak: 17.7%; fixture worst kernel ~37%.
  SCOPED_TRACE("worst kernel: " + peak_kernel + " at " +
               std::to_string(peak_ranks) + " ranks, " +
               std::to_string(peak_records) +
               " records above the 1 us floor");
  EXPECT_SHAPE(shape::below_threshold(summary.peak_kernel_mape(), 90.0,
                                      "Fig 7 worst per-kernel MAPE (%)"));
}

}  // namespace
}  // namespace picp::testing
