#include "bsst/trace_sim.hpp"

#include <algorithm>
#include <span>

#include "bsst/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace picp {

namespace {

enum EventKind : std::int32_t {
  kStart = 1,        // a: interval
  kComputeDone = 2,  // a: interval
  kMessage = 3,      // a: interval
  kRankDone = 4,     // a: interval
};

struct OutMessage {
  Rank dst;
  double bytes;
};

/// Precomputed per-interval messaging schedule.
struct MessagePlan {
  // out[t * R + r] = messages rank r sends in interval t.
  std::vector<std::vector<OutMessage>> out;
  // expected[t * R + r] = messages rank r must receive in interval t.
  std::vector<std::int32_t> expected;
};

MessagePlan build_plan(const TraceSimInput& input) {
  const auto r_count = static_cast<std::size_t>(input.num_ranks);
  MessagePlan plan;
  plan.out.resize(input.num_intervals * r_count);
  plan.expected.assign(input.num_intervals * r_count, 0);

  const auto add_matrix = [&](const CommMatrix* matrix, double bytes_each) {
    if (matrix == nullptr) return;
    PICP_REQUIRE(matrix->num_ranks() == input.num_ranks,
                 "comm matrix rank count mismatch");
    const std::size_t intervals =
        std::min(input.num_intervals, matrix->num_intervals());
    for (std::size_t t = 0; t < intervals; ++t) {
      for (const auto& transfer : matrix->interval_transfers(t)) {
        auto& msgs = plan.out[t * r_count + static_cast<std::size_t>(
                                                transfer.from)];
        const double bytes = static_cast<double>(transfer.count) * bytes_each;
        // Merge with an existing message to the same destination (one
        // packed send per neighbor per interval, as real codes do).
        const auto it = std::find_if(
            msgs.begin(), msgs.end(),
            [&](const OutMessage& m) { return m.dst == transfer.to; });
        if (it != msgs.end()) {
          it->bytes += bytes;
        } else {
          msgs.push_back(OutMessage{transfer.to, bytes});
          ++plan.expected[t * r_count +
                          static_cast<std::size_t>(transfer.to)];
        }
      }
    }
  };
  add_matrix(input.comm_real, input.network.bytes_per_particle);
  add_matrix(input.comm_ghost, input.network.bytes_per_ghost);
  return plan;
}

class BarrierComponent;

/// One simulated processor: computes for the modeled kernel time, then
/// exchanges the interval's messages; reports to the barrier when both its
/// compute and its expected receives are complete.
class ProcessorComponent final : public Component {
 public:
  ProcessorComponent(ComponentId id, Rank rank, const TraceSimInput& input,
                     const MessagePlan& plan, const NetworkModel& net,
                     ComponentId barrier)
      : Component(id, "rank" + std::to_string(rank)),
        rank_(rank),
        input_(&input),
        plan_(&plan),
        net_(&net),
        barrier_(barrier) {}

  void handle(Engine& engine, const Event& event) override {
    const auto t = static_cast<std::size_t>(event.a);
    switch (event.kind) {
      case kStart: {
        compute_done_ = false;
        received_ = 0;
        const double compute =
            input_->compute_seconds[t * static_cast<std::size_t>(
                                            input_->num_ranks) +
                                    static_cast<std::size_t>(rank_)];
        engine.schedule(id(), id(), compute, kComputeDone,
                        static_cast<std::int64_t>(t));
        break;
      }
      case kComputeDone: {
        compute_done_ = true;
        for (const OutMessage& msg : outgoing(t))
          engine.schedule(id(), static_cast<ComponentId>(msg.dst),
                          net_->message_time(msg.bytes), kMessage,
                          static_cast<std::int64_t>(t));
        maybe_report(engine, t);
        break;
      }
      case kMessage: {
        ++received_;
        maybe_report(engine, t);
        break;
      }
      default:
        throw Error("processor received unknown event kind");
    }
  }

 private:
  std::span<const OutMessage> outgoing(std::size_t t) const {
    return plan_->out[t * static_cast<std::size_t>(input_->num_ranks) +
                      static_cast<std::size_t>(rank_)];
  }
  std::int32_t expected(std::size_t t) const {
    return plan_->expected[t * static_cast<std::size_t>(input_->num_ranks) +
                           static_cast<std::size_t>(rank_)];
  }

  void maybe_report(Engine& engine, std::size_t t) {
    if (compute_done_ && received_ >= expected(t) && !reported_[t]) {
      reported_[t] = true;
      engine.schedule(id(), barrier_, 0.0, kRankDone,
                      static_cast<std::int64_t>(t));
    }
  }

  Rank rank_;
  const TraceSimInput* input_;
  const MessagePlan* plan_;
  const NetworkModel* net_;
  ComponentId barrier_;
  bool compute_done_ = false;
  std::int32_t received_ = 0;

 public:
  std::vector<bool> reported_;
};

/// Interval barrier: collects rank-done reports, then releases the next
/// interval after a log-tree collective.
class BarrierComponent final : public Component {
 public:
  BarrierComponent(ComponentId id, const TraceSimInput& input,
                   const NetworkModel& net, SimReport& report)
      : Component(id, "barrier"),
        input_(&input),
        net_(&net),
        report_(&report) {}

  void handle(Engine& engine, const Event& event) override {
    PICP_REQUIRE(event.kind == kRankDone, "barrier expects rank-done events");
    const auto t = static_cast<std::size_t>(event.a);
    if (++done_count_ < input_->num_ranks) return;
    done_count_ = 0;
    const double sync = net_->collective_time(input_->num_ranks);
    report_->interval_end[t] = engine.now() + sync;
    if (t + 1 < input_->num_intervals) {
      for (Rank r = 0; r < input_->num_ranks; ++r)
        engine.schedule(id(), static_cast<ComponentId>(r), sync, kStart,
                        static_cast<std::int64_t>(t + 1));
    }
  }

 private:
  const TraceSimInput* input_;
  const NetworkModel* net_;
  SimReport* report_;
  Rank done_count_ = 0;
};

}  // namespace

SimReport run_trace_simulation(const TraceSimInput& input) {
  const telemetry::ScopedSpan span("des.run", "pipeline");
  PICP_REQUIRE(input.num_ranks > 0, "need at least one rank");
  PICP_REQUIRE(input.num_intervals > 0, "need at least one interval");
  PICP_REQUIRE(input.compute_seconds.size() ==
                   input.num_intervals * static_cast<std::size_t>(
                                             input.num_ranks),
               "compute table size mismatch");

  const NetworkModel net(input.network);
  const MessagePlan plan = build_plan(input);

  SimReport report;
  report.interval_end.assign(input.num_intervals, 0.0);
  report.rank_busy_seconds.assign(static_cast<std::size_t>(input.num_ranks),
                                  0.0);

  Engine engine;
  const auto barrier_id = static_cast<ComponentId>(input.num_ranks);
  for (Rank r = 0; r < input.num_ranks; ++r) {
    auto proc = std::make_unique<ProcessorComponent>(
        static_cast<ComponentId>(r), r, input, plan, net, barrier_id);
    proc->reported_.assign(input.num_intervals, false);
    engine.add_component(std::move(proc));
  }
  engine.add_component(std::make_unique<BarrierComponent>(
      barrier_id, input, net, report));

  for (Rank r = 0; r < input.num_ranks; ++r)
    engine.schedule(barrier_id, static_cast<ComponentId>(r), 0.0, kStart, 0);

  report.events = engine.run();
  report.total_seconds = report.interval_end.back();

  for (std::size_t t = 0; t < input.num_intervals; ++t) {
    double interval_max = 0.0;
    for (Rank r = 0; r < input.num_ranks; ++r) {
      const double c =
          input.compute_seconds[t * static_cast<std::size_t>(input.num_ranks) +
                                static_cast<std::size_t>(r)];
      report.rank_busy_seconds[static_cast<std::size_t>(r)] += c;
      interval_max = std::max(interval_max, c);
    }
    report.critical_path_seconds += interval_max;
  }
  return report;
}

}  // namespace picp
