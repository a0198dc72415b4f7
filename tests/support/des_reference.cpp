#include "support/des_reference.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "bsst/network_model.hpp"
#include "util/error.hpp"

namespace picp::testing {

namespace {

enum class Kind { kStart, kComputeDone, kMessage, kRankDone };

struct Event {
  double time = 0.0;
  /// Schedule order: ties in `time` dispatch first-scheduled first.
  std::uint64_t seq = 0;
  Kind kind = Kind::kStart;
  /// Receiving rank (the reporting rank for kRankDone).
  Rank rank = 0;
  std::size_t interval = 0;
};

struct Later {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    return x.seq > y.seq;
  }
};

struct OutMessage {
  Rank dst;
  double bytes;
};

}  // namespace

SimReport run_des_reference(const TraceSimInput& input) {
  PICP_REQUIRE(input.num_ranks > 0, "need at least one rank");
  PICP_REQUIRE(input.num_intervals > 0, "need at least one interval");
  const auto r_count = static_cast<std::size_t>(input.num_ranks);
  const std::size_t t_count = input.num_intervals;
  PICP_REQUIRE(input.compute_seconds.size() == t_count * r_count,
               "compute table size mismatch");
  const NetworkModel net(input.network);

  // The merged message plan: out[t * R + r] holds one packed message per
  // destination of rank r in interval t, migration bytes first.
  std::vector<std::vector<OutMessage>> out(t_count * r_count);
  std::vector<std::int32_t> expected(t_count * r_count, 0);
  const auto add_matrix = [&](const CommMatrix* matrix, double bytes_each) {
    if (matrix == nullptr) return;
    PICP_REQUIRE(matrix->num_ranks() == input.num_ranks,
                 "comm matrix rank count mismatch");
    const std::size_t intervals = std::min(t_count, matrix->num_intervals());
    for (std::size_t t = 0; t < intervals; ++t) {
      for (const auto& transfer : matrix->interval_transfers(t)) {
        auto& msgs = out[t * r_count + static_cast<std::size_t>(transfer.from)];
        const double bytes = static_cast<double>(transfer.count) * bytes_each;
        const auto it = std::find_if(
            msgs.begin(), msgs.end(),
            [&](const OutMessage& m) { return m.dst == transfer.to; });
        if (it != msgs.end()) {
          it->bytes += bytes;
        } else {
          msgs.push_back(OutMessage{transfer.to, bytes});
          ++expected[t * r_count + static_cast<std::size_t>(transfer.to)];
        }
      }
    }
  };
  add_matrix(input.comm_real, input.network.bytes_per_particle);
  add_matrix(input.comm_ghost, input.network.bytes_per_ghost);

  SimReport report;
  report.interval_end.assign(t_count, 0.0);
  report.rank_busy_seconds.assign(r_count, 0.0);

  std::priority_queue<Event, std::vector<Event>, Later> queue;
  double now = 0.0;
  std::uint64_t next_seq = 0;
  const auto schedule = [&](double delay, Kind kind, Rank rank,
                            std::size_t t) {
    PICP_REQUIRE(delay >= 0.0, "cannot schedule into the past");
    queue.push(Event{now + delay, next_seq++, kind, rank, t});
  };

  std::vector<char> compute_done(r_count, 0);
  std::vector<char> reported(r_count, 0);
  std::vector<std::int32_t> received(r_count, 0);
  const auto maybe_report = [&](Rank r, std::size_t t) {
    const auto i = static_cast<std::size_t>(r);
    if (compute_done[i] && received[i] >= expected[t * r_count + i] &&
        !reported[i]) {
      reported[i] = 1;
      schedule(0.0, Kind::kRankDone, r, t);
    }
  };

  const double sync = net.collective_time(input.num_ranks);
  Rank ranks_done = 0;
  for (Rank r = 0; r < input.num_ranks; ++r)
    schedule(0.0, Kind::kStart, r, 0);
  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    now = event.time;
    ++report.events;
    const Rank r = event.rank;
    const auto i = static_cast<std::size_t>(r);
    const std::size_t t = event.interval;
    switch (event.kind) {
      case Kind::kStart:
        compute_done[i] = 0;
        reported[i] = 0;
        received[i] = 0;
        schedule(input.compute_seconds[t * r_count + i], Kind::kComputeDone,
                 r, t);
        break;
      case Kind::kComputeDone:
        compute_done[i] = 1;
        for (const OutMessage& msg : out[t * r_count + i])
          schedule(net.message_time(msg.bytes), Kind::kMessage, msg.dst, t);
        maybe_report(r, t);
        break;
      case Kind::kMessage:
        ++received[i];
        maybe_report(r, t);
        break;
      case Kind::kRankDone:
        if (++ranks_done < input.num_ranks) break;
        ranks_done = 0;
        report.interval_end[t] = now + sync;
        if (t + 1 < t_count)
          for (Rank next = 0; next < input.num_ranks; ++next)
            schedule(sync, Kind::kStart, next, t + 1);
        break;
    }
  }
  report.total_seconds = report.interval_end.back();

  for (std::size_t t = 0; t < t_count; ++t) {
    double interval_max = 0.0;
    for (std::size_t rank = 0; rank < r_count; ++rank) {
      const double c = input.compute_seconds[t * r_count + rank];
      report.rank_busy_seconds[rank] += c;
      interval_max = std::max(interval_max, c);
    }
    report.critical_path_seconds += interval_max;
  }
  return report;
}

}  // namespace picp::testing
