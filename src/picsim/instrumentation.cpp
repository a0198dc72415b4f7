#include "picsim/instrumentation.hpp"

#include <array>
#include <fstream>

#include "telemetry/telemetry.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace picp {

namespace {

/// Registry handles for one kernel's aggregate metrics. Resolved once per
/// process (registry entries are never deleted) so the publish path in
/// KernelTimings::add is three lock-free updates.
struct KernelMetrics {
  telemetry::Counter* measurements = nullptr;
  telemetry::Counter* measured_ns = nullptr;
  telemetry::Histogram* seconds = nullptr;
};

KernelMetrics& metrics_for(Kernel k) {
  static std::array<KernelMetrics, kNumKernels> cache = [] {
    // Kernel measurements span ~1 µs (sparse ranks) to ~10 ms (dense
    // projection on large filters); decade buckets cover that range.
    const std::array<double, 5> bounds{1e-6, 1e-5, 1e-4, 1e-3, 1e-2};
    std::array<KernelMetrics, kNumKernels> handles;
    auto& reg = telemetry::registry();
    for (int i = 0; i < kNumKernels; ++i) {
      const std::string base =
          std::string("picsim.kernel.") + kernel_name(static_cast<Kernel>(i));
      handles[static_cast<std::size_t>(i)] = KernelMetrics{
          &reg.counter(base + ".measurements"),
          &reg.counter(base + ".measured_ns"),
          &reg.histogram(base + ".seconds", bounds)};
    }
    return handles;
  }();
  return cache[static_cast<std::size_t>(k)];
}

}  // namespace

void KernelTimings::add(const TimingRecord& record) {
  records_.push_back(record);
  KernelMetrics& m = metrics_for(record.kernel);
  m.measurements->add();
  m.measured_ns->add(record.seconds <= 0.0
                         ? 0
                         : static_cast<std::uint64_t>(record.seconds * 1e9));
  m.seconds->observe(record.seconds);
}

void KernelTimings::append(const KernelTimings& other) {
  records_.insert(records_.end(), other.records_.begin(),
                  other.records_.end());
}

std::vector<TimingRecord> KernelTimings::for_kernel(Kernel k) const {
  std::vector<TimingRecord> out;
  for (const TimingRecord& r : records_)
    if (r.kernel == k) out.push_back(r);
  return out;
}

void KernelTimings::save_csv(const std::string& path) const {
  CsvWriter csv(path);
  csv.row("interval", "rank", "kernel", "seconds", "np", "ngp", "nmove",
          "filter", "nel");
  for (const TimingRecord& r : records_)
    csv.row(r.interval, r.rank, kernel_name(r.kernel), r.seconds, r.np, r.ngp,
            r.nmove, r.filter, r.nel);
}

KernelTimings KernelTimings::load_csv(const std::string& path) {
  std::ifstream in(path);
  PICP_REQUIRE(in.is_open(), "cannot open timings CSV: " + path);
  KernelTimings timings;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (trim(line).empty()) continue;
    const auto fields = split(line, ',');
    PICP_REQUIRE(fields.size() == 8 || fields.size() == 9,
                 "malformed timings row: " + line);
    TimingRecord r;
    r.interval = static_cast<std::uint32_t>(parse_int(fields[0]));
    r.rank = static_cast<Rank>(parse_int(fields[1]));
    r.kernel = kernel_from_name(trim(fields[2]));
    r.seconds = parse_double(fields[3]);
    r.np = parse_double(fields[4]);
    r.ngp = parse_double(fields[5]);
    r.nmove = parse_double(fields[6]);
    r.filter = parse_double(fields[7]);
    r.nel = fields.size() > 8 ? parse_double(fields[8]) : 0.0;
    timings.records_.push_back(r);
  }
  return timings;
}

}  // namespace picp
