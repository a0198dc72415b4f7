#pragma once

// Content-addressed artifact cache for the prediction service: expensive
// derived artifacts (per-(R, mapper, filter) workload results, serialized
// response bodies) are keyed by a config fingerprint and held in a
// capacity-bounded LRU. The cache holds no in-flight state: concurrent
// misses of one key each compute, and the first to finish is the one
// resident entry. Identical in-flight requests are coalesced upstream, by
// the reactor (see reactor.hpp), before they ever reach a cache. An
// optional disk tier (encode/decode hooks + util::AtomicFile) lets evicted
// entries survive as crash-safe spill files and repopulate the LRU on the
// next miss. The sibling of tests/support/fixture_cache (same
// content-addressing idea), but in-memory-first and thread-safe.
//
// Robustness contract (PR 7):
//   - Spill files are framed [magic | key | crc32c | payload]; a file
//     whose digest or key does not match is *quarantined* (moved to
//     spill_dir/quarantine, never deleted, never replayed) and counted.
//     The constructor scans the whole spill dir, so a crash that corrupts
//     or orphans files is reconciled before the first request.
//   - A failed spill (disk full, injected short write) drops the entry
//     from the disk tier but never publishes a torn file — AtomicFile
//     unlinks its temp on abort — and never aborts the eviction.
//   - A cache built with a *stale tier* remembers the last good value of
//     up to `capacity` keys in memory. When compute fails, the stale value
//     is served (flagged degraded) instead of propagating a 500. A cache
//     without one keeps no evicted value alive.
//
// Counts live only in the telemetry registry, under the family the cache
// is built with (`<family>.hits`, ...): a scrape and a drain manifest
// read the same numbers, whenever they are taken. A cache registers only
// the series its tiers can move: `disk_hits`, `quarantined` and
// `spill_failures` with a disk tier, `stale_served` with a stale tier.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>

#include "telemetry/telemetry.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace picp::serve {

template <typename V>
class ArtifactCache {
 public:
  /// Spill hooks: encode to/decode from the on-disk byte form. Decode may
  /// throw (corrupt or truncated spill file) — the cache treats that as a
  /// plain miss and recomputes.
  struct SpillHooks {
    std::function<std::string(const V&)> encode;
    std::function<V(const std::string&)> decode;
  };

  /// `capacity` bounds completed in-memory entries (>= 1). `family` names
  /// the registry metrics the cache counts in (`<family>.hits`, ...).
  /// `spill_dir` empty disables the disk tier. When enabled, the
  /// constructor reconciles the spill dir: entries failing their frame
  /// digest and orphaned temp files are quarantined before any request is
  /// served. `stale_tier` is for a cache whose callers serve stale values.
  ArtifactCache(std::size_t capacity, const std::string& family,
                std::string spill_dir = "", SpillHooks hooks = {},
                bool stale_tier = false)
      : capacity_(capacity == 0 ? 1 : capacity),
        spill_dir_(std::move(spill_dir)),
        hooks_(std::move(hooks)),
        stale_tier_(stale_tier),
        metrics_(family, !spill_dir_.empty(), stale_tier) {
    if (!spill_dir_.empty()) {
      std::filesystem::create_directories(spill_dir_);
      scan_spill_dir();
    }
  }

  /// The artifact for `key`, computing it via `compute` on a miss. A
  /// throwing compute propagates and leaves the key absent, so the next
  /// request retries. `from_cache` (optional) reports whether the value
  /// was served without running `compute`. A call that returns counts in
  /// exactly one of `hits` (from memory), `disk_hits` (from the spill
  /// tier), `stale_served` (from the stale tier) and `misses` (a compute
  /// ran and returned); a call that throws counts in none.
  ///
  /// In a cache with a stale tier, a failed compute falls back to the last
  /// good value for the key when one is remembered — `*degraded` reports
  /// that the value is stale. A DeadlineExceeded never serves stale: the
  /// client stopped waiting, and stale-on-timeout would disguise a 504 as
  /// a 200.
  std::shared_ptr<const V> get_or_compute(std::uint64_t key,
                                          const std::function<V()>& compute,
                                          bool* from_cache = nullptr,
                                          bool* degraded = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (auto it = entries_.find(key); it != entries_.end()) {
        metrics_.hits.add();
        touch(it->second);
        if (from_cache != nullptr) *from_cache = true;
        return it->second.value;
      }
    }

    bool from_disk = false;
    std::shared_ptr<const V> value;
    try {
      value = load_spill(key);
      from_disk = value != nullptr;
      if (!from_disk) value = std::make_shared<const V>(compute());
    } catch (...) {
      std::shared_ptr<const V> stale = stale_tier_ && !unwinding_deadline()
                                           ? take_stale(key)
                                           : nullptr;
      if (stale == nullptr) throw;
      // Degraded mode: the last good value answers this request; nothing
      // is inserted, so the next request retries a fresh compute instead
      // of re-serving stale forever.
      metrics_.stale_served->add();
      if (from_cache != nullptr) *from_cache = true;
      if (degraded != nullptr) *degraded = true;
      return stale;
    }
    (from_disk ? *metrics_.disk_hits : metrics_.misses).add();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto [it, inserted] = entries_.try_emplace(key);
      if (inserted) {
        it->second.value = value;
        lru_.push_front(key);
        it->second.lru = lru_.begin();
        remember_stale(key, value);
        evict_over_capacity();
        metrics_.resident.set(static_cast<double>(lru_.size()));
      } else {
        // A concurrent compute of the key landed first: keep its entry,
        // so every caller replays the same resident value.
        touch(it->second);
        value = it->second.value;
      }
    }
    if (from_cache != nullptr) *from_cache = from_disk;
    return value;
  }

  /// Completed entries currently resident in memory.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
  }

  /// Spill-file path for a key (empty when the disk tier is off) — exposed
  /// so tests and the service can report where artifacts land.
  std::string spill_path(std::uint64_t key) const {
    if (spill_dir_.empty()) return "";
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.art",
                  static_cast<unsigned long long>(key));
    return spill_dir_ + "/" + name;
  }

  /// Where quarantined spill files land (for tests and operators).
  std::string quarantine_dir() const {
    return spill_dir_.empty() ? "" : spill_dir_ + "/quarantine";
  }

 private:
  struct Entry {
    std::shared_ptr<const V> value;
    std::list<std::uint64_t>::iterator lru;
  };

  /// The family's registry metrics, resolved once: counting is one
  /// relaxed add, with or without a telemetry session. `disk_hits`,
  /// `quarantined` and `spill_failures` are null without a disk tier, and
  /// `stale_served` without a stale tier; only that tier's paths count
  /// in them.
  struct Metrics {
    Metrics(const std::string& family, bool disk_tier, bool stale_tier)
        : hits(counter(family, "hits")),
          disk_hits(disk_tier ? &counter(family, "disk_hits") : nullptr),
          stale_served(stale_tier ? &counter(family, "stale_served")
                                  : nullptr),
          misses(counter(family, "misses")),
          evictions(counter(family, "evictions")),
          quarantined(disk_tier ? &counter(family, "quarantined") : nullptr),
          spill_failures(disk_tier ? &counter(family, "spill_failures")
                                   : nullptr),
          resident(telemetry::registry().gauge(family + ".resident")) {}

    static telemetry::Counter& counter(const std::string& family,
                                       const char* name) {
      return telemetry::registry().counter(family + "." + name);
    }

    telemetry::Counter& hits;
    telemetry::Counter* disk_hits;
    telemetry::Counter* stale_served;
    telemetry::Counter& misses;
    telemetry::Counter& evictions;       // LRU entries dropped (capacity)
    telemetry::Counter* quarantined;     // spill files failing their digest
    telemetry::Counter* spill_failures;  // evictions whose spill failed
    telemetry::Gauge& resident;          // entries in memory
  };

  // --- spill frame -------------------------------------------------------
  // [8B magic "PICPART1"][8B key LE][4B crc32c(payload)][payload]. The key
  // is embedded so a file renamed over another key's slot cannot replay.

  static constexpr char kMagic[8] = {'P', 'I', 'C', 'P', 'A', 'R', 'T', '1'};
  static constexpr std::size_t kFrameHeader = 8 + 8 + 4;

  static std::string encode_frame(std::uint64_t key,
                                  const std::string& payload) {
    std::string out;
    out.reserve(kFrameHeader + payload.size());
    out.append(kMagic, sizeof kMagic);
    char scratch[8];
    for (int i = 0; i < 8; ++i)
      scratch[i] = static_cast<char>((key >> (8 * i)) & 0xFF);
    out.append(scratch, 8);
    const std::uint32_t crc = crc32c(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
    out += payload;
    return out;
  }

  /// Payload of a verified frame; throws CorruptInputError on any
  /// mismatch (magic, embedded key, digest, truncation).
  static std::string decode_frame(std::uint64_t key, const std::string& raw,
                                  const std::string& path) {
    if (raw.size() < kFrameHeader || std::memcmp(raw.data(), kMagic, 8) != 0)
      throw CorruptInputError(path, "missing spill frame header");
    std::uint64_t embedded = 0;
    for (std::size_t i = 0; i < 8; ++i)
      embedded |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(raw[8 + i]))
                  << (8 * i);
    if (embedded != key)
      throw CorruptInputError(path, "spill frame key mismatch");
    std::uint32_t crc = 0;
    for (std::size_t i = 0; i < 4; ++i)
      crc |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(raw[16 + i]))
             << (8 * i);
    const std::string payload = raw.substr(kFrameHeader);
    if (crc32c(payload.data(), payload.size()) != crc)
      throw CorruptInputError(path, "spill frame digest mismatch");
    return payload;
  }

  // --- boot reconciliation ----------------------------------------------

  /// Move a file into spill_dir/quarantine (never delete: the bytes are
  /// evidence). Falls back to removal only if even the move fails, because
  /// the one unacceptable outcome is a corrupt file left where it replays.
  void quarantine_file(const std::filesystem::path& path) {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path qdir(quarantine_dir());
    fs::create_directories(qdir, ec);
    fs::rename(path, qdir / path.filename(), ec);
    if (ec) fs::remove(path, ec);
  }

  /// Constructor-time scan: verify every committed spill frame, quarantine
  /// failures and crash-orphaned temp files. Runs before any request, so
  /// no locking.
  void scan_spill_dir() {
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const auto& item : fs::directory_iterator(spill_dir_, ec)) {
      if (!item.is_regular_file()) continue;
      const std::string name = item.path().filename().string();
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
        // Crash mid-spill: AtomicFile never committed this. Quarantine it
        // so a later spill of the same key starts from a clean slate.
        quarantine_file(item.path());
        metrics_.quarantined->add();
        continue;
      }
      if (name.size() != 20 || name.compare(16, 4, ".art") != 0) continue;
      char* end = nullptr;
      const std::uint64_t key = std::strtoull(name.c_str(), &end, 16);
      if (end != name.c_str() + 16) continue;
      std::ifstream in(item.path(), std::ios::binary);
      if (!in.is_open()) continue;
      std::ostringstream bytes;
      bytes << in.rdbuf();
      try {
        (void)decode_frame(key, bytes.str(), item.path().string());
      } catch (const Error&) {
        quarantine_file(item.path());
        metrics_.quarantined->add();
      }
    }
  }

  // --- stale tier --------------------------------------------------------

  /// Remember the last good value for a key (bounded FIFO of capacity_
  /// keys) so degraded mode can serve it after compute + disk both fail.
  /// A cache without a stale tier remembers nothing. Caller holds mutex_.
  void remember_stale(std::uint64_t key, std::shared_ptr<const V> value) {
    if (!stale_tier_) return;
    if (auto it = stale_.find(key); it != stale_.end()) {
      it->second = std::move(value);
      return;
    }
    stale_.emplace(key, std::move(value));
    stale_order_.push_back(key);
    while (stale_order_.size() > capacity_) {
      stale_.erase(stale_order_.front());
      stale_order_.pop_front();
    }
  }

  std::shared_ptr<const V> take_stale(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = stale_.find(key);
    return it == stale_.end() ? nullptr : it->second;
  }

  /// True while the in-flight exception is a DeadlineExceeded (degraded
  /// mode must not mask timeouts as successes).
  static bool unwinding_deadline() {
    try {
      throw;
    } catch (const DeadlineExceeded&) {
      return true;
    } catch (...) {
      return false;
    }
  }

  // --- LRU + disk tier ---------------------------------------------------

  void touch(Entry& entry) {
    lru_.splice(lru_.begin(), lru_, entry.lru);
    entry.lru = lru_.begin();
  }

  void evict_over_capacity() {
    while (lru_.size() > capacity_) {
      const std::uint64_t victim = lru_.back();
      auto it = entries_.find(victim);
      PICP_ENSURE(it != entries_.end(), "LRU key missing from entry map");
      remember_stale(victim, it->second.value);
      try {
        spill(victim, *it->second.value);
      } catch (const std::exception&) {
        // Disk full / injected short write: the entry just falls out of
        // the disk tier. AtomicFile aborted its temp, so nothing torn was
        // published — and eviction itself must never fail.
        metrics_.spill_failures->add();
      }
      entries_.erase(it);
      lru_.pop_back();
      metrics_.evictions.add();
    }
  }

  void spill(std::uint64_t key, const V& value) {
    if (spill_dir_.empty() || !hooks_.encode) return;
    failpoint::inject("cache.spill");
    const std::string framed = encode_frame(key, hooks_.encode(value));
    // AtomicFile publication: a crash mid-spill leaves no torn artifact
    // under the final name, so decode never sees a half-written file that
    // was committed.
    atomic_write_file(spill_path(key), framed.data(), framed.size());
  }

  /// nullptr when absent/disabled or when the file fails its frame check
  /// (which quarantines it); throws only on decode rejecting a payload
  /// whose digest was valid — a logic error worth surfacing.
  std::shared_ptr<const V> load_spill(std::uint64_t key) {
    if (spill_dir_.empty() || !hooks_.decode) return nullptr;
    failpoint::inject("cache.load");
    const std::string path = spill_path(key);
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) return nullptr;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::string payload;
    try {
      payload = decode_frame(key, bytes.str(), path);
    } catch (const Error&) {
      in.close();
      quarantine_file(path);
      metrics_.quarantined->add();
      return nullptr;
    }
    try {
      return std::make_shared<const V>(hooks_.decode(payload));
    } catch (const Error&) {
      return nullptr;  // decode rejected a digest-valid payload: recompute
    }
  }

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::string spill_dir_;
  SpillHooks hooks_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::shared_ptr<const V>> stale_;
  std::list<std::uint64_t> stale_order_;  // FIFO bound for stale_
  const bool stale_tier_;
  const Metrics metrics_;
};

}  // namespace picp::serve
