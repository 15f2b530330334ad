#ifndef SECVIEW_OBS_SERVING_STATS_H_
#define SECVIEW_OBS_SERVING_STATS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace secview::obs {

/// Outcome classes of one served query, the audit trail's taxonomy
/// (docs/observability.md): answered, denied (policy/input failure),
/// timeout (deadline or resource budget tripped), shed (cancelled or
/// rejected under load).
enum class ServeOutcome { kOk, kDenied, kTimeout, kShed };

/// Maps an execution status onto its outcome class. The engine maps
/// each request once and hands the class to every observer and to the
/// audit sink (as ServeOutcomeName), so none of them can disagree about
/// what a failure was.
ServeOutcome ServeOutcomeForStatus(const Status& status);

/// Stable lowercase name ("ok", "denied", "timeout", "shed").
const char* ServeOutcomeName(ServeOutcome outcome);

/// Outcome counts and nearest-rank latency percentiles of a set of
/// finished queries. When p99_overflow is set the p99 landed past the
/// largest finite bound and the value is a lower bound, not an estimate.
struct OutcomeSummary {
  uint64_t ok = 0;
  uint64_t denied = 0;
  uint64_t timeout = 0;
  uint64_t shed = 0;
  uint64_t p50_micros = 0;
  uint64_t p95_micros = 0;
  uint64_t p99_micros = 0;
  bool p99_overflow = false;
};

/// Per-outcome counts and latency buckets of a set of finished queries:
/// one second of SlidingWindowStats, one policy of PolicyStatsTable, or
/// a sum of either. The bucket layout belongs to the owner and must
/// outlive the tally. Not synchronized; owners lock around it.
class LatencyTally {
 public:
  LatencyTally() = default;
  explicit LatencyTally(const BucketBounds* bounds)
      : bounds_(bounds), latency_(bounds->buckets(), 0) {}

  /// Counts one query; a query without a latency (never executed) adds
  /// no sample to the percentiles.
  void Record(std::optional<uint64_t> latency_micros, ServeOutcome outcome);
  /// Adds `other`, which must share this tally's bounds.
  void Add(const LatencyTally& other);
  void Clear();

  uint64_t count() const;
  OutcomeSummary Summary() const;

 private:
  const BucketBounds* bounds_ = nullptr;
  uint64_t outcomes_[4] = {};  ///< indexed by ServeOutcome
  std::vector<uint64_t> latency_;
};

/// Sliding-window serving statistics: a ring of per-second buckets, each
/// holding outcome counts and a small fixed-bound latency histogram.
/// Record() is called once per finished query (by the engine); readers
/// (the /statusz endpoint) ask for windowed aggregates — QPS, error and
/// shed rates, approximate p50/p95/p99 — over the last N seconds.
///
/// Thread-safety: every bucket carries its own mutex; Record locks only
/// the current second's bucket, Snapshot walks the ring locking one
/// bucket at a time. Writers on different seconds never contend, and a
/// concurrent scrape never blocks serving for more than one bucket's
/// critical section. Stale buckets (lapped by the ring) are reset lazily
/// by the next writer or skipped by readers via their second tag.
class SlidingWindowStats {
 public:
  struct Options {
    /// Ring length in seconds. Must exceed the longest window ever
    /// queried; anything older is overwritten in place.
    size_t window_seconds = 120;
    /// Latency bucket upper bounds in microseconds; empty picks
    /// MetricsRegistry::DefaultLatencyBounds().
    std::vector<uint64_t> latency_bounds;
    /// Clock returning microseconds since an arbitrary epoch; defaults
    /// to the steady clock. Injected by tests to step time without
    /// sleeping.
    std::function<uint64_t()> now_micros;
  };

  SlidingWindowStats();
  explicit SlidingWindowStats(Options options);

  /// Accounts one finished query in the current second's bucket (see
  /// LatencyTally::Record).
  void Record(std::optional<uint64_t> latency_micros, ServeOutcome outcome);

  /// Aggregates over a trailing window.
  struct Window : OutcomeSummary {
    uint64_t seconds = 0;  ///< window length asked for
    uint64_t count = 0;
    double qps = 0;         ///< count / seconds
    double error_rate = 0;  ///< (denied + timeout + shed) / count; 0 if idle
    double shed_rate = 0;   ///< shed / count; 0 if idle
  };

  /// Aggregate over the last `seconds` seconds (including the current,
  /// partially elapsed one). `seconds` is clamped to the ring length.
  Window Snapshot(uint64_t seconds) const;

  /// Lifetime record count (all outcomes).
  uint64_t total() const;

  size_t window_seconds() const { return buckets_n_; }

 private:
  struct Bucket {
    mutable std::mutex mu;
    /// Absolute second this bucket currently describes; -1 = never used.
    int64_t second = -1;
    LatencyTally tally;
  };

  int64_t NowSecond() const;

  BucketBounds bounds_;
  size_t buckets_n_;
  std::unique_ptr<Bucket[]> buckets_;
  std::function<uint64_t()> now_micros_;
  mutable std::mutex total_mu_;
  uint64_t total_ = 0;
};

}  // namespace secview::obs

#endif  // SECVIEW_OBS_SERVING_STATS_H_
