#ifndef SECVIEW_OBS_METRICS_H_
#define SECVIEW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace secview::obs {

/// Monotone event counter. Updates are relaxed atomics: safe to bump from
/// several threads, never a lock on the hot path.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. number of registered
/// policies, cache size).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// An ApproxPercentile answer that can say "beyond the largest bucket".
/// When the p-quantile observation landed in the +Inf overflow bucket
/// the histogram carries no upper bound for it: `value` is the largest
/// finite bound and `overflow` is true, meaning the true percentile is
/// *at least* `value`. Reporting the clamped value alone silently caps
/// tail percentiles (a p99 of "5s" could really be minutes).
struct PercentileEstimate {
  uint64_t value = 0;
  bool overflow = false;
};

/// A bucket layout: sorted, de-duplicated inclusive upper bounds of the
/// first N buckets, with an implicit +inf overflow bucket after them.
/// Histogram, SlidingWindowStats and PolicyStatsTable all bucket through
/// it and all read their percentiles off Percentile().
class BucketBounds {
 public:
  explicit BucketBounds(std::vector<uint64_t> bounds);

  const std::vector<uint64_t>& values() const { return bounds_; }
  /// Number of buckets, the overflow bucket included.
  size_t buckets() const { return bounds_.size() + 1; }
  /// Index of the bucket holding `sample`.
  size_t BucketOf(uint64_t sample) const;

  /// Nearest-rank p-quantile of `counts` (buckets() entries): the upper
  /// bound of the bucket holding the ceil(p*n)-th smallest sample, so
  /// p99 over 10+ samples reaches the actual tail instead of stopping
  /// one short. {0, false} when `counts` holds no samples.
  PercentileEstimate Percentile(const std::vector<uint64_t>& counts,
                                double p) const;

 private:
  std::vector<uint64_t> bounds_;
};

/// Fixed-bucket histogram over a BucketBounds layout. Observations and
/// bucket bumps are relaxed atomics; the bucket layout is immutable
/// after construction, so concurrent Observe calls never contend on a
/// lock.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Observe(uint64_t sample);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<uint64_t>& bounds() const { return bounds_.values(); }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;
  /// Samples that exceeded every finite bound (the +Inf bucket count).
  uint64_t OverflowCount() const;

  /// Approximate quantile read off the bucket boundaries: the upper
  /// bound of the bucket containing the p-quantile observation (0 when
  /// empty), with an explicit overflow flag when that bucket is +Inf.
  PercentileEstimate ApproxPercentileEstimate(double p) const;

  /// Legacy clamped form of ApproxPercentileEstimate: overflow answers
  /// come back as the largest finite bound, indistinguishable from a
  /// sample that genuinely landed there. Prefer the estimate API for
  /// anything user-facing.
  uint64_t ApproxPercentile(double p) const;

  void Reset();

 private:
  BucketBounds bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// A point-in-time copy of every instrument in a registry, taken under
/// one lock acquisition so exporters (JSON, text, Prometheus, snapshot
/// files) all see the same set of instruments. Instrument lists are
/// sorted by name. A histogram's `count` is derived from its bucket
/// counts, so count == sum(buckets) always holds within a snapshot even
/// when other threads are concurrently observing (`sum` may trail by the
/// in-flight observations).
struct MetricsSnapshot {
  struct HistogramSnapshot {
    std::string name;
    std::vector<uint64_t> bounds;   ///< inclusive upper bounds
    std::vector<uint64_t> buckets;  ///< bounds.size() + 1; last = overflow
    uint64_t count = 0;             ///< == sum of `buckets`
    uint64_t sum = 0;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Name -> instrument registry. Instrument lookup/creation takes a mutex;
/// the returned references stay valid for the registry's lifetime, so hot
/// paths resolve a name once and then update lock-free. Names use dotted
/// lowercase segments, e.g. "engine.cache.hits" (see
/// docs/observability.md for the catalog).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// `bounds` is only consulted when the histogram is first created.
  Histogram& GetHistogram(std::string_view name,
                          std::vector<uint64_t> bounds = {});

  /// Zeroes every instrument (registrations survive).
  void Reset();

  /// Consistent snapshot of every instrument (see MetricsSnapshot). All
  /// exporters below are defined in terms of Collect, so a document
  /// rendered from one snapshot never mixes instrument sets.
  MetricsSnapshot Collect() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  ///  {"count": n, "sum": s, "buckets": [{"le": bound, "count": c}...]}}}
  Json ToJson() const;
  std::string ToJsonString(bool pretty = true) const;

  /// Human-readable summary, one instrument per line, sorted by name.
  std::string ToText() const;

  /// Microsecond-latency bucket bounds used for the phase.* histograms.
  static std::vector<uint64_t> DefaultLatencyBounds();

  /// Byte-sized bucket bounds (256 B .. 64 MiB, powers of four) used for
  /// the engine.alloc.bytes histogram.
  static std::vector<uint64_t> DefaultByteBounds();

  /// Call-count bucket bounds (4 .. 256 Ki, powers of four) used for the
  /// engine.alloc.count histogram.
  static std::vector<uint64_t> DefaultCountBounds();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace secview::obs

#endif  // SECVIEW_OBS_METRICS_H_
