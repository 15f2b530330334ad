#include "obs/serving_stats.h"

#include <algorithm>
#include <chrono>
#include <iterator>

namespace secview::obs {

ServeOutcome ServeOutcomeForStatus(const Status& status) {
  if (status.ok()) return ServeOutcome::kOk;
  if (status.IsDeadlineExceeded() || status.IsResourceExhausted()) {
    return ServeOutcome::kTimeout;
  }
  if (status.IsCancelled()) return ServeOutcome::kShed;
  return ServeOutcome::kDenied;
}

const char* ServeOutcomeName(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kOk: return "ok";
    case ServeOutcome::kDenied: return "denied";
    case ServeOutcome::kTimeout: return "timeout";
    case ServeOutcome::kShed: return "shed";
  }
  return "unknown";
}

void LatencyTally::Record(std::optional<uint64_t> latency_micros,
                          ServeOutcome outcome) {
  ++outcomes_[static_cast<size_t>(outcome)];
  if (latency_micros.has_value()) {
    ++latency_[bounds_->BucketOf(*latency_micros)];
  }
}

void LatencyTally::Add(const LatencyTally& other) {
  for (size_t i = 0; i < 4; ++i) outcomes_[i] += other.outcomes_[i];
  for (size_t i = 0; i < latency_.size(); ++i) latency_[i] += other.latency_[i];
}

void LatencyTally::Clear() {
  std::fill(std::begin(outcomes_), std::end(outcomes_), 0);
  std::fill(latency_.begin(), latency_.end(), 0);
}

uint64_t LatencyTally::count() const {
  return outcomes_[0] + outcomes_[1] + outcomes_[2] + outcomes_[3];
}

OutcomeSummary LatencyTally::Summary() const {
  OutcomeSummary summary;
  summary.ok = outcomes_[static_cast<size_t>(ServeOutcome::kOk)];
  summary.denied = outcomes_[static_cast<size_t>(ServeOutcome::kDenied)];
  summary.timeout = outcomes_[static_cast<size_t>(ServeOutcome::kTimeout)];
  summary.shed = outcomes_[static_cast<size_t>(ServeOutcome::kShed)];
  summary.p50_micros = bounds_->Percentile(latency_, 0.50).value;
  summary.p95_micros = bounds_->Percentile(latency_, 0.95).value;
  const PercentileEstimate p99 = bounds_->Percentile(latency_, 0.99);
  summary.p99_micros = p99.value;
  summary.p99_overflow = p99.overflow;
  return summary;
}

namespace {

uint64_t SteadyNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SlidingWindowStats::SlidingWindowStats() : SlidingWindowStats(Options{}) {}

SlidingWindowStats::SlidingWindowStats(Options options)
    : bounds_(options.latency_bounds.empty()
                  ? MetricsRegistry::DefaultLatencyBounds()
                  : std::move(options.latency_bounds)),
      buckets_n_(std::max<size_t>(options.window_seconds, 2)),
      buckets_(std::make_unique<Bucket[]>(buckets_n_)),
      now_micros_(options.now_micros ? std::move(options.now_micros)
                                     : SteadyNowMicros) {
  for (size_t i = 0; i < buckets_n_; ++i) {
    buckets_[i].tally = LatencyTally(&bounds_);
  }
}

int64_t SlidingWindowStats::NowSecond() const {
  return static_cast<int64_t>(now_micros_() / 1'000'000);
}

void SlidingWindowStats::Record(std::optional<uint64_t> latency_micros,
                                ServeOutcome outcome) {
  int64_t second = NowSecond();
  Bucket& bucket = buckets_[static_cast<size_t>(second) % buckets_n_];
  {
    std::lock_guard<std::mutex> lock(bucket.mu);
    if (bucket.second != second) {
      bucket.second = second;
      bucket.tally.Clear();
    }
    bucket.tally.Record(latency_micros, outcome);
  }
  std::lock_guard<std::mutex> lock(total_mu_);
  ++total_;
}

SlidingWindowStats::Window SlidingWindowStats::Snapshot(
    uint64_t seconds) const {
  Window window;
  window.seconds = std::max<uint64_t>(
      1, std::min<uint64_t>(seconds, static_cast<uint64_t>(buckets_n_)));
  int64_t now = NowSecond();
  int64_t oldest = now - static_cast<int64_t>(window.seconds) + 1;
  LatencyTally sum(&bounds_);
  for (int64_t s = oldest; s <= now; ++s) {
    if (s < 0) continue;
    const Bucket& bucket = buckets_[static_cast<size_t>(s) % buckets_n_];
    std::lock_guard<std::mutex> lock(bucket.mu);
    if (bucket.second != s) continue;  // stale or never filled
    sum.Add(bucket.tally);
  }
  static_cast<OutcomeSummary&>(window) = sum.Summary();
  window.count = sum.count();
  window.qps =
      static_cast<double>(window.count) / static_cast<double>(window.seconds);
  if (window.count > 0) {
    uint64_t errors = window.denied + window.timeout + window.shed;
    window.error_rate =
        static_cast<double>(errors) / static_cast<double>(window.count);
    window.shed_rate =
        static_cast<double>(window.shed) / static_cast<double>(window.count);
  }
  return window;
}

uint64_t SlidingWindowStats::total() const {
  std::lock_guard<std::mutex> lock(total_mu_);
  return total_;
}

}  // namespace secview::obs
