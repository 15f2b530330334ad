#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace secview::obs {

BucketBounds::BucketBounds(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
}

size_t BucketBounds::BucketOf(uint64_t sample) const {
  return std::lower_bound(bounds_.begin(), bounds_.end(), sample) -
         bounds_.begin();
}

PercentileEstimate BucketBounds::Percentile(
    const std::vector<uint64_t>& counts, double p) const {
  PercentileEstimate estimate;
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return estimate;
  p = std::clamp(p, 0.0, 1.0);
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(total))), 1,
      total);
  size_t i = 0;
  uint64_t seen = counts[0];
  while (seen < rank) seen += counts[++i];
  estimate.overflow = i == bounds_.size();
  if (!estimate.overflow) {
    estimate.value = bounds_[i];
  } else if (!bounds_.empty()) {
    estimate.value = bounds_.back();
  }
  return estimate;
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(std::make_unique<std::atomic<uint64_t>[]>(bounds_.buckets())) {
  for (size_t i = 0; i < bounds_.buckets(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(uint64_t sample) {
  buckets_[bounds_.BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.buckets());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t Histogram::OverflowCount() const {
  return buckets_[bounds_.buckets() - 1].load(std::memory_order_relaxed);
}

PercentileEstimate Histogram::ApproxPercentileEstimate(double p) const {
  return bounds_.Percentile(BucketCounts(), p);
}

uint64_t Histogram::ApproxPercentile(double p) const {
  return ApproxPercentileEstimate(p).value;
}

void Histogram::Reset() {
  for (size_t i = 0; i < bounds_.buckets(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = DefaultLatencyBounds();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsSnapshot MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snapshot.counters.emplace_back(name, c->value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snapshot.gauges.emplace_back(name, g->value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramSnapshot hist;
    hist.name = name;
    hist.bounds = h->bounds();
    hist.buckets = h->BucketCounts();
    // Derive count from the buckets so count == sum(buckets) within the
    // snapshot even under concurrent Observe calls.
    for (uint64_t b : hist.buckets) hist.count += b;
    hist.sum = h->sum();
    snapshot.histograms.push_back(std::move(hist));
  }
  return snapshot;
}

Json MetricsRegistry::ToJson() const {
  MetricsSnapshot snapshot = Collect();
  Json root = Json::Object();
  Json counters = Json::Object();
  for (const auto& [name, value] : snapshot.counters) counters.Set(name, value);
  root.Set("counters", std::move(counters));
  Json gauges = Json::Object();
  for (const auto& [name, value] : snapshot.gauges) gauges.Set(name, value);
  root.Set("gauges", std::move(gauges));
  Json histograms = Json::Object();
  for (const MetricsSnapshot::HistogramSnapshot& h : snapshot.histograms) {
    Json hist = Json::Object();
    hist.Set("count", h.count);
    hist.Set("sum", h.sum);
    Json buckets = Json::Array();
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      Json bucket = Json::Object();
      if (i < h.bounds.size()) {
        bucket.Set("le", h.bounds[i]);
      } else {
        bucket.Set("le", "inf");
      }
      bucket.Set("count", h.buckets[i]);
      buckets.Append(std::move(bucket));
    }
    hist.Set("buckets", std::move(buckets));
    histograms.Set(h.name, std::move(hist));
  }
  root.Set("histograms", std::move(histograms));
  return root;
}

std::string MetricsRegistry::ToJsonString(bool pretty) const {
  return ToJson().Dump(pretty);
}

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << " = " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << name << " = " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    uint64_t n = h->count();
    out << name << " count=" << n << " sum=" << h->sum();
    if (n > 0) {
      // A '>' marks a percentile that landed in the +Inf overflow
      // bucket: the true value is at least the printed bound.
      PercentileEstimate p50 = h->ApproxPercentileEstimate(0.5);
      PercentileEstimate p99 = h->ApproxPercentileEstimate(0.99);
      out << " mean=" << (h->sum() / n) << " p50~"
          << (p50.overflow ? ">" : "") << p50.value << " p99~"
          << (p99.overflow ? ">" : "") << p99.value;
    }
    out << "\n";
  }
  return out.str();
}

std::vector<uint64_t> MetricsRegistry::DefaultLatencyBounds() {
  return {1,    2,    5,     10,    25,    50,     100,    250,     500,
          1000, 2500, 5000,  10000, 25000, 50000,  100000, 250000,  500000,
          1000000, 2500000, 5000000, 10000000};
}

std::vector<uint64_t> MetricsRegistry::DefaultByteBounds() {
  return {256,       1024,      4096,     16384,    65536,
          262144,    1048576,   4194304,  16777216, 67108864};
}

std::vector<uint64_t> MetricsRegistry::DefaultCountBounds() {
  return {4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144};
}

}  // namespace secview::obs
