#ifndef SECVIEW_OBS_POLICY_STATS_H_
#define SECVIEW_OBS_POLICY_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/serving_stats.h"

namespace secview::obs {

/// Per-policy (per-role) serving rollups: how many queries each policy
/// id answered, their outcome mix, evaluator work, allocation churn, and
/// approximate latency percentiles. This is the accounting substrate a
/// multi-tenant frontend needs — "which role is expensive" is
/// unanswerable from global histograms.
///
/// Thread-safety: the table is lock-striped. A policy id hashes to one
/// of `stripes` shards, each holding its own mutex and map, so writers
/// recording different policies rarely contend and a concurrent scrape
/// (Snapshot) locks one stripe at a time. Entries are never evicted; the
/// set of policy ids is bounded by configuration, not traffic.
class PolicyStatsTable {
 public:
  struct Options {
    size_t stripes = 8;
    /// Latency bucket upper bounds in microseconds; empty picks
    /// MetricsRegistry::DefaultLatencyBounds().
    std::vector<uint64_t> latency_bounds;
  };

  PolicyStatsTable() : PolicyStatsTable(Options{}) {}
  explicit PolicyStatsTable(Options options);
  PolicyStatsTable(const PolicyStatsTable&) = delete;
  PolicyStatsTable& operator=(const PolicyStatsTable&) = delete;

  /// Accounts one finished query under `policy`. `nodes_touched` and
  /// `alloc_bytes` may be zero and `latency_micros` absent when unknown
  /// (e.g. a query shed before execution adds no latency sample).
  void Record(std::string_view policy, ServeOutcome outcome,
              std::optional<uint64_t> latency_micros, uint64_t nodes_touched,
              uint64_t alloc_bytes);

  struct PolicySnapshot : OutcomeSummary {
    std::string policy;
    uint64_t queries = 0;
    uint64_t nodes_touched = 0;
    uint64_t alloc_bytes = 0;
    uint64_t latency_sum_micros = 0;
  };

  /// Consistent-enough copy of every policy's rollup, sorted by policy
  /// id (each stripe is internally consistent; stripes are read in
  /// sequence).
  std::vector<PolicySnapshot> Snapshot() const;

  /// Number of distinct policy ids seen.
  size_t policies() const;

  /// Lifetime record count across all policies.
  uint64_t total() const;

 private:
  struct Entry {
    LatencyTally tally;
    uint64_t nodes_touched = 0;
    uint64_t alloc_bytes = 0;
    uint64_t latency_sum_micros = 0;
  };
  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, Entry, std::less<>> entries;
  };

  size_t StripeFor(std::string_view policy) const;

  BucketBounds bounds_;
  size_t stripes_n_;
  std::unique_ptr<Stripe[]> stripes_;
};

/// Prometheus text-format series for a policy snapshot, with policy ids
/// escaped as label values (PrometheusEscapeLabelValue):
///
///   <ns>_policy_queries_total{policy="..."}
///   <ns>_policy_outcome_total{policy="...",outcome="ok|denied|timeout|shed"}
///   <ns>_policy_nodes_touched_total{policy="..."}
///   <ns>_policy_alloc_bytes_total{policy="..."}
///   <ns>_policy_latency_micros{policy="...",quantile="0.5|0.95|0.99"}
///     (+ _sum/_count, a Prometheus summary)
///
/// Empty input renders nothing (no TYPE headers for absent series).
std::string RenderPolicyStatsText(
    const std::vector<PolicyStatsTable::PolicySnapshot>& rows,
    std::string_view ns = "secview");

/// The "policy_stats" JSON section served on /varz: an object keyed by
/// policy id, each value carrying the PolicySnapshot fields.
Json PolicyStatsJson(const std::vector<PolicyStatsTable::PolicySnapshot>& rows);

}  // namespace secview::obs

#endif  // SECVIEW_OBS_POLICY_STATS_H_
