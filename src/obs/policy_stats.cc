#include "obs/policy_stats.h"

#include <algorithm>
#include <functional>

#include "obs/export.h"
#include "obs/metrics.h"

namespace secview::obs {

PolicyStatsTable::PolicyStatsTable(Options options)
    : bounds_(options.latency_bounds.empty()
                  ? MetricsRegistry::DefaultLatencyBounds()
                  : std::move(options.latency_bounds)),
      stripes_n_(std::max<size_t>(options.stripes, 1)),
      stripes_(std::make_unique<Stripe[]>(stripes_n_)) {}

size_t PolicyStatsTable::StripeFor(std::string_view policy) const {
  return std::hash<std::string_view>{}(policy) % stripes_n_;
}

void PolicyStatsTable::Record(std::string_view policy, ServeOutcome outcome,
                              std::optional<uint64_t> latency_micros,
                              uint64_t nodes_touched, uint64_t alloc_bytes) {
  Stripe& stripe = stripes_[StripeFor(policy)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.entries.find(policy);
  if (it == stripe.entries.end()) {
    it = stripe.entries
             .emplace(std::string(policy), Entry{LatencyTally(&bounds_)})
             .first;
  }
  Entry& entry = it->second;
  entry.tally.Record(latency_micros, outcome);
  entry.nodes_touched += nodes_touched;
  entry.alloc_bytes += alloc_bytes;
  entry.latency_sum_micros += latency_micros.value_or(0);
}

std::vector<PolicyStatsTable::PolicySnapshot> PolicyStatsTable::Snapshot()
    const {
  std::vector<PolicySnapshot> rows;
  for (size_t s = 0; s < stripes_n_; ++s) {
    const Stripe& stripe = stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [policy, entry] : stripe.entries) {
      PolicySnapshot row;
      static_cast<OutcomeSummary&>(row) = entry.tally.Summary();
      row.policy = policy;
      row.queries = entry.tally.count();
      row.nodes_touched = entry.nodes_touched;
      row.alloc_bytes = entry.alloc_bytes;
      row.latency_sum_micros = entry.latency_sum_micros;
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const PolicySnapshot& a, const PolicySnapshot& b) {
              return a.policy < b.policy;
            });
  return rows;
}

size_t PolicyStatsTable::policies() const {
  size_t n = 0;
  for (size_t s = 0; s < stripes_n_; ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mu);
    n += stripes_[s].entries.size();
  }
  return n;
}

uint64_t PolicyStatsTable::total() const {
  uint64_t n = 0;
  for (size_t s = 0; s < stripes_n_; ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mu);
    for (const auto& [policy, entry] : stripes_[s].entries) {
      n += entry.tally.count();
    }
  }
  return n;
}

std::string RenderPolicyStatsText(
    const std::vector<PolicyStatsTable::PolicySnapshot>& rows,
    std::string_view ns) {
  if (rows.empty()) return "";
  std::string out;
  auto name = [&ns](std::string_view metric) {
    return PrometheusMetricName(metric, ns);
  };
  auto label = [](const std::string& policy) {
    return "{policy=\"" + PrometheusEscapeLabelValue(policy) + "\"}";
  };

  const std::string queries_name = name("policy.queries");
  out += "# TYPE " + queries_name + " counter\n";
  for (const auto& row : rows) {
    out += queries_name + "_total" + label(row.policy) + " " +
           std::to_string(row.queries) + "\n";
  }

  const std::string outcome_name = name("policy.outcome");
  out += "# TYPE " + outcome_name + " counter\n";
  for (const auto& row : rows) {
    const std::pair<const char*, uint64_t> outcomes[] = {
        {"ok", row.ok},
        {"denied", row.denied},
        {"timeout", row.timeout},
        {"shed", row.shed},
    };
    for (const auto& [outcome, count] : outcomes) {
      out += outcome_name + "_total{policy=\"" +
             PrometheusEscapeLabelValue(row.policy) + "\",outcome=\"" +
             outcome + "\"} " + std::to_string(count) + "\n";
    }
  }

  const std::string nodes_name = name("policy.nodes_touched");
  out += "# TYPE " + nodes_name + " counter\n";
  for (const auto& row : rows) {
    out += nodes_name + "_total" + label(row.policy) + " " +
           std::to_string(row.nodes_touched) + "\n";
  }

  const std::string alloc_name = name("policy.alloc_bytes");
  out += "# TYPE " + alloc_name + " counter\n";
  for (const auto& row : rows) {
    out += alloc_name + "_total" + label(row.policy) + " " +
           std::to_string(row.alloc_bytes) + "\n";
  }

  const std::string latency_name = name("policy.latency_micros");
  out += "# TYPE " + latency_name + " summary\n";
  for (const auto& row : rows) {
    const std::string escaped = PrometheusEscapeLabelValue(row.policy);
    const std::pair<const char*, uint64_t> quantiles[] = {
        {"0.5", row.p50_micros},
        {"0.95", row.p95_micros},
        {"0.99", row.p99_micros},
    };
    for (const auto& [q, value] : quantiles) {
      out += latency_name + "{policy=\"" + escaped + "\",quantile=\"" + q +
             "\"} " + std::to_string(value) + "\n";
    }
    out += latency_name + "_sum{policy=\"" + escaped + "\"} " +
           std::to_string(row.latency_sum_micros) + "\n";
    out += latency_name + "_count{policy=\"" + escaped + "\"} " +
           std::to_string(row.queries) + "\n";
  }
  return out;
}

Json PolicyStatsJson(
    const std::vector<PolicyStatsTable::PolicySnapshot>& rows) {
  Json doc = Json::Object();
  for (const auto& row : rows) {
    Json entry = Json::Object();
    entry.Set("queries", row.queries);
    entry.Set("ok", row.ok);
    entry.Set("denied", row.denied);
    entry.Set("timeout", row.timeout);
    entry.Set("shed", row.shed);
    entry.Set("nodes_touched", row.nodes_touched);
    entry.Set("alloc_bytes", row.alloc_bytes);
    entry.Set("latency_sum_micros", row.latency_sum_micros);
    entry.Set("latency_p50_micros", row.p50_micros);
    entry.Set("latency_p95_micros", row.p95_micros);
    entry.Set("latency_p99_micros", row.p99_micros);
    entry.Set("latency_p99_overflow", row.p99_overflow);
    doc.Set(row.policy, std::move(entry));
  }
  return doc;
}

}  // namespace secview::obs
