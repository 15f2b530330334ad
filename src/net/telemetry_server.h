#ifndef SECVIEW_NET_TELEMETRY_SERVER_H_
#define SECVIEW_NET_TELEMETRY_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "net/http_server.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "obs/policy_stats.h"
#include "obs/serving_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace_store.h"

namespace secview::net {

/// The secview telemetry endpoint set, served over an embedded
/// HttpServer:
///
///   /metrics  - live Prometheus text exposition (RenderPrometheusText
///               over a fresh registry Collect(), process info included)
///   /varz     - the same snapshot as secview.metrics.v1 JSON
///   /healthz  - liveness + readiness: "ok\n" (200) once the ready
///               predicate holds (engine sealed), 503 "starting\n" before
///   /statusz  - human-oriented status page: build info, uptime,
///               windowed QPS / error / shed rates and latency
///               percentiles, per-shard rewrite-cache occupancy, worker
///               pool queue depth, per-policy rollups, request-trace
///               sampling counters, and the slowest recent queries
///   /tracez   - sampled request traces (obs/trace_store.h), newest
///               first; "?format=json" returns secview.trace.v1 JSONL
///               ready for `secview trace-export`
///   /profilez - hottest plan steps across profiled queries
///               (obs/plan_profile.h), exclusive nodes-touched order;
///               "?format=json" returns the table as JSON and "?k=N"
///               bounds the text table's row count
///   /memz     - subsystem memory ledger (obs/mem_ledger.h): per-account
///               attributed bytes plus the process RSS/peak-RSS line;
///               "?format=json" for the machine form
///
/// The server only *reads* observability state — a scrape can never
/// mutate engine behavior — and depends on obs/common alone, so it can
/// front any registry-bearing process, not just the query engine.
class TelemetryServer {
 public:
  struct Options {
    HttpServer::Options http;
    /// Prometheus namespace prefix for /metrics.
    std::string ns = "secview";
    /// Readiness predicate for /healthz (e.g. engine sealed). Null means
    /// always ready.
    std::function<bool()> ready;
    /// Optional serving-window aggregator feeding /statusz rates; may be
    /// null (rates section reports "no serving stats attached").
    const obs::SlidingWindowStats* window = nullptr;
    /// Optional slow-query ring feeding /statusz; may be null.
    const obs::SlowQueryLog* slow_log = nullptr;
    /// Optional per-policy rollup table: adds labeled policy series to
    /// /metrics, a "policy_stats" section to /varz, and a per-policy
    /// block to /statusz. May be null.
    const obs::PolicyStatsTable* policy_stats = nullptr;
    /// Optional request-trace ring backing /tracez; may be null (the
    /// endpoint then reports that tracing is not attached).
    const obs::RequestTraceStore* traces = nullptr;
    /// Optional cross-query hot-step table backing /profilez; may be
    /// null (the endpoint then reports that profiling is not attached).
    const obs::PlanProfileTable* plan_profiles = nullptr;
    /// Optional serving-health state machine (obs/health.h). With it
    /// attached, a ready /healthz answers 200 "ok\n" or 200 "degraded\n"
    /// from the tracker's hysteresis verdict (degraded is still serving
    /// — load balancers should deprioritize, not eject), and /statusz
    /// gains a health section. Non-const: reading the verdict advances
    /// the state machine.
    obs::HealthTracker* health = nullptr;
  };

  /// `registry` must outlive the server.
  TelemetryServer(const obs::MetricsRegistry* registry, Options options);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const { return http_->port(); }
  bool running() const { return http_->running(); }
  const HttpServer& http() const { return *http_; }

  /// The routing logic behind the socket server, exposed for tests:
  /// handles one parsed request without any networking.
  HttpResponse Handle(const HttpRequest& request) const;

 private:
  std::string RenderStatusz() const;

  const obs::MetricsRegistry* registry_;
  Options options_;
  std::unique_ptr<HttpServer> http_;
};

}  // namespace secview::net

#endif  // SECVIEW_NET_TELEMETRY_SERVER_H_
