#include "net/telemetry_server.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "common/alloc_tracker.h"
#include "common/build_info.h"
#include "common/failpoint.h"
#include "obs/export.h"
#include "obs/mem_ledger.h"

namespace secview::net {

namespace {

std::string FormatRate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// "1h 02m 03s" from milliseconds; hours unbounded.
std::string FormatUptime(uint64_t ms) {
  uint64_t s = ms / 1000;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lluh %02llum %02llus",
                static_cast<unsigned long long>(s / 3600),
                static_cast<unsigned long long>((s / 60) % 60),
                static_cast<unsigned long long>(s % 60));
  return buf;
}

void AppendWindow(std::ostringstream& out,
                  const obs::SlidingWindowStats::Window& w) {
  out << "  last " << w.seconds << "s: " << w.count << " queries, "
      << FormatRate(w.qps) << " qps, error rate " << FormatRate(w.error_rate)
      << ", shed rate " << FormatRate(w.shed_rate);
  if (w.count > 0) {
    out << ", p50 " << w.p50_micros << "us, p95 " << w.p95_micros
        << "us, p99 " << (w.p99_overflow ? ">" : "") << w.p99_micros << "us";
  }
  out << "\n";
}

/// Splits a request target into its path and its query string, the
/// query keeping its '?': "/tracez?format=json" is {"/tracez",
/// "?format=json"}, a bare path has an empty query, and "/tracez?" has
/// the unknown query "?".
std::pair<std::string_view, std::string_view> SplitTarget(
    std::string_view target) {
  const size_t q = std::min(target.find('?'), target.size());
  return {target.substr(0, q), target.substr(q)};
}

}  // namespace

TelemetryServer::TelemetryServer(const obs::MetricsRegistry* registry,
                                 Options options)
    : registry_(registry), options_(std::move(options)) {
  http_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return Handle(request); },
      options_.http);
}

TelemetryServer::~TelemetryServer() { Stop(); }

Status TelemetryServer::Start() { return http_->Start(); }

void TelemetryServer::Stop() { http_->Stop(); }

HttpResponse TelemetryServer::Handle(const HttpRequest& request) const {
  const std::string& target = request.target;
  if (target == "/metrics") {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        obs::RenderPrometheusText(registry_->Collect(), options_.ns);
    if (options_.policy_stats != nullptr) {
      response.body += obs::RenderPolicyStatsText(
          options_.policy_stats->Snapshot(), options_.ns);
    }
    response.body +=
        obs::RenderMemLedgerPrometheus(obs::MemLedger::Instance(), options_.ns);
    return response;
  }
  if (target == "/varz") {
    HttpResponse response;
    response.content_type = "application/json";
    obs::Json doc = obs::MetricsV1Document(registry_->Collect());
    if (options_.policy_stats != nullptr) {
      doc.Set("policy_stats",
              obs::PolicyStatsJson(options_.policy_stats->Snapshot()));
    }
    response.body = doc.Dump(true);
    response.body += "\n";
    return response;
  }
  const auto [path, query] = SplitTarget(target);
  if (path == "/tracez") {
    if (options_.traces == nullptr) {
      return HttpResponse::Text(200, "no request-trace store attached\n");
    }
    if (query == "?format=json") {
      HttpResponse response;
      response.content_type = "application/x-ndjson";
      response.body = options_.traces->SnapshotJsonl();
      return response;
    }
    if (!query.empty()) {
      return HttpResponse::Text(400, "unknown /tracez parameter (try "
                                     "/tracez or /tracez?format=json)\n");
    }
    return HttpResponse::Text(200, options_.traces->SnapshotText());
  }
  if (path == "/profilez") {
    if (options_.plan_profiles == nullptr) {
      return HttpResponse::Text(200, "no plan-profile table attached\n");
    }
    if (query == "?format=json") {
      HttpResponse response;
      response.content_type = "application/json";
      response.body =
          obs::PlanProfileJson(options_.plan_profiles->Snapshot(),
                               options_.plan_profiles->queries())
              .Dump(true);
      response.body += "\n";
      return response;
    }
    size_t top_k = 20;
    if (!query.empty()) {
      constexpr std::string_view kTopK = "?k=";
      if (query.substr(0, kTopK.size()) != kTopK) {
        return HttpResponse::Text(400,
                                  "unknown /profilez parameter (try "
                                  "/profilez, /profilez?k=N, or "
                                  "/profilez?format=json)\n");
      }
      top_k = 0;
      for (char c : query.substr(kTopK.size())) {
        if (c < '0' || c > '9') {
          return HttpResponse::Text(400, "bad /profilez?k= value\n");
        }
        top_k = top_k * 10 + static_cast<size_t>(c - '0');
      }
      if (top_k == 0) top_k = 1;
    }
    return HttpResponse::Text(
        200, obs::RenderPlanProfileText(options_.plan_profiles->Snapshot(),
                                        top_k,
                                        options_.plan_profiles->queries()));
  }
  if (path == "/memz") {
    const obs::MemLedger& ledger = obs::MemLedger::Instance();
    if (query == "?format=json") {
      obs::Json process = obs::Json::Object();
      process.Set("resident_bytes", ProcessResidentBytes());
      process.Set("peak_resident_bytes", ProcessPeakResidentBytes());
      obs::Json accounts = obs::Json::Array();
      for (const obs::MemLedger::Row& row : ledger.Snapshot()) {
        obs::Json entry = obs::Json::Object();
        entry.Set("name", row.name);
        entry.Set("bytes", row.bytes);
        entry.Set("charges", row.charges);
        entry.Set("live", row.live);
        accounts.Append(std::move(entry));
      }
      obs::Json doc = obs::Json::Object();
      doc.Set("schema", "secview.mem.v2");
      doc.Set("process", std::move(process));
      doc.Set("accounts", std::move(accounts));
      doc.Set("ledger_total_bytes", ledger.TotalBytes());
      HttpResponse response;
      response.content_type = "application/json";
      response.body = doc.Dump(true);
      response.body += "\n";
      return response;
    }
    if (!query.empty()) {
      return HttpResponse::Text(
          400, "unknown /memz parameter (try /memz or /memz?format=json)\n");
    }
    std::ostringstream out;
    out << obs::ProcessMemoryLine() << "\n";
    out << obs::RenderMemLedgerText(ledger);
    return HttpResponse::Text(200, out.str());
  }
  if (target == "/healthz") {
    bool ready = !options_.ready || options_.ready();
    if (!ready) return HttpResponse::Text(503, "starting\n");
    // Degraded is still 200: the process is serving, just shedding or
    // dropping more than the health tracker's threshold. Load balancers
    // that eject on non-200 would turn a partial brownout into a full
    // outage.
    if (options_.health != nullptr &&
        options_.health->state() == obs::HealthState::kDegraded) {
      return HttpResponse::Text(200, "degraded\n");
    }
    return HttpResponse::Text(200, "ok\n");
  }
  if (target == "/statusz") {
    return HttpResponse::Text(200, RenderStatusz());
  }
  if (target == "/") {
    return HttpResponse::Text(200,
                              "secview telemetry: /metrics /varz /healthz "
                              "/statusz /tracez /profilez /memz\n");
  }
  return HttpResponse::Text(404, "no such endpoint: " + target + "\n");
}

std::string TelemetryServer::RenderStatusz() const {
  const BuildInfo& build = GetBuildInfo();
  std::ostringstream out;
  out << "secview " << build.version << " (" << build.compiler << ", "
      << build.cxx_standard << ")\n";
  out << "uptime: " << FormatUptime(ProcessUptimeMillis())
      << "   start_unix: " << ProcessStartUnixSeconds() << "\n";
  bool ready = !options_.ready || options_.ready();
  out << "ready: " << (ready ? "yes" : "no") << "\n";
  if (options_.health != nullptr) {
    obs::HealthState state = options_.health->state();
    obs::HealthTracker::Window w = options_.health->Snapshot();
    out << "health: " << obs::HealthStateName(state) << " (window: " << w.ok
        << " ok, " << w.failed << " failed, " << w.drops
        << " drops, failure rate " << FormatRate(w.failure_rate) << ")\n";
  }
  out << "telemetry: " << http_->requests_handled() << " handled, "
      << http_->requests_rejected() << " rejected, "
      << http_->connections_shed() << " shed, " << http_->io_errors()
      << " io errors\n";

  out << "\nserving\n";
  if (options_.window != nullptr) {
    AppendWindow(out, options_.window->Snapshot(10));
    AppendWindow(out, options_.window->Snapshot(60));
    out << "  lifetime: " << options_.window->total() << " queries\n";
  } else {
    out << "  no serving stats attached\n";
  }

  // Cache occupancy and pool depth read off the shared registry, so
  // /statusz needs no reference to the engine itself.
  obs::MetricsSnapshot snapshot = registry_->Collect();
  out << "\nrewrite cache\n";
  bool any_cache = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t plan_compiles = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "engine.cache.hits") cache_hits = value;
    if (name == "engine.cache.misses") cache_misses = value;
    if (name == "engine.plan.compiles") plan_compiles = value;
  }
  if (cache_hits + cache_misses > 0) {
    out << "  hit rate: "
        << FormatRate(static_cast<double>(cache_hits) /
                      static_cast<double>(cache_hits + cache_misses))
        << " (" << cache_hits << " hits, " << cache_misses << " misses)\n";
    any_cache = true;
  }
  int64_t cache_bytes = 0;
  int64_t plan_cached = 0;
  int64_t plan_bytes = 0;
  bool have_plan_gauges = false;
  for (const auto& [name, value] : snapshot.gauges) {
    std::string_view n = name;
    if (n == "engine.cache.bytes") cache_bytes = value;
    if (n == "engine.plan.cached") {
      plan_cached = value;
      have_plan_gauges = true;
    }
    if (n == "engine.plan.cache_bytes") plan_bytes = value;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string_view n = name;
    if (n == "engine.cache.size") {
      out << "  total entries: " << value << " (" << cache_bytes
          << " bytes)\n";
      any_cache = true;
    } else if (n.size() > 18 && n.substr(0, 18) == "engine.cache.shard") {
      out << "  " << n << " = " << value << "\n";
      any_cache = true;
    }
  }
  if (have_plan_gauges) {
    out << "  plans: " << plan_cached << " compiled (" << plan_bytes
        << " bytes, " << plan_compiles << " compiles)\n";
    any_cache = true;
  }
  if (!any_cache) out << "  no cache gauges registered\n";

  out << "\nworker pool\n";
  bool any_pool = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (std::string_view(name).substr(0, 12) == "engine.pool.") {
      out << "  " << name << " = " << value << "\n";
      any_pool = true;
    }
  }
  for (const auto& [name, value] : snapshot.counters) {
    if (std::string_view(name).substr(0, 12) == "engine.pool.") {
      out << "  " << name << " = " << value << "\n";
      any_pool = true;
    }
  }
  if (!any_pool) out << "  no pool attached\n";

  // Audit delivery: the sink degrades by dropping events (after retry)
  // rather than stalling queries, so dropped > 0 is the signal that the
  // trail has gaps (audit-verify reports the exact sequence holes). The
  // engine registers audit.events up front, so the section shows once
  // an event was written or a sink registered audit.dropped.
  uint64_t audit_events = 0;
  uint64_t audit_dropped = 0;
  bool have_audit = false;
  for (const auto& [name, value] : snapshot.counters) {
    std::string_view n = name;
    if (n == "audit.events") {
      audit_events = value;
      have_audit = have_audit || value > 0;
    }
    if (n == "audit.dropped") {
      audit_dropped = value;
      have_audit = true;
    }
  }
  if (have_audit) {
    out << "\naudit\n";
    out << "  " << audit_events << " events written, " << audit_dropped
        << " dropped";
    if (audit_dropped > 0) out << "  ** DEGRADED: audit trail has gaps **";
    out << "\n";
  }

  // Failpoints only appear once something is armed or has fired, so a
  // production /statusz stays clean.
  std::vector<FailPointRegistry::PointInfo> points =
      FailPointRegistry::Instance().List();
  bool any_failpoint = false;
  for (const auto& p : points) {
    if (p.policy == "off" && p.fires == 0) continue;
    if (!any_failpoint) {
      out << "\nfailpoints\n";
      any_failpoint = true;
    }
    out << "  " << p.name << " policy=" << p.policy << " fires=" << p.fires
        << "\n";
  }

  out << "\nallocation\n";
  bool any_alloc = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "engine.alloc.bytes" && h.count > 0) {
      out << "  per-query alloc: " << h.sum << "B over " << h.count
          << " queries (avg " << h.sum / h.count << "B/query)\n";
      any_alloc = true;
    }
  }
  for (const auto& [name, value] : snapshot.counters) {
    std::string_view n = name;
    if (n.size() > 6 && n.substr(0, 6) == "alloc." && value > 0) {
      out << "  " << n << " = " << value << "\n";
      any_alloc = true;
    }
  }
  if (!any_alloc) {
    out << "  no allocations recorded"
        << (secview::AllocTrackingAvailable() ? "" : " (tracker compiled out)")
        << "\n";
  }

  out << "\nmemory\n";
  out << "  rss: " << ProcessResidentBytes() << "B (peak "
      << ProcessPeakResidentBytes() << "B)\n";
  {
    const obs::MemLedger& ledger = obs::MemLedger::Instance();
    out << "  ledger: " << ledger.TotalBytes() << "B across "
        << ledger.Snapshot().size() << " accounts (see /memz)\n";
  }

  out << "\nper-policy\n";
  if (options_.policy_stats != nullptr) {
    std::vector<obs::PolicyStatsTable::PolicySnapshot> rows =
        options_.policy_stats->Snapshot();
    if (rows.empty()) out << "  no queries yet\n";
    for (const auto& row : rows) {
      out << "  " << row.policy << ": " << row.queries << " queries (ok "
          << row.ok << ", denied " << row.denied << ", timeout " << row.timeout
          << ", shed " << row.shed << "), nodes " << row.nodes_touched
          << ", alloc " << row.alloc_bytes << "B, p50 " << row.p50_micros
          << "us, p95 " << row.p95_micros << "us, p99 "
          << (row.p99_overflow ? ">" : "") << row.p99_micros << "us\n";
    }
  } else {
    out << "  no policy stats attached\n";
  }

  out << "\nrequest traces\n";
  if (options_.traces != nullptr) {
    out << "  sample 1/" << options_.traces->options().sample_every
        << ", slow >= " << options_.traces->options().slow_micros << "us, "
        << options_.traces->retained() << " retained of "
        << options_.traces->offered() << " offered (see /tracez)\n";
  } else {
    out << "  no request-trace store attached\n";
  }

  out << "\nslow queries";
  if (options_.slow_log != nullptr) {
    out << " (threshold " << options_.slow_log->threshold_micros()
        << "us, " << options_.slow_log->recorded() << " recorded, newest "
        << "first)\n";
    std::vector<obs::SlowQueryLog::Entry> entries =
        options_.slow_log->Snapshot();
    if (entries.empty()) out << "  none\n";
    for (const obs::SlowQueryLog::Entry& e : entries) {
      out << "  [" << obs::ServeOutcomeName(e.outcome) << "] "
          << e.latency_micros << "us policy=" << e.policy
          << " cache=" << (e.cache_hit ? "hit" : "miss")
          << " nodes=" << e.nodes_touched << " preds=" << e.predicate_evals
          << " results=" << e.results << " alloc=" << e.alloc_bytes << "B";
      if (!e.hot_step.empty()) out << " hot=" << e.hot_step;
      out << " query=" << e.query << "\n";
    }
  } else {
    out << "\n  no slow-query log attached\n";
  }
  return out.str();
}

}  // namespace secview::net
