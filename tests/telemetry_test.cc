// Tests for the serving-observability pieces added with the telemetry
// endpoint: the sliding-window serving stats (deterministic via an
// injected clock), the bounded slow-query ring, and the TelemetryServer
// routes — both the pure Handle() routing and end to end over a socket
// against a live, sealed engine.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/failpoint.h"
#include "engine/engine.h"
#include "engine/worker_pool.h"
#include "net/http_client.h"
#include "net/telemetry_server.h"
#include "obs/health.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/mem_ledger.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "obs/policy_stats.h"
#include "obs/serving_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace_store.h"
#include "workload/hospital.h"

namespace secview {
namespace {

// ---------------------------------------------------------------------------
// ServeOutcomeForStatus

TEST(ServeOutcomeTest, MatchesAuditTaxonomy) {
  using obs::ServeOutcome;
  EXPECT_EQ(obs::ServeOutcomeForStatus(Status::OK()), ServeOutcome::kOk);
  EXPECT_EQ(obs::ServeOutcomeForStatus(Status::InvalidArgument("x")),
            ServeOutcome::kDenied);
  EXPECT_EQ(obs::ServeOutcomeForStatus(Status::NotFound("x")),
            ServeOutcome::kDenied);
  EXPECT_EQ(obs::ServeOutcomeForStatus(Status::DeadlineExceeded("x")),
            ServeOutcome::kTimeout);
  EXPECT_EQ(obs::ServeOutcomeForStatus(Status::ResourceExhausted("x")),
            ServeOutcome::kTimeout);
  EXPECT_EQ(obs::ServeOutcomeForStatus(Status::Cancelled("x")),
            ServeOutcome::kShed);
  EXPECT_STREQ(obs::ServeOutcomeName(ServeOutcome::kShed), "shed");
}

// ---------------------------------------------------------------------------
// SlidingWindowStats (injected clock; no sleeps)

class WindowTest : public ::testing::Test {
 protected:
  obs::SlidingWindowStats MakeStats(size_t window_seconds = 120) {
    obs::SlidingWindowStats::Options options;
    options.window_seconds = window_seconds;
    options.now_micros = [this] { return now_micros_; };
    return obs::SlidingWindowStats(std::move(options));
  }

  void AdvanceSeconds(uint64_t s) { now_micros_ += s * 1'000'000; }

  uint64_t now_micros_ = 1'000'000'000;  // arbitrary epoch
};

TEST_F(WindowTest, AggregatesCountsAndRates) {
  obs::SlidingWindowStats stats = MakeStats();
  for (int i = 0; i < 8; ++i) stats.Record(100, obs::ServeOutcome::kOk);
  stats.Record(100, obs::ServeOutcome::kDenied);
  stats.Record(100, obs::ServeOutcome::kShed);

  obs::SlidingWindowStats::Window w = stats.Snapshot(10);
  EXPECT_EQ(w.count, 10u);
  EXPECT_EQ(w.ok, 8u);
  EXPECT_EQ(w.denied, 1u);
  EXPECT_EQ(w.shed, 1u);
  EXPECT_DOUBLE_EQ(w.qps, 1.0);  // 10 queries over a 10s window
  EXPECT_DOUBLE_EQ(w.error_rate, 0.2);
  EXPECT_DOUBLE_EQ(w.shed_rate, 0.1);
  EXPECT_EQ(stats.total(), 10u);
}

TEST_F(WindowTest, OldSecondsFallOutOfTheWindow) {
  obs::SlidingWindowStats stats = MakeStats();
  stats.Record(100, obs::ServeOutcome::kOk);
  AdvanceSeconds(5);
  stats.Record(100, obs::ServeOutcome::kOk);

  EXPECT_EQ(stats.Snapshot(10).count, 2u);
  // A 3s window reaches back only to now-2s: the first record is gone.
  EXPECT_EQ(stats.Snapshot(3).count, 1u);
  AdvanceSeconds(100);
  EXPECT_EQ(stats.Snapshot(10).count, 0u);
  EXPECT_EQ(stats.total(), 2u) << "lifetime total never decays";
}

TEST_F(WindowTest, LappedBucketsAreNotDoubleCounted) {
  obs::SlidingWindowStats stats = MakeStats(/*window_seconds=*/4);
  stats.Record(100, obs::ServeOutcome::kOk);
  // Advance a full ring length plus one: the writer lands in the same
  // physical bucket as the first record and must reset it, not add.
  AdvanceSeconds(5);
  stats.Record(100, obs::ServeOutcome::kOk);
  EXPECT_EQ(stats.Snapshot(4).count, 1u);
}

TEST_F(WindowTest, PercentilesReadOffLatencyBuckets) {
  obs::SlidingWindowStats::Options options;
  options.latency_bounds = {10, 100, 1000};
  options.now_micros = [this] { return now_micros_; };
  obs::SlidingWindowStats stats(std::move(options));
  // 100 samples: ranks 1-89 land in the <=10 bucket, 90-98 in <=100,
  // 99-100 in <=1000; nearest-rank p50/p95/p99 are ranks 50/95/99.
  for (int i = 0; i < 89; ++i) stats.Record(5, obs::ServeOutcome::kOk);
  for (int i = 0; i < 9; ++i) stats.Record(50, obs::ServeOutcome::kOk);
  stats.Record(500, obs::ServeOutcome::kOk);
  stats.Record(500, obs::ServeOutcome::kOk);

  obs::SlidingWindowStats::Window w = stats.Snapshot(10);
  EXPECT_EQ(w.p50_micros, 10u);
  EXPECT_EQ(w.p95_micros, 100u);
  EXPECT_EQ(w.p99_micros, 1000u);
  EXPECT_FALSE(w.p99_overflow);
}

TEST_F(WindowTest, TailBeyondLastBoundIsFlaggedAsOverflow) {
  obs::SlidingWindowStats::Options options;
  options.latency_bounds = {10, 100};
  options.now_micros = [this] { return now_micros_; };
  obs::SlidingWindowStats stats(std::move(options));
  for (int i = 0; i < 10; ++i) stats.Record(50'000, obs::ServeOutcome::kOk);

  obs::SlidingWindowStats::Window w = stats.Snapshot(10);
  EXPECT_EQ(w.p99_micros, 100u) << "clamped to the last finite bound";
  EXPECT_TRUE(w.p99_overflow) << "but marked as a lower bound";
}

// Histogram, SlidingWindowStats and PolicyStatsTable all read their
// percentiles off one obs::BucketBounds: the same samples must give the
// same p50/p95/p99 and the same overflow flag in all three.
TEST_F(WindowTest, HistogramWindowAndPolicyTableShareOnePercentile) {
  const std::vector<uint64_t> bounds = {10, 100, 1000};
  struct Case {
    const char* name;
    std::vector<uint64_t> samples;
    uint64_t p50, p95, p99;
    bool p99_overflow;
  };
  // 19 samples on the 10 bound and one at 100: the p95 rank (19 of 20)
  // is the last sample of the first bucket, exactly on its edge.
  std::vector<uint64_t> edge(19, 10);
  edge.push_back(100);
  const Case cases[] = {
      {"empty", {}, 0, 0, 0, false},
      {"one sample", {50}, 100, 100, 100, false},
      {"rank on a bucket edge", edge, 10, 10, 100, false},
      {"every sample past the last bound", {5000, 6000, 7000}, 1000, 1000,
       1000, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    obs::Histogram histogram(bounds);
    obs::SlidingWindowStats::Options window_options;
    window_options.latency_bounds = bounds;
    window_options.now_micros = [this] { return now_micros_; };
    obs::SlidingWindowStats window(std::move(window_options));
    obs::PolicyStatsTable::Options table_options;
    table_options.latency_bounds = bounds;
    obs::PolicyStatsTable table(table_options);
    for (uint64_t sample : c.samples) {
      histogram.Observe(sample);
      window.Record(sample, obs::ServeOutcome::kOk);
      table.Record("nurse", obs::ServeOutcome::kOk, sample, 0, 0);
    }
    const obs::SlidingWindowStats::Window w = window.Snapshot(10);
    const std::vector<obs::PolicyStatsTable::PolicySnapshot> rows =
        table.Snapshot();
    const obs::PolicyStatsTable::PolicySnapshot row =
        rows.empty() ? obs::PolicyStatsTable::PolicySnapshot{} : rows[0];
    const obs::PercentileEstimate h50 =
        histogram.ApproxPercentileEstimate(0.50);
    const obs::PercentileEstimate h95 =
        histogram.ApproxPercentileEstimate(0.95);
    const obs::PercentileEstimate h99 =
        histogram.ApproxPercentileEstimate(0.99);
    EXPECT_EQ(h50.value, c.p50);
    EXPECT_EQ(h95.value, c.p95);
    EXPECT_EQ(h99.value, c.p99);
    EXPECT_EQ(h99.overflow, c.p99_overflow);
    EXPECT_EQ(w.p50_micros, h50.value);
    EXPECT_EQ(w.p95_micros, h95.value);
    EXPECT_EQ(w.p99_micros, h99.value);
    EXPECT_EQ(w.p99_overflow, h99.overflow);
    EXPECT_EQ(row.p50_micros, h50.value);
    EXPECT_EQ(row.p95_micros, h95.value);
    EXPECT_EQ(row.p99_micros, h99.value);
    EXPECT_EQ(row.p99_overflow, h99.overflow);
  }
}

TEST_F(WindowTest, ConcurrentRecordAndSnapshot) {
  // Real clock here: this is the TSan-facing smoke for writer/reader
  // interleavings across bucket mutexes.
  obs::SlidingWindowStats stats;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stats, &stop] {
      while (!stop.load()) {
        stats.Record(42, obs::ServeOutcome::kOk);
      }
    });
  }
  // Don't start reading until at least one writer got scheduled, or the
  // 200 snapshots can finish before any Record lands.
  while (stats.total() == 0) std::this_thread::yield();
  uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    obs::SlidingWindowStats::Window w = stats.Snapshot(10);
    EXPECT_GE(w.count + 1, last);  // snapshots are non-garbled
    last = w.count;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(stats.total(), 0u);
}

// ---------------------------------------------------------------------------
// SlowQueryLog

obs::SlowQueryLog::Entry MakeEntry(const std::string& query,
                                   uint64_t latency_micros) {
  obs::SlowQueryLog::Entry entry;
  entry.policy = "nurse";
  entry.query = query;
  entry.latency_micros = latency_micros;
  return entry;
}

TEST(SlowQueryLogTest, ThresholdFiltersFastQueries) {
  obs::SlowQueryLog::Options options;
  options.threshold_micros = 1000;
  obs::SlowQueryLog log(options);
  log.MaybeRecord(MakeEntry("fast", 10));
  log.MaybeRecord(MakeEntry("slow", 5000));
  ASSERT_EQ(log.Snapshot().size(), 1u);
  EXPECT_EQ(log.Snapshot()[0].query, "slow");
  EXPECT_EQ(log.recorded(), 1u);
}

TEST(SlowQueryLogTest, ZeroThresholdLogsEverything) {
  obs::SlowQueryLog::Options options;
  options.threshold_micros = 0;
  obs::SlowQueryLog log(options);
  log.MaybeRecord(MakeEntry("q", 0));
  EXPECT_EQ(log.Snapshot().size(), 1u);
}

TEST(SlowQueryLogTest, RingKeepsNewestAndOrdersNewestFirst) {
  obs::SlowQueryLog::Options options;
  options.capacity = 3;
  options.threshold_micros = 0;
  obs::SlowQueryLog log(options);
  for (int i = 0; i < 5; ++i) {
    log.MaybeRecord(MakeEntry("q" + std::to_string(i), 100));
  }
  std::vector<obs::SlowQueryLog::Entry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].query, "q4");
  EXPECT_EQ(entries[1].query, "q3");
  EXPECT_EQ(entries[2].query, "q2");
  EXPECT_EQ(log.recorded(), 5u);
}

TEST(SlowQueryLogTest, ConcurrentRecordAndSnapshot) {
  obs::SlowQueryLog::Options options;
  options.threshold_micros = 0;
  options.capacity = 8;
  obs::SlowQueryLog log(options);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      std::vector<obs::SlowQueryLog::Entry> entries = log.Snapshot();
      EXPECT_LE(entries.size(), 8u);
      for (const auto& e : entries) EXPECT_EQ(e.policy, "nurse");
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < 500; ++i) {
        log.MaybeRecord(MakeEntry("q" + std::to_string(t * 1000 + i), 100));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(log.recorded(), 2000u);
  EXPECT_EQ(log.Snapshot().size(), 8u);
}

// ---------------------------------------------------------------------------
// TelemetryServer routing + end to end against a live engine

constexpr char kNursePolicy[] = R"(
  ann(hospital, dept) = [*/patient/wardNo = $wardNo]
  ann(dept, clinicalTrial) = N
  ann(clinicalTrial, patientInfo) = Y
  ann(treatment, trial) = N
  ann(treatment, regular) = N
  ann(trial, bill) = Y
  ann(regular, bill) = Y
  ann(regular, medication) = Y
)";

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
    ASSERT_TRUE(engine_->RegisterPolicy("nurse", kNursePolicy).ok());
    auto doc = GenerateDocument(MakeHospitalDtd(),
                                HospitalGeneratorOptions(7, 20'000));
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::make_unique<XmlTree>(std::move(doc).value());

    obs::SlowQueryLog::Options slow_options;
    slow_options.threshold_micros = 0;  // log every execution
    slow_log_ = std::make_unique<obs::SlowQueryLog>(slow_options);
    window_ = std::make_unique<obs::SlidingWindowStats>();
    engine_->AttachServingObservers(window_.get(), slow_log_.get());

    policy_stats_ = std::make_unique<obs::PolicyStatsTable>();
    engine_->AttachPolicyStats(policy_stats_.get());
    obs::RequestTraceStore::Options trace_options;
    trace_options.sample_every = 1;  // trace every execution
    traces_ = std::make_unique<obs::RequestTraceStore>(trace_options);
    engine_->AttachTraceStore(traces_.get());
    plan_profiles_ = std::make_unique<obs::PlanProfileTable>();
    engine_->AttachPlanProfiles(plan_profiles_.get());

    net::TelemetryServer::Options options;
    options.ready = [this] { return engine_->sealed(); };
    options.window = window_.get();
    options.slow_log = slow_log_.get();
    options.policy_stats = policy_stats_.get();
    options.traces = traces_.get();
    options.plan_profiles = plan_profiles_.get();
    server_ = std::make_unique<net::TelemetryServer>(&engine_->metrics(),
                                                     options);
  }

  net::HttpRequest Get(const std::string& target) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = target;
    request.version = "HTTP/1.1";
    return request;
  }

  void ExecuteSome() {
    ExecuteOptions options;
    options.bindings = {{"wardNo", "3"}};
    for (const char* q : {"//patient//bill", "//patient/name", "//bill"}) {
      auto result = engine_->Execute("nurse", *doc_, q, options);
      ASSERT_TRUE(result.ok()) << result.status();
    }
    // One denial, so error-rate surfaces are nonzero too.
    auto denied = engine_->Execute("nurse", *doc_, "//patient[", options);
    ASSERT_FALSE(denied.ok());
  }

  std::unique_ptr<SecureQueryEngine> engine_;
  std::unique_ptr<XmlTree> doc_;
  std::unique_ptr<obs::SlidingWindowStats> window_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  std::unique_ptr<obs::PolicyStatsTable> policy_stats_;
  std::unique_ptr<obs::RequestTraceStore> traces_;
  std::unique_ptr<obs::PlanProfileTable> plan_profiles_;
  std::unique_ptr<net::TelemetryServer> server_;
};

TEST_F(TelemetryServerTest, HealthzTracksEngineSealing) {
  EXPECT_EQ(server_->Handle(Get("/healthz")).status, 503);
  engine_->Seal();
  net::HttpResponse response = server_->Handle(Get("/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST_F(TelemetryServerTest, MetricsRouteRendersValidPrometheusText) {
  engine_->Seal();
  ExecuteSome();
  net::HttpResponse response = server_->Handle(Get("/metrics"));
  ASSERT_EQ(response.status, 200);
  Status valid = obs::ValidatePrometheusText(response.body);
  EXPECT_TRUE(valid.ok()) << valid;
  EXPECT_NE(response.body.find("secview_engine_queries_total"),
            std::string::npos);
  EXPECT_NE(response.body.find("secview_engine_execute_micros_bucket"),
            std::string::npos);
  EXPECT_NE(response.body.find("secview_build_info{"), std::string::npos);
  EXPECT_NE(response.body.find("secview_process_start_time_unix"),
            std::string::npos);
}

TEST_F(TelemetryServerTest, VarzRouteIsTheMetricsV1Document) {
  engine_->Seal();
  ExecuteSome();
  net::HttpResponse response = server_->Handle(Get("/varz"));
  ASSERT_EQ(response.status, 200);
  auto parsed = obs::Json::Parse(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::Json* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->AsString(), "secview.metrics.v1");
  ASSERT_NE(parsed->Find("counters"), nullptr);
  ASSERT_NE(parsed->Find("histograms"), nullptr);
}

TEST_F(TelemetryServerTest, StatuszReportsServingStateAndSlowQueries) {
  engine_->Seal();
  ExecuteSome();
  net::HttpResponse response = server_->Handle(Get("/statusz"));
  ASSERT_EQ(response.status, 200);
  const std::string& body = response.body;
  EXPECT_NE(body.find("uptime:"), std::string::npos);
  EXPECT_NE(body.find("ready: yes"), std::string::npos);
  EXPECT_NE(body.find("last 10s:"), std::string::npos);
  EXPECT_NE(body.find("qps"), std::string::npos);
  EXPECT_NE(body.find("engine.cache.shard"), std::string::npos);
  // Threshold 0 logs every execution: the slow-query section must list
  // the queries just run, newest first, including the denied one.
  EXPECT_NE(body.find("query=//patient//bill"), std::string::npos);
  EXPECT_NE(body.find("[denied]"), std::string::npos);
  // Window saw 4 executions (3 ok + 1 denied) within the last 10s.
  EXPECT_EQ(window_->Snapshot(10).count, 4u);
  EXPECT_EQ(window_->Snapshot(10).denied, 1u);
}

TEST_F(TelemetryServerTest, StatuszReportsCompiledPlanResidency) {
  engine_->Seal();
  ExecuteSome();
  net::HttpResponse response = server_->Handle(Get("/statusz"));
  ASSERT_EQ(response.status, 200);
  const std::string& body = response.body;
  // The rewrite-cache section now reports byte footprints alongside
  // entry counts, plus the compiled-plan residency line.
  EXPECT_NE(body.find("total entries:"), std::string::npos) << body;
  EXPECT_NE(body.find("bytes)"), std::string::npos) << body;
  EXPECT_NE(body.find("plans: "), std::string::npos) << body;
  EXPECT_NE(body.find("compiles)"), std::string::npos) << body;
}

TEST_F(TelemetryServerTest, MetricsRouteIncludesPolicySeries) {
  engine_->Seal();
  ExecuteSome();
  net::HttpResponse response = server_->Handle(Get("/metrics"));
  ASSERT_EQ(response.status, 200);
  Status valid = obs::ValidatePrometheusText(response.body);
  EXPECT_TRUE(valid.ok()) << valid;
  EXPECT_NE(response.body.find("secview_policy_queries_total{policy=\"nurse\"}"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find(
                "secview_policy_outcome_total{policy=\"nurse\",outcome=\"ok\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("secview_policy_latency_micros{policy=\"nurse\","
                               "quantile=\"0.99\"}"),
            std::string::npos);
}

TEST_F(TelemetryServerTest, VarzCarriesPolicyStatsSection) {
  engine_->Seal();
  ExecuteSome();
  net::HttpResponse response = server_->Handle(Get("/varz"));
  ASSERT_EQ(response.status, 200);
  auto parsed = obs::Json::Parse(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::Json* policies = parsed->Find("policy_stats");
  ASSERT_NE(policies, nullptr);
  const obs::Json* nurse = policies->Find("nurse");
  ASSERT_NE(nurse, nullptr);
  EXPECT_EQ(nurse->Find("queries")->AsNumber(), 4);  // 3 ok + 1 denied
  EXPECT_EQ(nurse->Find("denied")->AsNumber(), 1);
}

TEST_F(TelemetryServerTest, TracezServesTextAndJsonl) {
  engine_->Seal();
  ExecuteSome();

  net::HttpResponse text = server_->Handle(Get("/tracez"));
  ASSERT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("request traces:"), std::string::npos);
  EXPECT_NE(text.body.find("//patient//bill"), std::string::npos);
  EXPECT_NE(text.body.find("evaluate"), std::string::npos) << text.body;

  net::HttpResponse jsonl = server_->Handle(Get("/tracez?format=json"));
  ASSERT_EQ(jsonl.status, 200);
  EXPECT_EQ(jsonl.content_type, "application/x-ndjson");
  size_t lines = 0;
  size_t pos = 0;
  while ((pos = jsonl.body.find('\n', pos)) != std::string::npos) {
    ++pos;
    ++lines;
  }
  EXPECT_EQ(lines, 4u);  // sample_every=1: all 4 executions retained
  auto first = obs::Json::Parse(jsonl.body.substr(0, jsonl.body.find('\n')));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->Find("schema")->AsString(), "secview.trace.v1");
  EXPECT_EQ(first->Find("policy")->AsString(), "nurse");
  ASSERT_NE(first->Find("spans"), nullptr);

  // Same entries, same ids on a second scrape.
  net::HttpResponse again = server_->Handle(Get("/tracez?format=json"));
  EXPECT_EQ(again.body, jsonl.body);

  EXPECT_EQ(server_->Handle(Get("/tracez?format=xml")).status, 400);
}

TEST_F(TelemetryServerTest, ProfilezServesTopStepsTextAndJson) {
  engine_->Seal();
  ExecuteSome();

  net::HttpResponse text = server_->Handle(Get("/profilez"));
  ASSERT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("plan profile:"), std::string::npos);
  // The engine profiles the rewritten plan, where descendant steps have
  // been replaced by explicit child chains over the view DTD.
  EXPECT_NE(text.body.find("child::"), std::string::npos) << text.body;
  EXPECT_EQ(plan_profiles_->queries(), 3u);  // the denied query never ran

  net::HttpResponse limited = server_->Handle(Get("/profilez?k=1"));
  ASSERT_EQ(limited.status, 200);
  EXPECT_LT(limited.body.size(), text.body.size());

  net::HttpResponse json = server_->Handle(Get("/profilez?format=json"));
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  auto parsed = obs::Json::Parse(json.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("schema")->AsString(), "secview.profile.v2");
  EXPECT_EQ(parsed->Find("queries")->AsNumber(), 3);
  ASSERT_NE(parsed->Find("steps"), nullptr);
  EXPECT_FALSE(parsed->Find("steps")->items().empty());

  EXPECT_EQ(server_->Handle(Get("/profilez?k=abc")).status, 400);
  EXPECT_EQ(server_->Handle(Get("/profilez?format=xml")).status, 400);
}

TEST_F(TelemetryServerTest, ProfilezWithoutTableSaysNotAttached) {
  net::TelemetryServer::Options options;
  net::TelemetryServer bare(&engine_->metrics(), options);
  net::HttpResponse response = bare.Handle(Get("/profilez"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("no plan-profile table attached"),
            std::string::npos);
}

TEST_F(TelemetryServerTest, SlowLogEntriesCarryHotStep) {
  engine_->Seal();
  ExecuteSome();
  // The plan-profile table being attached implies profiling on every
  // execution, so each logged entry names its hottest step.
  net::HttpResponse response = server_->Handle(Get("/statusz"));
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find(" hot="), std::string::npos) << response.body;
  bool saw_hot_step = false;
  for (const obs::SlowQueryLog::Entry& e : slow_log_->Snapshot()) {
    if (!e.hot_step.empty()) {
      saw_hot_step = true;
      EXPECT_NE(e.hot_step.find(" nodes="), std::string::npos) << e.hot_step;
    }
  }
  EXPECT_TRUE(saw_hot_step);
}

TEST_F(TelemetryServerTest, StatuszShowsPolicyAndTraceSections) {
  engine_->Seal();
  ExecuteSome();
  net::HttpResponse response = server_->Handle(Get("/statusz"));
  ASSERT_EQ(response.status, 200);
  const std::string& body = response.body;
  EXPECT_NE(body.find("per-policy"), std::string::npos);
  EXPECT_NE(body.find("nurse: 4 queries"), std::string::npos) << body;
  EXPECT_NE(body.find("request traces"), std::string::npos);
  EXPECT_NE(body.find("sample 1/1"), std::string::npos);
  // The slow-query section now carries per-query allocation churn.
  EXPECT_NE(body.find("alloc="), std::string::npos);
}

TEST_F(TelemetryServerTest, UnknownRouteIs404) {
  EXPECT_EQ(server_->Handle(Get("/nope")).status, 404);
  EXPECT_EQ(server_->Handle(Get("/")).status, 200);
}

TEST_F(TelemetryServerTest, RootRouteListsMemzButNotHeapz) {
  net::HttpResponse response = server_->Handle(Get("/"));
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("/memz"), std::string::npos) << response.body;
  EXPECT_EQ(response.body.find("/heapz"), std::string::npos) << response.body;
}

TEST_F(TelemetryServerTest, HeapzIsNotFound) {
  // The sampled heap profiler and its route are gone; the old URL gets
  // the ordinary unknown-route answer.
  EXPECT_EQ(server_->Handle(Get("/heapz")).status, 404);
}

TEST_F(TelemetryServerTest, MemzReportsLedgerAndProcessCounters) {
  obs::MemLedger::Instance().ResetForTesting();
  obs::ScopedLedgerCharge charge("test.memz", 12345);

  net::HttpResponse text = server_->Handle(Get("/memz"));
  ASSERT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("process: rss"), std::string::npos) << text.body;
  EXPECT_NE(text.body.find("test.memz: 12345 B"), std::string::npos)
      << text.body;

  net::HttpResponse json = server_->Handle(Get("/memz?format=json"));
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  auto parsed = obs::Json::Parse(json.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_NE(parsed->Find("schema"), nullptr);
  EXPECT_EQ(parsed->Find("schema")->AsString(), "secview.mem.v2");
  ASSERT_NE(parsed->Find("process"), nullptr);
  EXPECT_NE(parsed->Find("process")->Find("resident_bytes"), nullptr);
  EXPECT_NE(parsed->Find("process")->Find("peak_resident_bytes"), nullptr);
  ASSERT_NE(parsed->Find("accounts"), nullptr);
  bool found = false;
  for (const obs::Json& account : parsed->Find("accounts")->items()) {
    if (account.Find("name")->AsString() == "test.memz") {
      EXPECT_EQ(account.Find("bytes")->AsNumber(), 12345);
      found = true;
    }
  }
  EXPECT_TRUE(found) << json.body;
  EXPECT_EQ(parsed->Find("ledger_total_bytes")->AsNumber(), 12345);

  EXPECT_EQ(server_->Handle(Get("/memz?format=xml")).status, 400);
}

TEST_F(TelemetryServerTest, StatuszHasMemorySection) {
  engine_->Seal();
  net::HttpResponse response = server_->Handle(Get("/statusz"));
  ASSERT_EQ(response.status, 200);
  const std::string& body = response.body;
  EXPECT_NE(body.find("\nmemory\n"), std::string::npos) << body;
  EXPECT_NE(body.find("rss: "), std::string::npos) << body;
  EXPECT_NE(body.find("ledger: "), std::string::npos) << body;
}

TEST_F(TelemetryServerTest, MetricsRouteIncludesMemorySeries) {
  engine_->Seal();
  net::HttpResponse response = server_->Handle(Get("/metrics"));
  ASSERT_EQ(response.status, 200);
  Status valid = obs::ValidatePrometheusText(response.body);
  EXPECT_TRUE(valid.ok()) << valid;
  EXPECT_NE(response.body.find("secview_process_resident_memory_bytes"),
            std::string::npos);
  EXPECT_NE(response.body.find("secview_mem_ledger_total_bytes"),
            std::string::npos);
  EXPECT_NE(response.body.find("secview_process_peak_resident_memory_bytes"),
            std::string::npos);
}

TEST_F(TelemetryServerTest, EndToEndScrapeWhileServing) {
  ASSERT_TRUE(server_->Start().ok());
  ASSERT_NE(server_->port(), 0);

  QueryWorkerPool pool(*engine_);  // seals the engine

  // Scrape concurrently with batch execution: the acceptance shape for
  // the live-telemetry feature (and the unit-level TSan surface).
  std::atomic<bool> stop{false};
  std::atomic<int> good_scrapes{0};
  std::atomic<int> bad_scrapes{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      auto response = net::HttpGet("127.0.0.1", server_->port(), "/metrics");
      if (response.ok() && response->status == 200 &&
          obs::ValidatePrometheusText(response->body).ok()) {
        good_scrapes.fetch_add(1);
      } else {
        bad_scrapes.fetch_add(1);
      }
      // /tracez races the workers Offering traces; every line must still
      // be a complete secview.trace.v1 object.
      auto tracez =
          net::HttpGet("127.0.0.1", server_->port(), "/tracez?format=json");
      if (!tracez.ok() || tracez->status != 200) {
        bad_scrapes.fetch_add(1);
        continue;
      }
      std::string_view rest = tracez->body;
      bool lines_ok = true;
      while (!rest.empty()) {
        size_t nl = rest.find('\n');
        if (nl == std::string_view::npos) break;
        lines_ok &= obs::Json::Parse(rest.substr(0, nl)).ok();
        rest.remove_prefix(nl + 1);
      }
      if (!lines_ok) bad_scrapes.fetch_add(1);
      // /profilez races the workers Recording flattened plans into the
      // striped table; the JSON document must always parse whole.
      auto profilez =
          net::HttpGet("127.0.0.1", server_->port(), "/profilez?format=json");
      if (!profilez.ok() || profilez->status != 200 ||
          !obs::Json::Parse(profilez->body).ok()) {
        bad_scrapes.fetch_add(1);
      }
      // /memz races the workers' allocation churn (ledger charges,
      // eval-scratch publications); the document must always parse
      // whole.
      auto memz =
          net::HttpGet("127.0.0.1", server_->port(), "/memz?format=json");
      if (!memz.ok() || memz->status != 200 ||
          !obs::Json::Parse(memz->body).ok()) {
        bad_scrapes.fetch_add(1);
      }
    }
  });

  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  std::vector<std::string> queries = {"//patient//bill", "//patient/name",
                                      "//bill", "//regular/medication"};
  // Serve at least five rounds, and on until the scraper's first /metrics
  // scrape has returned: five rounds can finish before the scraper thread
  // is first scheduled, which would leave nothing scraped while serving.
  for (int round = 0;
       round < 5 || good_scrapes.load() + bad_scrapes.load() == 0; ++round) {
    for (const auto& result : pool.ExecuteBatch("nurse", *doc_, queries,
                                                options)) {
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }
  stop.store(true);
  scraper.join();
  EXPECT_GT(good_scrapes.load(), 0);
  EXPECT_EQ(bad_scrapes.load(), 0);

  // The scrape saw a live engine: pool/cache counters are nonzero now.
  auto healthz = net::HttpGet("127.0.0.1", server_->port(), "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status();
  EXPECT_EQ(healthz->status, 200);
  auto statusz = net::HttpGet("127.0.0.1", server_->port(), "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  EXPECT_NE(statusz->body.find("engine.pool.tasks"), std::string::npos);
  EXPECT_GT(window_->Snapshot(60).count, 0u);
  // The workers fed the trace ring, the policy table, and the plan-
  // profile table while we scraped.
  EXPECT_GT(traces_->retained(), 0u);
  EXPECT_EQ(policy_stats_->total(), window_->total());
  EXPECT_GT(plan_profiles_->queries(), 0u);
  EXPECT_GT(plan_profiles_->steps(), 0u);
  server_->Stop();
}

// --- Health state machine ---------------------------------------------

TEST(HealthTrackerTest, DegradesAtThresholdAndRecoversWithHysteresis) {
  uint64_t fake_now = 0;
  obs::HealthTracker::Options options;
  options.now_micros = [&fake_now] { return fake_now; };
  obs::HealthTracker health(options);
  EXPECT_EQ(health.state(), obs::HealthState::kOk);

  // 30 straight failures in one window: well past the 0.5 threshold and
  // the 20-event minimum.
  for (int i = 0; i < 30; ++i) health.RecordOutcome(false);
  EXPECT_EQ(health.state(), obs::HealthState::kDegraded);

  // A mixed window at exactly 50% keeps us degraded: recovery requires
  // the rate to fall to 0.1, not merely below 0.5.
  fake_now += 120 * 1'000'000ull;  // step past the 30s window
  for (int i = 0; i < 15; ++i) health.RecordOutcome(true);
  for (int i = 0; i < 15; ++i) health.RecordOutcome(false);
  EXPECT_EQ(health.state(), obs::HealthState::kDegraded);

  // A clean window recovers.
  fake_now += 120 * 1'000'000ull;
  for (int i = 0; i < 30; ++i) health.RecordOutcome(true);
  EXPECT_EQ(health.state(), obs::HealthState::kOk);
}

TEST(HealthTrackerTest, SparseTrafficNeverFlipsTheVerdict) {
  uint64_t fake_now = 0;
  obs::HealthTracker::Options options;
  options.now_micros = [&fake_now] { return fake_now; };
  obs::HealthTracker health(options);

  // 5 failures is 100% failure rate but below min_events: still ok.
  for (int i = 0; i < 5; ++i) health.RecordOutcome(false);
  EXPECT_EQ(health.state(), obs::HealthState::kOk);

  // Degrade for real, then go idle: an empty window keeps the degraded
  // verdict — recovery needs demonstrated healthy traffic.
  for (int i = 0; i < 25; ++i) health.RecordOutcome(false);
  EXPECT_EQ(health.state(), obs::HealthState::kDegraded);
  fake_now += 600 * 1'000'000ull;
  EXPECT_EQ(health.state(), obs::HealthState::kDegraded);
  for (int i = 0; i < 3; ++i) health.RecordOutcome(true);
  EXPECT_EQ(health.state(), obs::HealthState::kDegraded);  // < min_events
  for (int i = 0; i < 20; ++i) health.RecordOutcome(true);
  EXPECT_EQ(health.state(), obs::HealthState::kOk);
}

TEST(HealthTrackerTest, DropsCountAsFailuresAndWindowForgetsThem) {
  uint64_t fake_now = 0;
  obs::HealthTracker::Options options;
  options.now_micros = [&fake_now] { return fake_now; };
  obs::HealthTracker health(options);

  // Queries all answer ok, but every one also drops an audit record:
  // combined rate 20/(20+20) = 0.5 -> degraded.
  for (int i = 0; i < 20; ++i) {
    health.RecordOutcome(true);
    health.RecordDrop();
  }
  EXPECT_EQ(health.state(), obs::HealthState::kDegraded);
  obs::HealthTracker::Window w = health.Snapshot();
  EXPECT_EQ(w.ok, 20u);
  EXPECT_EQ(w.drops, 20u);
  EXPECT_DOUBLE_EQ(w.failure_rate, 0.5);

  // The window slides: the old drops age out and a healthy stretch of
  // fresh traffic recovers.
  fake_now += 31 * 1'000'000ull;
  for (int i = 0; i < 20; ++i) health.RecordOutcome(true);
  EXPECT_EQ(health.state(), obs::HealthState::kOk);
  w = health.Snapshot();
  EXPECT_EQ(w.drops, 0u);
}

TEST(HealthTrackerTest, StateNamesAreStable) {
  EXPECT_STREQ(obs::HealthStateName(obs::HealthState::kStarting), "starting");
  EXPECT_STREQ(obs::HealthStateName(obs::HealthState::kOk), "ok");
  EXPECT_STREQ(obs::HealthStateName(obs::HealthState::kDegraded), "degraded");
}

// --- Degraded-mode surfacing on /healthz and /statusz -----------------

TEST_F(TelemetryServerTest, HealthzReportsDegradedFromAttachedTracker) {
  engine_->Seal();
  uint64_t fake_now = 0;
  obs::HealthTracker::Options health_options;
  health_options.now_micros = [&fake_now] { return fake_now; };
  obs::HealthTracker health(health_options);

  net::TelemetryServer::Options options;
  options.ready = [this] { return engine_->sealed(); };
  options.health = &health;
  net::TelemetryServer server(&engine_->metrics(), options);

  auto ok = server.Handle(Get("/healthz"));
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "ok\n");

  for (int i = 0; i < 30; ++i) health.RecordOutcome(false);
  auto degraded = server.Handle(Get("/healthz"));
  // Degraded is still 200: load balancers should deprioritize, not
  // eject, a server that is answering queries but shedding audit.
  EXPECT_EQ(degraded.status, 200);
  EXPECT_EQ(degraded.body, "degraded\n");

  fake_now += 120 * 1'000'000ull;
  for (int i = 0; i < 30; ++i) health.RecordOutcome(true);
  auto recovered = server.Handle(Get("/healthz"));
  EXPECT_EQ(recovered.status, 200);
  EXPECT_EQ(recovered.body, "ok\n");
}

TEST_F(TelemetryServerTest, StatuszRendersHealthAuditAndFailpointSections) {
  engine_->Seal();
  ExecuteSome();

  obs::HealthTracker health;
  health.RecordOutcome(true);

  net::TelemetryServer::Options options;
  options.ready = [this] { return engine_->sealed(); };
  options.health = &health;
  options.window = window_.get();
  net::TelemetryServer server(&engine_->metrics(), options);

  // Audit counters present, no drops yet: section renders without the
  // degradation banner.
  engine_->metrics().GetCounter("audit.events").Add(4);
  auto clean = server.Handle(Get("/statusz"));
  ASSERT_EQ(clean.status, 200);
  EXPECT_NE(clean.body.find("health: ok"), std::string::npos);
  EXPECT_NE(clean.body.find("4 events written, 0 dropped"),
            std::string::npos);
  EXPECT_EQ(clean.body.find("DEGRADED: audit trail"), std::string::npos);
  EXPECT_EQ(clean.body.find("\nfailpoints\n"), std::string::npos);

  // Drops and an armed failpoint surface their sections.
  engine_->metrics().GetCounter("audit.dropped").Add(2);
  auto& registry = FailPointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("audit.write=every:2").ok());
  registry.Get("audit.write").Fire();
  auto degraded = server.Handle(Get("/statusz"));
  registry.DisarmAll();
  ASSERT_EQ(degraded.status, 200);
  EXPECT_NE(degraded.body.find("2 dropped"), std::string::npos);
  EXPECT_NE(degraded.body.find("** DEGRADED: audit trail has gaps **"),
            std::string::npos);
  EXPECT_NE(degraded.body.find("\nfailpoints\n"), std::string::npos);
  EXPECT_NE(degraded.body.find("audit.write policy=every:2 fires="),
            std::string::npos);
  EXPECT_NE(degraded.body.find("io errors"), std::string::npos);
}

}  // namespace
}  // namespace secview
