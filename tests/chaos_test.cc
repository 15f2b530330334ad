// Randomized fault-injection coverage for the serving stack
// (docs/robustness.md): hundreds of seeded iterations arm random
// failpoint combinations over the concurrent batch path and assert the
// degradation contract every time — no crash or deadlock, non-injected
// queries answer byte-identically to a clean baseline, injected
// failures surface as ResourceExhausted (never a wrong answer), audit
// accounting stays exact (events + drops == attempts, seq gaps == the
// drop count), and every failpoint's fire count matches its mirrored
// engine.failpoint.* counter. Run under ASan and TSan (scripts/check.sh
// does both).

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/worker_pool.h"
#include "net/http_client.h"
#include "net/telemetry_server.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "workload/hospital.h"
#include "workload/synthetic.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"

namespace secview {
namespace {

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

// Mixed hits and misses over the nurse view's exposed labels.
const char* kQueries[] = {
    "//patient/name",  "//bill",            "//patient//bill",
    "//patient/name",  "//wardNo",          "//patient[wardNo]/name",
    "//bill",          "patientInfo//name", "//medication",
    "//patient/name | //bill",
};

// The engine-side failpoints the randomized loop draws from (the
// net.* points get their own server-backed test below).
const char* kEnginePoints[] = {
    failpoints::kAuditWrite,  failpoints::kAllocEvaluate,
    failpoints::kPlanCompile, failpoints::kCacheInsert,
    failpoints::kPoolSubmit,
};

std::unique_ptr<SecureQueryEngine> MakeEngine() {
  auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
  EXPECT_TRUE(engine.ok()) << engine.status();
  auto e = std::move(engine).value();
  EXPECT_TRUE(e->RegisterPolicy("nurse", kNursePolicy).ok());
  return e;
}

XmlTree MakeDoc() {
  auto doc = GenerateDocument(MakeHospitalDtd(),
                              HospitalGeneratorOptions(5, 20'000));
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

ExecuteOptions NurseOptions() {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  return options;
}

uint64_t CounterValue(obs::MetricsRegistry& metrics, const std::string& name) {
  return metrics.GetCounter(name).value();
}

/// One randomized failpoint spec over the engine points; roughly half
/// the points stay off each round so injected and clean paths mix.
std::string RandomSpec(Rng& rng) {
  std::string spec;
  for (const char* point : kEnginePoints) {
    if (rng.Chance(0.45)) continue;
    if (!spec.empty()) spec += ',';
    spec += point;
    spec += '=';
    switch (rng.Below(3)) {
      case 0:
        spec += "once";
        break;
      case 1:
        spec += "every:" + std::to_string(rng.RangeInclusive(1, 4));
        break;
      default:
        spec += "prob:0." + std::to_string(rng.RangeInclusive(1, 8)) + ":" +
                std::to_string(rng.Next() % 100'000);
        break;
    }
  }
  return spec;
}

TEST(ChaosTest, RandomizedFailpointsKeepServingCorrectly) {
  auto engine = MakeEngine();
  XmlTree doc = MakeDoc();
  std::vector<std::string> queries(std::begin(kQueries), std::end(kQueries));

  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisarmAll();
  registry.AttachMetrics(&engine->metrics());

  // Clean baseline per query, computed with every point off.
  ExecuteOptions options = NurseOptions();
  std::vector<std::vector<NodeId>> baseline;
  for (const std::string& q : queries) {
    auto result = engine->Execute("nurse", doc, q, options);
    ASSERT_TRUE(result.ok()) << q << ": " << result.status();
    baseline.push_back(result->nodes);
  }

  QueryWorkerPool::Options pool_options;
  pool_options.threads = 4;
  QueryWorkerPool pool(*engine, pool_options);

  Rng master(20260809);
  constexpr int kIterations = 200;
  uint64_t total_failures = 0;
  uint64_t total_drops = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    Rng rng(master.Next());
    const std::string spec = RandomSpec(rng);
    ASSERT_TRUE(registry.ArmFromSpec(spec).ok()) << spec;

    std::map<std::string, uint64_t> fires_before;
    std::map<std::string, uint64_t> counter_before;
    for (const char* point : kEnginePoints) {
      fires_before[point] = registry.Get(point).fires();
      counter_before[point] = CounterValue(
          engine->metrics(), std::string("engine.failpoint.") + point);
    }

    const std::string audit_path = ::testing::TempDir() + "chaos_audit_" +
                                   std::to_string(iter) + ".jsonl";
    std::remove(audit_path.c_str());
    auto audit = obs::JsonlAuditLog::Open(audit_path);
    ASSERT_TRUE(audit.ok()) << audit.status();
    ExecuteOptions chaos_options = options;
    chaos_options.audit = audit->get();

    std::vector<Result<ExecuteResult>> results =
        pool.ExecuteBatch("nurse", doc, queries, chaos_options);
    registry.DisarmAll();

    // Result parity: an ok result is byte-identical to the clean
    // baseline; a failed one is an injected resource failure, never a
    // wrong answer or a leak.
    ASSERT_EQ(results.size(), queries.size());
    size_t ok_results = 0;
    size_t failed_results = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        EXPECT_EQ(results[i]->nodes, baseline[i])
            << "iteration " << iter << " spec '" << spec << "' query "
            << queries[i];
        ++ok_results;
      } else {
        EXPECT_EQ(results[i].status().code(), StatusCode::kResourceExhausted)
            << "iteration " << iter << " spec '" << spec << "' query "
            << queries[i] << ": " << results[i].status();
        ++failed_results;
      }
    }
    total_failures += failed_results;

    // Exact fire accounting: every fire since AttachMetrics is mirrored
    // into the engine registry, point by point.
    for (const char* point : kEnginePoints) {
      const uint64_t fires = registry.Get(point).fires() - fires_before[point];
      const uint64_t counted =
          CounterValue(engine->metrics(),
                       std::string("engine.failpoint.") + point) -
          counter_before[point];
      EXPECT_EQ(fires, counted) << "iteration " << iter << " point " << point;
    }

    // Audit accounting: one attempt per query (executed or shed), every
    // attempt either written or dropped, and each dropped event leaves
    // exactly one hole in the seq chain.
    const uint64_t events = (*audit)->events();
    const uint64_t dropped = (*audit)->dropped();
    EXPECT_EQ(events + dropped, queries.size())
        << "iteration " << iter << " spec '" << spec << "'";
    total_drops += dropped;

    std::ifstream in(audit_path, std::ios::binary);
    ASSERT_TRUE(in.good()) << audit_path;
    std::string line;
    std::set<uint64_t> seqs;
    size_t ok_lines = 0;
    size_t failed_lines = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ASSERT_TRUE(obs::ValidateAuditLine(line).ok())
          << "iteration " << iter << ": " << line;
      auto record = obs::Json::Parse(line);
      ASSERT_TRUE(record.ok());
      seqs.insert(static_cast<uint64_t>(record->Find("seq")->AsNumber()));
      const std::string& outcome = record->Find("outcome")->AsString();
      if (outcome == "ok") {
        ++ok_lines;
      } else {
        // Injected failures are all resource failures, so the audit
        // outcome taxonomy must say "timeout" — never a silent "ok".
        EXPECT_EQ(outcome, "timeout") << line;
        ++failed_lines;
      }
    }
    EXPECT_EQ(seqs.size(), events) << "iteration " << iter;
    EXPECT_LE(ok_lines, ok_results);
    EXPECT_LE(failed_lines, failed_results);
    if (!seqs.empty()) {
      EXPECT_LE(*seqs.rbegin(), queries.size());
      // Holes below the highest written seq + events dropped after it
      // account for every drop.
      const uint64_t holes_below = *seqs.rbegin() - seqs.size();
      EXPECT_LE(holes_below, dropped);
    }
    std::remove(audit_path.c_str());
  }
  registry.AttachMetrics(nullptr);

  // The loop must actually have exercised both paths; a chaos run where
  // nothing ever fired (or nothing ever succeeded) tests nothing.
  EXPECT_GT(total_failures, 0u);
  EXPECT_GT(total_drops, 0u);
}

TEST(ChaosTest, DisarmedFailpointsAreFreeAndInert) {
  auto engine = MakeEngine();
  XmlTree doc = MakeDoc();
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisarmAll();

  ExecuteOptions options = NurseOptions();
  const uint64_t fires_before = registry.TotalFires();
  for (const char* q : kQueries) {
    auto result = engine->Execute("nurse", doc, q, options);
    EXPECT_TRUE(result.ok()) << q << ": " << result.status();
  }
  EXPECT_EQ(registry.TotalFires(), fires_before);
}

TEST(ChaosTest, PlanCompileFaultRefusesQueryAndCachesNothing) {
  auto engine = MakeEngine();
  XmlTree doc = MakeDoc();
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisarmAll();
  ExecuteOptions options = NurseOptions();
  obs::MetricsRegistry& metrics = engine->metrics();

  // The VM is the only evaluator, so a failed compile refuses the whole
  // query with the alloc.evaluate status class and leaves no entry.
  ASSERT_TRUE(registry.ArmFromSpec("plan.compile=every:1").ok());
  auto refused = engine->Execute("nurse", doc, "//patient//bill", options);
  registry.DisarmAll();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status();
  EXPECT_EQ(metrics.GetGauge("engine.cache.size").value(), 0);
  EXPECT_EQ(metrics.GetGauge("engine.plan.cached").value(), 0);
  EXPECT_EQ(CounterValue(metrics, "engine.plan.compiles"), 0u);

  // The next clean execution misses, compiles, caches and answers.
  auto clean = engine->Execute("nurse", doc, "//patient//bill", options);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_FALSE(clean->stats.cache_hit);
  EXPECT_FALSE(clean->nodes.empty());
  auto reference =
      EvaluateAtRoot(doc, BindParams(clean->evaluated, options.bindings));
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(clean->nodes, *reference);
  EXPECT_EQ(CounterValue(metrics, "engine.plan.compiles"), 1u);
  EXPECT_EQ(metrics.GetGauge("engine.cache.size").value(), 1);
  EXPECT_EQ(metrics.GetGauge("engine.plan.cached").value(), 1);

  // The request after that hits the cached entry.
  auto hit = engine->Execute("nurse", doc, "//patient//bill", options);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->stats.cache_hit);
  EXPECT_EQ(hit->nodes, clean->nodes);
  EXPECT_EQ(CounterValue(metrics, "engine.plan.compiles"), 1u);
}

TEST(ChaosTest, SustainedInjectionDegradesHealthThenRecovers) {
  auto engine = MakeEngine();
  XmlTree doc = MakeDoc();
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisarmAll();

  uint64_t fake_now = 0;
  obs::HealthTracker::Options hopts;
  hopts.now_micros = [&fake_now] { return fake_now; };
  obs::HealthTracker health(hopts);
  engine->AttachHealth(&health);

  ExecuteOptions options = NurseOptions();
  ASSERT_TRUE(registry.ArmFromSpec("alloc.evaluate=every:1").ok());
  for (int i = 0; i < 30; ++i) {
    auto result = engine->Execute("nurse", doc, "//bill", options);
    EXPECT_FALSE(result.ok());
  }
  registry.DisarmAll();
  EXPECT_EQ(health.state(), obs::HealthState::kDegraded);

  // A fresh window of clean traffic clears the verdict.
  fake_now += 120ull * 1'000'000;
  for (int i = 0; i < 30; ++i) {
    auto result = engine->Execute("nurse", doc, "//bill", options);
    EXPECT_TRUE(result.ok()) << result.status();
  }
  EXPECT_EQ(health.state(), obs::HealthState::kOk);
  engine->AttachHealth(nullptr);
}

TEST(ChaosTest, TelemetryServerSurvivesSocketFaults) {
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisarmAll();

  obs::MetricsRegistry metrics;
  metrics.GetCounter("chaos.marker").Add(7);
  net::TelemetryServer::Options options;
  options.http.port = 0;
  net::TelemetryServer server(&metrics, options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // Accept, recv, and send all fail intermittently; the retrying client
  // must still get through, and the server must never die.
  ASSERT_TRUE(registry
                  .ArmFromSpec("net.accept=every:4,net.recv=prob:0.2:11,"
                               "net.send=prob:0.2:13")
                  .ok());
  net::HttpGetOptions get_options;
  get_options.timeout_ms = 2000;
  get_options.retries = 6;
  get_options.backoff_initial_ms = 1;
  get_options.backoff_cap_ms = 8;
  int ok = 0;
  int server_errors = 0;
  for (int i = 0; i < 40; ++i) {
    auto response = net::HttpGet("127.0.0.1", port, "/varz", get_options);
    if (response.ok() && response->status == 200) ++ok;
    if (response.ok() && response->status == 500) ++server_errors;
  }
  const uint64_t recv_fires = registry.Get(failpoints::kNetRecv).fires();
  registry.DisarmAll();
  // Each connection draws every point a fixed number of times, and the
  // client retries a dropped connection however the drop reached it (a
  // reset or an empty EOF), so the outcome depends on the seeds alone.
  // A dropped accept or a lost send is retried; only a recv fault's 500
  // answer is final, and the server itself must stay up.
  EXPECT_GE(ok, 20);
  EXPECT_EQ(ok + server_errors, 40);
  EXPECT_LE(static_cast<uint64_t>(server_errors), recv_fires);

  // After disarming, service is fully clean again: the accept loop was
  // never lost to an injected failure.
  auto clean = net::HttpGet("127.0.0.1", port, "/varz", 2000);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->status, 200);
  EXPECT_NE(clean->body.find("chaos.marker"), std::string::npos);
  EXPECT_GT(server.http().io_errors(), 0u);
  server.Stop();
}

TEST(ChaosTest, ClientConnectFaultIsRetriedThenSucceeds) {
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisarmAll();

  obs::MetricsRegistry metrics;
  net::TelemetryServer::Options options;
  options.http.port = 0;
  net::TelemetryServer server(&metrics, options);
  ASSERT_TRUE(server.Start().ok());

  // First connect fails (once), the retry succeeds.
  ASSERT_TRUE(registry.ArmFromSpec("net.connect=once").ok());
  net::HttpGetOptions get_options;
  get_options.retries = 2;
  get_options.backoff_initial_ms = 1;
  auto response =
      net::HttpGet("127.0.0.1", server.port(), "/healthz", get_options);
  registry.DisarmAll();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);

  // Without retries the injected connect failure surfaces to the caller
  // as a transport error — degraded, not wrong.
  ASSERT_TRUE(registry.ArmFromSpec("net.connect=once").ok());
  auto failed = net::HttpGet("127.0.0.1", server.port(), "/healthz", 2000);
  registry.DisarmAll();
  EXPECT_FALSE(failed.ok());
  server.Stop();
}

}  // namespace
}  // namespace secview
