#include <algorithm>

#include <gtest/gtest.h>

#include "common/alloc_tracker.h"
#include "common/failpoint.h"
#include "engine/engine.h"
#include "obs/audit.h"
#include "obs/policy_stats.h"
#include "obs/trace_store.h"
#include "security/view_io.h"
#include "workload/hospital.h"
#include "workload/synthetic.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/evaluator.h"
#include "xpath/printer.h"
#include "xpath/profiler.h"

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

constexpr char kResearcherPolicy[] = R"(
  # Researchers see clinical-trial data of every ward, nothing else.
  ann(dept, patientInfo) = N
  ann(dept, staffInfo) = N
)";

constexpr char kDoc[] = R"(
  <hospital>
    <dept>
      <clinicalTrial>
        <patientInfo>
          <patient><name>carol</name><wardNo>3</wardNo>
            <treatment><trial><bill>900</bill></trial></treatment>
          </patient>
        </patientInfo>
        <test>blood</test>
      </clinicalTrial>
      <patientInfo>
        <patient><name>dave</name><wardNo>3</wardNo>
          <treatment><regular><bill>120</bill><medication>m</medication></regular></treatment>
        </patient>
      </patientInfo>
      <staffInfo><staff><nurse>sue</nurse></staff></staffInfo>
    </dept>
  </hospital>
)";

class EngineTest : public testing::Test {
 protected:
  void SetUp() override {
    auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
    ASSERT_TRUE(engine_->RegisterPolicy("nurse", kNursePolicy).ok());
    auto doc = ParseXml(kDoc);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::move(doc).value();
  }

  std::unique_ptr<SecureQueryEngine> engine_;
  XmlTree doc_;
};

TEST_F(EngineTest, RegisterAndListPolicies) {
  EXPECT_EQ(engine_->PolicyNames(), std::vector<std::string>{"nurse"});
  ASSERT_TRUE(engine_->RegisterPolicy("researcher", kResearcherPolicy).ok());
  EXPECT_EQ(engine_->PolicyNames(),
            (std::vector<std::string>{"nurse", "researcher"}));
}

TEST_F(EngineTest, RejectsDuplicateAndBadPolicies) {
  EXPECT_FALSE(engine_->RegisterPolicy("nurse", kNursePolicy).ok());
  EXPECT_FALSE(engine_->RegisterPolicy("", kNursePolicy).ok());
  EXPECT_FALSE(engine_->RegisterPolicy("bad", "ann(zzz, qqq) = N").ok());
}

TEST_F(EngineTest, PublishedViewDtdHidesConfidentialLabels) {
  auto dtd_text = engine_->PublishedViewDtd("nurse");
  ASSERT_TRUE(dtd_text.ok());
  EXPECT_EQ(dtd_text->find("clinicalTrial"), std::string::npos);
  EXPECT_NE(dtd_text->find("dummy"), std::string::npos);
  EXPECT_FALSE(engine_->PublishedViewDtd("ghost").ok());
}

TEST_F(EngineTest, ExecuteEnforcesPolicy) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto result = engine_->Execute("nurse", doc_, "//patient/name", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->nodes.size(), 2u);  // carol + dave
  EXPECT_GT(result->work(), 0u);

  options.bindings = {{"wardNo", "7"}};
  auto other_ward = engine_->Execute("nurse", doc_, "//patient/name",
                                     options);
  ASSERT_TRUE(other_ward.ok());
  EXPECT_TRUE(other_ward->nodes.empty());
}

TEST_F(EngineTest, ExecuteReportsStructuredStats) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto result = engine_->Execute("nurse", doc_, "//patient/name", options);
  ASSERT_TRUE(result.ok()) << result.status();
  const ExecuteStats& stats = result->stats;
  EXPECT_GT(stats.nodes_touched, 0u);
  EXPECT_EQ(stats.nodes_touched, result->work());
  EXPECT_EQ(stats.result_count, result->nodes.size());
  EXPECT_FALSE(stats.cache_hit);  // first time this query is prepared
  EXPECT_EQ(stats.unfold_depth, 0);  // hospital DTD is non-recursive
  EXPECT_EQ(stats.ast_size_rewritten, PathSize(result->rewritten));
  EXPECT_EQ(stats.ast_size_evaluated, PathSize(result->evaluated));
  EXPECT_GT(stats.predicate_evals, 0u);  // the $wardNo qualifier ran

  auto again = engine_->Execute("nurse", doc_, "//patient/name", options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats.cache_hit);
}

TEST_F(EngineTest, ExecuteMatchesReferenceWalk) {
  // The served answer (compiled plan on the VM) equals the reference
  // walk of the same evaluated query, bound, over the document.
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  for (const char* q : {"//patient/name", "//bill", "//patient//bill",
                        "//patient[wardNo]/name", "//bill | //medication"}) {
    for (bool optimize : {true, false}) {
      options.optimize = optimize;
      auto result = engine_->Execute("nurse", doc_, q, options);
      ASSERT_TRUE(result.ok()) << q << ": " << result.status();
      auto reference =
          EvaluateAtRoot(doc_, BindParams(result->evaluated, options.bindings));
      ASSERT_TRUE(reference.ok()) << q << ": " << reference.status();
      EXPECT_EQ(result->nodes, *reference) << q << " optimize=" << optimize;
    }
  }
}

TEST_F(EngineTest, CacheHitServesTheEntrysAstWithoutRebuildingIt) {
  // The VM binds $wardNo per call, so a hit builds no tree: the result
  // carries the cache entry's own (unbound) evaluated AST.
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//patient/name", options).ok());
  auto hit = engine_->Execute("nurse", doc_, "//patient/name", options);
  ASSERT_TRUE(hit.ok()) << hit.status();
  ASSERT_TRUE(hit->stats.cache_hit);
  auto entry = engine_->Rewrite("nurse", "//patient/name", true);
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(hit->evaluated.get(), entry->get());
  EXPECT_NE(ToXPathString(hit->evaluated).find("$wardNo"), std::string::npos);
}

TEST_F(EngineTest, MissingBindingIsRefusedBeforeEvaluation) {
  const std::string message =
      "the policy's qualifiers have unbound $parameters; pass them in "
      "ExecuteOptions::bindings";
  ExecuteOptions options;
  options.bindings = {{"ward", "3"}};  // not the policy's $wardNo
  auto refused = engine_->Execute("nurse", doc_, "//patient/name", options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(refused.status().message(), message);

  // The check runs before the alloc.evaluate fault point: an armed
  // fault does not turn the refusal into ResourceExhausted.
  FailPointRegistry& registry = FailPointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("alloc.evaluate=every:1").ok());
  auto armed = engine_->Execute("nurse", doc_, "//patient/name", options);
  registry.DisarmAll();
  ASSERT_FALSE(armed.ok());
  EXPECT_EQ(armed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(armed.status().message(), message);
}

/// Keeps every audit event an engine records, as JSON.
class CapturingAuditSink : public obs::AuditSink {
 public:
  void Record(const obs::AuditEvent& event) override {
    lines.push_back(event.ToJson());
  }
  std::vector<obs::Json> lines;
};

/// An audit line with its wall-clock fields dropped.
std::string AuditLineWithoutTimings(const obs::Json& line) {
  obs::Json out = obs::Json::Object();
  for (const auto& [key, value] : line.members()) {
    if (key != "unix_micros" && key != "micros") out.Set(key, value);
  }
  return out.Dump(false);
}

TEST_F(EngineTest, AuditLinesOfBoundAndUnboundRequestsAreUnchanged) {
  constexpr char kBoundLine[] =
      R"json({"schema":"secview.audit.v1","seq":0,"policy":"nurse","query":"//patient//bill","outcome":"ok","status":"OK","rewritten":"dept[*/patient/wardNo = $wardNo]/(clinicalTrial/patientInfo | patientInfo)/patient/treatment/(trial | regular)/bill","evaluated":"dept/.[patientInfo/patient/wardNo = \"3\"]/(clinicalTrial/patientInfo | patientInfo)/patient/treatment/(trial | regular)/bill","results":2,"cache_hit":false,"unfold_depth":0,"ast":{"rewritten":25,"evaluated":27},"cost":{"nodes_touched":20,"predicate_evals":1},"dp":{"rewrite_entries":26,"optimize_entries":27},"prunes":{"nonexistence":2,"simulation_tests":4,"union":0}})json";
  constexpr char kUnboundLine[] =
      R"json({"schema":"secview.audit.v1","seq":0,"policy":"nurse","query":"//patient//bill","outcome":"denied","status":"FailedPrecondition","error":"the policy's qualifiers have unbound $parameters; pass them in ExecuteOptions::bindings","rewritten":"dept[*/patient/wardNo = $wardNo]/(clinicalTrial/patientInfo | patientInfo)/patient/treatment/(trial | regular)/bill","evaluated":"","results":0,"cache_hit":true,"unfold_depth":0,"ast":{"rewritten":0,"evaluated":0},"cost":{"nodes_touched":0,"predicate_evals":0},"dp":{"rewrite_entries":0,"optimize_entries":0},"prunes":{"nonexistence":0,"simulation_tests":0,"union":0}})json";
  // The audit line prints the evaluated query bound, as it ran; the
  // expected lines were recorded when Execute still bound the AST per
  // request. The bound line's 20 nodes touched include the three child
  // steps under the single dept that are answered from the path summary
  // (one copied entry each, where the walk visited all 8 children), and
  // the dept qualifier, decided by one semi-join that reads the single
  // entry of the dept/patientInfo/patient/wardNo extent (1 visit) where
  // the per-node walk visited 8 nodes under dept.
  CapturingAuditSink sink;
  ExecuteOptions options;
  options.audit = &sink;
  options.bindings = {{"wardNo", "3"}};
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//patient//bill", options).ok());
  options.bindings.clear();
  ASSERT_FALSE(
      engine_->Execute("nurse", doc_, "//patient//bill", options).ok());
  ASSERT_EQ(sink.lines.size(), 2u);
  EXPECT_EQ(AuditLineWithoutTimings(sink.lines[0]), kBoundLine);
  EXPECT_EQ(AuditLineWithoutTimings(sink.lines[1]), kUnboundLine);
}

TEST_F(EngineTest, PlanCompilesOncePerEntryAndMetricsTrackResidency) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto& metrics = engine_->metrics();
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  EXPECT_EQ(metrics.GetCounter("engine.plan.compiles").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("eval.compiled_queries").value(), 1u);
  EXPECT_EQ(metrics.GetGauge("engine.plan.cached").value(), 1);
  EXPECT_GT(metrics.GetGauge("engine.plan.cache_bytes").value(), 0);
  EXPECT_GT(metrics.GetGauge("engine.cache.bytes").value(), 0);

  // A cache hit reuses the resident plan without recompiling.
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  EXPECT_EQ(metrics.GetCounter("engine.plan.compiles").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("eval.compiled_queries").value(), 2u);
  EXPECT_EQ(metrics.GetGauge("engine.plan.cached").value(), 1);

  // Rewrite() prepares the same entry Execute reads, plan included, so
  // the execution after it compiles nothing.
  ASSERT_TRUE(engine_->Rewrite("nurse", "//medication", true).ok());
  EXPECT_EQ(metrics.GetCounter("engine.plan.compiles").value(), 2u);
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//medication", options).ok());
  EXPECT_EQ(metrics.GetCounter("engine.plan.compiles").value(), 2u);
  EXPECT_EQ(metrics.GetGauge("engine.plan.cached").value(), 2);

  // Every execution runs the VM, and every miss caches a plan.
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//wardNo", options).ok());
  EXPECT_EQ(metrics.GetCounter("engine.plan.compiles").value(), 3u);
  EXPECT_EQ(metrics.GetCounter("eval.compiled_queries").value(), 4u);
  EXPECT_EQ(metrics.GetGauge("engine.plan.cached").value(),
            metrics.GetGauge("engine.cache.size").value());
}

TEST_F(EngineTest, OptimizedColdExecuteAddsExactlyOneEntry) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  ASSERT_TRUE(engine_->CanOptimize());
  auto& metrics = engine_->metrics();
  auto result = engine_->Execute("nurse", doc_, "//patient//bill", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(metrics.GetGauge("engine.cache.size").value(), 1);
  EXPECT_EQ(metrics.GetGauge("policy.nurse.cache_size").value(), 1);
  EXPECT_EQ(metrics.GetCounter("engine.cache.misses").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("rewrite.queries").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("engine.plan.compiles").value(), 1u);
  // The one entry still reports both ASTs.
  ASSERT_NE(result->rewritten, nullptr);
  ASSERT_NE(result->evaluated, nullptr);
  EXPECT_EQ(result->stats.ast_size_rewritten, PathSize(result->rewritten));
  EXPECT_EQ(result->stats.ast_size_evaluated, PathSize(result->evaluated));
}

TEST_F(EngineTest, RewriteAfterExecuteIsACacheHit) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto& metrics = engine_->metrics();
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  const uint64_t hits = metrics.GetCounter("engine.cache.hits").value();
  auto rewritten = engine_->Rewrite("nurse", "//bill", true);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_EQ(metrics.GetCounter("engine.cache.hits").value(), hits + 1);
  EXPECT_EQ(metrics.GetCounter("engine.cache.misses").value(), 1u);
  EXPECT_EQ(metrics.GetGauge("engine.cache.size").value(), 1);
  // Rewrite returns the evaluated (optimized, unbound) AST of the entry.
  auto again = engine_->Rewrite("nurse", "//bill", true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(rewritten->get(), again->get());
}

TEST_F(EngineTest, ProfileOptionYieldsStepTreeWithExactAttribution) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto plain = engine_->Execute("nurse", doc_, "//patient/name", options);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->profile, nullptr);
  EXPECT_TRUE(plain->stats.hot_step.empty());

  options.profile = true;
  auto profiled = engine_->Execute("nurse", doc_, "//patient/name", options);
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  // Profiling observes the execution without changing it.
  EXPECT_EQ(profiled->nodes, plain->nodes);
  ASSERT_NE(profiled->profile, nullptr);
  // Per-step exclusive costs sum to the aggregate evaluator counters.
  EvalCounters totals = ProfileTotals(*profiled->profile);
  EXPECT_EQ(totals.nodes_touched, profiled->stats.nodes_touched);
  EXPECT_EQ(totals.predicate_evals, profiled->stats.predicate_evals);
  // The hottest step is named for slow-log / trace correlation.
  EXPECT_NE(profiled->stats.hot_step.find(" nodes="), std::string::npos)
      << profiled->stats.hot_step;
  // The flush fed per-axis instruments in the engine registry.
  obs::MetricsRegistry& metrics = engine_->metrics();
  EXPECT_GT(metrics.GetCounter("eval.axis.descendant.nodes").value() +
                metrics.GetCounter("eval.axis.child.nodes").value(),
            0u);
}

TEST_F(EngineTest, AttachedPlanProfileTableImpliesProfiling) {
  obs::PlanProfileTable table;
  engine_->AttachPlanProfiles(&table);
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//patient/name", options).ok());
  EXPECT_EQ(table.queries(), 2u);
  EXPECT_GT(table.steps(), 0u);
  // Exclusive rows are additive: the table total matches the registry's
  // aggregate node-touch counter.
  uint64_t table_nodes = 0;
  for (const obs::PlanStepRecord& row : table.Snapshot()) {
    table_nodes += row.nodes_touched;
  }
  EXPECT_EQ(table_nodes,
            engine_->metrics().GetCounter("eval.nodes_touched").value());
}

TEST_F(EngineTest, MetricsTrackCacheHitsAndQueryCounts) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  // Each Execute looks up one entry, so a cold query costs one miss and
  // a warm one one hit.
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  obs::MetricsRegistry& metrics = engine_->metrics();
  EXPECT_EQ(metrics.GetCounter("engine.cache.misses").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("engine.cache.hits").value(), 0u);

  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  EXPECT_EQ(metrics.GetCounter("engine.cache.misses").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("engine.cache.hits").value(), 1u);

  EXPECT_EQ(metrics.GetCounter("engine.queries").value(), 2u);
  EXPECT_EQ(metrics.GetCounter("policy.nurse.queries").value(), 2u);
  EXPECT_GT(metrics.GetCounter("eval.nodes_touched").value(), 0u);
  EXPECT_GT(metrics.GetCounter("rewrite.queries").value(), 0u);
  EXPECT_GT(metrics.GetCounter("optimize.queries").value(), 0u);
}

TEST_F(EngineTest, TraceRecordsPhaseSpans) {
  obs::Trace trace("test.query");
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  options.trace = &trace;
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  trace.Finish();

  const obs::Span& root = trace.root();
  const obs::Span* execute = root.FindSpan("execute");
  ASSERT_NE(execute, nullptr);
  for (const char* phase : {"parse", "rewrite", "optimize", "bind",
                            "evaluate"}) {
    EXPECT_NE(execute->FindSpan(phase), nullptr) << phase;
  }
  const std::string* cache = execute->FindAttr("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(*cache, "miss");
  const obs::Span* evaluate = execute->FindSpan("evaluate");
  EXPECT_NE(evaluate->FindAttr("nodes_touched"), nullptr);

  // The whole tree exports as valid JSON.
  auto parsed = obs::Json::Parse(trace.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST_F(EngineTest, ExecuteReportsAllocationStats) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto result = engine_->Execute("nurse", doc_, "//patient//bill", options);
  ASSERT_TRUE(result.ok()) << result.status();
  const ExecuteStats& stats = result->stats;
  EXPECT_GT(stats.alloc_bytes, 0u);
  EXPECT_GT(stats.alloc_count, 0u);
  // A cold query runs parse + rewrite; both phases allocate.
  EXPECT_GT(stats.parse_alloc_count, 0u);
  EXPECT_GT(stats.rewrite_alloc_count, 0u);
  EXPECT_GT(stats.evaluate_alloc_count, 0u);
  // Phase charges are a subset of the whole-query charge.
  EXPECT_LE(stats.parse_alloc_bytes + stats.rewrite_alloc_bytes +
                stats.optimize_alloc_bytes + stats.evaluate_alloc_bytes,
            stats.alloc_bytes);

  // A cache hit skips parse/rewrite: those phase charges drop to zero.
  auto again = engine_->Execute("nurse", doc_, "//patient//bill", options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats.cache_hit);
  EXPECT_EQ(again->stats.parse_alloc_count, 0u);
  EXPECT_EQ(again->stats.rewrite_alloc_count, 0u);
  EXPECT_GT(again->stats.evaluate_alloc_count, 0u);

  // The registry saw the same activity.
  EXPECT_GT(engine_->metrics().GetCounter("alloc.evaluate.count").value(), 0u);
}

TEST_F(EngineTest, AttachedTraceStoreSamplesExecutions) {
  obs::RequestTraceStore::Options trace_options;
  trace_options.sample_every = 1;
  obs::RequestTraceStore store(trace_options);
  engine_->AttachTraceStore(&store);
  obs::PolicyStatsTable policy_stats;
  engine_->AttachPolicyStats(&policy_stats);

  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  auto denied = engine_->Execute("nurse", doc_, "//bill[", options);
  ASSERT_FALSE(denied.ok());

  std::vector<obs::RequestTraceStore::Entry> entries = store.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].outcome, obs::ServeOutcome::kDenied);  // newest first
  EXPECT_EQ(entries[1].outcome, obs::ServeOutcome::kOk);
  EXPECT_EQ(entries[1].policy, "nurse");
  EXPECT_EQ(entries[1].query, "//bill");
  // The engine's own span tree rides along: root "secview.request" with
  // the execute phases beneath it.
  const obs::Json* name = entries[1].spans.Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->AsString(), "secview.request");
  EXPECT_NE(entries[1].spans.Dump(false).find("evaluate"), std::string::npos);
  if (AllocTrackingAvailable()) {
    // The root span carries the query's allocation charge.
    const obs::Json* attrs = entries[1].spans.Find("attrs");
    ASSERT_NE(attrs, nullptr);
    EXPECT_NE(attrs->Find("alloc_bytes"), nullptr);
  }

  std::vector<obs::PolicyStatsTable::PolicySnapshot> rows =
      policy_stats.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].queries, 2u);
  EXPECT_EQ(rows[0].ok, 1u);
  EXPECT_EQ(rows[0].denied, 1u);
}

TEST_F(EngineTest, CallerTraceWinsOverAttachedStore) {
  obs::RequestTraceStore::Options trace_options;
  trace_options.sample_every = 1;
  obs::RequestTraceStore store(trace_options);
  engine_->AttachTraceStore(&store);

  obs::Trace mine("caller.trace");
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  options.trace = &mine;
  ASSERT_TRUE(engine_->Execute("nurse", doc_, "//bill", options).ok());
  // The caller's trace got the spans; the store did not hijack it.
  EXPECT_NE(mine.root().FindSpan("evaluate"), nullptr);
  EXPECT_TRUE(store.Snapshot().empty());
}

TEST(EngineOptimizeStatsTest, OptimizedExecutionTouchesFewerNodes) {
  // On a document big enough for evaluation cost to matter, the DTD-based
  // optimizer (paper Section 5) must strictly reduce the evaluator's
  // node-touch count for a descendant query over the nurse view. The
  // query keeps a main-path '//' that only the optimizer removes: the
  // path summary already makes '//patient//bill' and its optimized form
  // touch the same nodes.
  auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterPolicy("nurse", kNursePolicy).ok());
  auto doc = GenerateDocument(MakeHospitalDtd(),
                              HospitalGeneratorOptions(3, 200'000));
  ASSERT_TRUE(doc.ok()) << doc.status();

  ExecuteOptions optimized;
  optimized.bindings = {{"wardNo", "3"}};
  optimized.optimize = true;
  ExecuteOptions unoptimized = optimized;
  unoptimized.optimize = false;

  auto fast = (*engine)->Execute("nurse", *doc, "//*//bill", optimized);
  auto slow = (*engine)->Execute("nurse", *doc, "//*//bill", unoptimized);
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(fast->nodes, slow->nodes);
  EXPECT_LT(fast->stats.nodes_touched, slow->stats.nodes_touched);
}

TEST_F(EngineTest, ExecuteRequiresBindings) {
  auto result = engine_->Execute("nurse", doc_, "//patient/name");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, ExecuteRejectsForeignDocuments) {
  auto other = ParseXml("<library/>");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(engine_->Execute("nurse", *other, "//x").ok());
}

TEST_F(EngineTest, ExecuteUnknownPolicyOrBadQuery) {
  EXPECT_EQ(engine_->Execute("ghost", doc_, "//x").status().code(),
            StatusCode::kNotFound);
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  EXPECT_FALSE(engine_->Execute("nurse", doc_, "//x[", options).ok());
}

TEST_F(EngineTest, OptimizeToggleAgrees) {
  ExecuteOptions with;
  with.bindings = {{"wardNo", "3"}};
  with.optimize = true;
  ExecuteOptions without = with;
  without.optimize = false;
  for (const char* q : {"//bill", "//patient[name]/wardNo", "//dummy2"}) {
    auto a = engine_->Execute("nurse", doc_, q, with);
    auto b = engine_->Execute("nurse", doc_, q, without);
    ASSERT_TRUE(a.ok()) << q;
    ASSERT_TRUE(b.ok()) << q;
    EXPECT_EQ(a->nodes, b->nodes) << q;
  }
}

TEST_F(EngineTest, RewriteIsCached) {
  auto first = engine_->Rewrite("nurse", "//patient//bill", true);
  auto second = engine_->Rewrite("nurse", "//patient//bill", true);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same cached object
}

TEST_F(EngineTest, MultiplePoliciesSeeDifferentData) {
  ASSERT_TRUE(engine_->RegisterPolicy("researcher", kResearcherPolicy).ok());

  ExecuteOptions nurse_options;
  nurse_options.bindings = {{"wardNo", "3"}};
  auto nurse = engine_->Execute("nurse", doc_, "//patient/name",
                                nurse_options);
  auto researcher = engine_->Execute("researcher", doc_, "//patient/name");
  ASSERT_TRUE(nurse.ok());
  ASSERT_TRUE(researcher.ok()) << researcher.status();
  EXPECT_EQ(nurse->nodes.size(), 2u);
  // Researchers see only the clinical-trial patient.
  ASSERT_EQ(researcher->nodes.size(), 1u);
  EXPECT_EQ(doc_.CollectText(researcher->nodes[0]), "carol");

  // Researchers can see the test element nurses cannot.
  auto tests = engine_->Execute("researcher", doc_, "//test");
  ASSERT_TRUE(tests.ok());
  EXPECT_EQ(tests->nodes.size(), 1u);
  auto nurse_tests = engine_->Execute("nurse", doc_, "//test", nurse_options);
  ASSERT_TRUE(nurse_tests.ok());
  EXPECT_TRUE(nurse_tests->nodes.empty());
}

TEST_F(EngineTest, ExtractResultsServesViewSubtrees) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto result = engine_->Execute("nurse", doc_, "//patient", options);
  ASSERT_TRUE(result.ok());
  auto answer = engine_->ExtractResults("nurse", doc_, result->nodes,
                                        options.bindings);
  ASSERT_TRUE(answer.ok()) << answer.status();
  std::string xml = ToXmlString(*answer);
  EXPECT_NE(xml.find("<results>"), std::string::npos);
  EXPECT_NE(xml.find("carol"), std::string::npos);
  // The serialized answer hides treatment kinds behind dummies and never
  // contains hidden labels, even though trial nodes sit below patients in
  // the raw document.
  EXPECT_EQ(xml.find("<trial"), std::string::npos) << xml;
  EXPECT_EQ(xml.find("<regular"), std::string::npos);
  EXPECT_NE(xml.find("dummy"), std::string::npos);
  EXPECT_NE(xml.find("<bill>900</bill>"), std::string::npos);
}

TEST_F(EngineTest, ExtractResultsSkipsInvisibleNodes) {
  // Asking to extract a node outside the view yields nothing for it.
  ExecuteOptions options;
  options.bindings = {{"wardNo", "7"}};  // nothing visible
  NodeSet everything;
  for (NodeId n = 0; n < static_cast<NodeId>(doc_.node_count()); ++n) {
    if (doc_.IsElement(n) && doc_.label(n) == "patient") {
      everything.push_back(n);
    }
  }
  auto answer = engine_->ExtractResults("nurse", doc_, everything,
                                        options.bindings);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(ToXmlString(*answer), "<results/>");
}


TEST_F(EngineTest, ExtractResultsRequiresBindingsForParamPolicies) {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto result = engine_->Execute("nurse", doc_, "//patient", options);
  ASSERT_TRUE(result.ok());
  // Without bindings the accessibility filter cannot be evaluated.
  auto answer = engine_->ExtractResults("nurse", doc_, result->nodes);
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, SavedViewPolicyServesLikeItsSpecification) {
  // A policy registered from a saved view definition (the `derive --out`
  // round trip) answers every nurse query with the spec policy's nodes.
  auto derived = engine_->View("nurse");
  ASSERT_TRUE(derived.ok());
  auto saved = ParseView(engine_->dtd(), SerializeView(**derived));
  ASSERT_TRUE(saved.ok()) << saved.status();
  ASSERT_TRUE(engine_->RegisterPolicy("saved", std::move(saved).value()).ok());
  EXPECT_EQ(engine_->PublishedViewDtd("saved").value(),
            engine_->PublishedViewDtd("nurse").value());
  for (const char* ward : {"3", "7"}) {
    ExecuteOptions ward_options;
    ward_options.bindings = {{"wardNo", ward}};
    for (const char* q : {"//patient/name", "//bill", "//patient//bill",
                          "//patient[wardNo]/name", "//bill | //medication",
                          "//clinicalTrial", "//test"}) {
      for (bool optimize : {true, false}) {
        ward_options.optimize = optimize;
        auto from_spec = engine_->Execute("nurse", doc_, q, ward_options);
        auto from_view = engine_->Execute("saved", doc_, q, ward_options);
        ASSERT_TRUE(from_spec.ok()) << q << ": " << from_spec.status();
        ASSERT_TRUE(from_view.ok()) << q << ": " << from_view.status();
        EXPECT_EQ(from_view->nodes, from_spec->nodes)
            << q << " wardNo=" << ward << " optimize=" << optimize;
        EXPECT_EQ(ToXPathString(from_view->evaluated),
                  ToXPathString(from_spec->evaluated));
      }
    }
  }
  // Extraction filters by the specification's annotations, which a saved
  // view does not carry.
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  auto result = engine_->Execute("saved", doc_, "//patient", options);
  ASSERT_TRUE(result.ok());
  auto answer = engine_->ExtractResults("saved", doc_, result->nodes,
                                        options.bindings);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, RegisterViewChecksLikeRegisterSpec) {
  auto derived = engine_->View("nurse");
  ASSERT_TRUE(derived.ok());
  const std::string text = SerializeView(**derived);
  // A view parsed against another Dtd instance, even an equal one.
  Dtd other = MakeHospitalDtd();
  auto foreign = ParseView(other, text);
  ASSERT_TRUE(foreign.ok()) << foreign.status();
  Status status =
      engine_->RegisterPolicy("foreign", std::move(foreign).value());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("different DTD"), std::string::npos);
  // Empty and duplicate names.
  EXPECT_FALSE(
      engine_->RegisterPolicy("", ParseView(engine_->dtd(), text).value())
          .ok());
  EXPECT_FALSE(
      engine_->RegisterPolicy("nurse", ParseView(engine_->dtd(), text).value())
          .ok());
  // After Seal().
  engine_->Seal();
  status =
      engine_->RegisterPolicy("late", ParseView(engine_->dtd(), text).value());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_EQ(engine_->PolicyNames(), std::vector<std::string>{"nurse"});
}

TEST(EngineRecursiveTest, RecursiveViewsWorkThroughTheEngine) {
  RecursiveFixture fixture = MakeRecursiveFixture();
  auto engine = SecureQueryEngine::Create(std::move(fixture.dtd));
  ASSERT_TRUE(engine.ok());
  // The recursive document DTD disables the optimizer but not querying.
  EXPECT_FALSE((*engine)->CanOptimize());
  ASSERT_TRUE((*engine)->RegisterPolicy("outline", fixture.spec_text).ok());

  auto doc = ParseXml(
      "<doc><section><title>a</title><meta>"
      "<section><title>b</title><meta/></section>"
      "</meta></section></doc>");
  ASSERT_TRUE(doc.ok());
  auto result = (*engine)->Execute("outline", *doc, "//title");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->nodes.size(), 2u);
}

TEST(EngineRecursiveTest, CacheIsKeyedByUnfoldDepth) {
  // Regression test for the rewrite-cache key (engine.h): a recursive
  // view's rewriting is unfolded to the document height, so the same
  // query over documents of different heights must NOT share a cache
  // entry — reusing a shallow unfolding on a taller document would
  // silently drop the deeper matches.
  RecursiveFixture fixture = MakeRecursiveFixture();
  auto engine = SecureQueryEngine::Create(std::move(fixture.dtd));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterPolicy("outline", fixture.spec_text).ok());

  auto shallow = ParseXml(
      "<doc><section><title>a</title><meta/></section></doc>");
  auto deep = ParseXml(
      "<doc><section><title>a</title><meta>"
      "<section><title>b</title><meta>"
      "<section><title>c</title><meta/></section>"
      "</meta></section>"
      "</meta></section></doc>");
  ASSERT_TRUE(shallow.ok());
  ASSERT_TRUE(deep.ok());

  auto first = (*engine)->Execute("outline", *shallow, "//title");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->nodes.size(), 1u);
  EXPECT_FALSE(first->stats.cache_hit);

  // The taller document must be a cache MISS (different depth key) and
  // must see every nested title.
  auto second = (*engine)->Execute("outline", *deep, "//title");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->nodes.size(), 3u);
  EXPECT_FALSE(second->stats.cache_hit);
  EXPECT_GT(second->stats.unfold_depth, first->stats.unfold_depth);

  // Same height again: now it is a hit, and still correct.
  auto third = (*engine)->Execute("outline", *deep, "//title");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->nodes.size(), 3u);
  EXPECT_TRUE(third->stats.cache_hit);
}

TEST(EngineRecursiveTest, OptimizeOnAndOffShareOneEntry) {
  // A recursive document DTD has no optimizer, so the optimize flag
  // changes nothing and must not split the cache.
  RecursiveFixture fixture = MakeRecursiveFixture();
  auto engine = SecureQueryEngine::Create(std::move(fixture.dtd));
  ASSERT_TRUE(engine.ok());
  ASSERT_FALSE((*engine)->CanOptimize());
  ASSERT_TRUE((*engine)->RegisterPolicy("outline", fixture.spec_text).ok());
  auto doc = ParseXml(
      "<doc><section><title>a</title><meta>"
      "<section><title>b</title><meta/></section>"
      "</meta></section></doc>");
  ASSERT_TRUE(doc.ok());

  ExecuteOptions on;
  on.optimize = true;
  ExecuteOptions off;
  off.optimize = false;
  auto first = (*engine)->Execute("outline", *doc, "//title", on);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->stats.cache_hit);
  auto second = (*engine)->Execute("outline", *doc, "//title", off);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->stats.cache_hit);
  EXPECT_EQ(second->nodes, first->nodes);
  EXPECT_EQ(second->rewritten.get(), first->rewritten.get());  // one entry
  obs::MetricsRegistry& metrics = (*engine)->metrics();
  EXPECT_EQ(metrics.GetGauge("engine.cache.size").value(), 1);
  EXPECT_EQ(metrics.GetCounter("engine.cache.misses").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("engine.plan.compiles").value(), 1u);
}

TEST(EngineCreateTest, UnfinalizedDtdIsFinalized) {
  Dtd dtd;
  ASSERT_TRUE(dtd.AddType("r", ContentModel::Text()).ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());
  auto engine = SecureQueryEngine::Create(std::move(dtd));
  EXPECT_TRUE(engine.ok());
}

TEST(EngineCreateTest, BrokenDtdRejected) {
  Dtd dtd;
  ASSERT_TRUE(dtd.AddType("r", ContentModel::Star("missing")).ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());
  auto engine = SecureQueryEngine::Create(std::move(dtd));
  EXPECT_FALSE(engine.ok());
}

}  // namespace
}  // namespace secview
