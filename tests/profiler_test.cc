#include "xpath/profiler.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "workload/adex.h"
#include "workload/generator.h"
#include "workload/hospital.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/plan.h"
#include "xpath/printer.h"

#include "profiler_corpus.h"

namespace secview {
namespace {

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

XmlTree MustParseDoc() {
  auto doc = ParseXml(kDoc);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

PathPtr MustParsePath(const std::string& text) {
  auto p = ParseXPath(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return std::move(p).value();
}

TEST(PlanProfilerTest, PerStepCostsSumToAggregateCounters) {
  XmlTree doc = MustParseDoc();
  for (const std::string& text : ProfilerCorpus()) {
    PathPtr p = MustParsePath(text);
    XPathEvaluator evaluator(doc);
    PlanProfiler profiler;
    evaluator.set_profiler(&profiler);
    auto result = evaluator.Evaluate(p, doc.root());
    ASSERT_TRUE(result.ok()) << text;

    EvalCounters totals = ProfileTotals(profiler.root());
    const EvalCounters& agg = evaluator.counters();
    EXPECT_EQ(totals.nodes_touched, agg.nodes_touched) << text;
    EXPECT_EQ(totals.predicate_evals, agg.predicate_evals) << text;
    EXPECT_EQ(totals.sort_skips, agg.sort_skips) << text;
  }
}

TEST(PlanProfilerTest, ProfiledAndUnprofiledRunsAgreeOnResults) {
  XmlTree doc = MustParseDoc();
  for (const std::string& text : ProfilerCorpus()) {
    PathPtr p = MustParsePath(text);
    XPathEvaluator plain(doc);
    auto expected = plain.Evaluate(p, doc.root());
    ASSERT_TRUE(expected.ok()) << text;

    XPathEvaluator profiled(doc);
    PlanProfiler profiler;
    profiled.set_profiler(&profiler);
    auto actual = profiled.Evaluate(p, doc.root());
    ASSERT_TRUE(actual.ok()) << text;
    EXPECT_EQ(*actual, *expected) << text;
    // Profiling must observe costs, not change them.
    EXPECT_EQ(profiled.counters().nodes_touched, plain.counters().nodes_touched)
        << text;
  }
}

TEST(PlanProfilerTest, CompiledPathKeepsSumInvariant) {
  // The same invariant through EvaluateCompiled on a plan compiled
  // once up front, the way the engine runs its cached plans.
  XmlTree doc = MustParseDoc();
  for (const std::string& text : ProfilerCorpus()) {
    PathPtr p = MustParsePath(text);
    auto plan = CompilePlan(p);
    ASSERT_NE(plan, nullptr) << text;
    XPathEvaluator evaluator(doc);
    PlanProfiler profiler;
    evaluator.set_profiler(&profiler);
    auto result = evaluator.EvaluateCompiled(*plan, doc.root());
    ASSERT_TRUE(result.ok()) << text;

    EvalCounters totals = ProfileTotals(profiler.root());
    const EvalCounters& agg = evaluator.counters();
    EXPECT_EQ(totals.nodes_touched, agg.nodes_touched) << text;
    EXPECT_EQ(totals.predicate_evals, agg.predicate_evals) << text;
    EXPECT_EQ(totals.sort_skips, agg.sort_skips) << text;
  }
}

TEST(PlanProfilerTest, RootShapeAndInvocations) {
  XmlTree doc = MustParseDoc();
  PathPtr p = MustParsePath("dept/patientInfo/patient");
  XPathEvaluator evaluator(doc);
  PlanProfiler profiler;
  evaluator.set_profiler(&profiler);
  ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());

  const StepProfile& root = profiler.root();
  EXPECT_EQ(root.signature, "query");
  EXPECT_EQ(root.axis, "query");
  ASSERT_FALSE(root.children.empty());
  // The outermost step (the compose chain) ran exactly once.
  EXPECT_EQ(root.children[0]->invocations, 1u);
  EXPECT_GT(root.children[0]->total_nanos, 0u);
}

TEST(PlanProfilerTest, SignaturesNameAxesAndLabels) {
  XmlTree doc = MustParseDoc();
  PathPtr p =
      MustParsePath("//patient[wardNo = \"3\"]/name | dept/staffInfo/*");
  XPathEvaluator evaluator(doc);
  PlanProfiler profiler;
  evaluator.set_profiler(&profiler);
  ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());

  std::vector<obs::PlanStepRecord> rows = FlattenStepProfile(profiler.root());
  ASSERT_FALSE(rows.empty());
  auto has = [&rows](const std::string& signature) {
    for (const auto& row : rows) {
      if (row.signature == signature) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("union"));
  EXPECT_TRUE(has("child::name"));
  EXPECT_TRUE(has("child::*"));
  EXPECT_TRUE(has("pred::eq")) << "equality predicate step missing";
  for (const auto& row : rows) {
    EXPECT_NE(row.signature, "query") << "synthetic root must not flatten";
    EXPECT_FALSE(row.axis.empty()) << row.signature;
  }
}

TEST(PlanProfilerTest, HottestStepAndHotLine) {
  XmlTree doc = MustParseDoc();
  PathPtr p = MustParsePath("//bill");
  XPathEvaluator evaluator(doc);
  PlanProfiler profiler;
  evaluator.set_profiler(&profiler);
  ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());

  const StepProfile* hottest = HottestStep(profiler.root());
  ASSERT_NE(hottest, nullptr);
  EXPECT_GT(hottest->nodes_touched, 0u);
  std::string line = HotStepLine(profiler.root());
  EXPECT_EQ(line, hottest->signature + " nodes=" +
                      std::to_string(hottest->nodes_touched));
  // An untouched profiler has no hot step.
  PlanProfiler empty;
  EXPECT_EQ(HottestStep(empty.root()), nullptr);
  EXPECT_TRUE(HotStepLine(empty.root()).empty());
}

TEST(PlanProfilerTest, AccumulatesAcrossCallsAndTakeRootResets) {
  XmlTree doc = MustParseDoc();
  PathPtr p = MustParsePath("//patient");
  XPathEvaluator evaluator(doc);
  PlanProfiler profiler;
  evaluator.set_profiler(&profiler);
  ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());
  uint64_t once = ProfileTotals(profiler.root()).nodes_touched;
  ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());
  EXPECT_EQ(ProfileTotals(profiler.root()).nodes_touched, 2 * once);

  std::unique_ptr<StepProfile> taken = profiler.TakeRoot();
  EXPECT_EQ(ProfileTotals(*taken).nodes_touched, 2 * once);
  EXPECT_TRUE(profiler.root().children.empty());
  EXPECT_EQ(ProfileTotals(profiler.root()).nodes_touched, 0u);
}

TEST(PlanProfilerTest, TextRenderingListsEverySignature) {
  XmlTree doc = MustParseDoc();
  PathPtr p = MustParsePath("//patient[wardNo = \"3\"]/name");
  XPathEvaluator evaluator(doc);
  PlanProfiler profiler;
  evaluator.set_profiler(&profiler);
  ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());

  std::string text = StepProfileText(profiler.root());
  for (const auto& row : FlattenStepProfile(profiler.root())) {
    EXPECT_NE(text.find(row.signature), std::string::npos) << row.signature;
  }
  EXPECT_NE(text.find("hot step:"), std::string::npos);
}

TEST(PlanProfilerTest, FlushStepProfileMetricsFeedsPerAxisInstruments) {
  XmlTree doc = MustParseDoc();
  PathPtr p = MustParsePath("//patient/name");
  XPathEvaluator evaluator(doc);
  PlanProfiler profiler;
  evaluator.set_profiler(&profiler);
  ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());

  obs::MetricsRegistry metrics;
  FlushStepProfileMetrics(profiler.root(), metrics);
  uint64_t descendant =
      metrics.GetCounter("eval.axis.descendant.nodes").value();
  uint64_t child = metrics.GetCounter("eval.axis.child.nodes").value();
  EXPECT_GT(descendant + child, 0u);
  EXPECT_EQ(descendant + child +
                metrics.GetCounter("eval.axis.compose.nodes").value() +
                metrics.GetCounter("eval.axis.self.nodes").value() +
                metrics.GetCounter("eval.axis.predicate.nodes").value() +
                metrics.GetCounter("eval.axis.filter.nodes").value() +
                metrics.GetCounter("eval.axis.union.nodes").value() +
                metrics.GetCounter("eval.axis.empty.nodes").value(),
            evaluator.counters().nodes_touched);
}

TEST(PlanProfileTableTest, RecordsMergeAndRankBySelfNodes) {
  obs::PlanProfileTable table;
  obs::PlanStepRecord hot;
  hot.signature = "descendant::patient";
  hot.axis = "descendant";
  hot.invocations = 1;
  hot.nodes_touched = 100;
  obs::PlanStepRecord cold;
  cold.signature = "child::name";
  cold.axis = "child";
  cold.invocations = 2;
  cold.nodes_touched = 5;
  table.Record({hot, cold});
  table.Record({hot});

  EXPECT_EQ(table.queries(), 2u);
  EXPECT_EQ(table.steps(), 2u);
  std::vector<obs::PlanStepRecord> rows = table.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].signature, "descendant::patient");
  EXPECT_EQ(rows[0].nodes_touched, 200u);
  EXPECT_EQ(rows[0].queries, 2u);
  EXPECT_EQ(rows[1].queries, 1u);
  ASSERT_EQ(table.TopK(1).size(), 1u);
  EXPECT_EQ(table.TopK(1)[0].signature, "descendant::patient");

  std::string text = obs::RenderPlanProfileText(rows, 10, table.queries());
  EXPECT_NE(text.find("descendant::patient"), std::string::npos);
  EXPECT_NE(text.find("2 profiled quer"), std::string::npos);
}

TEST(PlanProfilerTest, ProfileLineJsonRoundTripsThroughValidator) {
  XmlTree doc = MustParseDoc();
  for (const std::string& text : ProfilerCorpus()) {
    PathPtr p = MustParsePath(text);
    XPathEvaluator evaluator(doc);
    PlanProfiler profiler;
    evaluator.set_profiler(&profiler);
    ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());

    obs::Json line = ProfileLineJson(profiler.root(), "nurse", text,
                                     /*unix_micros=*/1234567);
    std::string dumped = line.Dump(false);
    Status valid = obs::ValidateProfileLine(dumped);
    EXPECT_TRUE(valid.ok()) << text << ": " << valid.message();

    auto parsed = obs::ParseProfileJsonl(dumped + "\n\n");
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->size(), 1u);
  }
}

TEST(PlanProfilerTest, ValidatorRejectsBrokenSumInvariant) {
  XmlTree doc = MustParseDoc();
  PathPtr p = MustParsePath("//patient/name");
  XPathEvaluator evaluator(doc);
  PlanProfiler profiler;
  evaluator.set_profiler(&profiler);
  ASSERT_TRUE(evaluator.Evaluate(p, doc.root()).ok());
  obs::Json line =
      ProfileLineJson(profiler.root(), "nurse", "//patient/name", 1);
  auto* counters = const_cast<obs::Json*>(line.Find("counters"));
  ASSERT_NE(counters, nullptr);
  counters->Set("nodes_touched",
                obs::Json(counters->Find("nodes_touched")->AsNumber() + 1));
  EXPECT_FALSE(obs::ValidateProfileLine(line.Dump(false)).ok());
}

// -- Golden profiles ---------------------------------------------------------

/// 64-bit FNV-1a over a sequence of strings, each closed by a 0xff byte.
class Fnv1a {
 public:
  void Add(std::string_view text) {
    for (unsigned char c : text) Mix(c);
    Mix(0xff);
  }
  uint64_t value() const { return hash_; }

 private:
  void Mix(unsigned char c) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// `j` with its wall-clock and allocation fields zeroed: those vary run
/// to run, everything else in a profile is a function of plan and tree.
/// The schema tag is zeroed too: it versions the format (cli_test and
/// telemetry_test check it), not what the profile measured.
obs::Json ZeroVolatileFields(const obs::Json& j) {
  if (j.is_array()) {
    obs::Json out = obs::Json::Array();
    for (const obs::Json& item : j.items()) {
      out.Append(ZeroVolatileFields(item));
    }
    return out;
  }
  if (!j.is_object()) return j;
  obs::Json out = obs::Json::Object();
  for (const auto& [key, value] : j.members()) {
    if (key == "self_nanos" || key == "total_nanos" || key == "alloc_bytes" ||
        key == "alloc_count" || key == "schema") {
      out.Set(key, obs::Json(0));
    } else {
      out.Set(key, ZeroVolatileFields(value));
    }
  }
  return out;
}

/// Runs each query through `engine` with profiling on (optimized, so
/// the profiled plan is the one served) and hashes the per-query plan
/// trees of their profile JSONL lines.
uint64_t HashProfiledPlans(SecureQueryEngine& engine, const std::string& policy,
                           const XmlTree& doc,
                           const std::vector<std::string>& queries,
                           const ExecuteOptions& options) {
  Fnv1a hash;
  for (const std::string& query : queries) {
    auto result = engine.Execute(policy, doc, query, options);
    EXPECT_TRUE(result.ok()) << query << ": " << result.status();
    if (!result.ok() || result->profile == nullptr) continue;
    obs::Json line = ProfileLineJson(*result->profile, policy, query, 0);
    hash.Add(query);
    hash.Add(ZeroVolatileFields(*line.Find("plan")).Dump(false));
  }
  return hash.value();
}

// The profile of a query is a function of its plan and the document:
// which steps ran, how often, over how many nodes. These hashes pin the
// plan trees and the /profilez rollup of the profiler corpus over the
// nurse view and of Table 1 over the Adex view, so a change to how the
// profile is collected must leave every tree as it was. (The Adex hashes
// moved once, when child steps from whole path-summary extents began to
// count one visit per copied entry instead of one per child walked. The
// nurse and rollup hashes moved once, when a filter over one summary
// class began to be decided by one semi-join: one invocation per
// qualifier step, charged one visit per extent entry read. All three
// moved when the profile format dropped its always-zero per-step
// index-scan field with the label index; a profile of the parent commit
// with that key removed and the schema tag zeroed hashes to exactly the
// pins below, so no counter moved.)
TEST(PlanProfilerGoldenTest, NurseCorpusAndAdexTable1) {
  obs::PlanProfileTable table;
  ExecuteOptions options;
  options.profile = true;

  auto nurse = SecureQueryEngine::Create(MakeHospitalDtd());
  ASSERT_TRUE(nurse.ok()) << nurse.status();
  auto nurse_spec = MakeNurseSpec((*nurse)->dtd());
  ASSERT_TRUE(nurse_spec.ok()) << nurse_spec.status();
  ASSERT_TRUE((*nurse)->RegisterPolicy("nurse", *nurse_spec).ok());
  (*nurse)->AttachPlanProfiles(&table);
  auto hospital =
      GenerateDocument((*nurse)->dtd(), HospitalGeneratorOptions(11, 40'000));
  ASSERT_TRUE(hospital.ok()) << hospital.status();
  options.bindings = {{"wardNo", "3"}};
  const uint64_t nurse_hash =
      HashProfiledPlans(**nurse, "nurse", *hospital, ProfilerCorpus(), options);

  auto adex = SecureQueryEngine::Create(MakeAdexDtd());
  ASSERT_TRUE(adex.ok()) << adex.status();
  auto adex_spec = MakeAdexSpec((*adex)->dtd());
  ASSERT_TRUE(adex_spec.ok()) << adex_spec.status();
  ASSERT_TRUE((*adex)->RegisterPolicy("adex", *adex_spec).ok());
  (*adex)->AttachPlanProfiles(&table);
  auto ads = GenerateDocument((*adex)->dtd(), AdexGeneratorOptions(7, 40'000, 4));
  ASSERT_TRUE(ads.ok()) << ads.status();
  auto table1 = MakeAdexQueries();
  ASSERT_TRUE(table1.ok()) << table1.status();
  std::vector<std::string> table1_text;
  for (const auto& [name, q] : table1->All()) {
    table1_text.push_back(ToXPathString(q));
  }
  options.bindings.clear();
  const uint64_t adex_hash =
      HashProfiledPlans(**adex, "adex", *ads, table1_text, options);

  EXPECT_EQ(table.queries(), ProfilerCorpus().size() + table1_text.size());
  const std::string rollup =
      ZeroVolatileFields(obs::PlanProfileJson(table.Snapshot(),
                                              table.queries()))
          .Dump(false);
  Fnv1a rollup_hash;
  rollup_hash.Add(rollup);

  EXPECT_EQ(nurse_hash, 0x5ae876bf4c086f43ULL);
  EXPECT_EQ(adex_hash, 0x2a3f57bdd3103586ULL);
  EXPECT_EQ(rollup_hash.value(), 0xfc1133c498697e9bULL);
}

}  // namespace
}  // namespace secview
