// Differential correctness harness for the compiled-plan executor
// (xpath/plan.h + xpath/vm.cc): every test here runs the same query
// through the AST-walking evaluator and the compiled-plan VM and
// asserts the two paths are indistinguishable — identical NodeSets,
// identical statuses (code and message), and identical EvalCounters
// including budget_checks. The fuzz companion is fuzz/fuzz_plan_diff.cc.

#include "xpath/plan.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "obs/metrics.h"
#include "xml/label_index.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/profiler.h"

namespace secview {
namespace {

using Bindings = std::vector<std::pair<std::string, std::string>>;

/// A hospital instance with attributes, overlapping subtrees, and two
/// departments, so unions, predicates, and descendant steps all have
/// something to disagree about if either interpreter is wrong.
constexpr char kHostileDoc[] = R"(
  <hospital>
    <dept id="1">
      <clinicalTrial>
        <patientInfo>
          <patient vip="y"><name>carol</name><wardNo>3</wardNo>
            <treatment><trial><bill>900</bill></trial></treatment>
          </patient>
        </patientInfo>
        <test>blood</test>
      </clinicalTrial>
      <patientInfo>
        <patient><name>dave</name><wardNo>4</wardNo>
          <treatment><regular><bill>120</bill><medication>m</medication></regular></treatment>
        </patient>
      </patientInfo>
      <staffInfo><staff><nurse>sue</nurse></staff></staffInfo>
    </dept>
    <dept id="2">
      <patientInfo>
        <patient><name>erin</name><wardNo>3</wardNo>
          <treatment><regular><bill>55</bill></regular></treatment>
        </patient>
      </patientInfo>
    </dept>
  </hospital>
)";

/// The 27-case hostile corpus: one query per way the two interpreters
/// could diverge — repeated descendant closures, overlapping unions,
/// nested and boolean qualifiers, attribute tests, $parameters, absent
/// labels, and identity steps.
const std::vector<std::string>& HostileCorpus() {
  static const std::vector<std::string>* corpus =
      new std::vector<std::string>{
          "//patient//bill",
          "//dept//patientInfo//patient//treatment//bill",
          "//*",
          "//*//*",
          "*/*/*/*",
          "//nosuchlabel",
          "//patient[nosuch]",
          "//patient[wardNo = \"3\"]",
          "//patient[wardNo = \"nope\"]",
          "//patient[wardNo = $w]",
          "//dept[*/patient/wardNo = $w]//bill",
          "//patient[not(wardNo = \"3\")]/name",
          "//patient[wardNo = \"3\" and treatment//bill]",
          "//patient[wardNo = \"9\" or treatment/regular]/name",
          "//patient[not(not(name))]",
          "//bill | //bill",
          "//bill | //medication | //name",
          "dept/patientInfo/patient | //patient",
          "//patient[@vip]",
          "//patient[@vip = \"y\"]/name",
          "//dept[@id = \"2\"]//bill",
          "//patient[@vip = \"n\"]",
          ".",
          "dept/(clinicalTrial/patientInfo | patientInfo)/patient/name",
          "hospital",
          "//treatment[trial//bill | regular//bill]",
          "//dept[clinicalTrial]/patientInfo/"
          "patient[treatment[regular[bill = \"120\"]]]/name",
      };
  return *corpus;
}

/// The 17-query corpus of tests/profiler_test.cc (kept in sync by hand;
/// one query per evaluator dispatch arm).
const std::vector<std::string>& ProfilerCorpus() {
  static const std::vector<std::string>* corpus =
      new std::vector<std::string>{
          "dept",
          "dept/patientInfo/patient",
          "dept/patientInfo/patient/name",
          "//patient",
          "//patient/name",
          "//bill",
          "dept//bill",
          "*/*",
          "//patient[wardNo = \"3\"]",
          "//patient[wardNo = \"3\"]/name",
          "//patient[treatment/regular]",
          "//patient[wardNo = \"3\" and treatment/regular]/name",
          "//patient[wardNo = \"9\" or name]",
          "//bill | //medication",
          "dept/patientInfo/patient | //nurse",
          ".",
          "dept/.",
      };
  return *corpus;
}

XmlTree MustParseDoc(const char* text) {
  auto doc = ParseXml(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

PathPtr MustParsePath(const std::string& text) {
  auto p = ParseXPath(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return std::move(p).value();
}

/// A linear chain of `depth` nested <a> elements (the budget-tripping
/// pathological shape: one //a closure touches the whole document).
XmlTree MakeDeepChain(int depth) {
  XmlTree tree;
  NodeId cur = tree.CreateRoot("a");
  for (int i = 1; i < depth; ++i) cur = tree.AppendElement(cur, "a");
  return tree;
}

/// Everything one evaluation produced, for exact comparison.
struct DiffRun {
  Status status = Status::OK();
  NodeSet nodes;
  EvalCounters counters;
};

void ExpectSameRun(const DiffRun& ast, const DiffRun& compiled,
                   const std::string& context) {
  EXPECT_EQ(ast.status.code(), compiled.status.code()) << context;
  EXPECT_EQ(ast.status.message(), compiled.status.message()) << context;
  EXPECT_EQ(ast.nodes, compiled.nodes) << context;
  EXPECT_EQ(ast.counters.nodes_touched, compiled.counters.nodes_touched)
      << context;
  EXPECT_EQ(ast.counters.predicate_evals, compiled.counters.predicate_evals)
      << context;
  EXPECT_EQ(ast.counters.index_scans, compiled.counters.index_scans)
      << context;
  EXPECT_EQ(ast.counters.sort_skips, compiled.counters.sort_skips) << context;
  EXPECT_EQ(ast.counters.budget_checks, compiled.counters.budget_checks)
      << context;
}

DiffRun RunAst(const XmlTree& doc, const LabelIndex* index, const PathPtr& p,
               const Bindings& bindings, const BudgetLimits& limits = {},
               CancelToken cancel = CancelToken()) {
  XPathEvaluator evaluator =
      index != nullptr ? XPathEvaluator(doc, index) : XPathEvaluator(doc);
  QueryBudget budget(limits, cancel);
  if (budget.active()) evaluator.set_budget(&budget);
  PathPtr bound = bindings.empty() ? p : BindParams(p, bindings);
  auto result = evaluator.Evaluate(bound, doc.root());
  DiffRun run;
  run.status = result.status();
  if (result.ok()) run.nodes = std::move(result).value();
  run.counters = evaluator.counters();
  return run;
}

DiffRun RunCompiled(const XmlTree& doc, const LabelIndex* index,
                    const CompiledPlan& plan, const Bindings& bindings,
                    const BudgetLimits& limits = {},
                    CancelToken cancel = CancelToken()) {
  XPathEvaluator evaluator =
      index != nullptr ? XPathEvaluator(doc, index) : XPathEvaluator(doc);
  QueryBudget budget(limits, cancel);
  if (budget.active()) evaluator.set_budget(&budget);
  auto result = evaluator.EvaluateCompiled(plan, doc.root(), bindings);
  DiffRun run;
  run.status = result.status();
  if (result.ok()) run.nodes = std::move(result).value();
  run.counters = evaluator.counters();
  return run;
}

void DiffCorpus(const XmlTree& doc, const std::vector<std::string>& corpus,
                const Bindings& bindings) {
  for (const std::string& text : corpus) {
    PathPtr p = MustParsePath(text);
    auto plan = CompilePlan(p);
    ASSERT_NE(plan, nullptr) << text;
    ExpectSameRun(RunAst(doc, nullptr, p, bindings),
                  RunCompiled(doc, nullptr, *plan, bindings), text);
  }
}

TEST(PlanDifferentialTest, HostileCorpusMatchesAstWalk) {
  ASSERT_EQ(HostileCorpus().size(), 27u);
  XmlTree doc = MustParseDoc(kHostileDoc);
  DiffCorpus(doc, HostileCorpus(), {{"w", "3"}});
}

TEST(PlanDifferentialTest, ProfilerCorpusMatchesAstWalk) {
  ASSERT_EQ(ProfilerCorpus().size(), 17u);
  XmlTree doc = MustParseDoc(kHostileDoc);
  DiffCorpus(doc, ProfilerCorpus(), {});
}

TEST(PlanDifferentialTest, NodeBudgetsTripIdentically) {
  // A 5000-deep chain: //a touches every node, nested //a qualifiers
  // re-touch subtrees, so every budget below exhausts mid-evaluation at
  // a different op. Both paths must trip at the same checkpoint with
  // the same status and the same counter totals.
  XmlTree doc = MakeDeepChain(5000);
  PathPtr p = MustParsePath("//a[a//a[a//a]]");
  auto plan = CompilePlan(p);
  ASSERT_NE(plan, nullptr);
  for (uint64_t max_nodes : {1ull, 1000ull, 2048ull, 5000ull, 20000ull,
                             100000ull, 100000000ull}) {
    BudgetLimits limits;
    limits.max_nodes = max_nodes;
    ExpectSameRun(RunAst(doc, nullptr, p, {}, limits),
                  RunCompiled(doc, nullptr, *plan, {}, limits),
                  "max_nodes=" + std::to_string(max_nodes));
  }
}

TEST(PlanDifferentialTest, CancelledExecutionsMatch) {
  XmlTree doc = MakeDeepChain(5000);
  PathPtr p = MustParsePath("//a//a");
  auto plan = CompilePlan(p);
  ASSERT_NE(plan, nullptr);
  CancelSource source;
  CancelToken token(source);
  source.CancelAll();  // cancelled before evaluation starts
  DiffRun ast = RunAst(doc, nullptr, p, {}, {}, token);
  DiffRun compiled = RunCompiled(doc, nullptr, *plan, {}, {}, token);
  ExpectSameRun(ast, compiled, "pre-cancelled token");
  EXPECT_EQ(ast.status.code(), StatusCode::kCancelled);
}

TEST(PlanDifferentialTest, IndexedPlansMatchIndexedAstWalk) {
  XmlTree doc = MustParseDoc(kHostileDoc);
  LabelIndex index(doc);
  PlanCompileOptions options;
  options.use_index = true;
  for (const std::string& text :
       {std::string("//bill"), std::string("//patient[wardNo = \"3\"]"),
        std::string("dept//bill | //medication"),
        std::string("//patient[wardNo = $w]/name")}) {
    PathPtr p = MustParsePath(text);
    auto plan = CompilePlan(p, options);
    ASSERT_NE(plan, nullptr) << text;
    EXPECT_TRUE(plan->uses_index) << text;
    ExpectSameRun(RunAst(doc, &index, p, {{"w", "3"}}),
                  RunCompiled(doc, &index, *plan, {{"w", "3"}}), text);
  }
}

TEST(PlanDifferentialTest, IndexedPlanRequiresIndex) {
  XmlTree doc = MustParseDoc(kHostileDoc);
  PlanCompileOptions options;
  options.use_index = true;
  auto plan = CompilePlan(MustParsePath("//bill"), options);
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->uses_index);
  XPathEvaluator evaluator(doc);
  auto result = evaluator.EvaluateCompiled(*plan, doc.root());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlanDifferentialTest, UnboundParameterStatusesMatch) {
  XmlTree doc = MustParseDoc(kHostileDoc);
  PathPtr p = MustParsePath("//patient[wardNo = $w]");
  auto plan = CompilePlan(p);
  ASSERT_NE(plan, nullptr);
  // No bindings at all, and bindings that miss the parameter.
  for (const Bindings& bindings :
       {Bindings{}, Bindings{{"other", "1"}, {"x", "2"}}}) {
    DiffRun ast = RunAst(doc, nullptr, p, bindings);
    DiffRun compiled = RunCompiled(doc, nullptr, *plan, bindings);
    ExpectSameRun(ast, compiled, "unbound $w");
    EXPECT_EQ(ast.status.code(), StatusCode::kFailedPrecondition);
  }
  // First-match-wins binding resolution, same as BindParams.
  ExpectSameRun(
      RunAst(doc, nullptr, p, {{"w", "3"}, {"w", "999"}}),
      RunCompiled(doc, nullptr, *plan, {{"w", "3"}, {"w", "999"}}),
      "duplicate bindings");
}

TEST(PlanDifferentialTest, CompiledProfilesKeepSumInvariant) {
  // The PR 7 acceptance invariant, now on the compiled path: tree-wide
  // per-step self sums must equal the aggregate counters exactly.
  XmlTree doc = MustParseDoc(kHostileDoc);
  for (const std::string& text : HostileCorpus()) {
    PathPtr p = MustParsePath(text);
    auto plan = CompilePlan(p);
    ASSERT_NE(plan, nullptr) << text;
    XPathEvaluator evaluator(doc);
    PlanProfiler profiler;
    evaluator.set_profiler(&profiler);
    auto result = evaluator.EvaluateCompiled(*plan, doc.root(), {{"w", "3"}});
    ASSERT_TRUE(result.ok()) << text;
    EvalCounters totals = ProfileTotals(profiler.root());
    const EvalCounters& agg = evaluator.counters();
    EXPECT_EQ(totals.nodes_touched, agg.nodes_touched) << text;
    EXPECT_EQ(totals.predicate_evals, agg.predicate_evals) << text;
    EXPECT_EQ(totals.index_scans, agg.index_scans) << text;
    EXPECT_EQ(totals.sort_skips, agg.sort_skips) << text;
  }
}

TEST(PlanCompilerTest, NullQueryCompilesToNull) {
  EXPECT_EQ(CompilePlan(nullptr), nullptr);
}

TEST(PlanCompilerTest, LoweringDeduplicatesLabelsAndSizesItself) {
  PathPtr p = MustParsePath("//patient[wardNo = \"3\"]/name | //patient");
  auto plan = CompilePlan(p);
  ASSERT_NE(plan, nullptr);
  EXPECT_GE(plan->ops.size(), 5u);
  EXPECT_EQ(plan->root, static_cast<int32_t>(plan->ops.size()) - 1);
  EXPECT_FALSE(plan->uses_index);
  EXPECT_EQ(plan->source.get(), p.get());
  EXPECT_GT(plan->byte_size(), sizeof(CompiledPlan));
  // "patient" occurs twice in the query but once in the label table.
  int patients = 0;
  for (const std::string& label : plan->labels) {
    if (label == "patient") ++patients;
  }
  EXPECT_EQ(patients, 1);
}

TEST(PlanCompilerTest, EmptyPlanIsRejectedByTheVm) {
  XmlTree doc = MustParseDoc(kHostileDoc);
  CompiledPlan empty;
  XPathEvaluator evaluator(doc);
  auto result = evaluator.EvaluateCompiled(empty, doc.root());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalScratchTest, SteadyStateReusesPooledBuffers) {
  XmlTree doc = MustParseDoc(kHostileDoc);
  PathPtr p = MustParsePath(
      "//patient[wardNo = \"3\" and treatment//bill]/name | //medication");
  auto plan = CompilePlan(p);
  ASSERT_NE(plan, nullptr);
  EvalScratch scratch;
  NodeSet first;
  {
    XPathEvaluator evaluator(doc);
    auto r = evaluator.EvaluateCompiled(*plan, doc.root(), {}, &scratch);
    ASSERT_TRUE(r.ok()) << r.status();
    first = std::move(r).value();
  }
  // The pool's high-water mark is set by the first run; later runs of
  // the same plan must borrow, not allocate, new buffers.
  const size_t high_water = scratch.pooled_sets();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 16; ++i) {
    XPathEvaluator evaluator(doc);
    auto r = evaluator.EvaluateCompiled(*plan, doc.root(), {}, &scratch);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, first);
  }
  EXPECT_EQ(scratch.pooled_sets(), high_water);
}

TEST(EvalScratchTest, CompiledQueriesCounterIsCharged) {
  XmlTree doc = MustParseDoc(kHostileDoc);
  auto plan = CompilePlan(MustParsePath("//bill"));
  ASSERT_NE(plan, nullptr);
  obs::MetricsRegistry metrics;
  XPathEvaluator evaluator(doc);
  const EvalMetrics eval_metrics = EvalMetrics::Resolve(metrics);
  evaluator.set_metrics(&eval_metrics);
  ASSERT_TRUE(evaluator.EvaluateCompiled(*plan, doc.root()).ok());
  ASSERT_TRUE(evaluator.EvaluateCompiled(*plan, doc.root()).ok());
  EXPECT_EQ(metrics.GetCounter("eval.compiled_queries").value(), 2u);
  EXPECT_GT(metrics.GetCounter("eval.nodes_touched").value(), 0u);
}

}  // namespace
}  // namespace secview
