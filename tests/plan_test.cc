// Differential correctness harness for the serving evaluator, the
// compiled-plan VM (xpath/plan.h + xpath/vm.cc): every test here runs a
// query through the VM and through the reference walk (EvaluateAtRoot,
// xpath/evaluator.cc), which shares no code with it, and asserts the
// same answer — identical NodeSets and status codes. Budgets may refuse
// a query but never return a partial set. The fuzz companion is
// fuzz/fuzz_plan_diff.cc.

#include "xpath/plan.h"

#include <optional>
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

#include "profiler_corpus.h"

namespace secview {
namespace {

using Bindings = std::vector<std::pair<std::string, std::string>>;

/// A hospital instance with attributes, overlapping subtrees, and two
/// departments, so unions, predicates, and descendant steps all have
/// something to disagree about if the VM is wrong.
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

/// The 27-case hostile corpus: one query per way the VM could diverge
/// from the reference — repeated descendant closures, overlapping unions,
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

/// What one evaluation answered.
struct Answer {
  Status status = Status::OK();
  NodeSet nodes;
};

void ExpectSameAnswer(const Answer& reference, const Answer& vm,
                      const std::string& context) {
  EXPECT_EQ(reference.status.code(), vm.status.code())
      << context << ": " << reference.status << " vs " << vm.status;
  EXPECT_EQ(reference.nodes, vm.nodes) << context;
}

/// The reference answer. Bindings are applied with BindParams; without
/// any, `p` is evaluated as given (unbound $parameters must fail).
Answer RunReference(const XmlTree& doc, const PathPtr& p,
                    const Bindings& bindings) {
  auto result =
      EvaluateAtRoot(doc, bindings.empty() ? p : BindParams(p, bindings));
  Answer answer;
  answer.status = result.status();
  if (result.ok()) answer.nodes = std::move(result).value();
  return answer;
}

Answer RunVm(const XmlTree& doc, const LabelIndex* index,
             const CompiledPlan& plan, const Bindings& bindings,
             const BudgetLimits& limits = {},
             CancelToken cancel = CancelToken()) {
  XPathEvaluator evaluator =
      index != nullptr ? XPathEvaluator(doc, index) : XPathEvaluator(doc);
  QueryBudget budget(limits, cancel);
  if (budget.active()) evaluator.set_budget(&budget);
  auto result = evaluator.EvaluateCompiled(plan, doc.root(), bindings);
  Answer answer;
  answer.status = result.status();
  if (result.ok()) answer.nodes = std::move(result).value();
  return answer;
}

void DiffCorpus(const XmlTree& doc, const std::vector<std::string>& corpus,
                const Bindings& bindings) {
  for (const std::string& text : corpus) {
    PathPtr p = MustParsePath(text);
    auto plan = CompilePlan(p);
    ASSERT_NE(plan, nullptr) << text;
    Answer reference = RunReference(doc, p, bindings);
    EXPECT_TRUE(reference.status.ok()) << text << ": " << reference.status;
    ExpectSameAnswer(reference, RunVm(doc, nullptr, *plan, bindings), text);
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

TEST(PlanDifferentialTest, NodeBudgetsRefuseOrMatchReference) {
  // A 5000-deep chain. On //a[a//a[a//a]] nested //a qualifiers
  // re-touch subtrees, so every budget below exhausts mid-evaluation at
  // a different op; //a//a[a] finishes under the larger budgets. Each
  // run either refuses the whole query with the budget's status or
  // returns exactly the unbudgeted reference answer (computed only when
  // needed: the first query's full answer costs O(depth^4) visits).
  XmlTree doc = MakeDeepChain(5000);
  int refused = 0;
  int answered = 0;
  for (const char* text : {"//a[a//a[a//a]]", "//a//a[a]"}) {
    PathPtr p = MustParsePath(text);
    auto plan = CompilePlan(p);
    ASSERT_NE(plan, nullptr) << text;
    std::optional<Answer> reference;
    for (uint64_t max_nodes : {1ull, 1000ull, 2048ull, 5000ull, 20000ull,
                               100000ull, 100000000ull}) {
      BudgetLimits limits;
      limits.max_nodes = max_nodes;
      const std::string context =
          std::string(text) + " max_nodes=" + std::to_string(max_nodes);
      Answer vm = RunVm(doc, nullptr, *plan, {}, limits);
      if (!vm.status.ok()) {
        EXPECT_EQ(vm.status.code(), StatusCode::kResourceExhausted)
            << context << ": " << vm.status;
        EXPECT_TRUE(vm.nodes.empty()) << context;
        ++refused;
        continue;
      }
      if (!reference.has_value()) {
        reference = RunReference(doc, p, {});
        ASSERT_TRUE(reference->status.ok()) << reference->status;
      }
      EXPECT_EQ(vm.nodes, reference->nodes) << context;
      ++answered;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(answered, 0);
}

TEST(PlanDifferentialTest, CancelledExecutionsMatch) {
  XmlTree doc = MakeDeepChain(5000);
  PathPtr p = MustParsePath("//a//a");
  auto plan = CompilePlan(p);
  ASSERT_NE(plan, nullptr);
  CancelSource source;
  CancelToken token(source);
  source.CancelAll();  // cancelled before evaluation starts
  Answer vm = RunVm(doc, nullptr, *plan, {}, {}, token);
  EXPECT_EQ(vm.status.code(), StatusCode::kCancelled) << vm.status;
  EXPECT_TRUE(vm.nodes.empty());
}

TEST(PlanDifferentialTest, IndexedPlansMatchReference) {
  // The reference has no index: index-scan plans must return exactly
  // what the plain walk returns.
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
    ExpectSameAnswer(RunReference(doc, p, {{"w", "3"}}),
                     RunVm(doc, &index, *plan, {{"w", "3"}}), text);
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
    Answer reference = RunReference(doc, p, bindings);
    Answer vm = RunVm(doc, nullptr, *plan, bindings);
    ExpectSameAnswer(reference, vm, "unbound $w");
    EXPECT_EQ(reference.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(vm.status.code(), StatusCode::kFailedPrecondition);
  }
  // First-match-wins binding resolution, same as BindParams.
  const Bindings duplicate = {{"w", "3"}, {"w", "999"}};
  Answer first = RunReference(doc, p, {{"w", "3"}});
  ASSERT_TRUE(first.status.ok()) << first.status;
  ASSERT_FALSE(first.nodes.empty());
  ExpectSameAnswer(first, RunReference(doc, p, duplicate),
                   "reference, duplicate bindings");
  ExpectSameAnswer(first, RunVm(doc, nullptr, *plan, duplicate),
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
  // The plan is self-contained: it holds no reference to its AST.
  EXPECT_EQ(p.use_count(), 1);
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
