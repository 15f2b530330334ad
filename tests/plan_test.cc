// Differential correctness harness for the serving evaluator, the
// compiled-plan VM (xpath/plan.h + xpath/vm.cc): every test here runs a
// query through the VM and through the reference walk (EvaluateAtRoot,
// xpath/evaluator.cc), which shares no code with it, and asserts the
// same answer — identical NodeSets and status codes. Budgets may refuse
// a query but never return a partial set. The fuzz companion is
// fuzz/fuzz_plan_diff.cc.

#include "xpath/plan.h"

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "obs/metrics.h"
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

/// The 30-case hostile corpus: one query per way the VM could diverge
/// from the reference — repeated descendant closures, overlapping unions,
/// nested and boolean qualifiers, attribute tests, $parameters, absent
/// labels, and identity steps.
const std::vector<std::string>& HostileCorpus() {
  static const std::vector<std::string>* corpus =
      new std::vector<std::string>{
          "//patient//bill",
          "//bill",
          "//dept//patientInfo//patient//treatment//bill",
          "//*",
          "//*//*",
          "*/*/*/*",
          "//nosuchlabel",
          "//patient[nosuch]",
          "//patient[wardNo = \"3\"]",
          "//patient[wardNo = \"nope\"]",
          "//patient[wardNo = $w]",
          "//patient[wardNo = $w]/name",
          "//dept[*/patient/wardNo = $w]//bill",
          "//patient[not(wardNo = \"3\")]/name",
          "//patient[wardNo = \"3\" and treatment//bill]",
          "//patient[wardNo = \"9\" or treatment/regular]/name",
          "//patient[not(not(name))]",
          "//bill | //bill",
          "//bill | //medication | //name",
          "dept//bill | //medication",
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

/// A root <r> with `width` children <a>, each with one child <b>: one
/// class per label, so a[b] copies the a extent and semi-joins over the
/// b extent, `width` visits each.
XmlTree MakeWide(int width) {
  XmlTree tree;
  const NodeId root = tree.CreateRoot("r");
  for (int i = 0; i < width; ++i) {
    tree.AppendElement(tree.AppendElement(root, "a"), "b");
  }
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

Answer RunVm(const XmlTree& doc, const CompiledPlan& plan,
             const Bindings& bindings, const BudgetLimits& limits = {},
             CancelToken cancel = CancelToken()) {
  XPathEvaluator evaluator(doc);
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
    ExpectSameAnswer(reference, RunVm(doc, *plan, bindings), text);
  }
}

TEST(PlanDifferentialTest, HostileCorpusMatchesAstWalk) {
  ASSERT_EQ(HostileCorpus().size(), 30u);
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
      Answer vm = RunVm(doc, *plan, {}, limits);
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

  // On a wide document, a[b and not(c)] copies the 5000-entry a extent
  // and then semi-joins over the 5000-entry b extent, so a budget between
  // the two trips inside the semi-join's extent scan. The whole query is
  // refused all the same; a larger budget answers exactly.
  XmlTree wide = MakeWide(5000);
  PathPtr p = MustParsePath("a[b and not(c)]");
  auto plan = CompilePlan(p);
  ASSERT_NE(plan, nullptr);
  const Answer reference = RunReference(wide, p, {});
  ASSERT_TRUE(reference.status.ok()) << reference.status;
  ASSERT_EQ(reference.nodes.size(), 5000u);
  for (uint64_t max_nodes : {6000ull, 8000ull, 100000ull}) {
    const std::string context = "wide max_nodes=" + std::to_string(max_nodes);
    BudgetLimits limits;
    limits.max_nodes = max_nodes;
    QueryBudget budget(limits, CancelToken());
    XPathEvaluator evaluator(wide);
    evaluator.set_budget(&budget);
    auto vm = evaluator.EvaluateCompiled(*plan, wide.root());
    if (max_nodes >= 10000) {
      ASSERT_TRUE(vm.ok()) << context << ": " << vm.status();
      EXPECT_EQ(*vm, reference.nodes) << context;
      continue;
    }
    EXPECT_EQ(vm.status().code(), StatusCode::kResourceExhausted)
        << context << ": " << vm.status();
    EXPECT_GT(evaluator.counters().nodes_touched, 5000u) << context;
    EXPECT_LT(evaluator.counters().nodes_touched, 10000u) << context;
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
  Answer vm = RunVm(doc, *plan, {}, {}, token);
  EXPECT_EQ(vm.status.code(), StatusCode::kCancelled) << vm.status;
  EXPECT_TRUE(vm.nodes.empty());
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
    Answer vm = RunVm(doc, *plan, bindings);
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
  ExpectSameAnswer(first, RunVm(doc, *plan, duplicate), "duplicate bindings");
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
    EXPECT_EQ(totals.sort_skips, agg.sort_skips) << text;
  }
}

/// The reference answer from a caller-supplied context: the union of
/// the walk's answers at each context node.
NodeSet ReferenceUnion(const XmlTree& doc, const PathPtr& p,
                       const NodeSet& context) {
  std::set<NodeId> nodes;
  for (NodeId v : context) {
    auto result = EvaluateAtNode(doc, p, v);
    EXPECT_TRUE(result.ok()) << result.status();
    if (result.ok()) nodes.insert(result->begin(), result->end());
  }
  return {nodes.begin(), nodes.end()};
}

TEST(PlanDifferentialTest, WholeExtentChainsFromTheRootMatchReference) {
  // Child chains from the root run on the path summary: each step copies
  // one extent and touches one node per copied entry. The chains below
  // mix summary steps with walks (after a wildcard, a qualifier, or a
  // union of two classes) and with absent labels.
  XmlTree doc = MustParseDoc(kHostileDoc);
  const std::vector<std::pair<std::string, uint64_t>> chains = {
      {"dept", 2},
      {"dept/patientInfo/patient/name", 8},
      {"dept/clinicalTrial/patientInfo/patient/treatment/trial/bill", 8},
      {"dept/patientInfo/patient/treatment/regular/bill", 12},
      {"dept/nosuch/name", 2},
      {"dept/patientInfo/nosuch", 4},
      {"dept/*/patientInfo", 11},
      {"dept/(clinicalTrial/patientInfo | patientInfo)/patient", 9},
      {"dept[@id = \"2\"]/patientInfo/patient", 4},
  };
  for (const auto& [text, touched] : chains) {
    PathPtr p = MustParsePath(text);
    auto plan = CompilePlan(p);
    ASSERT_NE(plan, nullptr) << text;
    XPathEvaluator evaluator(doc);
    auto vm = evaluator.EvaluateCompiled(*plan, doc.root());
    ASSERT_TRUE(vm.ok()) << text << ": " << vm.status();
    Answer reference = RunReference(doc, p, {});
    EXPECT_EQ(*vm, reference.nodes) << text;
    EXPECT_EQ(evaluator.counters().nodes_touched, touched) << text;
  }
  // A recursive chain: one class per depth, each extent one node.
  XmlTree chain = MakeDeepChain(64);
  PathPtr p = MustParsePath("a/a/a/a/a");
  auto plan = CompilePlan(p);
  ASSERT_NE(plan, nullptr);
  XPathEvaluator evaluator(chain);
  auto vm = evaluator.EvaluateCompiled(*plan, chain.root());
  ASSERT_TRUE(vm.ok()) << vm.status();
  EXPECT_EQ(*vm, RunReference(chain, p, {}).nodes);
  EXPECT_EQ(*vm, NodeSet{5});
  EXPECT_EQ(evaluator.counters().nodes_touched, 5u);
}

TEST(PlanDifferentialTest, ContextEqualToAnExtentMatchesReference) {
  // A caller-supplied context that is exactly the extent of hospital/dept
  // takes the summary path from its first step on.
  XmlTree doc = MustParseDoc(kHostileDoc);
  auto depts = EvaluateAtRoot(doc, MustParsePath("dept"));
  ASSERT_TRUE(depts.ok()) << depts.status();
  ASSERT_EQ(depts->size(), 2u);
  for (const std::string& text :
       {std::string("patientInfo/patient/name"),
        std::string("patientInfo/patient[wardNo = \"3\"]/name"),
        std::string("clinicalTrial/test | staffInfo/staff"),
        std::string("*/patient")}) {
    PathPtr p = MustParsePath(text);
    auto plan = CompilePlan(p);
    ASSERT_NE(plan, nullptr) << text;
    XPathEvaluator evaluator(doc);
    auto vm = evaluator.EvaluateCompiled(*plan, *depts);
    ASSERT_TRUE(vm.ok()) << text << ": " << vm.status();
    EXPECT_EQ(*vm, ReferenceUnion(doc, p, *depts)) << text;
  }
}

TEST(PlanDifferentialTest, DuplicatedOrUnsortedContextOfEqualCount) {
  // {d1, d1} and {d2, d1} have the extent's count, {d1, d2}, but only
  // the unsorted one is the extent's set: a count check alone would
  // answer {d1, d1} with d2's children too.
  XmlTree doc = MustParseDoc(kHostileDoc);
  auto depts = EvaluateAtRoot(doc, MustParsePath("dept"));
  ASSERT_TRUE(depts.ok()) << depts.status();
  ASSERT_EQ(depts->size(), 2u);
  const NodeId d1 = (*depts)[0];
  const NodeId d2 = (*depts)[1];
  for (const NodeSet& context :
       {NodeSet{d1, d1}, NodeSet{d2, d2}, NodeSet{d2, d1}}) {
    for (const std::string& text :
         {std::string("patientInfo"), std::string("patientInfo/patient/name"),
          std::string("patientInfo/patient[wardNo = \"3\"]")}) {
      PathPtr p = MustParsePath(text);
      auto plan = CompilePlan(p);
      ASSERT_NE(plan, nullptr) << text;
      XPathEvaluator evaluator(doc);
      auto vm = evaluator.EvaluateCompiled(*plan, context);
      ASSERT_TRUE(vm.ok()) << text << ": " << vm.status();
      EXPECT_EQ(*vm, ReferenceUnion(doc, p, context))
          << text << " from {" << context[0] << ", " << context[1] << "}";
    }
  }
}

TEST(PlanDifferentialTest, ContextIsSortedAndDeduplicatedOnEntry) {
  // `.` answers its context as a set. A descendant step from an unsorted
  // context whose first node lies inside its second still reaches the
  // whole subtree of the second.
  XmlTree doc = MustParseDoc(kHostileDoc);
  auto depts = EvaluateAtRoot(doc, MustParsePath("dept"));
  auto carol = EvaluateAtRoot(
      doc, MustParsePath("dept/clinicalTrial/patientInfo/patient"));
  ASSERT_TRUE(depts.ok() && carol.ok());
  ASSERT_EQ(depts->size(), 2u);
  ASSERT_EQ(carol->size(), 1u);
  const NodeId d1 = (*depts)[0];
  const NodeId d2 = (*depts)[1];
  const NodeId c = (*carol)[0];
  auto self = CompilePlan(MustParsePath("."));
  ASSERT_NE(self, nullptr);
  XPathEvaluator evaluator(doc);
  auto dup = evaluator.EvaluateCompiled(*self, NodeSet{d1, d1});
  ASSERT_TRUE(dup.ok()) << dup.status();
  EXPECT_EQ(*dup, NodeSet{d1});
  auto swapped = evaluator.EvaluateCompiled(*self, NodeSet{d2, d1});
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(*swapped, (NodeSet{d1, d2}));
  for (const NodeSet& context : {NodeSet{c, d1}, NodeSet{c, d1, c}}) {
    for (const std::string& text :
         {std::string("//bill"), std::string("//patient[wardNo = \"4\"]")}) {
      PathPtr p = MustParsePath(text);
      auto plan = CompilePlan(p);
      ASSERT_NE(plan, nullptr) << text;
      auto vm = evaluator.EvaluateCompiled(*plan, context);
      ASSERT_TRUE(vm.ok()) << text << ": " << vm.status();
      EXPECT_EQ(*vm, ReferenceUnion(doc, p, context)) << text;
    }
  }
}

/// Runs `text` from the root on the VM under a profiler, checks its
/// answer against the reference walk and its profile against the
/// aggregate counters, and returns its qualifier evaluations.
uint64_t PredicateEvalsMatchingReference(const XmlTree& doc,
                                         const std::string& text,
                                         const Bindings& bindings) {
  PathPtr p = MustParsePath(text);
  auto plan = CompilePlan(p);
  EXPECT_NE(plan, nullptr) << text;
  if (plan == nullptr) return 0;
  XPathEvaluator evaluator(doc);
  PlanProfiler profiler;
  evaluator.set_profiler(&profiler);
  auto vm = evaluator.EvaluateCompiled(*plan, doc.root(), bindings);
  EXPECT_TRUE(vm.ok()) << text << ": " << vm.status();
  if (!vm.ok()) return 0;
  EXPECT_EQ(*vm, RunReference(doc, p, bindings).nodes) << text;
  const EvalCounters totals = ProfileTotals(profiler.root());
  EXPECT_EQ(totals.nodes_touched, evaluator.counters().nodes_touched) << text;
  EXPECT_EQ(totals.predicate_evals, evaluator.counters().predicate_evals)
      << text;
  return evaluator.counters().predicate_evals;
}

TEST(PlanDifferentialTest, FiltersOverOneClassAreSemiJoined) {
  // Each filter's candidates lie in one summary class, and its qualifier
  // is built from child, '*', '|', '.' and empty paths. The VM decides
  // it once over the set: at most one evaluation per qualifier step,
  // never one per candidate.
  XmlTree doc = MustParseDoc(kHostileDoc);
  for (const std::string& text : {
           // Paths that reach no class.
           std::string("dept[nosuch]"),
           std::string("dept[not(nosuch)]/staffInfo"),
           std::string("dept[not(nosuch/name = \"x\")]"),
           std::string("dept[patientInfo/.[false()]]"),
           // and, or, not.
           std::string("dept/patientInfo/patient[wardNo = \"3\" and name]"),
           std::string("dept/patientInfo/patient[name = \"dave\" or "
                       "treatment/regular/medication]"),
           std::string("dept/patientInfo/patient[not(wardNo = \"3\")]/name"),
           std::string("dept[not(patientInfo)] | dept[not(*/patient)]/*"),
           std::string("dept[not(clinicalTrial) or staffInfo and "
                       "not(patientInfo/patient/wardNo = \"3\")]"),
           // = 'c' and = $x.
           std::string("dept[patientInfo/patient/wardNo = \"3\"]"),
           std::string("dept[*/patient/wardNo = $w]//bill"),
           std::string("dept/patientInfo/patient[treatment/regular/bill = "
                       "$w or name = \"erin\"]"),
           // '*', '|' and '.' inside the path.
           std::string("dept[*/*/name = \"carol\"]"),
           std::string("dept[(clinicalTrial | staffInfo)/*]"),
           std::string("dept[patientInfo/patient/(name | wardNo) = \"erin\"]"),
           std::string("dept/patientInfo/patient[./treatment/./regular/bill = "
                       "\"55\"]"),
           std::string("dept[. and true()]"),
           std::string("dept[*/patient/treatment/* | staffInfo/staff]"),
           // Candidates that are part of their class's extent.
           std::string("dept[@id = \"2\"]/patientInfo/patient[wardNo = \"3\"]"),
           std::string("dept[@id = \"1\"]/patientInfo/patient[wardNo = \"3\"]"),
       }) {
    // An attribute filter on the main path walks each of the two depts,
    // one evaluation each.
    const bool attr_filter = text.find('@') != std::string::npos;
    const uint64_t evals =
        PredicateEvalsMatchingReference(doc, text, {{"w", "3"}});
    auto plan = CompilePlan(MustParsePath(text));
    ASSERT_NE(plan, nullptr);
    EXPECT_LE(evals, plan->quals.size() + (attr_filter ? 2 : 0)) << text;
  }
}

TEST(PlanDifferentialTest, OtherFiltersWalkEachCandidate) {
  // Candidates in several classes, '//' or a nested qualifier inside the
  // path, and attribute tests: the VM runs the qualifier once per
  // candidate, as before.
  XmlTree doc = MustParseDoc(kHostileDoc);
  for (const std::string& text : {
           std::string("//patient[wardNo = \"3\"]"),
           std::string("(dept | dept/patientInfo)[*]"),
           std::string("dept[.//bill = \"55\"]"),
           std::string("dept[*//wardNo]"),
           std::string("dept[patientInfo/patient[wardNo = $w]]"),
           std::string("dept[@id = \"2\"]"),
           std::string("dept[@id and patientInfo]"),
       }) {
    const uint64_t evals =
        PredicateEvalsMatchingReference(doc, text, {{"w", "3"}});
    auto plan = CompilePlan(MustParsePath(text));
    ASSERT_NE(plan, nullptr);
    EXPECT_GT(evals, plan->quals.size()) << text;
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
