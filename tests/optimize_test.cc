#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

#include "optimize/constraints.h"
#include "optimize/image_graph.h"
#include "optimize/optimizer.h"
#include "optimize/simulation.h"
#include "rewrite/rewriter.h"
#include "security/derive.h"
#include "workload/adex.h"
#include "workload/generator.h"
#include "workload/hospital.h"
#include "workload/synthetic.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace secview {
namespace {

PathPtr MustParse(const std::string& text) {
  auto r = ParseXPath(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return r.ok() ? *r : MakeEmptySet();
}

/// The example DTD of the paper's Fig. 9: a -> (b, c); b, c -> d;
/// d -> (e | f); e, f -> g; g -> PCDATA (shape chosen to reproduce the
/// containment examples 5.2 / 5.3).
Dtd MakeFig9Dtd() {
  Dtd dtd;
  EXPECT_TRUE(dtd.AddType("a", ContentModel::Sequence({"b", "c"})).ok());
  EXPECT_TRUE(dtd.AddType("b", ContentModel::Sequence({"d"})).ok());
  EXPECT_TRUE(dtd.AddType("c", ContentModel::Sequence({"d"})).ok());
  EXPECT_TRUE(dtd.AddType("d", ContentModel::Choice({"e", "f"})).ok());
  EXPECT_TRUE(dtd.AddType("e", ContentModel::Sequence({"g"})).ok());
  EXPECT_TRUE(dtd.AddType("f", ContentModel::Sequence({"g"})).ok());
  EXPECT_TRUE(dtd.AddType("g", ContentModel::Text()).ok());
  EXPECT_TRUE(dtd.SetRoot("a").ok());
  EXPECT_TRUE(dtd.Finalize().ok());
  return dtd;
}

// -- DtdPathIndex ---------------------------------------------------------------

TEST(DtdPathIndexTest, RecRwCapturesAllPaths) {
  Dtd dtd = MakeFig9Dtd();
  DtdGraph graph(dtd);
  auto index = DtdPathIndex::Compute(graph);
  ASSERT_TRUE(index.ok()) << index.status();
  TypeId a = dtd.FindType("a");
  TypeId g = dtd.FindType("g");
  // All four b/c x e/f paths, factored.
  EXPECT_EQ(ToXPathString(index->RecRw(a, g)), "(b | c)/d/(e | f)/g");
  EXPECT_EQ(ToXPathString(index->RecRw(a, a)), ".");
  EXPECT_EQ(index->RecRw(g, a), nullptr);
  EXPECT_EQ(index->ReachDescOrSelf(a).size(), 7u);
}

TEST(DtdPathIndexTest, RejectsRecursiveDtd) {
  Dtd dtd;
  ASSERT_TRUE(dtd.AddType("a", ContentModel::Star("a")).ok());
  ASSERT_TRUE(dtd.SetRoot("a").ok());
  ASSERT_TRUE(dtd.Finalize().ok());
  DtdGraph graph(dtd);
  EXPECT_FALSE(DtdPathIndex::Compute(graph).ok());
}

// -- DTD-constraint evaluation (Example 5.1) -------------------------------------

class ConstraintsTest : public testing::Test {
 protected:
  ConstraintsTest() : dtd_(MakeFig9Dtd()), graph_(dtd_) {}

  Tri EvalQ(const std::string& qual, const std::string& at) {
    auto q = ParseXPathQualifier(qual);
    EXPECT_TRUE(q.ok()) << qual << ": " << q.status();
    return EvaluateQualifierAtType(graph_, *q, dtd_.FindType(at));
  }

  Dtd dtd_;
  DtdGraph graph_;
};

TEST_F(ConstraintsTest, CoExistence) {
  // a -> (b, c): both children always exist.
  EXPECT_EQ(EvalQ("b", "a"), Tri::kTrue);
  EXPECT_EQ(EvalQ("c", "a"), Tri::kTrue);
  EXPECT_EQ(EvalQ("b and c", "a"), Tri::kTrue);
}

TEST_F(ConstraintsTest, Exclusive) {
  // d -> (e | f): never both.
  EXPECT_EQ(EvalQ("e and f", "d"), Tri::kFalse);
  EXPECT_EQ(EvalQ("e", "d"), Tri::kUnknown);
}

TEST_F(ConstraintsTest, NonExistence) {
  // b has no c child.
  EXPECT_EQ(EvalQ("c", "b"), Tri::kFalse);
  EXPECT_EQ(EvalQ("c/d", "b"), Tri::kFalse);
  EXPECT_EQ(EvalQ("//zz", "a"), Tri::kFalse);
}

TEST_F(ConstraintsTest, Wildcard) {
  EXPECT_EQ(EvalQ("*", "a"), Tri::kTrue);   // sequence
  EXPECT_EQ(EvalQ("*", "d"), Tri::kTrue);   // choice
  EXPECT_EQ(EvalQ("*", "g"), Tri::kFalse);  // PCDATA
}

TEST_F(ConstraintsTest, ComposedPaths) {
  EXPECT_EQ(EvalQ("b/d", "a"), Tri::kTrue);
  // d's child is e or f — existence of e specifically is unknown, but
  // reaching g is guaranteed through either.
  EXPECT_EQ(EvalQ("b/d/e", "a"), Tri::kUnknown);
  EXPECT_EQ(EvalQ("b/d/*", "a"), Tri::kTrue);
  EXPECT_EQ(EvalQ("//g", "a"), Tri::kTrue);
}

TEST_F(ConstraintsTest, BooleanConnectives) {
  EXPECT_EQ(EvalQ("b or zz", "a"), Tri::kTrue);
  EXPECT_EQ(EvalQ("not(b)", "a"), Tri::kFalse);
  EXPECT_EQ(EvalQ("not(e and f)", "d"), Tri::kTrue);
  EXPECT_EQ(EvalQ("zz or e", "d"), Tri::kUnknown);
  EXPECT_EQ(EvalQ("b = \"x\"", "a"), Tri::kUnknown);
  EXPECT_EQ(EvalQ("zz = \"x\"", "a"), Tri::kFalse);
}

TEST_F(ConstraintsTest, SimplifyDropsDecidedConjuncts) {
  auto q = ParseXPathQualifier("b and e");
  ASSERT_TRUE(q.ok());
  QualPtr simplified = SimplifyQualifier(graph_, *q, dtd_.FindType("a"));
  // [b] is implied by the co-existence constraint; [e] stays. (e is not a
  // child of a: actually folds false -> whole conjunction false.)
  EXPECT_EQ(simplified->kind, QualKind::kFalse);

  auto q2 = ParseXPathQualifier("b and b/d");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(SimplifyQualifier(graph_, *q2, dtd_.FindType("a"))->kind,
            QualKind::kTrue);
}

// -- Image graphs & simulation (Examples 5.2, 5.3) -------------------------------

class SimulationTest : public testing::Test {
 protected:
  SimulationTest() : dtd_(MakeFig9Dtd()), graph_(dtd_) {}

  bool Contained(const std::string& p1, const std::string& p2,
                 const std::string& at = "a") {
    TypeId t = dtd_.FindType(at);
    ImageGraph g1 = BuildImageGraph(graph_, MustParse(p1), t);
    ImageGraph g2 = BuildImageGraph(graph_, MustParse(p2), t);
    return Simulates(g1, g2);
  }

  Dtd dtd_;
  DtdGraph graph_;
};

TEST_F(SimulationTest, PaperExample53) {
  // p1 = *[.../ wildcards], p2 = explicit alternations, p3 = explicit
  // unions; p2, p3 contained in p1; p3 contained in p2.
  const std::string p1 = "*/d/*/g";
  const std::string p2 = "(b | c)/d/(e | f)/g";
  const std::string p3 = "b/d/e/g | b/d/f/g";
  EXPECT_TRUE(Contained(p2, p1));
  EXPECT_TRUE(Contained(p3, p1));
  EXPECT_TRUE(Contained(p3, p2));
  // The approximate test may miss p2 <= p3 (paper: image(p2) is NOT
  // simulated by image(p3)); it must not report the false direction.
  EXPECT_FALSE(Contained(p1, p3));
}

TEST_F(SimulationTest, SelfContainment) {
  EXPECT_TRUE(Contained("b/d", "b/d"));
  EXPECT_TRUE(Contained("//g", "//g"));
}

TEST_F(SimulationTest, EmptyImageContainedInAnything) {
  EXPECT_TRUE(Contained("zz", "b"));
  EXPECT_FALSE(Contained("b", "zz"));
}

TEST_F(SimulationTest, QualifierDirectionFlips) {
  // b/d[e] is contained in b/d; b/d is NOT contained in b/d[e].
  EXPECT_TRUE(Contained("b/d[e]", "b/d"));
  EXPECT_FALSE(Contained("b/d", "b/d[e]"));
  // Equal qualifiers match.
  EXPECT_TRUE(Contained("b/d[e]", "b/d[e]"));
  // Stronger qualifiers are contained in weaker ones.
  EXPECT_TRUE(Contained("b/d[e and e/g]", "b/d[e]"));
}

TEST_F(SimulationTest, EqualityTagsMustMatch) {
  EXPECT_TRUE(Contained("b/d[e = \"1\"]", "b/d[e = \"1\"]"));
  EXPECT_FALSE(Contained("b/d[e = \"1\"]", "b/d[e = \"2\"]"));
  EXPECT_TRUE(Contained("b/d[e = \"1\"]", "b/d[e]"));
}

TEST_F(SimulationTest, UnionBranchQualifiersDoNotMergeUnsoundly) {
  // d[e] U d[f] is NOT contained in d[e] (the f-branch escapes); the
  // epoch separation must prevent the false positive.
  EXPECT_FALSE(Contained("b/d[e] | b/d[f]", "b/d[e]"));
  EXPECT_TRUE(Contained("b/d[e] | b/d[f]", "b/d"));
  // A qualifier-free d from the first branch must not be reused by the
  // second: [f] would land on the first branch's d as well, and the
  // union would read as contained in d[f]/(e | .).
  EXPECT_FALSE(Contained("b/d/e | b/d[f]", "b/d[f]/(e | .)"));
}


TEST_F(SimulationTest, SharedContextQualifiersMarkImprecise) {
  // .[q1] | .[q2] attaches branch qualifiers to the same (shared) context
  // node; merging them would claim the union is contained in one branch.
  // The builder marks such graphs imprecise and the test says "no".
  EXPECT_FALSE(Contained(".[b] | .[c]", ".[b]"));
  EXPECT_FALSE(Contained(".[b]", ".[b] | .[c]"));
}

TEST_F(SimulationTest, EmptyAgainstEmpty) {
  EXPECT_TRUE(Contained("zz", "yy"));  // both empty images
}

TEST_F(SimulationTest, WildcardSimulatesNothingButItself) {
  // b/d <= */d and */d is (structurally) contained in itself.
  EXPECT_TRUE(Contained("b/d", "*/d"));
  EXPECT_FALSE(Contained("*/d", "b/d"));
}


TEST(ContainmentApiTest, PublicHelper) {
  Dtd dtd = MakeFig9Dtd();
  DtdGraph graph(dtd);
  TypeId a = dtd.FindType("a");
  auto contained = [&](const char* p1, const char* p2) {
    auto r = IsContainedIn(graph, MustParse(p1), MustParse(p2), a);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() && *r;
  };
  EXPECT_TRUE(contained("b/d[e]", "b/d"));
  EXPECT_FALSE(contained("b/d", "b/d[e]"));
  EXPECT_TRUE(contained("(b | c)/d", "*/d"));
  EXPECT_FALSE(contained("*/d", "b/d"));
  // Errors: bad context, recursive DTD.
  EXPECT_FALSE(
      IsContainedIn(graph, MustParse("b"), MustParse("b"), kNullType).ok());
  Dtd rec;
  ASSERT_TRUE(rec.AddType("a", ContentModel::Star("a")).ok());
  ASSERT_TRUE(rec.SetRoot("a").ok());
  ASSERT_TRUE(rec.Finalize().ok());
  DtdGraph rec_graph(rec);
  EXPECT_FALSE(
      IsContainedIn(rec_graph, MustParse("a"), MustParse("a"), 0).ok());
}

// -- Simulation edge cases -------------------------------------------------------

/// Label path t1/t2/.../t<last>, built directly (no parser limits).
PathPtr ChainPath(int last) {
  PathPtr p = MakeLabel("t1");
  for (int i = 2; i <= last; ++i) {
    p = MakeSlash(std::move(p), MakeLabel("t" + std::to_string(i)));
  }
  return p;
}

TEST(SimulationEdgeTest, DeepChainDtd) {
  // t0 -> t1* -> ... -> t2048*: far deeper than real DTDs. The image
  // builder and the simulation walk one level per step, and must still
  // answer without running out of stack.
  constexpr int kHeight = 2048;
  Dtd dtd;
  for (int i = 0; i < kHeight; ++i) {
    ASSERT_TRUE(dtd.AddType("t" + std::to_string(i),
                            ContentModel::Star("t" + std::to_string(i + 1)))
                    .ok());
  }
  ASSERT_TRUE(
      dtd.AddType("t" + std::to_string(kHeight), ContentModel::Text()).ok());
  ASSERT_TRUE(dtd.SetRoot("t0").ok());
  ASSERT_TRUE(dtd.Finalize().ok());
  DtdGraph graph(dtd);
  auto contained = [&](const PathPtr& p1, const PathPtr& p2) {
    auto r = IsContainedIn(graph, p1, p2, dtd.root());
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() && *r;
  };
  PathPtr full = ChainPath(kHeight);
  PathPtr shorter = ChainPath(kHeight - 1);
  PathPtr anywhere = MustParse("//t" + std::to_string(kHeight));
  // shorter[t2048]: the t2047 elements that have a t2048 child.
  PathPtr qualified = MakeQualified(
      shorter, MakeQualPath(MakeLabel("t" + std::to_string(kHeight))));
  EXPECT_TRUE(contained(full, anywhere));
  EXPECT_TRUE(contained(anywhere, full));
  EXPECT_FALSE(contained(full, shorter));
  EXPECT_TRUE(contained(qualified, shorter));
  EXPECT_FALSE(contained(shorter, qualified));
}

TEST(SimulationEdgeTest, CyclicGraphsAreNotProven) {
  // Built images are acyclic; on a hand-built cycle the one-pass
  // simulation reads a pair it is still deciding as "not simulated".
  ImageGraph chain;  // 0 -> 1, acyclic: simulates itself
  chain.nodes.resize(2);
  chain.nodes[0].label = 0;
  chain.nodes[0].children = {1};
  chain.nodes[1].label = 1;
  chain.root = 0;
  EXPECT_TRUE(Simulates(chain, chain));

  ImageGraph cycle = chain;  // 0 -> 1 -> 0
  cycle.nodes[1].children = {0};
  EXPECT_FALSE(Simulates(cycle, cycle));

  ImageGraph qual_loop;  // a '[]' node that is its own '[]' child
  qual_loop.nodes.resize(2);
  qual_loop.nodes[0].label = 0;
  qual_loop.nodes[0].qual_children = {1};
  qual_loop.nodes[1].label = 0;
  qual_loop.nodes[1].is_qual = true;
  qual_loop.nodes[1].qual_children = {1};
  qual_loop.root = 0;
  EXPECT_FALSE(Simulates(qual_loop, qual_loop));
}

// -- Algorithm optimize ----------------------------------------------------------

class OptimizerTest : public testing::Test {
 protected:
  void SetUp() override {
    dtd_ = MakeAdexDtd();
    auto optimizer = QueryOptimizer::Create(dtd_);
    ASSERT_TRUE(optimizer.ok()) << optimizer.status();
    optimizer_ = std::make_unique<QueryOptimizer>(std::move(optimizer).value());
  }

  std::string Optimize(const std::string& query) {
    auto r = optimizer_->Optimize(MustParse(query));
    EXPECT_TRUE(r.ok()) << query << ": " << r.status();
    return r.ok() ? ToXPathString(*r) : "";
  }

  Dtd dtd_;
  std::unique_ptr<QueryOptimizer> optimizer_;
};

TEST_F(OptimizerTest, ExpandsDescendantsToLabelPaths) {
  EXPECT_EQ(Optimize("//buyer-info/contact-info"),
            "head/buyer-info/contact-info");
}

TEST_F(OptimizerTest, PrunesNonExistentBranches) {
  // Q2: the apartment branch dies (no r-e.warranty under apartment).
  EXPECT_EQ(Optimize("//house/r-e.warranty | //apartment/r-e.warranty"),
            "body/ad-instance/content/real-estate/house/r-e.warranty");
}

TEST_F(OptimizerTest, CoExistenceDropsQualifier) {
  // Q3: buyer-info always has both children.
  EXPECT_EQ(Optimize("//buyer-info[company-id and contact-info]"),
            "head/buyer-info");
}

TEST_F(OptimizerTest, NonExistenceEmptiesQuery) {
  // Q4: houses never have a unit type.
  EXPECT_EQ(Optimize("//house[//r-e.asking-price and //r-e.unit-type]"),
            ".[false()]");
}

TEST_F(OptimizerTest, ExclusiveConstraintEmptiesQuery) {
  EXPECT_EQ(Optimize("//real-estate[house and apartment]"), ".[false()]");
}

TEST_F(OptimizerTest, UnionContainmentPrunesRedundantBranch) {
  std::string out = Optimize("//house | //real-estate/house");
  EXPECT_EQ(out, "body/ad-instance/content/real-estate/house");
}

TEST_F(OptimizerTest, WildcardsBecomeLabels) {
  std::string out = Optimize("head/*");
  EXPECT_EQ(out, "head/(transaction-info | buyer-info)");
}


TEST_F(OptimizerTest, OptimizeAtNonRootContext) {
  TypeId house = dtd_.FindType("house");
  auto r = optimizer_->OptimizeAt(MustParse("*"), house);
  ASSERT_TRUE(r.ok());
  // The wildcard expands into house's concrete children.
  std::string text = ToXPathString(*r);
  EXPECT_NE(text.find("location"), std::string::npos) << text;
  EXPECT_NE(text.find("r-e.warranty"), std::string::npos) << text;
  EXPECT_EQ(text.find("r-e.unit-type"), std::string::npos) << text;

  EXPECT_FALSE(optimizer_->OptimizeAt(MustParse("*"), kNullType).ok());
  EXPECT_FALSE(optimizer_->OptimizeAt(MustParse("*"), 10'000).ok());
}


// -- The paper's Example 5.4 over the hospital DTD --------------------------------

TEST(OptimizerHospitalTest, Example54UnionPruning) {
  // p = //patient U //(patient | staff)[//medication]: the second branch
  // is contained in the first (its staff arm dies — no medication below
  // staff — and the qualified patient arm is subsumed), so optimize
  // returns the expansion of //patient alone.
  Dtd dtd = MakeHospitalDtd();
  auto optimizer = QueryOptimizer::Create(dtd);
  ASSERT_TRUE(optimizer.ok());
  PathPtr p = MustParse(
      "//patient | //(patient | staff)[//medication]");
  auto optimized = optimizer->Optimize(p);
  ASSERT_TRUE(optimized.ok());
  auto reference = optimizer->Optimize(MustParse("//patient"));
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(PathEquals(*optimized, *reference))
      << ToXPathString(*optimized) << " vs " << ToXPathString(*reference);
  // The expansion routes through both patientInfo paths, as in the
  // paper's p_o1/p_o2.
  std::string text = ToXPathString(*optimized);
  EXPECT_NE(text.find("clinicalTrial"), std::string::npos) << text;
  EXPECT_NE(text.find("patientInfo"), std::string::npos) << text;

  // And it is equivalent on instances.
  auto doc = GenerateDocument(dtd, HospitalGeneratorOptions(23, 40'000));
  ASSERT_TRUE(doc.ok());
  auto before = EvaluateAtRoot(*doc, p);
  auto after = EvaluateAtRoot(*doc, *optimized);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST(OptimizerHospitalTest, StaffWithMedicationIsEmpty) {
  // staff never has medication below it (non-existence).
  Dtd dtd = MakeHospitalDtd();
  auto optimizer = QueryOptimizer::Create(dtd);
  ASSERT_TRUE(optimizer.ok());
  auto optimized = optimizer->Optimize(MustParse("//staff[//medication]"));
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(ToXPathString(*optimized), ".[false()]");
}

TEST(OptimizerHospitalTest, TreatmentExclusiveConstraint) {
  // treatment -> (trial | regular): never both.
  Dtd dtd = MakeHospitalDtd();
  auto optimizer = QueryOptimizer::Create(dtd);
  ASSERT_TRUE(optimizer.ok());
  auto optimized =
      optimizer->Optimize(MustParse("//treatment[trial and regular]"));
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(ToXPathString(*optimized), ".[false()]");
  // A single arm stays undecided.
  auto single = optimizer->Optimize(MustParse("//treatment[trial]"));
  ASSERT_TRUE(single.ok());
  EXPECT_NE(ToXPathString(*single), ".[false()]");
}

TEST(OptimizerHospitalTest, PatientCoExistence) {
  // patient -> (name, wardNo, treatment): all three guaranteed.
  Dtd dtd = MakeHospitalDtd();
  auto optimizer = QueryOptimizer::Create(dtd);
  ASSERT_TRUE(optimizer.ok());
  auto optimized = optimizer->Optimize(
      MustParse("//patient[name and wardNo and treatment]"));
  ASSERT_TRUE(optimized.ok());
  auto reference = optimizer->Optimize(MustParse("//patient"));
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(PathEquals(*optimized, *reference));
}

/// Equivalence of optimized queries on concrete instances.
class OptimizerEquivalenceTest
    : public testing::TestWithParam<const char*> {};

TEST_P(OptimizerEquivalenceTest, OptimizedQueryReturnsSameNodes) {
  Dtd dtd = MakeAdexDtd();
  auto doc = GenerateDocument(dtd, AdexGeneratorOptions(17, 60'000, 3));
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto optimizer = QueryOptimizer::Create(dtd);
  ASSERT_TRUE(optimizer.ok());

  PathPtr p = MustParse(GetParam());
  auto optimized = optimizer->Optimize(p);
  ASSERT_TRUE(optimized.ok()) << optimized.status();

  auto before = EvaluateAtRoot(*doc, p);
  auto after = EvaluateAtRoot(*doc, *optimized);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after)
      << GetParam() << " optimized to " << ToXPathString(*optimized);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, OptimizerEquivalenceTest,
    testing::Values("//buyer-info/contact-info",
                    "//house/r-e.warranty | //apartment/r-e.warranty",
                    "//buyer-info[company-id and contact-info]",
                    "//house[//r-e.asking-price and //r-e.unit-type]",
                    "//real-estate[house and apartment]",
                    "//house | //real-estate/house",
                    "head/*",
                    "//location",
                    "body/*/*/real-estate/*",
                    "//real-estate[house]",
                    "//real-estate[house or apartment]",
                    "//house[bedrooms = \"3\"]",
                    "//*[r-e.unit-type]",
                    "//content//house | //house",
                    "body//apartment/r-e.unit-type"));

// -- Golden optimizer output -------------------------------------------------------

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

struct GoldenHashes {
  uint64_t queries = 0;    ///< the printed optimized queries
  uint64_t decisions = 0;  ///< OptimizeStats counters and prune trails
};

/// Rewrites each view query, optimizes it with the EXPLAIN trail on, and
/// hashes what the optimizer printed and decided.
GoldenHashes HashOptimized(const QueryRewriter& rewriter,
                           const QueryOptimizer& optimizer,
                           const std::vector<PathPtr>& queries) {
  Fnv1a printed;
  Fnv1a decisions;
  for (const PathPtr& q : queries) {
    auto rewritten = rewriter.Rewrite(q);
    EXPECT_TRUE(rewritten.ok()) << rewritten.status();
    if (!rewritten.ok()) continue;
    OptimizeStats stats;
    stats.collect_explain = true;
    auto optimized = optimizer.Optimize(*rewritten, &stats);
    EXPECT_TRUE(optimized.ok()) << optimized.status();
    if (!optimized.ok()) continue;
    printed.Add(ToXPathString(*optimized));
    decisions.Add(std::to_string(stats.simulation_tests) + " " +
                  std::to_string(stats.union_prunes) + " " +
                  std::to_string(stats.nonexistence_prunes) + " " +
                  std::to_string(stats.dp_entries));
    for (const OptimizeStats::Prune& prune : stats.prune_trail) {
      decisions.Add(prune.kind + "|" + prune.at + "|" + prune.detail);
    }
  }
  return {printed.value(), decisions.value()};
}

// The optimizer is approximate, so its output is its semantics: any
// change to the containment test or the image graphs must leave every
// decision as it was. The expected values were recorded before the
// simulation became a one-pass evaluation.
TEST(OptimizerGoldenTest, NursePolicyRandomQueries) {
  Dtd dtd = MakeHospitalDtd();
  auto spec = MakeNurseSpec(dtd);
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto view = DeriveSecurityView(*spec);
  ASSERT_TRUE(view.ok()) << view.status();
  auto rewriter = QueryRewriter::Create(*view);
  ASSERT_TRUE(rewriter.ok()) << rewriter.status();
  auto optimizer = QueryOptimizer::Create(dtd);
  ASSERT_TRUE(optimizer.ok()) << optimizer.status();
  Rng rng(2029);
  std::vector<PathPtr> queries;
  for (int i = 0; i < 2000; ++i) {
    queries.push_back(
        MakeRandomViewQuery(*view, rng, 1 + static_cast<int>(rng.Below(5))));
  }
  GoldenHashes hashes = HashOptimized(*rewriter, *optimizer, queries);
  EXPECT_EQ(hashes.queries, 0x6ffd58b0c27be56aULL);
  EXPECT_EQ(hashes.decisions, 0xb30d5f485d6c82deULL);
}

TEST(OptimizerGoldenTest, AdexTable1Queries) {
  Dtd dtd = MakeAdexDtd();
  auto spec = MakeAdexSpec(dtd);
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto view = DeriveSecurityView(*spec);
  ASSERT_TRUE(view.ok()) << view.status();
  auto rewriter = QueryRewriter::Create(*view);
  ASSERT_TRUE(rewriter.ok()) << rewriter.status();
  auto optimizer = QueryOptimizer::Create(dtd);
  ASSERT_TRUE(optimizer.ok()) << optimizer.status();
  auto table1 = MakeAdexQueries();
  ASSERT_TRUE(table1.ok()) << table1.status();
  std::vector<PathPtr> queries;
  for (const auto& [name, q] : table1->All()) queries.push_back(q);
  GoldenHashes hashes = HashOptimized(*rewriter, *optimizer, queries);
  EXPECT_EQ(hashes.queries, 0x1f0a451f9e6b32afULL);
  EXPECT_EQ(hashes.decisions, 0xa2b368a2ff658966ULL);
}

}  // namespace
}  // namespace secview
