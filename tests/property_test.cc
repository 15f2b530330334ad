#include <algorithm>

#include <gtest/gtest.h>

#include "dtd/graph.h"
#include "dtd/validator.h"
#include "optimize/image_graph.h"
#include "optimize/optimizer.h"
#include "optimize/simulation.h"
#include "rewrite/rewriter.h"
#include "security/annotator.h"
#include "security/derive.h"
#include "security/materializer.h"
#include "workload/generator.h"
#include "workload/synthetic.h"
#include "xpath/evaluator.h"
#include "xpath/printer.h"

namespace secview {
namespace {

/// Randomized end-to-end properties: random DTD -> random policy ->
/// derived view -> random documents -> random queries, checking the
/// paper's theorems on every draw:
///   * derive soundness/completeness: Tv's non-dummy origins == the
///     accessible elements (Theorem 3.2);
///   * rewrite equivalence: p over Tv == rw(p) over T (Theorem 4.1);
///   * optimize equivalence: p == optimize(p) over instances (Sec. 5).
/// Documents where materialization aborts (specs without sound & complete
/// views for that instance) are skipped, mirroring the theorem's "iff
/// such a view exists" proviso.

class RandomPipelineTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomPipelineTest, DeriveMaterializeRewriteAgree) {
  Rng rng(GetParam());
  int materialized = 0;

  for (int round = 0; round < 12 && materialized < 6; ++round) {
    Dtd dtd = MakeRandomDtd(rng, 4 + static_cast<int>(rng.Below(12)));
    AccessSpec spec = MakeRandomSpec(dtd, rng, /*p_no=*/0.25, /*p_yes=*/0.2,
                                     /*p_qual=*/0.1);
    auto view = DeriveSecurityView(spec);
    ASSERT_TRUE(view.ok()) << view.status() << "\n" << spec.ToString();

    GeneratorOptions gen;
    gen.seed = rng.Next();
    gen.min_branching = 0;
    gen.max_branching = 3;
    auto doc = GenerateDocument(dtd, gen);
    ASSERT_TRUE(doc.ok()) << doc.status();
    ASSERT_TRUE(ValidateInstance(*doc, dtd).ok());

    auto tv = MaterializeView(*doc, *view, spec);
    if (!tv.ok()) {
      // Aborted materialization: no sound & complete view for this
      // instance (e.g. a dropped choice alternative was taken).
      ASSERT_EQ(tv.status().code(), StatusCode::kAborted) << tv.status();
      continue;
    }
    ++materialized;

    // -- Soundness & completeness of derive --------------------------------
    auto labeling = ComputeAccessibility(*doc, spec);
    ASSERT_TRUE(labeling.ok());
    std::vector<NodeId> accessible;
    for (NodeId n = 0; n < static_cast<NodeId>(doc->node_count()); ++n) {
      if (doc->IsElement(n) && labeling->accessible[n]) {
        accessible.push_back(n);
      }
    }
    std::vector<NodeId> origins =
        CollectViewOrigins(*tv, *view, /*include_dummies=*/false);
    EXPECT_EQ(origins, accessible)
        << "sound/complete violation\nspec:\n"
        << spec.ToString() << "\nview:\n"
        << view->DebugString();

    // -- Rewriting equivalence ---------------------------------------------
    for (int qi = 0; qi < 8; ++qi) {
      PathPtr q = MakeRandomViewQuery(*view, rng,
                                      1 + static_cast<int>(rng.Below(5)));
      auto rewritten = RewriteForDocument(*view, q, doc->Height());
      ASSERT_TRUE(rewritten.ok())
          << ToXPathString(q) << ": " << rewritten.status();

      auto on_view = EvaluateAtRoot(*tv, q);
      ASSERT_TRUE(on_view.ok());
      std::vector<NodeId> expected;
      for (NodeId n : *on_view) expected.push_back(tv->origin(n));
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());

      auto on_doc = EvaluateAtRoot(*doc, *rewritten);
      ASSERT_TRUE(on_doc.ok());
      EXPECT_EQ(*on_doc, expected)
          << "query " << ToXPathString(q) << "\nrewritten "
          << ToXPathString(*rewritten) << "\nspec:\n"
          << spec.ToString() << "\nview:\n"
          << view->DebugString() << "\ndoc height " << doc->Height();
    }
  }
  EXPECT_GT(materialized, 0) << "no random draw materialized";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                         144, 233));

class RandomOptimizerTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RandomOptimizerTest, OptimizePreservesSemantics) {
  Rng rng(GetParam() * 7919);
  for (int round = 0; round < 6; ++round) {
    Dtd dtd = MakeRandomDtd(rng, 4 + static_cast<int>(rng.Below(12)));
    auto optimizer = QueryOptimizer::Create(dtd);
    ASSERT_TRUE(optimizer.ok());

    GeneratorOptions gen;
    gen.seed = rng.Next();
    gen.max_branching = 3;
    auto doc = GenerateDocument(dtd, gen);
    ASSERT_TRUE(doc.ok());

    for (int qi = 0; qi < 10; ++qi) {
      PathPtr q = MakeRandomDocQuery(dtd, rng,
                                     1 + static_cast<int>(rng.Below(5)));
      auto optimized = optimizer->Optimize(q);
      ASSERT_TRUE(optimized.ok()) << ToXPathString(q);

      auto before = EvaluateAtRoot(*doc, q);
      auto after = EvaluateAtRoot(*doc, *optimized);
      ASSERT_TRUE(before.ok());
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(*before, *after)
          << ToXPathString(q) << " optimized to "
          << ToXPathString(*optimized) << "\nDTD:\n"
          << dtd.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOptimizerTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

/// Soundness of the approximate containment test (Proposition 5.1): if
/// image(p1, root) is simulated by image(p2, root), then on every
/// instance the result of p1 is a subset of the result of p2. The
/// converse (completeness) is explicitly not claimed by the paper.
class SimulationSoundnessTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SimulationSoundnessTest, ClaimedContainmentHoldsOnInstances) {
  Rng rng(GetParam() * 104729);
  int claims = 0;
  for (int round = 0; round < 15; ++round) {
    Dtd dtd = MakeRandomDtd(rng, 4 + static_cast<int>(rng.Below(10)));
    DtdGraph graph(dtd);
    if (graph.IsRecursive()) continue;

    std::vector<XmlTree> docs;
    for (int d = 0; d < 3; ++d) {
      GeneratorOptions gen;
      gen.seed = rng.Next();
      gen.max_branching = 3;
      auto doc = GenerateDocument(dtd, gen);
      ASSERT_TRUE(doc.ok());
      docs.push_back(std::move(doc).value());
    }

    for (int qi = 0; qi < 12; ++qi) {
      PathPtr p1 = MakeRandomDocQuery(dtd, rng,
                                      1 + static_cast<int>(rng.Below(4)));
      PathPtr p2 = MakeRandomDocQuery(dtd, rng,
                                      1 + static_cast<int>(rng.Below(4)));
      ImageGraph g1 = BuildImageGraph(graph, p1, dtd.root());
      ImageGraph g2 = BuildImageGraph(graph, p2, dtd.root());
      if (!Simulates(g1, g2)) continue;
      ++claims;
      for (const XmlTree& doc : docs) {
        auto r1 = EvaluateAtRoot(doc, p1);
        auto r2 = EvaluateAtRoot(doc, p2);
        ASSERT_TRUE(r1.ok());
        ASSERT_TRUE(r2.ok());
        EXPECT_TRUE(std::includes(r2->begin(), r2->end(), r1->begin(),
                                  r1->end()))
            << ToXPathString(p1) << " claimed contained in "
            << ToXPathString(p2) << "\nDTD:\n"
            << dtd.ToString();
      }
    }
  }
  // The test is vacuous if the simulation never claims anything.
  EXPECT_GT(claims, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationSoundnessTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// The optimizer must never *grow* structural work: its output, when it
/// differs, is evaluated with no more node touches than the input on the
/// same document (a sanity property for the Table 1 claims, checked on
/// the descendant-heavy query shapes the naive baseline produces).
TEST(OptimizerWorkTest, DescendantQueriesGetCheaperOrEqual) {
  Rng rng(99);
  Dtd dtd = MakeRandomDtd(rng, 12);
  auto optimizer = QueryOptimizer::Create(dtd);
  ASSERT_TRUE(optimizer.ok());
  GeneratorOptions gen;
  gen.seed = 1234;
  gen.max_branching = 4;
  auto doc = GenerateDocument(dtd, gen);
  ASSERT_TRUE(doc.ok());

  int improved = 0;
  for (int qi = 0; qi < 20; ++qi) {
    PathPtr q = MakeRandomDocQuery(dtd, rng, 1 + rng.Below(4));
    auto optimized = optimizer->Optimize(q);
    ASSERT_TRUE(optimized.ok());

    XPathEvaluator before_eval(*doc);
    ASSERT_TRUE(before_eval.Evaluate(q, doc->root()).ok());
    XPathEvaluator after_eval(*doc);
    ASSERT_TRUE(after_eval.Evaluate(*optimized, doc->root()).ok());
    if (after_eval.counters().nodes_touched <
        before_eval.counters().nodes_touched) {
      ++improved;
    }
  }
  EXPECT_GT(improved, 0);
}

}  // namespace
}  // namespace secview
