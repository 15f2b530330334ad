#include "engine/explain.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "security/view_io.h"
#include "workload/hospital.h"
#include "workload/synthetic.h"
#include "xml/parser.h"

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

std::unique_ptr<SecureQueryEngine> MakeNurseEngine() {
  auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
  if (!engine.ok()) std::abort();
  if (!(*engine)->RegisterPolicy("nurse", kNursePolicy).ok()) std::abort();
  return std::move(engine).value();
}

TEST(ExplainTest, NamesSigmaAnnotationsAndPrunes) {
  auto engine = MakeNurseEngine();
  // The explicit 'dept' label step makes the σ on the hospital->dept view
  // edge fire through the DP's label case (descendant steps go through the
  // precomputed recProc paths instead and leave no per-edge firing).
  auto explain = engine->Explain("nurse", "dept/patientInfo/patient/name");
  ASSERT_TRUE(explain.ok()) << explain.status();

  EXPECT_EQ(explain->policy, "nurse");
  EXPECT_EQ(explain->query, "dept/patientInfo/patient/name");
  EXPECT_FALSE(explain->view_recursive);
  EXPECT_EQ(explain->unfold_depth, 0);
  EXPECT_FALSE(explain->view_types.empty());
  EXPECT_FALSE(explain->rewritten_xpath.empty());
  EXPECT_FALSE(explain->final_xpath.empty());
  // The nurse view puts the $wardNo qualifier on the dept edge; reaching
  // patients must record at least one sigma firing carrying it.
  ASSERT_FALSE(explain->rewrite.sigma_firings.empty());
  bool qualifier_fired = false;
  for (const auto& firing : explain->rewrite.sigma_firings) {
    if (firing.sigma.find("$wardNo") != std::string::npos) {
      qualifier_fired = true;
    }
  }
  EXPECT_TRUE(qualifier_fired);

  std::string text = explain->ToText();
  EXPECT_NE(text.find("[rewrite/sigma]"), std::string::npos) << text;
  EXPECT_NE(text.find("$wardNo"), std::string::npos);
  EXPECT_NE(text.find("view dtd:"), std::string::npos);
  // Non-recursive DTD: the optimizer runs and is reported.
  EXPECT_TRUE(explain->optimizer_available);
  EXPECT_TRUE(explain->optimize_ran());
  EXPECT_NE(text.find("optimize:"), std::string::npos);
}

TEST(ExplainTest, HiddenLabelIsPrunedByNonexistence) {
  auto engine = MakeNurseEngine();
  // clinicalTrial is concealed in the nurse view, so the rewrite DP finds
  // no matching view edge anywhere — a nonexistence prune.
  auto explain = engine->Explain("nurse", "//clinicalTrial");
  ASSERT_TRUE(explain.ok()) << explain.status();
  ASSERT_FALSE(explain->rewrite.prunes.empty());
  bool nonexistence = false;
  for (const auto& prune : explain->rewrite.prunes) {
    if (prune.reason.find("nonexistence") != std::string::npos) {
      nonexistence = true;
    }
  }
  EXPECT_TRUE(nonexistence);
  std::string text = explain->ToText();
  EXPECT_NE(text.find("[rewrite/prune]"), std::string::npos) << text;
}

TEST(ExplainTest, TextAndJsonAreDeterministic) {
  // Same policy + query through two fresh engines must explain
  // byte-identically: the plan carries no timestamps or pointers.
  auto a = MakeNurseEngine()->Explain("nurse", "//patient//bill");
  auto b = MakeNurseEngine()->Explain("nurse", "//patient//bill");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToText(), b->ToText());
  EXPECT_EQ(a->ToJson().Dump(/*pretty=*/true),
            b->ToJson().Dump(/*pretty=*/true));
  // And explaining twice on one engine does not drift either.
  auto engine = MakeNurseEngine();
  auto first = engine->Explain("nurse", "//patient//bill");
  auto second = engine->Explain("nurse", "//patient//bill");
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->ToText(), second->ToText());
}

TEST(ExplainTest, JsonCarriesSchemaAndParses) {
  auto engine = MakeNurseEngine();
  auto explain = engine->Explain("nurse", "//bill");
  ASSERT_TRUE(explain.ok());
  std::string dumped = explain->ToJson().Dump(/*pretty=*/true);
  auto parsed = obs::Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema")->AsString(), "secview.explain.v1");
  EXPECT_EQ(parsed->Find("policy")->AsString(), "nurse");
  ASSERT_NE(parsed->Find("rewrite"), nullptr);
  EXPECT_NE(parsed->Find("rewrite")->Find("sigma_firings"), nullptr);
  EXPECT_NE(parsed->Find("optimize"), nullptr);
}

TEST(ExplainTest, NoOptimizeRequestedIsReported) {
  auto engine = MakeNurseEngine();
  ExplainOptions options;
  options.optimize = false;
  auto explain = engine->Explain("nurse", "//bill", options);
  ASSERT_TRUE(explain.ok());
  EXPECT_FALSE(explain->optimize_ran());
  EXPECT_EQ(explain->final_xpath, explain->rewritten_xpath);
  EXPECT_NE(explain->ToText().find("optimize: skipped (not requested)"),
            std::string::npos);
}

TEST(ExplainTest, RecursiveViewShowsUnfoldingAndRewriteLevelPrunes) {
  RecursiveFixture fixture = MakeRecursiveFixture();
  auto engine = SecureQueryEngine::Create(std::move(fixture.dtd));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterPolicy("outline", fixture.spec_text).ok());

  auto explain = (*engine)->Explain("outline", "//title | //meta");
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_TRUE(explain->view_recursive);
  EXPECT_EQ(explain->unfold_depth, kDefaultExplainUnfoldDepth);
  EXPECT_TRUE(explain->depth_defaulted);
  // meta is concealed, so past the unfolding frontier the DP keeps
  // hitting nonexistence — the plan must name at least one such prune.
  EXPECT_FALSE(explain->rewrite.prunes.empty());
  EXPECT_FALSE(explain->rewrite.sigma_firings.empty());

  std::string text = explain->ToText();
  EXPECT_NE(text.find("unfold: depth=4 (default)"), std::string::npos) << text;
  EXPECT_NE(text.find("[rewrite/prune]"), std::string::npos);
  EXPECT_NE(text.find("[rewrite/sigma]"), std::string::npos);
  // The document DTD is recursive, so the DTD-based optimizer cannot run;
  // the plan says so instead of silently omitting the section.
  EXPECT_FALSE(explain->optimizer_available);
  EXPECT_NE(text.find("optimize: skipped (document DTD is recursive"),
            std::string::npos);

  // A supplied document height overrides the default depth.
  ExplainOptions options;
  options.doc_height = 7;
  auto deeper = (*engine)->Explain("outline", "//title", options);
  ASSERT_TRUE(deeper.ok());
  EXPECT_EQ(deeper->unfold_depth, 7);
  EXPECT_FALSE(deeper->depth_defaulted);
}

TEST(ExplainTest, ExecuteFillsExplainWhenRequested) {
  auto engine = MakeNurseEngine();
  auto doc = ParseXml(
      "<hospital><dept><patientInfo><patient><name>d</name>"
      "<wardNo>3</wardNo><treatment><regular><bill>1</bill>"
      "<medication>m</medication></regular></treatment>"
      "</patient></patientInfo>"
      "<staffInfo><staff><nurse>s</nurse></staff></staffInfo>"
      "</dept></hospital>");
  ASSERT_TRUE(doc.ok());
  QueryExplain explain;
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  options.explain = &explain;
  auto result = engine->Execute("nurse", *doc, "//bill", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(explain.policy, "nurse");
  EXPECT_EQ(explain.query, "//bill");
  EXPECT_FALSE(explain.final_xpath.empty());
  EXPECT_FALSE(explain.rewrite.sigma_firings.empty());
}

TEST(ExplainTest, UnknownPolicyIsNotFound) {
  auto engine = MakeNurseEngine();
  auto explain = engine->Explain("ghost", "//bill");
  ASSERT_FALSE(explain.ok());
  EXPECT_EQ(explain.status().code(), StatusCode::kNotFound);
}

TEST(ExplainTest, SavedViewPolicyExplainsLikeItsSpecification) {
  // A view saved with SerializeView and registered back explains
  // byte-identically to the policy it was derived from.
  auto engine = MakeNurseEngine();
  auto derived = engine->View("nurse");
  ASSERT_TRUE(derived.ok());
  auto saved = ParseView(engine->dtd(), SerializeView(**derived));
  ASSERT_TRUE(saved.ok()) << saved.status();
  ASSERT_TRUE(engine->RegisterPolicy("saved", std::move(saved).value()).ok());
  for (const char* q : {"//patient//bill", "dept/patientInfo/patient/name",
                        "//bill | //clinicalTrial"}) {
    for (bool optimize : {true, false}) {
      ExplainOptions options;
      options.optimize = optimize;
      auto from_spec = engine->Explain("nurse", q, options);
      auto from_view = engine->Explain("saved", q, options);
      ASSERT_TRUE(from_spec.ok()) << from_spec.status();
      ASSERT_TRUE(from_view.ok()) << from_view.status();
      EXPECT_EQ(from_view->policy, "saved");
      from_view->policy = "nurse";
      EXPECT_EQ(from_view->ToText(), from_spec->ToText()) << q;
      EXPECT_EQ(from_view->ToJson().Dump(/*pretty=*/false),
                from_spec->ToJson().Dump(/*pretty=*/false));
    }
  }
}

}  // namespace
}  // namespace secview
