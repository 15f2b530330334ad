#include <algorithm>

#include <gtest/gtest.h>

#include "rewrite/rec_paths.h"
#include "rewrite/rewriter.h"
#include "security/derive.h"
#include "security/materializer.h"
#include "security/spec_parser.h"
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

/// End-to-end equivalence check: evaluating `query` over the materialized
/// view Tv equals evaluating its rewriting over the document, compared as
/// origin node sets (the identity the rewriting theorem states).
void ExpectEquivalent(const XmlTree& doc, const SecurityView& view,
                      const AccessSpec& spec, const std::string& query,
                      const std::vector<std::pair<std::string, std::string>>&
                          bindings) {
  MaterializeOptions options;
  options.bindings = bindings;
  auto tv = MaterializeView(doc, view, spec, options);
  ASSERT_TRUE(tv.ok()) << tv.status();

  PathPtr p = MustParse(query);
  auto view_result = EvaluateAtRoot(*tv, p);
  ASSERT_TRUE(view_result.ok()) << query << ": " << view_result.status();
  std::vector<NodeId> expected;
  for (NodeId n : *view_result) expected.push_back(tv->origin(n));
  std::sort(expected.begin(), expected.end());

  auto rewritten = RewriteForDocument(view, p, doc.Height());
  ASSERT_TRUE(rewritten.ok()) << query << ": " << rewritten.status();
  PathPtr bound = BindParams(*rewritten, bindings);
  auto doc_result = EvaluateAtRoot(doc, bound);
  ASSERT_TRUE(doc_result.ok())
      << query << " -> " << ToXPathString(bound) << ": "
      << doc_result.status();

  EXPECT_EQ(*doc_result, expected)
      << "query " << query << " rewritten to " << ToXPathString(bound);
}

// -- recProc / ViewReachability ------------------------------------------------

TEST(ViewReachabilityTest, HospitalReachAndRecRw) {
  Dtd dtd = MakeHospitalDtd();
  auto spec = MakeNurseSpec(dtd);
  ASSERT_TRUE(spec.ok());
  auto view = DeriveSecurityView(*spec);
  ASSERT_TRUE(view.ok());
  auto reach = ViewReachability::Compute(*view);
  ASSERT_TRUE(reach.ok()) << reach.status();

  ViewTypeId hospital = view->FindType("hospital");
  ViewTypeId bill = view->FindType("bill");
  ViewTypeId patient = view->FindType("patient");

  // reach(//, hospital) includes hospital itself and every view type.
  const auto& from_root = reach->ReachDescOrSelf(hospital);
  EXPECT_EQ(from_root[0], hospital);
  EXPECT_EQ(from_root.size(), static_cast<size_t>(view->NumTypes()));

  // recrw(hospital, hospital) is epsilon.
  EXPECT_EQ(ToXPathString(reach->RecRw(hospital, hospital)), ".");

  // recrw(patient, bill) goes through the treatment dummies.
  std::string to_bill = ToXPathString(reach->RecRw(patient, bill));
  EXPECT_NE(to_bill.find("treatment"), std::string::npos) << to_bill;
  EXPECT_NE(to_bill.find("trial"), std::string::npos) << to_bill;
  EXPECT_NE(to_bill.find("regular"), std::string::npos) << to_bill;

  // bill is not reachable upward.
  EXPECT_EQ(reach->RecRw(bill, patient), nullptr);
  EXPECT_EQ(reach->ReachDescOrSelf(bill).size(), 1u);
}

TEST(ViewReachabilityTest, SharedPrefixesAreNotDuplicated) {
  // A diamond: recrw must stay linear in the view size (the paper's Z_x
  // symbolic-variable argument). We check structural sharing indirectly:
  // the same subexpression object appears in both branches.
  Dtd dtd;
  ASSERT_TRUE(dtd.AddType("r", ContentModel::Sequence({"a"})).ok());
  ASSERT_TRUE(dtd.AddType("a", ContentModel::Sequence({"b", "c"})).ok());
  ASSERT_TRUE(dtd.AddType("b", ContentModel::Sequence({"d"})).ok());
  ASSERT_TRUE(dtd.AddType("c", ContentModel::Sequence({"d"})).ok());
  ASSERT_TRUE(dtd.AddType("d", ContentModel::Text()).ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());
  ASSERT_TRUE(dtd.Finalize().ok());
  AccessSpec spec(dtd);  // everything accessible: view == document DTD
  auto view = DeriveSecurityView(spec);
  ASSERT_TRUE(view.ok());
  auto reach = ViewReachability::Compute(*view);
  ASSERT_TRUE(reach.ok());
  PathPtr to_d = reach->RecRw(view->FindType("r"), view->FindType("d"));
  ASSERT_NE(to_d, nullptr);
  EXPECT_EQ(ToXPathString(to_d), "a/(b | c)/d");
}

TEST(ViewReachabilityTest, RejectsRecursiveViews) {
  RecursiveFixture fixture = MakeRecursiveFixture();
  auto spec = ParseAccessSpec(fixture.dtd, fixture.spec_text);
  ASSERT_TRUE(spec.ok());
  auto view = DeriveSecurityView(*spec);
  ASSERT_TRUE(view.ok());
  auto reach = ViewReachability::Compute(*view);
  EXPECT_FALSE(reach.ok());
  EXPECT_EQ(reach.status().code(), StatusCode::kFailedPrecondition);
}

// -- Rewriting over the hospital view -------------------------------------------

class HospitalRewriteTest : public testing::Test {
 protected:
  void SetUp() override {
    dtd_ = MakeHospitalDtd();
    auto spec = MakeNurseSpec(dtd_);
    ASSERT_TRUE(spec.ok());
    spec_ = std::make_unique<AccessSpec>(std::move(spec).value());
    auto view = DeriveSecurityView(*spec_);
    ASSERT_TRUE(view.ok());
    view_ = std::make_unique<SecurityView>(std::move(view).value());
    auto rewriter = QueryRewriter::Create(*view_);
    ASSERT_TRUE(rewriter.ok());
    rewriter_ = std::make_unique<QueryRewriter>(std::move(rewriter).value());

    auto doc = GenerateDocument(dtd_, HospitalGeneratorOptions(11, 60'000));
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::move(doc).value();
  }

  std::string Rewrite(const std::string& query) {
    auto r = rewriter_->Rewrite(MustParse(query));
    EXPECT_TRUE(r.ok()) << query << ": " << r.status();
    return r.ok() ? ToXPathString(*r) : "";
  }

  Dtd dtd_;
  std::unique_ptr<AccessSpec> spec_;
  std::unique_ptr<SecurityView> view_;
  std::unique_ptr<QueryRewriter> rewriter_;
  XmlTree doc_;
};

TEST_F(HospitalRewriteTest, Example41PatientBill) {
  // The paper's Example 4.1: //patient//bill.
  std::string rewritten = Rewrite("//patient//bill");
  // The rewriting must route through the hidden trial/regular labels and
  // keep the ward qualifier from sigma(hospital, dept).
  EXPECT_NE(rewritten.find("trial"), std::string::npos) << rewritten;
  EXPECT_NE(rewritten.find("regular"), std::string::npos) << rewritten;
  EXPECT_NE(rewritten.find("wardNo = $wardNo"), std::string::npos)
      << rewritten;
  EXPECT_NE(rewritten.find("clinicalTrial"), std::string::npos) << rewritten;
}

TEST_F(HospitalRewriteTest, LabelNotInViewRewritesToEmpty) {
  EXPECT_EQ(Rewrite("clinicalTrial"), ".[false()]");
  EXPECT_EQ(Rewrite("//test"), ".[false()]");
  EXPECT_EQ(Rewrite("dept/trial"), ".[false()]");
}

TEST_F(HospitalRewriteTest, DummyLabelsAreQueryable) {
  std::string rewritten = Rewrite("//dummy1/bill");
  EXPECT_NE(rewritten.find("trial"), std::string::npos) << rewritten;
}

struct EquivCase {
  const char* query;
};

// Prints a case as its quoted query text. ctest ids carry the printed
// parameter, and the default printer spells a struct as its raw bytes,
// pointers included, so the ids would change from build to build. The
// quotes keep an id such as `.` from ending in a dot that ctest's
// dot-padded report would swallow.
void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << testing::PrintToString(std::string(c.query));
}

class HospitalEquivalenceTest : public HospitalRewriteTest,
                                public testing::WithParamInterface<EquivCase> {
};

TEST_P(HospitalEquivalenceTest, ViewAndRewrittenAgree) {
  ExpectEquivalent(doc_, *view_, *spec_, GetParam().query,
                   {{"wardNo", "3"}});
}

INSTANTIATE_TEST_SUITE_P(
    Queries, HospitalEquivalenceTest,
    testing::Values(
        EquivCase{"."},
        EquivCase{"dept"},
        EquivCase{"dept/patientInfo"},
        EquivCase{"dept/patientInfo/patient"},
        EquivCase{"//patient"},
        EquivCase{"//patient/name"},
        EquivCase{"//dept//patientInfo/patient/name"},
        EquivCase{"//dept/patientInfo/patient/name"},
        EquivCase{"//patient//bill"},
        EquivCase{"//bill"},
        EquivCase{"//medication"},
        EquivCase{"//treatment/*"},
        EquivCase{"//treatment/*/bill"},
        EquivCase{"//dummy1 | //dummy2"},
        EquivCase{"*"},
        EquivCase{"*/*"},
        EquivCase{"//*"},
        EquivCase{"//patient[name]"},
        EquivCase{"//patient[//medication]"},
        EquivCase{"//patient[not(//medication)]/name"},
        EquivCase{"//patient[treatment/dummy2]"},
        EquivCase{"//staff | //patient"},
        EquivCase{"dept/staffInfo//nurse"},
        EquivCase{"//patient[wardNo = \"3\"]"},
        EquivCase{"//patient[name and treatment]"},
        EquivCase{"//patientInfo[patient]"},
        EquivCase{"//clinicalTrial"},
        EquivCase{"//patient[treatment/dummy1 or treatment/dummy2]/wardNo"}));

TEST_F(HospitalRewriteTest, EquivalenceAcrossWards) {
  for (const char* ward : {"1", "2", "5", "8"}) {
    ExpectEquivalent(doc_, *view_, *spec_, "//patient/name",
                     {{"wardNo", ward}});
    ExpectEquivalent(doc_, *view_, *spec_, "//bill", {{"wardNo", ward}});
  }
}

// -- The per-target soundness fix -----------------------------------------------

TEST(RewriteSoundnessTest, MixedTargetsDoNotLeakHiddenSiblings) {
  // View: r -> (a, c); a -> bill (visible); c's bill child is hidden.
  // The query */bill must NOT return c's bill. The paper's factored
  // rw(p1,A)/(U rw(p2,B)) form would; the per-target translation must not.
  Dtd dtd;
  ASSERT_TRUE(dtd.AddType("r", ContentModel::Sequence({"a", "c"})).ok());
  ASSERT_TRUE(dtd.AddType("a", ContentModel::Sequence({"bill"})).ok());
  ASSERT_TRUE(dtd.AddType("c", ContentModel::Sequence({"bill", "pub"})).ok());
  ASSERT_TRUE(dtd.AddType("bill", ContentModel::Text()).ok());
  ASSERT_TRUE(dtd.AddType("pub", ContentModel::Text()).ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());
  ASSERT_TRUE(dtd.Finalize().ok());
  auto spec = ParseAccessSpec(dtd, "ann(c, bill) = N");
  ASSERT_TRUE(spec.ok());
  auto view = DeriveSecurityView(*spec);
  ASSERT_TRUE(view.ok());

  auto doc = ParseXml("<r><a><bill>ok</bill></a>"
                      "<c><bill>SECRET</bill><pub>p</pub></c></r>");
  ASSERT_TRUE(doc.ok());

  auto rewriter = QueryRewriter::Create(*view);
  ASSERT_TRUE(rewriter.ok());
  auto rewritten = rewriter->Rewrite(MustParse("*/bill"));
  ASSERT_TRUE(rewritten.ok());
  auto result = EvaluateAtRoot(*doc, *rewritten);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(doc->CollectText((*result)[0]), "ok")
      << "leaked hidden node via " << ToXPathString(*rewritten);

  // Same through the descendant axis.
  auto rewritten2 = rewriter->Rewrite(MustParse("//bill"));
  ASSERT_TRUE(rewritten2.ok());
  auto result2 = EvaluateAtRoot(*doc, *rewritten2);
  ASSERT_TRUE(result2.ok());
  ASSERT_EQ(result2->size(), 1u);
  EXPECT_EQ(doc->CollectText((*result2)[0]), "ok");
}

TEST(RewriteSoundnessTest, HiddenTextEqualityDoesNotLeak) {
  // v's text is concealed (ann(v, str) = N). A view query [v = "secret"]
  // must not let users probe the hidden document text.
  Dtd dtd;
  ASSERT_TRUE(dtd.AddType("r", ContentModel::Sequence({"v", "w"})).ok());
  ASSERT_TRUE(dtd.AddType("v", ContentModel::Text()).ok());
  ASSERT_TRUE(dtd.AddType("w", ContentModel::Text()).ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());
  ASSERT_TRUE(dtd.Finalize().ok());
  auto spec = ParseAccessSpec(dtd, "ann(v, str) = N");
  ASSERT_TRUE(spec.ok());
  auto view = DeriveSecurityView(*spec);
  ASSERT_TRUE(view.ok());

  auto doc = ParseXml("<r><v>secret</v><w>x</w></r>");
  ASSERT_TRUE(doc.ok());
  auto rewriter = QueryRewriter::Create(*view);
  ASSERT_TRUE(rewriter.ok());

  auto probe = rewriter->Rewrite(MustParse(".[v = \"secret\"]"));
  ASSERT_TRUE(probe.ok());
  auto result = EvaluateAtRoot(*doc, *probe);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty())
      << "text-equality probe leaked via " << ToXPathString(*probe);

  // The empty-string comparison degenerates to existence, matching the
  // view's semantics (the view v element has no text).
  ExpectEquivalent(*doc, *view, *spec, ".[v = \"\"]", {});
  ExpectEquivalent(*doc, *view, *spec, ".[v = \"secret\"]", {});
}

// -- Adex rewriting ---------------------------------------------------------------

TEST(AdexRewriteTest, QueriesExpandToPreciseDocumentPaths) {
  Dtd dtd = MakeAdexDtd();
  auto spec = MakeAdexSpec(dtd);
  ASSERT_TRUE(spec.ok());
  auto view = DeriveSecurityView(*spec);
  ASSERT_TRUE(view.ok());
  auto rewriter = QueryRewriter::Create(*view);
  ASSERT_TRUE(rewriter.ok());
  auto queries = MakeAdexQueries();
  ASSERT_TRUE(queries.ok());

  // Q1 //buyer-info/contact-info expands through the hidden head.
  auto q1 = rewriter->Rewrite(queries->q1);
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(ToXPathString(*q1), "head/buyer-info/contact-info");

  // Q2's apartment branch vanishes: apartments have no warranty.
  auto q2 = rewriter->Rewrite(queries->q2);
  ASSERT_TRUE(q2.ok());
  std::string q2_text = ToXPathString(*q2);
  EXPECT_EQ(q2_text,
            "body/ad-instance/content/real-estate/house/r-e.warranty");
}

TEST(AdexRewriteTest, EquivalenceOnGeneratedData) {
  Dtd dtd = MakeAdexDtd();
  auto spec = MakeAdexSpec(dtd);
  ASSERT_TRUE(spec.ok());
  auto view = DeriveSecurityView(*spec);
  ASSERT_TRUE(view.ok());
  auto doc = GenerateDocument(dtd, AdexGeneratorOptions(3, 80'000, 4));
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto queries = MakeAdexQueries();
  ASSERT_TRUE(queries.ok());
  for (const auto& [name, q] : queries->All()) {
    SCOPED_TRACE(name);
    ExpectEquivalent(*doc, *view, *spec, ToXPathString(q), {});
  }
}

}  // namespace
}  // namespace secview
