#include <algorithm>

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xpath/ast.h"
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

// -- AST factories / simplifications ------------------------------------------

TEST(AstTest, SlashSimplifications) {
  PathPtr a = MakeLabel("a");
  EXPECT_EQ(MakeSlash(MakeEmptySet(), a)->kind, PathKind::kEmptySet);
  EXPECT_EQ(MakeSlash(a, MakeEmptySet())->kind, PathKind::kEmptySet);
  EXPECT_EQ(MakeSlash(MakeEpsilon(), a), a);
  EXPECT_EQ(MakeSlash(a, MakeEpsilon()), a);
}

TEST(AstTest, UnionSimplifications) {
  PathPtr a = MakeLabel("a");
  EXPECT_EQ(MakeUnion(MakeEmptySet(), a), a);
  EXPECT_EQ(MakeUnion(a, MakeEmptySet()), a);
  EXPECT_EQ(MakeUnion(a, MakeLabel("a")), a);  // structural dedup
  EXPECT_EQ(MakeUnion(a, MakeLabel("b"))->kind, PathKind::kUnion);
}

TEST(AstTest, QualifierSimplifications) {
  PathPtr a = MakeLabel("a");
  EXPECT_EQ(MakeQualified(a, MakeQualTrue()), a);
  EXPECT_EQ(MakeQualified(a, MakeQualFalse())->kind, PathKind::kEmptySet);
  EXPECT_EQ(MakeQualified(MakeEmptySet(), MakeQualPath(a))->kind,
            PathKind::kEmptySet);
  EXPECT_EQ(MakeQualAnd(MakeQualTrue(), MakeQualPath(a))->kind,
            QualKind::kPath);
  EXPECT_EQ(MakeQualOr(MakeQualFalse(), MakeQualPath(a))->kind,
            QualKind::kPath);
  EXPECT_EQ(MakeQualNot(MakeQualNot(MakeQualPath(a)))->kind, QualKind::kPath);
  EXPECT_EQ(MakeQualPath(MakeEmptySet())->kind, QualKind::kFalse);
}

TEST(AstTest, DescOrSelfCollapses) {
  PathPtr a = MakeLabel("a");
  PathPtr d = MakeDescOrSelf(a);
  EXPECT_EQ(MakeDescOrSelf(d), d);
  EXPECT_EQ(MakeDescOrSelf(MakeEmptySet())->kind, PathKind::kEmptySet);
}

TEST(AstTest, PathSizeCountsNodes) {
  EXPECT_EQ(PathSize(MakeLabel("a")), 1);
  EXPECT_EQ(PathSize(MustParse("a/b")), 3);
  EXPECT_EQ(PathSize(MustParse("//a")), 2);
  EXPECT_GT(PathSize(MustParse("a[b and c]/d")), 5);
}

TEST(AstTest, EqualsIsStructural) {
  EXPECT_TRUE(PathEquals(MustParse("a/b[c]"), MustParse("a/b[c]")));
  EXPECT_FALSE(PathEquals(MustParse("a/b[c]"), MustParse("a/b[d]")));
  EXPECT_FALSE(PathEquals(MustParse("a/b"), MustParse("a//b")));
}

TEST(AstTest, BindParams) {
  PathPtr p = MustParse("a[b = $ward]");
  EXPECT_TRUE(HasUnboundParams(p));
  PathPtr bound = BindParams(p, {{"ward", "3"}});
  EXPECT_FALSE(HasUnboundParams(bound));
  EXPECT_EQ(ToXPathString(bound), "a[b = \"3\"]");
  // Unknown parameters stay.
  PathPtr still = BindParams(p, {{"other", "3"}});
  EXPECT_TRUE(HasUnboundParams(still));
}

TEST(AstTest, NormalizeQualifierSteps) {
  PathPtr p = MustParse("a/b[c]/d");
  PathPtr n = NormalizeQualifierSteps(p);
  // b[c] becomes b/.[c].
  EXPECT_EQ(ToXPathString(n), "a/b/.[c]/d");
}

// -- Parser & printer ---------------------------------------------------------

struct RoundTripCase {
  const char* input;
  const char* printed;  // expected canonical rendering
};

// Prints a case as its quoted query text. ctest ids carry the printed
// parameter, and the default printer spells a struct as its raw bytes,
// pointers included, so the ids would change from build to build. The
// quotes keep an id such as `.` from ending in a dot that ctest's
// dot-padded report would swallow.
void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << testing::PrintToString(std::string(c.input));
}

class XPathRoundTripTest : public testing::TestWithParam<RoundTripCase> {};

TEST_P(XPathRoundTripTest, PrintedFormReparsesIdentically) {
  const RoundTripCase& c = GetParam();
  PathPtr p = MustParse(c.input);
  EXPECT_EQ(ToXPathString(p), c.printed);
  // Printing then parsing is the identity on the canonical form.
  PathPtr again = MustParse(ToXPathString(p));
  EXPECT_TRUE(PathEquals(p, again))
      << c.input << " -> " << ToXPathString(p) << " -> "
      << ToXPathString(again);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, XPathRoundTripTest,
    testing::Values(
        RoundTripCase{"a", "a"},
        RoundTripCase{".", "."},
        RoundTripCase{"*", "*"},
        RoundTripCase{"a/b/c", "a/b/c"},
        RoundTripCase{"//a", "//a"},
        RoundTripCase{"a//b", "a//b"},
        RoundTripCase{"//a//b", "//a//b"},
        RoundTripCase{"a | b", "a | b"},
        RoundTripCase{"(a | b)/c", "(a | b)/c"},
        RoundTripCase{"a[b]", "a[b]"},
        RoundTripCase{"a[b = \"x\"]", "a[b = \"x\"]"},
        RoundTripCase{"a[b = $w]", "a[b = $w]"},
        RoundTripCase{"a[b and c]", "a[b and c]"},
        RoundTripCase{"a[b or c and d]", "a[b or c and d]"},
        RoundTripCase{"a[not(b)]", "a[not(b)]"},
        RoundTripCase{"a[not(b or c)]", "a[not(b or c)]"},
        RoundTripCase{"a[@accessibility = \"1\"]",
                      "a[@accessibility = \"1\"]"},
        RoundTripCase{"*[*]", "*[*]"},
        RoundTripCase{"a[b/c]", "a[b/c]"},
        RoundTripCase{"a[//b]", "a[//b]"},
        RoundTripCase{"(a/b)[c]", "(a/b)[c]"},
        RoundTripCase{"r-e.warranty", "r-e.warranty"},
        RoundTripCase{"a[true()]", "a"},
        RoundTripCase{"a[false()]", ".[false()]"},
        RoundTripCase{"a[(b) and c]", "a[b and c]"}));

TEST(XPathParserTest, RejectsBadSyntax) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("/a").ok());  // absolute paths unsupported
  EXPECT_FALSE(ParseXPath("a/").ok());
  EXPECT_FALSE(ParseXPath("a[").ok());
  EXPECT_FALSE(ParseXPath("a[]").ok());
  EXPECT_FALSE(ParseXPath("a[b=]").ok());
  EXPECT_FALSE(ParseXPath("a b").ok());
  EXPECT_FALSE(ParseXPath("a[@]").ok());  // attribute tests need a name
  EXPECT_FALSE(ParseXPath("(a").ok());
}

TEST(XPathParserTest, PrecedenceUnionVsSlash) {
  // a/b | c parses as (a/b) | c.
  PathPtr p = MustParse("a/b | c");
  ASSERT_EQ(p->kind, PathKind::kUnion);
  EXPECT_EQ(p->left->kind, PathKind::kSlash);
}

TEST(XPathParserTest, QualifierBindsToStep) {
  // a/b[c] qualifies b, not a/b.
  PathPtr p = MustParse("a/b[c]");
  ASSERT_EQ(p->kind, PathKind::kSlash);
  EXPECT_EQ(p->right->kind, PathKind::kQualified);
}

TEST(XPathParserTest, NamesContainingKeywords) {
  // 'android' must not be cut at 'and'.
  PathPtr p = MustParse("a[android or orb]");
  EXPECT_EQ(ToXPathString(p), "a[android or orb]");
}

TEST(XPathParserTest, DoubleSlashAtStart) {
  PathPtr p = MustParse("//a/b");
  ASSERT_EQ(p->kind, PathKind::kSlash);
  EXPECT_EQ(p->left->kind, PathKind::kDescOrSelf);
}

// -- Evaluator ----------------------------------------------------------------

class EvaluatorTest : public testing::Test {
 protected:
  void SetUp() override {
    auto doc = ParseXml(R"(
      <r>
        <a><b>one</b><c><b>two</b></c></a>
        <a><b>three</b></a>
        <d><a><b>four</b></a></d>
      </r>
    )");
    ASSERT_TRUE(doc.ok()) << doc.status();
    tree_ = std::move(doc).value();
  }

  NodeSet Eval(const std::string& query) {
    auto p = ParseXPath(query);
    EXPECT_TRUE(p.ok()) << query << ": " << p.status();
    auto r = EvaluateAtRoot(tree_, *p);
    EXPECT_TRUE(r.ok()) << query << ": " << r.status();
    return r.ok() ? *r : NodeSet{};
  }

  std::vector<std::string> Texts(const NodeSet& nodes) {
    std::vector<std::string> out;
    for (NodeId n : nodes) out.push_back(tree_.CollectText(n));
    return out;
  }

  XmlTree tree_;
};

TEST_F(EvaluatorTest, ChildStep) {
  EXPECT_EQ(Eval("a").size(), 2u);
  EXPECT_EQ(Eval("d").size(), 1u);
  EXPECT_EQ(Eval("b").size(), 0u);  // b is not a child of the root
  EXPECT_EQ(Eval("zz").size(), 0u);
}

TEST_F(EvaluatorTest, Epsilon) {
  NodeSet r = Eval(".");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], tree_.root());
}

TEST_F(EvaluatorTest, Wildcard) {
  EXPECT_EQ(Eval("*").size(), 3u);
  EXPECT_EQ(Eval("*/b").size(), 2u);
}

TEST_F(EvaluatorTest, Slash) {
  EXPECT_EQ(Texts(Eval("a/b")), (std::vector<std::string>{"one", "three"}));
  EXPECT_EQ(Texts(Eval("a/c/b")), (std::vector<std::string>{"two"}));
}

TEST_F(EvaluatorTest, DescendantOrSelf) {
  EXPECT_EQ(Eval("//b").size(), 4u);
  EXPECT_EQ(Eval("//a").size(), 3u);
  EXPECT_EQ(Eval("//a//b").size(), 4u);
  EXPECT_EQ(Eval("d//b").size(), 1u);
  // //. returns every element.
  EXPECT_EQ(Eval("//.").size(), 10u);
}

TEST_F(EvaluatorTest, DescendantResultsSortedUnique) {
  NodeSet r = Eval("//a/b | a/b");
  for (size_t i = 1; i < r.size(); ++i) EXPECT_LT(r[i - 1], r[i]);
  EXPECT_EQ(r.size(), 3u);
}

TEST_F(EvaluatorTest, Union) {
  EXPECT_EQ(Eval("a | d").size(), 3u);
  EXPECT_EQ(Eval("a | a").size(), 2u);
}

TEST_F(EvaluatorTest, Qualifiers) {
  EXPECT_EQ(Eval("a[c]").size(), 1u);
  EXPECT_EQ(Eval("a[not(c)]").size(), 1u);
  EXPECT_EQ(Eval("a[b and c]").size(), 1u);
  EXPECT_EQ(Eval("a[b or c]").size(), 2u);
  EXPECT_EQ(Eval("a[zz]").size(), 0u);
  EXPECT_EQ(Eval("*[b]").size(), 2u);  // d's b is a grandchild
}

TEST_F(EvaluatorTest, TextEquality) {
  EXPECT_EQ(Eval("a[b = \"one\"]").size(), 1u);
  EXPECT_EQ(Eval("a[b = \"nope\"]").size(), 0u);
  EXPECT_EQ(Eval("//a[b = \"four\"]").size(), 1u);
  EXPECT_EQ(Eval("a[c/b = \"two\"]").size(), 1u);
}

TEST_F(EvaluatorTest, QualifierWithDescendant) {
  EXPECT_EQ(Eval("a[//b = \"two\"]").size(), 1u);
  EXPECT_EQ(Eval("*[//b]").size(), 3u);
}

TEST_F(EvaluatorTest, EmptySetQuery) {
  auto r = EvaluateAtRoot(tree_, MakeEmptySet());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(EvaluatorTest, UnboundParamsRejected) {
  auto p = ParseXPath("a[b = $ward]");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateAtRoot(tree_, *p);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // After binding it evaluates.
  auto bound = BindParams(*p, {{"ward", "one"}});
  auto r2 = EvaluateAtRoot(tree_, bound);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 1u);
}

TEST_F(EvaluatorTest, AttributeQualifier) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  NodeId x = t.AppendElement(root, "x");
  NodeId y = t.AppendElement(root, "x");
  t.SetAttribute(x, "accessibility", "1");
  t.SetAttribute(y, "accessibility", "0");
  auto p = ParseXPath("x[@accessibility = \"1\"]");
  ASSERT_TRUE(p.ok());
  auto r = EvaluateAtRoot(t, *p);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], x);
}

TEST_F(EvaluatorTest, WorkCounterGrows) {
  XPathEvaluator evaluator(tree_);
  ASSERT_TRUE(evaluator.Evaluate(MustParse("//b"), tree_.root()).ok());
  uint64_t work_desc = evaluator.counters().nodes_touched;
  evaluator.ResetWork();
  ASSERT_TRUE(evaluator.Evaluate(MustParse("a/b"), tree_.root()).ok());
  uint64_t work_child = evaluator.counters().nodes_touched;
  EXPECT_GT(work_desc, work_child);
}

TEST_F(EvaluatorTest, NestedContextsNoDuplicates) {
  // Context set where one node contains the other: d and d/a.
  XPathEvaluator evaluator(tree_);
  auto d = Eval("d");
  auto da = Eval("d/a");
  NodeSet ctx = d;
  ctx.insert(ctx.end(), da.begin(), da.end());
  std::sort(ctx.begin(), ctx.end());
  auto r = evaluator.Evaluate(MustParse("//b"), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
}

}  // namespace
}  // namespace secview
