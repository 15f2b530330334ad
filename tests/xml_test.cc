#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tree.h"

namespace secview {
namespace {

TEST(XmlTreeTest, BuildSmallTree) {
  XmlTree t;
  NodeId root = t.CreateRoot("a");
  NodeId b = t.AppendElement(root, "b");
  NodeId c = t.AppendElement(root, "c");
  NodeId text = t.AppendText(b, "hello");

  EXPECT_EQ(t.node_count(), 4u);
  EXPECT_EQ(t.root(), root);
  EXPECT_EQ(t.label(root), "a");
  EXPECT_EQ(t.parent(b), root);
  EXPECT_EQ(t.parent(c), root);
  EXPECT_EQ(t.first_child(root), b);
  EXPECT_EQ(t.next_sibling(b), c);
  EXPECT_EQ(t.next_sibling(c), kNullNode);
  EXPECT_TRUE(t.IsText(text));
  EXPECT_EQ(t.text(text), "hello");
  EXPECT_EQ(t.ChildCount(root), 2);
}

TEST(XmlTreeTest, DocumentOrderIsIdOrder) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  NodeId a = t.AppendElement(root, "a");
  NodeId a1 = t.AppendElement(a, "x");
  NodeId b = t.AppendElement(root, "b");
  EXPECT_LT(root, a);
  EXPECT_LT(a, a1);
  EXPECT_LT(a1, b);
}

TEST(XmlTreeTest, SubtreeEnd) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  NodeId a = t.AppendElement(root, "a");
  t.AppendElement(a, "x");
  NodeId b = t.AppendElement(root, "b");
  EXPECT_EQ(t.SubtreeEnd(a), b);
  EXPECT_EQ(t.SubtreeEnd(root), static_cast<NodeId>(t.node_count()));
}

TEST(XmlTreeTest, ForEachDescendantOrSelf) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  NodeId a = t.AppendElement(root, "a");
  t.AppendElement(a, "x");
  t.AppendElement(root, "b");
  std::vector<NodeId> visited;
  t.ForEachDescendantOrSelf(a, [&](NodeId n) { visited.push_back(n); });
  EXPECT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited[0], a);
}

TEST(XmlTreeTest, Attributes) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  EXPECT_FALSE(t.GetAttribute(root, "x").has_value());
  t.SetAttribute(root, "x", "1");
  t.SetAttribute(root, "y", "2");
  EXPECT_EQ(*t.GetAttribute(root, "x"), "1");
  t.SetAttribute(root, "x", "3");  // overwrite
  EXPECT_EQ(*t.GetAttribute(root, "x"), "3");
  EXPECT_EQ(t.Attributes(root).size(), 2u);
}

TEST(XmlTreeTest, HeightAndText) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  NodeId a = t.AppendElement(root, "a");
  NodeId b = t.AppendElement(a, "b");
  t.AppendText(b, "x");
  t.AppendText(b, "y");
  EXPECT_EQ(t.Height(), 3);
  EXPECT_EQ(t.CollectText(b), "xy");
  EXPECT_EQ(t.CollectText(root), "");
}

TEST(XmlTreeTest, HeightIsExactBeyondTheParserDepthCap) {
  // Trees built in code are not bound by the parser's depth cap; the
  // recorded depth must stay exact past 16 bits, through Clone, and
  // while later siblings sit shallower than the deepest node.
  XmlTree t;
  EXPECT_EQ(t.Height(), -1);
  NodeId n = t.CreateRoot("r");
  EXPECT_EQ(t.Height(), 0);
  constexpr int kDepth = 70'000;
  for (int i = 0; i < kDepth; ++i) n = t.AppendElement(n, "a");
  t.AppendElement(t.root(), "b");
  EXPECT_EQ(t.Height(), kDepth);
  EXPECT_EQ(t.Clone().Height(), kDepth);
}

TEST(XmlTreeTest, OriginTracking) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  EXPECT_EQ(t.origin(root), kNullNode);
  t.SetOrigin(root, 42);
  EXPECT_EQ(t.origin(root), 42);
}

TEST(XmlTreeTest, CloneIsDeep) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  t.AppendElement(root, "a");
  XmlTree copy = t.Clone();
  copy.AppendElement(copy.root(), "b");
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(copy.node_count(), 3u);
}

TEST(XmlTreeTest, LabelInterning) {
  XmlTree t;
  NodeId root = t.CreateRoot("r");
  NodeId a1 = t.AppendElement(root, "a");
  NodeId a2 = t.AppendElement(root, "a");
  EXPECT_EQ(t.label_id(a1), t.label_id(a2));
  EXPECT_EQ(t.FindLabelId("a"), t.label_id(a1));
  EXPECT_EQ(t.FindLabelId("zz"), -1);
}

// -- Parser -------------------------------------------------------------------

TEST(XmlParserTest, ParsesSimpleDocument) {
  auto r = ParseXml("<a><b>hi</b><c/></a>");
  ASSERT_TRUE(r.ok()) << r.status();
  const XmlTree& t = *r;
  EXPECT_EQ(t.label(t.root()), "a");
  EXPECT_EQ(t.ChildCount(t.root()), 2);
  NodeId b = t.first_child(t.root());
  EXPECT_EQ(t.label(b), "b");
  EXPECT_EQ(t.CollectText(b), "hi");
}

TEST(XmlParserTest, SkipsPrologDoctypeAndComments) {
  auto r = ParseXml(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE a [ <!ELEMENT a (b)> ]>\n"
      "<!-- comment -->\n"
      "<a><!-- inner --><b/></a>\n"
      "<!-- trailing -->");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->label(r->root()), "a");
  EXPECT_EQ(r->ChildCount(r->root()), 1);
}

TEST(XmlParserTest, DecodesEntities) {
  auto r = ParseXml("<a>x &lt;&amp;&gt; &#65;&#x42;</a>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->CollectText(r->root()), "x <&> AB");
}

TEST(XmlParserTest, ParsesAttributes) {
  auto r = ParseXml("<a x=\"1\" y='two &amp; three'><b z=\"3\"/></a>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r->GetAttribute(r->root(), "x"), "1");
  EXPECT_EQ(*r->GetAttribute(r->root(), "y"), "two & three");
  EXPECT_EQ(*r->GetAttribute(r->first_child(r->root()), "z"), "3");
}

TEST(XmlParserTest, CdataBecomesText) {
  auto r = ParseXml("<a><![CDATA[<not> & parsed]]></a>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->CollectText(r->root()), "<not> & parsed");
}

TEST(XmlParserTest, WhitespaceTextDroppedByDefault) {
  auto r = ParseXml("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->ChildCount(r->root()), 1);

  XmlParseOptions keep;
  keep.keep_whitespace_text = true;
  auto r2 = ParseXml("<a>\n  <b/>\n</a>", keep);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->ChildCount(r2->root()), 3);
}

TEST(XmlParserTest, RejectsMismatchedTags) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></a></a>").ok());
  EXPECT_FALSE(ParseXml("</a>").ok());
}

TEST(XmlParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("just text").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>").ok());
  EXPECT_FALSE(ParseXml("<a x=1></a>").ok());
}

TEST(XmlParserTest, RejectsDuplicateAttributes) {
  EXPECT_FALSE(ParseXml("<a x=\"1\" x=\"2\"/>").ok());
  EXPECT_TRUE(ParseXml("<a x=\"1\" y=\"2\"/>").ok());
}

TEST(XmlParserTest, ReportsLineNumbers) {
  auto r = ParseXml("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status();
}

// -- Serializer ---------------------------------------------------------------

TEST(XmlSerializerTest, RoundTrip) {
  const char* source = "<a x=\"1\"><b>hi &amp; ho</b><c/></a>";
  auto tree = ParseXml(source);
  ASSERT_TRUE(tree.ok());
  std::string out = ToXmlString(*tree);
  auto again = ParseXml(out);
  ASSERT_TRUE(again.ok()) << again.status() << " for: " << out;
  EXPECT_EQ(ToXmlString(*again), out);
  EXPECT_EQ(again->node_count(), tree->node_count());
}

TEST(XmlSerializerTest, EmptyElementUsesSelfClosingForm) {
  XmlTree t;
  t.CreateRoot("a");
  EXPECT_EQ(ToXmlString(t), "<a/>");
}

TEST(XmlSerializerTest, EscapesTextAndAttributes) {
  XmlTree t;
  NodeId root = t.CreateRoot("a");
  t.SetAttribute(root, "k", "<v>");
  t.AppendText(root, "1 < 2");
  std::string out = ToXmlString(t);
  EXPECT_EQ(out, "<a k=\"&lt;v&gt;\">1 &lt; 2</a>");
}

TEST(XmlSerializerTest, IndentedOutputReparses) {
  auto tree = ParseXml("<a><b>t</b><c><d/></c></a>");
  ASSERT_TRUE(tree.ok());
  XmlWriteOptions options;
  options.indent = true;
  std::ostringstream os;
  WriteXml(*tree, tree->root(), os, options);
  auto again = ParseXml(os.str());
  ASSERT_TRUE(again.ok()) << again.status() << " for: " << os.str();
  EXPECT_EQ(again->node_count(), tree->node_count());
}

TEST(XmlSerializerTest, FileRoundTrip) {
  XmlTree t;
  NodeId root = t.CreateRoot("doc");
  t.AppendText(t.AppendElement(root, "v"), "42");
  std::string path = testing::TempDir() + "/secview_roundtrip.xml";
  ASSERT_TRUE(WriteXmlFile(t, path).ok());
  auto back = ParseXmlFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(ToXmlString(*back), ToXmlString(t));
}

TEST(XmlParserTest, ParseFileMissing) {
  auto r = ParseXmlFile("/nonexistent/definitely_missing.xml");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace secview
