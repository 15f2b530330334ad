#ifndef SECVIEW_XML_TREE_H_
#define SECVIEW_XML_TREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace secview {

/// Identifies a node within one XmlTree. Nodes are created in document
/// order, so comparing NodeIds compares document order (preorder rank).
using NodeId = int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNullNode = -1;

/// Node kinds of the paper's data model: element nodes and text (PCDATA)
/// leaves (Section 2).
enum class NodeKind : uint8_t { kElement, kText };

class XmlTree;

/// A strong DataGuide (Goldman & Widom, VLDB 1997) of one XmlTree. Each
/// element's *class* is its root-to-node label path; class 0 is the
/// root's. Each class has a child table (label id -> class) and an
/// extent, its elements in document order. All extents share one CSR
/// array. Because a child of an element in class c is in a class whose
/// parent is c, "the children labeled l of every element of c" is
/// exactly the extent of c's l-child: the compiled-plan VM answers such
/// a step with a copy instead of a walk, and decides a filter over
/// elements of one class by reading the extents that its qualifier's
/// paths reach from that class. Built by XmlTree::Summary().
class PathSummary {
 public:
  /// Class of node `n`; -1 for text nodes.
  int32_t ClassOf(NodeId n) const { return node_class_[n]; }

  size_t class_count() const { return extent_begin_.size() - 1; }

  /// The class of the elements labeled `label_id` under class `cls`, or
  /// -1 if no element of `cls` has such a child.
  int32_t ChildClass(int32_t cls, int label_id) const;

  /// Every class of the element children of class `cls` (one per label),
  /// the classes a `*` step reaches from `cls`.
  std::span<const int32_t> ChildClasses(int32_t cls) const {
    return {child_class_.data() + child_begin_[cls],
            child_class_.data() + child_begin_[cls + 1]};
  }

  /// The elements of class `cls`, in document order.
  std::span<const NodeId> Extent(int32_t cls) const {
    return {extent_.data() + extent_begin_[cls],
            extent_.data() + extent_begin_[cls + 1]};
  }

  /// Heap bytes behind the tables (vector capacities).
  size_t MemoryFootprintBytes() const;

 private:
  friend class XmlTree;

  std::vector<int32_t> node_class_;         // by NodeId
  std::vector<int32_t> extent_begin_{0};    // by class, plus the end
  std::vector<NodeId> extent_;              // extents, class by class
  std::vector<int32_t> child_begin_{0};     // by class, plus the end
  std::vector<int32_t> child_label_;        // child tables, class by class
  std::vector<int32_t> child_class_;
};

/// An ordered XML tree in the paper's data model: a root element, element
/// nodes labeled with element-type names, and text leaves carrying string
/// values. Attributes are supported as an extension because the paper's
/// "naive" baseline (Section 6) stores per-element accessibility in an
/// attribute.
///
/// Storage is arena-style: nodes live in contiguous vectors, labels are
/// interned per tree, and parent/child structure is kept as
/// first-child/next-sibling links. Nodes are never removed.
///
/// View trees built by the materializer track, per node, the *origin* node
/// in the underlying document; query-equivalence (p over the view vs. the
/// rewritten query over the document) is defined over origin sets.
class XmlTree {
 public:
  XmlTree() = default;

  // Movable but not copyable (trees can be large; copies should be explicit
  // via Clone()).
  XmlTree(XmlTree&&) = default;
  XmlTree& operator=(XmlTree&&) = default;
  XmlTree(const XmlTree&) = delete;
  XmlTree& operator=(const XmlTree&) = delete;

  /// Deep copy.
  XmlTree Clone() const;

  // -- Construction (document order: create parents before children, and
  //    siblings left to right). -------------------------------------------

  /// Creates the root element. Must be the first node created.
  NodeId CreateRoot(std::string_view label);

  /// Appends a new element labeled `label` as the last child of `parent`.
  NodeId AppendElement(NodeId parent, std::string_view label);

  /// Appends a new text leaf with string value `value` under `parent`.
  NodeId AppendText(NodeId parent, std::string_view value);

  /// Sets (or overwrites) an attribute on an element node.
  void SetAttribute(NodeId node, std::string_view name, std::string_view value);

  /// Records the document node a view node was extracted from.
  void SetOrigin(NodeId node, NodeId origin);

  // -- Accessors -----------------------------------------------------------

  bool empty() const { return nodes_.empty(); }
  NodeId root() const { return nodes_.empty() ? kNullNode : 0; }
  size_t node_count() const { return nodes_.size(); }

  NodeKind kind(NodeId n) const { return nodes_[n].kind; }
  bool IsElement(NodeId n) const { return nodes_[n].kind == NodeKind::kElement; }
  bool IsText(NodeId n) const { return nodes_[n].kind == NodeKind::kText; }

  /// Element label ("" for text nodes).
  std::string_view label(NodeId n) const;

  /// Interned label id (-1 for text nodes). Stable within this tree.
  int label_id(NodeId n) const { return nodes_[n].label_id; }

  /// Returns the interned id for `label`, or -1 if no node uses it.
  int FindLabelId(std::string_view label) const;

  /// Text value of a text node ("" for elements).
  std::string_view text(NodeId n) const;

  NodeId parent(NodeId n) const { return nodes_[n].parent; }
  /// Depth of `n` below the root (the root is 0).
  int depth(NodeId n) const { return static_cast<int>(nodes_[n].depth); }
  NodeId first_child(NodeId n) const { return nodes_[n].first_child; }
  NodeId next_sibling(NodeId n) const { return nodes_[n].next_sibling; }

  /// Number of children of `n`.
  int ChildCount(NodeId n) const;

  /// Children of `n` in document order.
  std::vector<NodeId> Children(NodeId n) const;

  /// Attribute lookup; nullopt if absent.
  std::optional<std::string_view> GetAttribute(NodeId node,
                                               std::string_view name) const;

  /// All attributes of `node` in insertion order (empty for most nodes).
  const std::vector<std::pair<std::string, std::string>>& Attributes(
      NodeId node) const;

  /// Origin document node recorded via SetOrigin (kNullNode if none).
  NodeId origin(NodeId n) const { return nodes_[n].origin; }

  /// Id one past the last node of the subtree rooted at `n`. Because nodes
  /// are created in document order, the descendants-or-self of `n` are
  /// exactly the contiguous id range [n, SubtreeEnd(n)).
  NodeId SubtreeEnd(NodeId n) const;

  /// Calls `fn(NodeId)` for `n` and every descendant, in document order.
  /// Iterative (safe for arbitrarily deep trees).
  template <typename Fn>
  void ForEachDescendantOrSelf(NodeId n, Fn&& fn) const {
    const NodeId end = SubtreeEnd(n);
    for (NodeId i = n; i < end; ++i) fn(i);
  }

  /// Height of the subtree rooted at the tree root: a single node has
  /// height 0. Returns -1 for an empty tree. Used to pick the unfolding
  /// depth for recursive views (paper Section 4.2). O(1): maintained as
  /// nodes are created.
  int Height() const { return nodes_.empty() ? -1 : height_; }

  /// Concatenation of all text values directly under element `n`.
  std::string CollectText(NodeId n) const;

  /// True iff CollectText(n) == expected, decided by streaming over the
  /// text children without materializing the concatenation — the
  /// allocation-free comparison the compiled-plan VM uses for [p = c].
  bool TextEquals(NodeId n, std::string_view expected) const;

  /// Total serialized size estimate in bytes (labels + text + markup).
  size_t EstimateSerializedSize() const;

  /// The tree's path summary, built on first use in one pass over the
  /// nodes under a once-flag, so concurrent readers of a shared tree
  /// build it once. CreateRoot, AppendElement and AppendText drop a
  /// built summary; the next call rebuilds it.
  const PathSummary& Summary() const;

  /// Approximate resident heap footprint of this tree: vector capacities
  /// plus string and attribute storage (SSO-aware) plus an estimate for
  /// the label-intern map, plus the path summary once it is built. Feeds
  /// the subsystem memory ledger (obs/mem_ledger.h) — the measurement
  /// baseline the planned arena store must beat.
  size_t MemoryFootprintBytes() const;

 private:
  struct Node {
    // kind and depth share the first word, so recording the depth costs
    // no space; 31 bits hold the depth of any tree NodeId can address.
    NodeKind kind : 1;
    uint32_t depth : 31;      // root = 0
    int32_t label_id = -1;    // index into labels_, elements only
    NodeId parent = kNullNode;
    NodeId first_child = kNullNode;
    NodeId last_child = kNullNode;
    NodeId next_sibling = kNullNode;
    NodeId origin = kNullNode;
    int32_t text_id = -1;     // index into texts_, text nodes only
    int32_t attrs_id = -1;    // index into attrs_, lazily created
  };
  static_assert(sizeof(Node) == 36, "Node must stay nine words");

  /// The lazily built summary behind its once-flag, on the heap so the
  /// tree stays movable. Null only while the tree has no nodes.
  struct SummaryCell {
    std::once_flag once;
    std::atomic<bool> built{false};
    PathSummary summary;
  };

  NodeId NewNode(NodeKind kind, NodeId parent);
  int InternLabel(std::string_view label);
  /// Gives the tree a fresh, unbuilt summary cell unless it has one.
  void DropSummary();
  void BuildSummary(PathSummary& out) const;

  std::vector<Node> nodes_;
  std::vector<std::string> labels_;
  std::unordered_map<std::string, int> label_ids_;
  std::vector<std::string> texts_;
  std::vector<std::vector<std::pair<std::string, std::string>>> attrs_;
  int height_ = 0;  // max Node::depth
  std::unique_ptr<SummaryCell> summary_;
};

}  // namespace secview

#endif  // SECVIEW_XML_TREE_H_
