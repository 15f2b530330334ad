#include "xml/tree.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace secview {

XmlTree XmlTree::Clone() const {
  XmlTree copy;
  copy.nodes_ = nodes_;
  copy.labels_ = labels_;
  copy.label_ids_ = label_ids_;
  copy.texts_ = texts_;
  copy.attrs_ = attrs_;
  copy.height_ = height_;
  if (!nodes_.empty()) copy.DropSummary();
  return copy;
}

NodeId XmlTree::NewNode(NodeKind kind, NodeId parent) {
  DropSummary();
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.kind = kind;
  node.depth = parent == kNullNode ? 0 : nodes_[parent].depth + 1;
  node.parent = parent;
  // A root starts a fresh tree (CreateRoot requires an empty arena).
  const int depth = static_cast<int>(node.depth);
  height_ = parent == kNullNode ? 0 : std::max(height_, depth);
  nodes_.push_back(node);
  if (parent != kNullNode) {
    Node& p = nodes_[parent];
    if (p.last_child == kNullNode) {
      p.first_child = id;
    } else {
      nodes_[p.last_child].next_sibling = id;
    }
    p.last_child = id;
  }
  return id;
}

int XmlTree::InternLabel(std::string_view label) {
  auto it = label_ids_.find(std::string(label));
  if (it != label_ids_.end()) return it->second;
  int id = static_cast<int>(labels_.size());
  labels_.emplace_back(label);
  label_ids_.emplace(labels_.back(), id);
  return id;
}

NodeId XmlTree::CreateRoot(std::string_view label) {
  assert(nodes_.empty() && "root must be the first node");
  NodeId id = NewNode(NodeKind::kElement, kNullNode);
  nodes_[id].label_id = InternLabel(label);
  return id;
}

NodeId XmlTree::AppendElement(NodeId parent, std::string_view label) {
  assert(parent != kNullNode && IsElement(parent));
  NodeId id = NewNode(NodeKind::kElement, parent);
  nodes_[id].label_id = InternLabel(label);
  return id;
}

NodeId XmlTree::AppendText(NodeId parent, std::string_view value) {
  assert(parent != kNullNode && IsElement(parent));
  NodeId id = NewNode(NodeKind::kText, parent);
  nodes_[id].text_id = static_cast<int32_t>(texts_.size());
  texts_.emplace_back(value);
  return id;
}

void XmlTree::SetAttribute(NodeId node, std::string_view name,
                           std::string_view value) {
  assert(IsElement(node));
  Node& n = nodes_[node];
  if (n.attrs_id < 0) {
    n.attrs_id = static_cast<int32_t>(attrs_.size());
    attrs_.emplace_back();
  }
  for (auto& [k, v] : attrs_[n.attrs_id]) {
    if (k == name) {
      v = std::string(value);
      return;
    }
  }
  attrs_[n.attrs_id].emplace_back(std::string(name), std::string(value));
}

void XmlTree::SetOrigin(NodeId node, NodeId origin) {
  nodes_[node].origin = origin;
}

void XmlTree::DropSummary() {
  // Mutation is single-threaded (a shared tree is read-only), so reading
  // `built` here races with no Summary() call.
  if (summary_ == nullptr || summary_->built.load(std::memory_order_relaxed)) {
    summary_ = std::make_unique<SummaryCell>();
  }
}

const PathSummary& XmlTree::Summary() const {
  if (summary_ == nullptr) {
    static const PathSummary& kEmpty = *new PathSummary();
    return kEmpty;
  }
  std::call_once(summary_->once, [this] {
    BuildSummary(summary_->summary);
    summary_->built.store(true, std::memory_order_release);
  });
  return summary_->summary;
}

void XmlTree::BuildSummary(PathSummary& out) const {
  // Classify each element by (parent class, label) in document order: a
  // parent precedes its children, so its class is already known.
  std::vector<int32_t>& node_class = out.node_class_;
  node_class.assign(nodes_.size(), -1);
  std::vector<int32_t> class_parent;
  std::vector<int32_t> class_label;
  std::unordered_map<uint64_t, int32_t> classes;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.kind != NodeKind::kElement) continue;
    const int32_t parent_class =
        node.parent == kNullNode ? -1 : node_class[node.parent];
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(parent_class)) << 32) |
        static_cast<uint32_t>(node.label_id);
    const auto [it, inserted] = classes.try_emplace(
        key, static_cast<int32_t>(class_parent.size()));
    if (inserted) {
      class_parent.push_back(parent_class);
      class_label.push_back(node.label_id);
    }
    node_class[i] = it->second;
  }
  const size_t class_count = class_parent.size();

  // Extents: counting sort of the elements by class, stable, so each
  // extent stays in document order.
  out.extent_begin_.assign(class_count + 1, 0);
  for (int32_t c : node_class) {
    if (c >= 0) ++out.extent_begin_[c + 1];
  }
  for (size_t c = 0; c < class_count; ++c) {
    out.extent_begin_[c + 1] += out.extent_begin_[c];
  }
  out.extent_.resize(out.extent_begin_[class_count]);
  std::vector<int32_t> cursor(out.extent_begin_.begin(),
                              out.extent_begin_.end() - 1);
  for (size_t i = 0; i < node_class.size(); ++i) {
    if (node_class[i] >= 0) {
      out.extent_[cursor[node_class[i]]++] = static_cast<NodeId>(i);
    }
  }

  // Child tables: every class but the root's is one entry in its
  // parent's table.
  out.child_begin_.assign(class_count + 1, 0);
  for (int32_t parent : class_parent) {
    if (parent >= 0) ++out.child_begin_[parent + 1];
  }
  for (size_t c = 0; c < class_count; ++c) {
    out.child_begin_[c + 1] += out.child_begin_[c];
  }
  out.child_label_.resize(out.child_begin_[class_count]);
  out.child_class_.resize(out.child_begin_[class_count]);
  cursor.assign(out.child_begin_.begin(), out.child_begin_.end() - 1);
  for (size_t c = 0; c < class_count; ++c) {
    if (class_parent[c] < 0) continue;
    const int32_t slot = cursor[class_parent[c]]++;
    out.child_label_[slot] = class_label[c];
    out.child_class_[slot] = static_cast<int32_t>(c);
  }
}

int32_t PathSummary::ChildClass(int32_t cls, int label_id) const {
  for (int32_t i = child_begin_[cls]; i < child_begin_[cls + 1]; ++i) {
    if (child_label_[i] == label_id) return child_class_[i];
  }
  return -1;
}

size_t PathSummary::MemoryFootprintBytes() const {
  return sizeof(int32_t) *
         (node_class_.capacity() + extent_begin_.capacity() +
          extent_.capacity() + child_begin_.capacity() +
          child_label_.capacity() + child_class_.capacity());
}

std::string_view XmlTree::label(NodeId n) const {
  const Node& node = nodes_[n];
  if (node.label_id < 0) return {};
  return labels_[node.label_id];
}

int XmlTree::FindLabelId(std::string_view label) const {
  auto it = label_ids_.find(std::string(label));
  return it == label_ids_.end() ? -1 : it->second;
}

std::string_view XmlTree::text(NodeId n) const {
  const Node& node = nodes_[n];
  if (node.text_id < 0) return {};
  return texts_[node.text_id];
}

NodeId XmlTree::SubtreeEnd(NodeId n) const {
  // Follow the next-sibling link of n or of the nearest ancestor that has
  // one; if none exists the subtree extends to the end of the arena.
  NodeId cur = n;
  while (cur != kNullNode) {
    if (nodes_[cur].next_sibling != kNullNode) return nodes_[cur].next_sibling;
    cur = nodes_[cur].parent;
  }
  return static_cast<NodeId>(nodes_.size());
}

int XmlTree::ChildCount(NodeId n) const {
  int count = 0;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) ++count;
  return count;
}

std::vector<NodeId> XmlTree::Children(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

std::optional<std::string_view> XmlTree::GetAttribute(
    NodeId node, std::string_view name) const {
  const Node& n = nodes_[node];
  if (n.attrs_id < 0) return std::nullopt;
  for (const auto& [k, v] : attrs_[n.attrs_id]) {
    if (k == name) return std::string_view(v);
  }
  return std::nullopt;
}

const std::vector<std::pair<std::string, std::string>>& XmlTree::Attributes(
    NodeId node) const {
  // Never deleted, per the style rule against static objects with
  // non-trivial destructors.
  static const auto& kEmpty =
      *new std::vector<std::pair<std::string, std::string>>();
  const Node& n = nodes_[node];
  if (n.attrs_id < 0) return kEmpty;
  return attrs_[n.attrs_id];
}

std::string XmlTree::CollectText(NodeId n) const {
  std::string out;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    if (IsText(c)) out += text(c);
  }
  return out;
}

bool XmlTree::TextEquals(NodeId n, std::string_view expected) const {
  size_t off = 0;
  for (NodeId c = first_child(n); c != kNullNode; c = next_sibling(c)) {
    if (!IsText(c)) continue;
    std::string_view t = text(c);
    if (t.size() > expected.size() - off) return false;  // off <= size holds
    if (expected.substr(off, t.size()) != t) return false;
    off += t.size();
  }
  return off == expected.size();
}

size_t XmlTree::EstimateSerializedSize() const {
  size_t total = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.kind == NodeKind::kElement) {
      // <label></label>
      total += 2 * labels_[n.label_id].size() + 5;
    } else {
      total += texts_[n.text_id].size();
    }
  }
  return total;
}

namespace {

/// Heap bytes behind one std::string: zero when the value fits the
/// small-string buffer, capacity + terminator otherwise.
size_t StringHeapBytes(const std::string& s) {
  return s.capacity() > sizeof(std::string) - 1 ? s.capacity() + 1 : 0;
}

}  // namespace

size_t XmlTree::MemoryFootprintBytes() const {
  size_t total = sizeof(XmlTree);
  total += nodes_.capacity() * sizeof(Node);
  total += labels_.capacity() * sizeof(std::string);
  for (const std::string& label : labels_) total += StringHeapBytes(label);
  total += texts_.capacity() * sizeof(std::string);
  for (const std::string& text : texts_) total += StringHeapBytes(text);
  total +=
      attrs_.capacity() * sizeof(std::vector<std::pair<std::string,
                                                       std::string>>);
  for (const auto& attrs : attrs_) {
    total += attrs.capacity() * sizeof(std::pair<std::string, std::string>);
    for (const auto& [name, value] : attrs) {
      total += StringHeapBytes(name) + StringHeapBytes(value);
    }
  }
  // Intern map: bucket array plus one node (key string + int + pointer
  // overhead) per entry — an estimate, the map's internals are opaque.
  total += label_ids_.bucket_count() * sizeof(void*);
  for (const auto& [label, id] : label_ids_) {
    (void)id;
    total += sizeof(void*) * 2 + sizeof(int) + sizeof(std::string) +
             StringHeapBytes(label);
  }
  if (summary_ != nullptr) {
    total += sizeof(SummaryCell);
    if (summary_->built.load(std::memory_order_acquire)) {
      total += summary_->summary.MemoryFootprintBytes();
    }
  }
  return total;
}

}  // namespace secview
