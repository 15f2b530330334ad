// The reference walk declared at the end of xpath/evaluator.h: the
// fragment's set-at-a-time semantics (Section 2), evaluated directly on
// the AST. Serving runs the compiled-plan VM (xpath/vm.cc); this file
// shares no code with it.

#include "xpath/evaluator.h"

#include <algorithm>
#include <iterator>

namespace secview {

namespace {

class ReferenceWalk {
 public:
  explicit ReferenceWalk(const XmlTree& tree) : tree_(tree) {}

  /// ctx[[p]] for a sorted, duplicate-free context set.
  NodeSet Path(const PathExpr& p, const NodeSet& ctx) const {
    if (ctx.empty()) return {};
    switch (p.kind) {
      case PathKind::kEmptySet:
        return {};
      case PathKind::kEpsilon:
        return ctx;
      case PathKind::kLabel: {
        const int label_id = tree_.FindLabelId(p.label);
        if (label_id < 0) return {};  // label absent from the document
        return Children(ctx, [&](NodeId c) {
          return tree_.label_id(c) == label_id;
        });
      }
      case PathKind::kWildcard:
        return Children(ctx, [](NodeId) { return true; });
      case PathKind::kSlash:
        return Path(*p.right, Path(*p.left, ctx));
      case PathKind::kDescOrSelf:
        return Path(*p.left, DescendantsOrSelf(ctx));
      case PathKind::kUnion: {
        NodeSet a = Path(*p.left, ctx);
        NodeSet b = Path(*p.right, ctx);
        NodeSet out;
        out.reserve(a.size() + b.size());
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(out));
        return out;
      }
      case PathKind::kQualified: {
        NodeSet out;
        for (NodeId v : Path(*p.left, ctx)) {
          if (Qual(*p.qualifier, v)) out.push_back(v);
        }
        return out;
      }
    }
    return {};
  }

  bool Qual(const Qualifier& q, NodeId node) const {
    switch (q.kind) {
      case QualKind::kTrue:
        return true;
      case QualKind::kFalse:
        return false;
      case QualKind::kPath:
        return !Path(*q.path, {node}).empty();
      case QualKind::kPathEqConst:
        for (NodeId v : Path(*q.path, {node})) {
          if (tree_.CollectText(v) == q.constant) return true;
        }
        return false;
      case QualKind::kAttrEq: {
        auto value = tree_.GetAttribute(node, q.attr);
        return value.has_value() && *value == q.constant;
      }
      case QualKind::kAttrExists:
        return tree_.GetAttribute(node, q.attr).has_value();
      case QualKind::kAnd:
        return Qual(*q.left, node) && Qual(*q.right, node);
      case QualKind::kOr:
        return Qual(*q.left, node) || Qual(*q.right, node);
      case QualKind::kNot:
        return !Qual(*q.left, node);
    }
    return false;
  }

 private:
  /// The element children of ctx that satisfy `keep`, in document order.
  template <typename Keep>
  NodeSet Children(const NodeSet& ctx, Keep keep) const {
    NodeSet out;
    for (NodeId v : ctx) {
      if (!tree_.IsElement(v)) continue;
      for (NodeId c = tree_.first_child(v); c != kNullNode;
           c = tree_.next_sibling(c)) {
        if (tree_.IsElement(c) && keep(c)) out.push_back(c);
      }
    }
    // Nested context nodes interleave their child lists; one context
    // node's child list is already sorted and duplicate-free.
    if (ctx.size() > 1) {
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    return out;
  }

  /// Every element in the subtrees rooted at ctx, each once, in
  /// document order (node ids are preorder ranks, and a subtree nested
  /// in an earlier one is skipped whole).
  NodeSet DescendantsOrSelf(const NodeSet& ctx) const {
    NodeSet out;
    NodeId covered_until = kNullNode;
    for (NodeId v : ctx) {
      if (v < covered_until) continue;
      const NodeId end = tree_.SubtreeEnd(v);
      for (NodeId i = v; i < end; ++i) {
        if (tree_.IsElement(i)) out.push_back(i);
      }
      covered_until = end;
    }
    return out;
  }

  const XmlTree& tree_;
};

Status UnboundParams() {
  return Status::FailedPrecondition(
      "query contains unbound $parameters; call BindParams first");
}

}  // namespace

Result<NodeSet> EvaluateAtNode(const XmlTree& tree, const PathPtr& p,
                               NodeId context) {
  if (!p) return Status::InvalidArgument("null query");
  if (HasUnboundParams(p)) return UnboundParams();
  return ReferenceWalk(tree).Path(*p, {context});
}

Result<bool> EvaluateQualifierAtNode(const XmlTree& tree, const QualPtr& q,
                                     NodeId node) {
  if (!q) return Status::InvalidArgument("null qualifier");
  if (HasUnboundParams(q)) return UnboundParams();
  return ReferenceWalk(tree).Qual(*q, node);
}

Result<NodeSet> EvaluateAtRoot(const XmlTree& tree, const PathPtr& p) {
  if (tree.empty()) return Status::InvalidArgument("empty document");
  return EvaluateAtNode(tree, p, tree.root());
}

}  // namespace secview
