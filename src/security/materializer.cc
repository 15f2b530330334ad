#include "security/materializer.h"

#include <algorithm>

#include "security/annotator.h"
#include "xpath/evaluator.h"
#include "xpath/printer.h"

namespace secview {

namespace {

class Materializer {
 public:
  Materializer(const XmlTree& doc, const SecurityView& view,
               const AccessibilityLabeling* labeling,
               const std::vector<std::pair<std::string, std::string>>& bindings)
      : doc_(doc), view_(view), labeling_(labeling), bindings_(bindings) {}

  Result<XmlTree> Run() {
    out_.CreateRoot(view_.TypeName(view_.root()));
    out_.SetOrigin(out_.root(), doc_.root());
    CopyVisibleAttributes(doc_.root(), view_.root(), out_.root());
    SECVIEW_RETURN_IF_ERROR(Expand(out_.root(), view_.root(), doc_.root()));
    return std::move(out_);
  }

 private:
  /// Evaluates a (bound) sigma annotation at the origin node.
  Result<NodeSet> EvalSigma(const PathPtr& sigma, NodeId origin) {
    PathPtr bound = BindParams(sigma, bindings_);
    return EvaluateAtNode(doc_, bound, origin);
  }

  bool IsAccessible(NodeId doc_node) const {
    return labeling_ == nullptr || labeling_->accessible[doc_node];
  }

  /// Drops inaccessible nodes unless the target view type is a dummy
  /// (dummies stand for hidden nodes).
  NodeSet FilterAccessible(NodeSet nodes, ViewTypeId child) {
    if (labeling_ == nullptr || view_.type(child).is_dummy) return nodes;
    NodeSet out;
    out.reserve(nodes.size());
    for (NodeId n : nodes) {
      if (labeling_->accessible[n]) out.push_back(n);
    }
    return out;
  }

  /// Copies the origin's attributes onto the view node, minus the ones
  /// the view conceals (none at all for dummies).
  void CopyVisibleAttributes(NodeId origin, ViewTypeId type, NodeId copy) {
    if (view_.type(type).all_attributes_hidden) return;
    for (const auto& [name, value] : doc_.Attributes(origin)) {
      if (view_.IsAttributeHidden(type, name)) continue;
      out_.SetAttribute(copy, name, value);
    }
  }

  Status Abort(ViewTypeId type, const std::string& what) {
    return Status::Aborted("materialization aborted at view type '" +
                           view_.TypeName(type) + "': " + what);
  }

  /// Creates and recursively expands the children of `view_node`
  /// (view type `type`, document origin `origin`).
  Status Expand(NodeId view_node, ViewTypeId type, NodeId origin) {
    const ViewProduction& prod = view_.Production(type);
    switch (prod.kind) {
      case ViewProduction::Kind::kEmpty:
        return Status::OK();
      case ViewProduction::Kind::kText: {
        // Copy the origin's accessible text content.
        for (NodeId c = doc_.first_child(origin); c != kNullNode;
             c = doc_.next_sibling(c)) {
          if (doc_.IsText(c) && IsAccessible(c)) {
            NodeId t = out_.AppendText(view_node, doc_.text(c));
            out_.SetOrigin(t, c);
          }
        }
        return Status::OK();
      }
      case ViewProduction::Kind::kFields: {
        for (const ViewField& field : prod.fields) {
          ViewTypeId child = view_.FindType(field.child);
          SECVIEW_ASSIGN_OR_RETURN(NodeSet nodes,
                                   EvalSigma(field.sigma, origin));
          nodes = FilterAccessible(std::move(nodes), child);
          if (field.mult == ViewField::Multiplicity::kOne &&
              nodes.size() != 1) {
            return Abort(type, "field '" + field.child + "' (sigma = " +
                                   ToXPathString(field.sigma) + ") yielded " +
                                   std::to_string(nodes.size()) +
                                   " nodes, expected exactly 1");
          }
          for (NodeId n : nodes) {
            NodeId child_node = out_.AppendElement(view_node, field.child);
            out_.SetOrigin(child_node, n);
            CopyVisibleAttributes(n, child, child_node);
            SECVIEW_RETURN_IF_ERROR(Expand(child_node, child, n));
          }
        }
        return Status::OK();
      }
      case ViewProduction::Kind::kChoice: {
        int chosen = -1;
        NodeId chosen_node = kNullNode;
        for (size_t i = 0; i < prod.choice.alts.size(); ++i) {
          const ViewChoice::Alt& alt = prod.choice.alts[i];
          ViewTypeId child = view_.FindType(alt.child);
          SECVIEW_ASSIGN_OR_RETURN(NodeSet nodes,
                                   EvalSigma(alt.sigma, origin));
          nodes = FilterAccessible(std::move(nodes), child);
          if (nodes.empty()) continue;
          if (nodes.size() > 1 || chosen != -1) {
            return Abort(type, "disjunction matched more than one child");
          }
          chosen = static_cast<int>(i);
          chosen_node = nodes[0];
        }
        if (chosen == -1) {
          return Abort(type, "no alternative of the disjunction matched");
        }
        const ViewChoice::Alt& alt = prod.choice.alts[chosen];
        ViewTypeId child = view_.FindType(alt.child);
        NodeId child_node = out_.AppendElement(view_node, alt.child);
        out_.SetOrigin(child_node, chosen_node);
        CopyVisibleAttributes(chosen_node, child, child_node);
        return Expand(child_node, child, chosen_node);
      }
    }
    return Status::OK();
  }

  const XmlTree& doc_;
  const SecurityView& view_;
  const AccessibilityLabeling* labeling_;
  const std::vector<std::pair<std::string, std::string>>& bindings_;
  XmlTree out_;
};

}  // namespace

Result<XmlTree> MaterializeView(const XmlTree& doc, const SecurityView& view,
                                const AccessSpec& spec,
                                const MaterializeOptions& options) {
  if (doc.empty()) return Status::InvalidArgument("empty document");

  AccessibilityLabeling labeling;
  const AccessibilityLabeling* labeling_ptr = nullptr;
  if (options.filter_by_accessibility) {
    AccessSpec bound = spec.Bind(options.bindings);
    SECVIEW_ASSIGN_OR_RETURN(labeling, ComputeAccessibility(doc, bound));
    labeling_ptr = &labeling;
  }
  return Materializer(doc, view, labeling_ptr, options.bindings).Run();
}

std::vector<NodeId> CollectViewOrigins(const XmlTree& view_tree,
                                       const SecurityView& view,
                                       bool include_dummies) {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < static_cast<NodeId>(view_tree.node_count()); ++n) {
    if (!view_tree.IsElement(n)) continue;
    if (!include_dummies) {
      ViewTypeId type = view.FindType(view_tree.label(n));
      if (type != kNullViewType && view.type(type).is_dummy) continue;
    }
    if (view_tree.origin(n) != kNullNode) out.push_back(view_tree.origin(n));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace secview
