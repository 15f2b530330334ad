#include "security/annotator.h"

#include "xpath/evaluator.h"

namespace secview {

int AccessibilityLabeling::CountAccessible() const {
  int count = 0;
  for (bool b : accessible) {
    if (b) ++count;
  }
  return count;
}

Result<AccessibilityLabeling> ComputeAccessibility(const XmlTree& tree,
                                                   const AccessSpec& spec) {
  if (spec.HasUnboundParams()) {
    return Status::FailedPrecondition(
        "access specification has unbound $parameters; bind them first");
  }
  if (tree.empty()) {
    return Status::InvalidArgument("empty document");
  }

  const Dtd& dtd = spec.dtd();
  const size_t n = tree.node_count();
  AccessibilityLabeling labeling;
  labeling.accessible.assign(n, false);

  // anc_quals_ok[v]: the qualifiers of every qualifier-annotated ancestor
  // of v (strictly above v) hold. Computed top-down; nodes are in document
  // order so parents precede children.
  std::vector<bool> anc_quals_ok(n, true);

  // Root: annotated Y by default, no ancestors.
  labeling.accessible[tree.root()] = true;

  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (v == tree.root()) continue;
    NodeId parent = tree.parent(v);
    TypeId parent_type = dtd.FindType(tree.label(parent));

    std::optional<Annotation> ann;
    if (parent_type != kNullType) {
      if (tree.IsText(v)) {
        ann = spec.GetText(parent_type);
      } else {
        TypeId type = dtd.FindType(tree.label(v));
        if (type != kNullType) ann = spec.Get(parent_type, type);
      }
    }

    bool anc_ok = anc_quals_ok[parent];
    bool qual_here = true;  // this node's own qualifier, if any

    if (!ann.has_value()) {
      // Inheritance: accessibility of the parent.
      labeling.accessible[v] = labeling.accessible[parent];
    } else {
      switch (ann->kind) {
        case AnnotationKind::kNo:
          labeling.accessible[v] = false;
          break;
        case AnnotationKind::kYes:
          labeling.accessible[v] = anc_ok;
          break;
        case AnnotationKind::kQualifier: {
          SECVIEW_ASSIGN_OR_RETURN(
              bool holds, EvaluateQualifierAtNode(tree, ann->qualifier, v));
          qual_here = holds;
          labeling.accessible[v] = anc_ok && holds;
          break;
        }
      }
    }
    // Descendants must additionally satisfy this node's qualifier.
    anc_quals_ok[v] = anc_ok && qual_here;
  }

  return labeling;
}

}  // namespace secview
