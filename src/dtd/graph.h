#ifndef SECVIEW_DTD_GRAPH_H_
#define SECVIEW_DTD_GRAPH_H_

#include <vector>

#include "dtd/dtd.h"

namespace secview {

/// The DTD graph of a finalized Dtd (Section 2): one node per element
/// type, an edge A -> B for each type B in A's production. Precomputes the
/// structural queries the security-view algorithms ask repeatedly:
/// recursion, reachability (descendants), and a topological order when the
/// graph is a DAG.
///
/// The graph keeps a reference to the Dtd; the Dtd must outlive it.
class DtdGraph {
 public:
  explicit DtdGraph(const Dtd& dtd);

  const Dtd& dtd() const { return *dtd_; }

  /// Distinct child types of `id` (adjacency list).
  const std::vector<TypeId>& Children(TypeId id) const {
    return children_[id];
  }

  /// Distinct parent types of `id` (reverse adjacency list).
  const std::vector<TypeId>& Parents(TypeId id) const { return parents_[id]; }

  /// True iff the DTD graph has a cycle, i.e., the DTD is recursive.
  bool IsRecursive() const { return recursive_; }

  /// True iff type `id` lies on a cycle (is defined in terms of itself,
  /// directly or indirectly).
  bool IsRecursiveType(TypeId id) const { return on_cycle_[id]; }

  /// True iff `to` is reachable from `from` via one or more edges.
  bool ReachableStrict(TypeId from, TypeId to) const;

  /// True iff `to` is reachable from `from` via zero or more edges
  /// (descendant-or-self, matching the paper's '//').
  bool Reachable(TypeId from, TypeId to) const {
    return from == to || ReachableStrict(from, to);
  }

  /// All types reachable from `from`: `from` itself first, then the
  /// others in id order.
  const std::vector<TypeId>& DescendantsOrSelf(TypeId from) const {
    return desc_or_self_[from];
  }

  /// Types unreachable from the root (dead element types).
  std::vector<TypeId> UnreachableFromRoot() const;

  /// A topological order (parents before children). Only valid when
  /// !IsRecursive(); empty otherwise.
  const std::vector<TypeId>& TopologicalOrder() const { return topo_; }

 private:
  void ComputeCycles();
  void ComputeReachability();

  const Dtd* dtd_;
  std::vector<std::vector<TypeId>> children_;
  std::vector<std::vector<TypeId>> parents_;
  std::vector<bool> on_cycle_;
  bool recursive_ = false;
  std::vector<TypeId> topo_;
  // reach_[a] is a bitset (as vector<bool>) of types reachable from a via
  // one or more edges.
  std::vector<std::vector<bool>> reach_;
  std::vector<std::vector<TypeId>> desc_or_self_;
};

}  // namespace secview

#endif  // SECVIEW_DTD_GRAPH_H_
