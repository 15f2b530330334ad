#ifndef SECVIEW_OPTIMIZE_OPTIMIZER_H_
#define SECVIEW_OPTIMIZE_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "dtd/dtd.h"
#include "dtd/graph.h"
#include "optimize/constraints.h"
#include "xpath/ast.h"

namespace secview {

/// What one optimizer run did, for observability: DP-table sizes plus the
/// pruning decisions that make optimized queries cheaper to evaluate.
/// With `collect_explain` set before the run, every pruning decision is
/// additionally recorded with its context and reason for EXPLAIN
/// rendering (engine/explain.h).
struct OptimizeStats {
  size_t dp_path_nodes = 0;        ///< distinct sub-queries memoized
  size_t dp_entries = 0;           ///< filled (sub-query, type) cells
  size_t nonexistence_prunes = 0;  ///< label steps the DTD rules out
  size_t simulation_tests = 0;     ///< containment (simulation) checks run
  size_t union_prunes = 0;         ///< union branches proven redundant
  int output_size = 0;             ///< |optimize(p)| (AST nodes)

  /// Opt-in: the trail allocates strings per pruning decision.
  bool collect_explain = false;

  struct Prune {
    /// "nonexistence" | "union-simulation" | "qualifier-false".
    std::string kind;
    std::string at;  ///< DTD type the sub-query was optimized at
    std::string detail;
  };
  std::vector<Prune> prune_trail;
};

/// Algorithm optimize (paper Fig. 10): rewrites an XPath query into an
/// equivalent but cheaper query over instances of a document DTD, by
///   * pruning sub-queries the DTD makes unsatisfiable (non-existence),
///   * folding qualifiers decided by co-existence / exclusive constraints
///     (Example 5.1, queries Q3/Q4 of the evaluation), and
///   * removing union branches subsumed per the approximate simulation
///     containment test (Proposition 5.1).
/// Wildcards and '//' steps are expanded into the precise label paths the
/// DTD admits, which is where the rewrite-vs-naive speedups of Table 1
/// come from.
///
/// Like the rewriter, the dynamic program is kept per *target type* so
/// that sub-queries optimized for one context type are never evaluated at
/// nodes of another (the paper's factored union can mis-match there).
///
/// The optimizer requires a non-recursive document DTD (recursive DTDs
/// are handled by unfolding upstream, Section 4.2).
class QueryOptimizer {
 public:
  static Result<QueryOptimizer> Create(const Dtd& dtd);

  QueryOptimizer(QueryOptimizer&&) = default;
  QueryOptimizer& operator=(QueryOptimizer&&) = default;

  /// Optimizes `p` for evaluation at root elements. When `stats` is
  /// non-null it receives the DP sizes and pruning counts of this run.
  /// When `budget` is non-null, every filled DP cell charges one
  /// allocation unit and the run aborts with the budget's error once it
  /// trips (same contract as QueryRewriter::Rewrite).
  Result<PathPtr> Optimize(const PathPtr& p, OptimizeStats* stats = nullptr,
                           QueryBudget* budget = nullptr) const;

  /// Optimizes `p` for evaluation at `a` elements.
  Result<PathPtr> OptimizeAt(const PathPtr& p, TypeId a,
                             OptimizeStats* stats = nullptr,
                             QueryBudget* budget = nullptr) const;

  const Dtd& dtd() const { return graph_->dtd(); }
  const DtdGraph& graph() const { return *graph_; }

 private:
  QueryOptimizer(std::unique_ptr<DtdGraph> graph, DtdPathIndex index)
      : graph_(std::move(graph)), index_(std::move(index)) {}

  std::unique_ptr<DtdGraph> graph_;  // owns; DtdPathIndex refers into it
  DtdPathIndex index_;
};

/// The paper's approximate containment test as a public utility: true
/// means p1's result is a subset of p2's on *every* instance of the DTD
/// at A elements (Proposition 5.1); false means "not proven" — the test
/// is sound but incomplete. Requires a non-recursive DTD.
Result<bool> IsContainedIn(const DtdGraph& graph, const PathPtr& p1,
                           const PathPtr& p2, TypeId a);

}  // namespace secview

#endif  // SECVIEW_OPTIMIZE_OPTIMIZER_H_
