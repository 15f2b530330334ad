#include "optimize/optimizer.h"

#include <unordered_map>
#include <vector>

#include "optimize/image_graph.h"
#include "optimize/simulation.h"
#include "xpath/printer.h"

namespace secview {

namespace {

/// opt(p', A) per target type, mirroring the rewriter's Translation.
struct OptResult {
  std::vector<std::pair<TypeId, PathPtr>> by_target;

  bool empty() const { return by_target.empty(); }

  PathPtr Total() const {
    std::vector<PathPtr> parts;
    parts.reserve(by_target.size());
    for (const auto& [target, q] : by_target) {
      (void)target;
      parts.push_back(q);
    }
    return MakeUnionAll(std::move(parts));
  }

  void Add(TypeId target, PathPtr q) {
    for (auto& [t, existing] : by_target) {
      if (t == target) {
        existing = MakeUnion(existing, std::move(q));
        return;
      }
    }
    by_target.emplace_back(target, std::move(q));
  }
};

class OptimizeDp {
 public:
  OptimizeDp(const DtdGraph& graph, const DtdPathIndex& index,
             OptimizeStats* stats)
      : graph_(graph),
        dtd_(graph.dtd()),
        index_(index),
        stats_(stats),
        explain_(stats != nullptr && stats->collect_explain) {}

  Result<PathPtr> Run(const PathPtr& p, TypeId a, QueryBudget* budget) {
    budget_ = budget;
    PathPtr normalized = NormalizeQualifierSteps(p);
    PathPtr out = Opt(normalized, a).Total();
    if (!budget_status_.ok()) return budget_status_;
    if (stats_ != nullptr) {
      stats_->dp_path_nodes = memo_.size();
      for (const auto& [expr, per_type] : memo_) {
        (void)expr;
        stats_->dp_entries += per_type.size();
      }
      stats_->output_size = PathSize(out);
    }
    return out;
  }

 private:
  const OptResult& Opt(const PathPtr& p, TypeId a) {
    auto& per_type = memo_[p.get()];
    auto it = per_type.find(a);
    if (it != per_type.end()) return it->second;
    OptResult r = Compute(p, a);
    return per_type.emplace(a, std::move(r)).first->second;
  }

  OptResult Compute(const PathPtr& p, TypeId a) {
    OptResult r;
    // One DP cell = one allocation unit, as in the rewriter's DP.
    if (budget_ != nullptr && budget_status_.ok()) {
      budget_status_ = budget_->ChargeMemory(1);
    }
    if (!budget_status_.ok()) return r;
    switch (p->kind) {
      case PathKind::kEmptySet:
        return r;
      case PathKind::kEpsilon:
        r.Add(a, MakeEpsilon());
        return r;
      case PathKind::kLabel: {
        // Case 2: keep the step only when the DTD admits it
        // (non-existence pruning).
        TypeId c = dtd_.FindType(p->label);
        if (c != kNullType && dtd_.HasChild(a, c)) {
          r.Add(c, p);
        } else if (stats_ != nullptr) {
          ++stats_->nonexistence_prunes;
          if (explain_) {
            stats_->prune_trail.push_back(
                {"nonexistence", dtd_.TypeName(a),
                 "label '" + p->label + "' is not a child of '" +
                     dtd_.TypeName(a) + "' in any instance of the DTD"});
          }
        }
        return r;
      }
      case PathKind::kWildcard: {
        // Case 3: expand '*' into the concrete child labels.
        for (TypeId c : graph_.Children(a)) {
          r.Add(c, MakeLabel(dtd_.TypeName(c)));
        }
        return r;
      }
      case PathKind::kSlash: {
        // Case 4, per target.
        const OptResult first = Opt(p->left, a);
        for (const auto& [mid, q1] : first.by_target) {
          const OptResult& second = Opt(p->right, mid);
          for (const auto& [target, q2] : second.by_target) {
            r.Add(target, MakeSlash(q1, q2));
          }
        }
        return r;
      }
      case PathKind::kDescOrSelf: {
        // Case 5: expand '//' into the precise label paths recrw(A, B).
        for (TypeId b : index_.ReachDescOrSelf(a)) {
          const OptResult& inner = Opt(p->left, b);
          if (inner.empty()) continue;
          PathPtr prefix = index_.RecRw(a, b);
          for (const auto& [target, q] : inner.by_target) {
            r.Add(target, MakeSlash(prefix, q));
          }
        }
        return r;
      }
      case PathKind::kUnion: {
        // Case 6: approximate containment between the branches. Like the
        // paper's Example 5.4, the test runs on the *optimized* branches
        // (p'1, p'2): optimization already pruned structurally-dead arms,
        // so their images compare cleanly; containment of equivalents
        // implies containment of the originals.
        const OptResult left = Opt(p->left, a);
        const OptResult right = Opt(p->right, a);
        ImageGraph g1 = BuildImageGraph(graph_, left.Total(), a);
        ImageGraph g2 = BuildImageGraph(graph_, right.Total(), a);
        if (stats_ != nullptr) ++stats_->simulation_tests;
        if (Simulates(g1, g2)) {  // p1 redundant
          if (stats_ != nullptr) {
            ++stats_->union_prunes;
            if (explain_) {
              stats_->prune_trail.push_back(
                  {"union-simulation", dtd_.TypeName(a),
                   "branch '" + ToXPathString(left.Total()) +
                       "' is contained in '" + ToXPathString(right.Total()) +
                       "' (simulation); the union keeps only the latter"});
            }
          }
          return right;
        }
        if (stats_ != nullptr) ++stats_->simulation_tests;
        if (Simulates(g2, g1)) {  // p2 redundant
          if (stats_ != nullptr) {
            ++stats_->union_prunes;
            if (explain_) {
              stats_->prune_trail.push_back(
                  {"union-simulation", dtd_.TypeName(a),
                   "branch '" + ToXPathString(right.Total()) +
                       "' is contained in '" + ToXPathString(left.Total()) +
                       "' (simulation); the union keeps only the former"});
            }
          }
          return left;
        }
        for (const auto& [target, q] : left.by_target) r.Add(target, q);
        for (const auto& [target, q] : right.by_target) r.Add(target, q);
        return r;
      }
      case PathKind::kQualified: {
        // Case 7: after normalization the qualified path is epsilon.
        QualPtr optimized = OptQual(p->qualifier, a);
        QualPtr simplified = SimplifyQualifier(graph_, optimized, a);
        PathPtr out = MakeQualified(MakeEpsilon(), std::move(simplified));
        if (out->kind != PathKind::kEmptySet) {
          r.Add(a, std::move(out));
        } else if (explain_) {
          stats_->prune_trail.push_back(
              {"qualifier-false", dtd_.TypeName(a),
               "the DTD's constraints decide the qualifier to false at '" +
                   dtd_.TypeName(a) + "'; the qualified step never matches"});
        }
        return r;
      }
    }
    return r;
  }

  /// Optimizes the paths inside a qualifier at context type `a` (the
  /// boolean structure is simplified afterwards by SimplifyQualifier).
  QualPtr OptQual(const QualPtr& q, TypeId a) {
    switch (q->kind) {
      case QualKind::kTrue:
      case QualKind::kFalse:
      case QualKind::kAttrEq:
      case QualKind::kAttrExists:
        return q;
      case QualKind::kPath:
        return MakeQualPath(Opt(q->path, a).Total());
      case QualKind::kPathEqConst:
        return MakeQualEq(Opt(q->path, a).Total(), q->constant, q->is_param);
      case QualKind::kAnd:
        return MakeQualAnd(OptQual(q->left, a), OptQual(q->right, a));
      case QualKind::kOr:
        return MakeQualOr(OptQual(q->left, a), OptQual(q->right, a));
      case QualKind::kNot:
        return MakeQualNot(OptQual(q->left, a));
    }
    return q;
  }

  const DtdGraph& graph_;
  const Dtd& dtd_;
  const DtdPathIndex& index_;
  OptimizeStats* stats_;
  QueryBudget* budget_ = nullptr;
  Status budget_status_;
  const bool explain_;
  std::unordered_map<const PathExpr*, std::unordered_map<TypeId, OptResult>>
      memo_;
};

}  // namespace

Result<QueryOptimizer> QueryOptimizer::Create(const Dtd& dtd) {
  if (!dtd.finalized()) {
    return Status::FailedPrecondition("DTD is not finalized");
  }
  auto graph = std::make_unique<DtdGraph>(dtd);
  SECVIEW_ASSIGN_OR_RETURN(DtdPathIndex index, DtdPathIndex::Compute(*graph));
  return QueryOptimizer(std::move(graph), std::move(index));
}

Result<PathPtr> QueryOptimizer::Optimize(const PathPtr& p,
                                         OptimizeStats* stats,
                                         QueryBudget* budget) const {
  return OptimizeAt(p, dtd().root(), stats, budget);
}

Result<PathPtr> QueryOptimizer::OptimizeAt(const PathPtr& p, TypeId a,
                                           OptimizeStats* stats,
                                           QueryBudget* budget) const {
  if (!p) return Status::InvalidArgument("null query");
  if (a == kNullType || a >= dtd().NumTypes()) {
    return Status::InvalidArgument("invalid context type");
  }
  OptimizeDp dp(*graph_, index_, stats);
  return dp.Run(p, a, budget);
}

Result<bool> IsContainedIn(const DtdGraph& graph, const PathPtr& p1,
                           const PathPtr& p2, TypeId a) {
  if (!p1 || !p2) return Status::InvalidArgument("null query");
  if (graph.IsRecursive()) {
    return Status::FailedPrecondition(
        "the containment test requires a non-recursive DTD");
  }
  if (a == kNullType || a >= graph.dtd().NumTypes()) {
    return Status::InvalidArgument("invalid context type");
  }
  ImageGraph g1 = BuildImageGraph(graph, NormalizeQualifierSteps(p1), a);
  ImageGraph g2 = BuildImageGraph(graph, NormalizeQualifierSteps(p2), a);
  return Simulates(g1, g2);
}

}  // namespace secview
