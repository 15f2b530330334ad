#include "xpath/evaluator.h"

#include <algorithm>

#include "xml/label_index.h"
#include "xpath/profiler.h"

namespace secview {

Result<NodeSet> XPathEvaluator::Evaluate(const PathPtr& p, NodeId context) {
  NodeSet ctx{context};
  return Evaluate(p, ctx);
}

Result<NodeSet> XPathEvaluator::Evaluate(const PathPtr& p,
                                         const NodeSet& context) {
  if (!p) return Status::InvalidArgument("null query");
  if (HasUnboundParams(p)) {
    return Status::FailedPrecondition(
        "query contains unbound $parameters; call BindParams first");
  }
  EvalCounters before = counters_;
  NodeSet result = Eval(p, context);
  FlushDelta(before);
  if (budget_ != nullptr) {
    SECVIEW_RETURN_IF_ERROR(FinishBudget());
  }
  return result;
}

Result<bool> XPathEvaluator::EvaluateQualifier(const QualPtr& q, NodeId node) {
  if (!q) return Status::InvalidArgument("null qualifier");
  if (HasUnboundParams(q)) {
    return Status::FailedPrecondition(
        "qualifier contains unbound $parameters; call BindParams first");
  }
  EvalCounters before = counters_;
  bool result = EvalQual(q, node);
  FlushDelta(before);
  if (budget_ != nullptr) {
    SECVIEW_RETURN_IF_ERROR(FinishBudget());
  }
  return result;
}

void XPathEvaluator::ChargeBudget(uint64_t delta) {
  budget_charged_ = counters_.nodes_touched;
  ++counters_.budget_checks;
  Status st = budget_->ChargeNodes(delta);
  if (!st.ok()) {
    budget_stop_ = true;
    budget_status_ = std::move(st);
  }
}

Status XPathEvaluator::FinishBudget() {
  // Charge the sub-stride tail so small budgets trip deterministically
  // even on queries that never cross a stride boundary.
  if (!budget_stop_) {
    ChargeBudget(counters_.nodes_touched - budget_charged_);
  }
  return budget_status_;
}

EvalMetrics EvalMetrics::Resolve(obs::MetricsRegistry& registry) {
  EvalMetrics m;
  m.nodes_touched = &registry.GetCounter("eval.nodes_touched");
  m.predicate_evals = &registry.GetCounter("eval.predicate_evals");
  m.index_scans = &registry.GetCounter("eval.index_scans");
  m.sort_skips = &registry.GetCounter("eval.sort_skips");
  m.budget_checks = &registry.GetCounter("xpath.budget_checks");
  m.compiled_queries = &registry.GetCounter("eval.compiled_queries");
  return m;
}

void XPathEvaluator::FlushDelta(const EvalCounters& before) {
  if (metrics_ == nullptr) return;
  if (uint64_t d = counters_.nodes_touched - before.nodes_touched; d > 0) {
    metrics_->nodes_touched->Add(d);
  }
  if (uint64_t d = counters_.predicate_evals - before.predicate_evals; d > 0) {
    metrics_->predicate_evals->Add(d);
  }
  if (uint64_t d = counters_.index_scans - before.index_scans; d > 0) {
    metrics_->index_scans->Add(d);
  }
  if (uint64_t d = counters_.sort_skips - before.sort_skips; d > 0) {
    metrics_->sort_skips->Add(d);
  }
  if (uint64_t d = counters_.budget_checks - before.budget_checks; d > 0) {
    metrics_->budget_checks->Add(d);
  }
}

void XPathEvaluator::SortUnique(NodeSet& set) {
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
}

NodeSet XPathEvaluator::Eval(const PathPtr& p, const NodeSet& ctx) {
  if (ctx.empty()) return {};
  if (BudgetTripped()) return {};
  // Unprofiled fast path: one predictable branch, nothing else — the
  // profiler's clocks and bookkeeping only exist behind it.
  if (profiler_ == nullptr) return EvalStep(p, ctx);
  profiler_->EnterPath(p.get(), counters_, ctx.size());
  NodeSet out = EvalStep(p, ctx);
  profiler_->Exit(counters_, out.size());
  return out;
}

NodeSet XPathEvaluator::EvalStep(const PathPtr& p, const NodeSet& ctx) {
  switch (p->kind) {
    case PathKind::kEmptySet:
      return {};
    case PathKind::kEpsilon:
      return ctx;
    case PathKind::kLabel: {
      int label_id = tree_->FindLabelId(p->label);
      if (label_id < 0) return {};  // label absent from the document
      return EvalLabel(label_id, ctx);
    }
    case PathKind::kWildcard:
      return EvalWildcard(ctx);
    case PathKind::kSlash: {
      NodeSet mid = Eval(p->left, ctx);
      return Eval(p->right, mid);
    }
    case PathKind::kDescOrSelf: {
      // Indexed fast path for '//label' (with or without a qualifier):
      // the descendants of each context subtree carrying the label are a
      // binary-searchable slice of the index's posting list.
      if (index_ != nullptr) {
        const PathPtr& step = p->left;
        const PathPtr* label_part = &step;
        if (step->kind == PathKind::kQualified) label_part = &step->left;
        if ((*label_part)->kind == PathKind::kLabel) {
          int label_id = tree_->FindLabelId((*label_part)->label);
          if (label_id < 0) return {};
          NodeSet matches = EvalDescLabelIndexed(label_id, ctx);
          if (step->kind != PathKind::kQualified) return matches;
          NodeSet out;
          out.reserve(matches.size());
          for (NodeId v : matches) {
            if (EvalQual(step->qualifier, v)) out.push_back(v);
          }
          return out;
        }
      }
      NodeSet closure = EvalDescOrSelf(ctx);
      return Eval(p->left, closure);
    }
    case PathKind::kUnion: {
      NodeSet a = Eval(p->left, ctx);
      NodeSet b = Eval(p->right, ctx);
      NodeSet out;
      out.reserve(a.size() + b.size());
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(out));
      return out;
    }
    case PathKind::kQualified: {
      NodeSet candidates = Eval(p->left, ctx);
      NodeSet out;
      out.reserve(candidates.size());
      for (NodeId v : candidates) {
        if (EvalQual(p->qualifier, v)) out.push_back(v);
      }
      return out;
    }
  }
  return {};
}

NodeSet XPathEvaluator::EvalLabel(int label_id, const NodeSet& ctx) {
  NodeSet out;
  for (NodeId v : ctx) {
    if (BudgetTripped()) break;
    if (!tree_->IsElement(v)) continue;
    for (NodeId c = tree_->first_child(v); c != kNullNode;
         c = tree_->next_sibling(c)) {
      ++counters_.nodes_touched;
      if (tree_->IsElement(c) && tree_->label_id(c) == label_id) {
        out.push_back(c);
      }
    }
  }
  // Context nodes may be nested within each other, in which case the
  // concatenated child lists are not globally sorted. A single context
  // node's child list is already in document order and duplicate-free.
  if (ctx.size() == 1) {
    ++counters_.sort_skips;
  } else {
    SortUnique(out);
  }
  return out;
}

NodeSet XPathEvaluator::EvalWildcard(const NodeSet& ctx) {
  NodeSet out;
  for (NodeId v : ctx) {
    if (BudgetTripped()) break;
    if (!tree_->IsElement(v)) continue;
    for (NodeId c = tree_->first_child(v); c != kNullNode;
         c = tree_->next_sibling(c)) {
      ++counters_.nodes_touched;
      if (tree_->IsElement(c)) out.push_back(c);
    }
  }
  if (ctx.size() == 1) {
    ++counters_.sort_skips;
  } else {
    SortUnique(out);
  }
  return out;
}

NodeSet XPathEvaluator::EvalDescLabelIndexed(int label_id,
                                             const NodeSet& ctx) {
  ++counters_.index_scans;
  // '//l' selects l-children of the descendant-or-self closure — i.e.,
  // l-labeled strict descendants of ctx nodes, plus l-labeled ctx
  // children of... precisely: nodes labeled l whose parent is in the
  // closure, which is every l node inside a ctx subtree except a ctx
  // node that is itself the subtree root. Since the root of the range is
  // never a child of a closure member unless nested in another ctx
  // subtree (ranges below handle that by skipping covered ranges), drop
  // the range's own first element when it equals the subtree root.
  NodeSet out;
  NodeId covered_until = kNullNode;
  for (NodeId v : ctx) {
    if (BudgetTripped()) break;
    if (v < covered_until) continue;
    NodeId end = tree_->SubtreeEnd(v);
    auto [first, last] = index_->Range(label_id, v, end);
    for (const NodeId* it = first; it != last; ++it) {
      ++counters_.nodes_touched;
      if (*it == v) continue;  // the subtree root is not its own child
      out.push_back(*it);
    }
    covered_until = end;
  }
  return out;
}

NodeSet XPathEvaluator::EvalDescOrSelf(const NodeSet& ctx) {
  // ctx is sorted; overlapping subtree ranges are skipped by tracking the
  // end of the last emitted range. Output is sorted by construction.
  NodeSet out;
  NodeId covered_until = kNullNode;
  for (NodeId v : ctx) {
    if (v < covered_until) continue;  // already inside an emitted subtree
    NodeId end = tree_->SubtreeEnd(v);
    for (NodeId i = v; i < end; ++i) {
      ++counters_.nodes_touched;
      if ((counters_.nodes_touched & (QueryBudget::kNodeStride - 1)) == 0 &&
          BudgetTripped()) {
        return out;
      }
      if (tree_->IsElement(i)) out.push_back(i);
    }
    covered_until = end;
  }
  return out;
}

bool XPathEvaluator::EvalQual(const QualPtr& q, NodeId node) {
  if (BudgetTripped()) return false;
  if (profiler_ == nullptr) return EvalQualStep(q, node);
  profiler_->EnterQual(q.get(), counters_);
  bool result = EvalQualStep(q, node);
  profiler_->Exit(counters_, result ? 1 : 0);
  return result;
}

bool XPathEvaluator::EvalQualStep(const QualPtr& q, NodeId node) {
  ++counters_.predicate_evals;
  switch (q->kind) {
    case QualKind::kTrue:
      return true;
    case QualKind::kFalse:
      return false;
    case QualKind::kPath: {
      NodeSet ctx{node};
      return !Eval(q->path, ctx).empty();
    }
    case QualKind::kPathEqConst: {
      NodeSet ctx{node};
      NodeSet reached = Eval(q->path, ctx);
      for (NodeId v : reached) {
        ++counters_.nodes_touched;
        if (tree_->CollectText(v) == q->constant) return true;
      }
      return false;
    }
    case QualKind::kAttrEq: {
      auto value = tree_->GetAttribute(node, q->attr);
      return value.has_value() && *value == q->constant;
    }
    case QualKind::kAttrExists:
      return tree_->GetAttribute(node, q->attr).has_value();
    case QualKind::kAnd:
      return EvalQual(q->left, node) && EvalQual(q->right, node);
    case QualKind::kOr:
      return EvalQual(q->left, node) || EvalQual(q->right, node);
    case QualKind::kNot:
      return !EvalQual(q->left, node);
  }
  return false;
}

Result<NodeSet> EvaluateAtRoot(const XmlTree& tree, const PathPtr& p) {
  if (tree.empty()) return Status::InvalidArgument("empty document");
  XPathEvaluator evaluator(tree);
  return evaluator.Evaluate(p, tree.root());
}

}  // namespace secview
