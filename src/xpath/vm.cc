// The serving evaluator (XPathEvaluator, declared in xpath/evaluator.h):
// runs the flat step bytecode produced by CompilePlan over pooled
// NodeSet buffers. This file alone defines what evaluation counts (the
// EvalCounters behind the eval.* metrics), where a QueryBudget is
// charged (every QueryBudget::kNodeStride node visits, plus the tail at
// the end of a call) and what the profiler counts (each op invocation
// with a non-empty context and each qualifier evaluation, added to the
// cell of its op id). The reference walk in
// xpath/evaluator.cc checks its answers, not its counts.

#include <algorithm>

#include "xml/label_index.h"
#include "xpath/evaluator.h"
#include "xpath/plan.h"
#include "xpath/profiler.h"

namespace secview {

namespace {

/// RAII borrow of a pooled NodeSet: acquired cleared, released with its
/// capacity intact for the next step.
class BorrowedSet {
 public:
  explicit BorrowedSet(EvalScratch& scratch)
      : scratch_(scratch), set_(scratch.AcquireSet()) {}
  ~BorrowedSet() { scratch_.ReleaseSet(set_); }
  BorrowedSet(const BorrowedSet&) = delete;
  BorrowedSet& operator=(const BorrowedSet&) = delete;

  NodeSet& operator*() { return *set_; }
  NodeSet* operator->() { return set_; }

 private:
  EvalScratch& scratch_;
  NodeSet* set_;
};

}  // namespace

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

Result<NodeSet> XPathEvaluator::Evaluate(const PathPtr& p, NodeId context) {
  if (!p) return Status::InvalidArgument("null query");
  return EvaluateCompiled(*CompilePlan(p, {.use_index = index_ != nullptr}),
                          context);
}

Result<NodeSet> XPathEvaluator::Evaluate(const PathPtr& p,
                                         const NodeSet& context) {
  if (!p) return Status::InvalidArgument("null query");
  return EvaluateCompiled(*CompilePlan(p, {.use_index = index_ != nullptr}),
                          context);
}

Result<NodeSet> XPathEvaluator::EvaluateCompiled(
    const CompiledPlan& plan, NodeId context,
    const std::vector<std::pair<std::string, std::string>>& bindings,
    EvalScratch* scratch) {
  if (scratch == nullptr) scratch = &EvalScratch::ThreadLocal();
  BorrowedSet ctx(*scratch);
  ctx->push_back(context);
  return EvaluateCompiled(plan, *ctx, bindings, scratch);
}

Result<NodeSet> XPathEvaluator::EvaluateCompiled(
    const CompiledPlan& plan, const NodeSet& context,
    const std::vector<std::pair<std::string, std::string>>& bindings,
    EvalScratch* scratch) {
  if (plan.root < 0 || plan.ops.empty()) {
    return Status::InvalidArgument("empty compiled plan");
  }
  if (plan.uses_index && index_ == nullptr) {
    return Status::FailedPrecondition(
        "plan was compiled for a label index (use_index) but the "
        "evaluator has none attached");
  }
  if (scratch == nullptr) scratch = &EvalScratch::ThreadLocal();

  // Publish the arena's retained footprint on every exit path so the
  // memory ledger's eval-scratch provider reads a current number; the
  // walk is bounded by the pool depth (deepest plan on this thread).
  struct PublishOnExit {
    EvalScratch* scratch;
    ~PublishOnExit() { scratch->PublishFootprint(); }
  } publish{scratch};

  // Per-call resolution: plan label strings -> this tree's interned
  // ids (one hash lookup per distinct label, not per step invocation),
  // plan constants -> literal or bound strings.
  std::vector<int>& labels = scratch->label_slots();
  labels.clear();
  for (const std::string& label : plan.labels) {
    labels.push_back(tree_->FindLabelId(label));
  }
  std::vector<const std::string*>& consts = scratch->const_slots();
  consts.clear();
  if (!BindPlanConsts(plan, bindings, &consts)) {
    return Status::FailedPrecondition(
        "query contains unbound $parameters; call BindParams first");
  }

  plan_ = &plan;
  scratch_ = scratch;
  plan_labels_ = labels.data();
  plan_consts_ = consts.data();
  summary_ = &tree_->Summary();

  EvalCounters before = counters_;
  NodeSet result;
  if (profiler_ != nullptr) profiler_->Begin(plan);
  {
    BorrowedSet out(*scratch);
    RunOp(plan.root, context, *out);
    result = std::move(*out);
  }
  if (profiler_ != nullptr) profiler_->Fold(plan);

  plan_ = nullptr;
  scratch_ = nullptr;
  plan_labels_ = nullptr;
  plan_consts_ = nullptr;
  summary_ = nullptr;

  FlushDelta(before);
  if (metrics_ != nullptr) metrics_->compiled_queries->Add();
  if (budget_ != nullptr) {
    SECVIEW_RETURN_IF_ERROR(FinishBudget());
  }
  return result;
}

void XPathEvaluator::RunOp(int32_t op_idx, const NodeSet& ctx, NodeSet& out) {
  out.clear();
  if (ctx.empty()) return;
  if (BudgetTripped()) return;
  if (profiler_ == nullptr) {
    RunOpStep(op_idx, ctx, out);
    return;
  }
  const PlanProfiler::Mark mark = profiler_->Start(counters_);
  RunOpStep(op_idx, ctx, out);
  profiler_->Add({false, op_idx}, mark, counters_, ctx.size(), out.size());
}

void XPathEvaluator::RunOpStep(int32_t op_idx, const NodeSet& ctx,
                               NodeSet& out) {
  const CompiledPlan::Op& op = plan_->ops[op_idx];
  switch (op.code) {
    case CompiledPlan::OpCode::kEmptySet:
      return;
    case CompiledPlan::OpCode::kEpsilon:
      out.assign(ctx.begin(), ctx.end());
      return;
    case CompiledPlan::OpCode::kLabel: {
      const int label_id = plan_labels_[op.label];
      if (label_id < 0) return;  // label absent from the document
      RunLabel(label_id, ctx, out);
      return;
    }
    case CompiledPlan::OpCode::kWildcard:
      RunWildcard(ctx, out);
      return;
    case CompiledPlan::OpCode::kSlash: {
      BorrowedSet mid(*scratch_);
      RunOp(op.left, ctx, *mid);
      RunOp(op.right, *mid, out);
      return;
    }
    case CompiledPlan::OpCode::kDescOrSelf: {
      BorrowedSet closure(*scratch_);
      RunDescOrSelf(ctx, *closure);
      RunOp(op.left, *closure, out);
      return;
    }
    case CompiledPlan::OpCode::kDescLabelIndexed: {
      const int label_id = plan_labels_[op.label];
      if (label_id < 0) return;
      if (op.qual < 0) {
        RunDescLabelIndexed(label_id, ctx, out);
        return;
      }
      BorrowedSet matches(*scratch_);
      RunDescLabelIndexed(label_id, ctx, *matches);
      for (NodeId v : *matches) {
        if (RunQual(op.qual, v)) out.push_back(v);
      }
      return;
    }
    case CompiledPlan::OpCode::kUnion: {
      BorrowedSet a(*scratch_);
      BorrowedSet b(*scratch_);
      RunOp(op.left, ctx, *a);
      RunOp(op.right, ctx, *b);
      std::set_union(a->begin(), a->end(), b->begin(), b->end(),
                     std::back_inserter(out));
      return;
    }
    case CompiledPlan::OpCode::kQualified: {
      BorrowedSet candidates(*scratch_);
      RunOp(op.left, ctx, *candidates);
      for (NodeId v : *candidates) {
        if (RunQual(op.qual, v)) out.push_back(v);
      }
      return;
    }
  }
}

void XPathEvaluator::RunLabel(int label_id, const NodeSet& ctx, NodeSet& out) {
  // Whole-extent step: when the context is exactly the extent of one
  // path-summary class, its `label_id` children are exactly the extent of
  // that class's child class, already in document order. Steps inside a
  // qualifier are not tested: their context descends from one node, is
  // rarely a whole extent, and the test would cost every qualifier.
  if (qual_depth_ == 0) {
    const int32_t cls = summary_->ClassOf(ctx[0]);
    if (cls >= 0 && std::ranges::equal(ctx, summary_->Extent(cls))) {
      const int32_t child = summary_->ChildClass(cls, label_id);
      if (child < 0) return;
      const std::span<const NodeId> extent = summary_->Extent(child);
      out.assign(extent.begin(), extent.end());
      // One visit per copied entry, charged to the budget like any other.
      counters_.nodes_touched += extent.size();
      ++counters_.sort_skips;
      BudgetTripped();
      return;
    }
  }
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
}

void XPathEvaluator::RunWildcard(const NodeSet& ctx, NodeSet& out) {
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
}

void XPathEvaluator::RunDescOrSelf(const NodeSet& ctx, NodeSet& out) {
  NodeId covered_until = kNullNode;
  for (NodeId v : ctx) {
    if (v < covered_until) continue;  // already inside an emitted subtree
    NodeId end = tree_->SubtreeEnd(v);
    for (NodeId i = v; i < end; ++i) {
      ++counters_.nodes_touched;
      if ((counters_.nodes_touched & (QueryBudget::kNodeStride - 1)) == 0 &&
          BudgetTripped()) {
        return;
      }
      if (tree_->IsElement(i)) out.push_back(i);
    }
    covered_until = end;
  }
}

void XPathEvaluator::RunDescLabelIndexed(int label_id, const NodeSet& ctx,
                                         NodeSet& out) {
  ++counters_.index_scans;
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
}

void XPathEvaluator::SortUnique(NodeSet& set) {
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
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

bool XPathEvaluator::RunQual(int32_t q_idx, NodeId node) {
  if (BudgetTripped()) return false;
  if (profiler_ == nullptr) return RunQualStep(q_idx, node);
  const PlanProfiler::Mark mark = profiler_->Start(counters_);
  const bool result = RunQualStep(q_idx, node);
  profiler_->Add({true, q_idx}, mark, counters_, 1, result ? 1 : 0);
  return result;
}

bool XPathEvaluator::RunQualStep(int32_t q_idx, NodeId node) {
  ++counters_.predicate_evals;
  const CompiledPlan::Qual& q = plan_->quals[q_idx];
  switch (q.kind) {
    case QualKind::kTrue:
      return true;
    case QualKind::kFalse:
      return false;
    case QualKind::kPath: {
      BorrowedSet ctx(*scratch_);
      BorrowedSet reached(*scratch_);
      ctx->push_back(node);
      ++qual_depth_;
      RunOp(q.path, *ctx, *reached);
      --qual_depth_;
      return !reached->empty();
    }
    case QualKind::kPathEqConst: {
      BorrowedSet ctx(*scratch_);
      BorrowedSet reached(*scratch_);
      ctx->push_back(node);
      ++qual_depth_;
      RunOp(q.path, *ctx, *reached);
      --qual_depth_;
      const std::string& want = *plan_consts_[q.constant];
      for (NodeId v : *reached) {
        ++counters_.nodes_touched;
        if (tree_->TextEquals(v, want)) return true;
      }
      return false;
    }
    case QualKind::kAttrEq: {
      auto value = tree_->GetAttribute(node, plan_->attrs[q.attr]);
      return value.has_value() && *value == *plan_consts_[q.constant];
    }
    case QualKind::kAttrExists:
      return tree_->GetAttribute(node, plan_->attrs[q.attr]).has_value();
    case QualKind::kAnd:
      return RunQual(q.left, node) && RunQual(q.right, node);
    case QualKind::kOr:
      return RunQual(q.left, node) || RunQual(q.right, node);
    case QualKind::kNot:
      return !RunQual(q.left, node);
  }
  return false;
}

}  // namespace secview
