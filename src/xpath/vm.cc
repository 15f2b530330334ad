// The serving evaluator (XPathEvaluator, declared in xpath/evaluator.h):
// runs the flat step bytecode produced by CompilePlan over pooled
// NodeSet buffers. This file alone defines what evaluation counts (the
// EvalCounters behind the eval.* metrics), where a QueryBudget is
// charged (every QueryBudget::kNodeStride node visits, plus the tail at
// the end of a call) and what the profiler counts (each op invocation
// with a non-empty context and each qualifier evaluation, at a node or
// over a set by a semi-join, added to the cell of its op id). The
// reference walk in xpath/evaluator.cc checks its answers, not its
// counts.

#include <algorithm>
#include <functional>
#include <span>
#include <string>

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
  m.sort_skips = &registry.GetCounter("eval.sort_skips");
  m.budget_checks = &registry.GetCounter("xpath.budget_checks");
  m.compiled_queries = &registry.GetCounter("eval.compiled_queries");
  return m;
}

Result<NodeSet> XPathEvaluator::Evaluate(const PathPtr& p, NodeId context) {
  if (!p) return Status::InvalidArgument("null query");
  return EvaluateCompiled(*CompilePlan(p), context);
}

Result<NodeSet> XPathEvaluator::Evaluate(const PathPtr& p,
                                         const NodeSet& context) {
  if (!p) return Status::InvalidArgument("null query");
  return EvaluateCompiled(*CompilePlan(p), context);
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

  // Every op relies on a sorted, duplicate-free context: the whole-extent
  // test, the semi-join's merges and RunDescOrSelf's covered_until skip.
  // Any other caller context is normalized here, once.
  BorrowedSet normalized(*scratch);
  const NodeSet* start = &context;
  if (std::ranges::adjacent_find(context, std::greater_equal<>()) !=
      context.end()) {
    normalized->assign(context.begin(), context.end());
    SortUnique(*normalized);
    start = &*normalized;
  }

  EvalCounters before = counters_;
  NodeSet result;
  if (profiler_ != nullptr) profiler_->Begin(plan);
  {
    BorrowedSet out(*scratch);
    RunOp(plan.root, *start, *out);
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
      Filter(op.qual, *candidates, out);
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

// Deciding a filter per class. When every candidate lies in one summary
// class C, each path leaf p of the qualifier reaches, from every
// candidate alike, the elements of the classes R that p reaches from C
// in the summary. Since one class's subtrees are disjoint, each element
// of Extent(R) lies under exactly one element of C, its ancestor at C's
// depth, and reading Extent(R) in document order lists those owners in
// document order too. So [p] holds exactly at the candidates that own
// some element of an R, and [p = c] at those that own one whose text is
// c; `and`, `or` and `not` become sorted ∩, ∪ and − over the
// candidates. The paper decides qualifiers per DTD type (bool([q], A),
// §5.1); this is the same decision per document class, and exact.

void XPathEvaluator::Filter(int32_t q, const NodeSet& candidates,
                            NodeSet& out) {
  if (candidates.empty()) return;
  const int32_t cls = summary_->ClassOf(candidates[0]);
  const bool one_class =
      std::ranges::all_of(candidates, [&](NodeId v) {
        return summary_->ClassOf(v) == cls;
      });
  uint64_t reached = 0;
  uint64_t leaves = 0;
  if (one_class && SemiJoinDecides(q, cls, &reached, &leaves)) {
    // The choice, on exact sizes: with n candidates out of the E
    // elements of C, a per-node walk reaches about reached·n/E extent
    // elements and pays one qualifier dispatch per leaf and candidate,
    // while the semi-join reads all `reached` entries. It wins unless
    // its extra reads, reached·(E-n)/E, outweigh the dispatches it
    // saves. A dispatch (two pooled sets, a RunOp per step, the children
    // walked) costs about kDispatchReads entry reads: on a 4-vCPU x86
    // VM, `.[b]` walked 32 ns per candidate with three children each
    // and semi-joined 9 ns per extent entry. A whole extent (n = E)
    // always semi-joins.
    constexpr double kDispatchReads = 4;
    const double n = static_cast<double>(candidates.size());
    const double e = static_cast<double>(summary_->Extent(cls).size());
    if (static_cast<double>(reached) * (e - n) / e <=
        kDispatchReads * static_cast<double>(leaves) * n) {
      SemiJoin(q, cls, candidates, out);
      return;
    }
  }
  for (NodeId v : candidates) {
    if (RunQual(q, v)) out.push_back(v);
  }
}

bool XPathEvaluator::SemiJoinDecides(int32_t q_idx, int32_t cls,
                                     uint64_t* reached, uint64_t* leaves) {
  const CompiledPlan::Qual& q = plan_->quals[q_idx];
  switch (q.kind) {
    case QualKind::kTrue:
    case QualKind::kFalse:
      return true;
    case QualKind::kPath:
    case QualKind::kPathEqConst: {
      BorrowedSet from(*scratch_);
      BorrowedSet classes(*scratch_);
      from->push_back(cls);
      if (!ReachClasses(q.path, *from, *classes)) return false;
      for (int32_t r : *classes) *reached += summary_->Extent(r).size();
      ++*leaves;
      return true;
    }
    case QualKind::kAnd:
    case QualKind::kOr:
      return SemiJoinDecides(q.left, cls, reached, leaves) &&
             SemiJoinDecides(q.right, cls, reached, leaves);
    case QualKind::kNot:
      return SemiJoinDecides(q.left, cls, reached, leaves);
    case QualKind::kAttrEq:
    case QualKind::kAttrExists:
      return false;
  }
  return false;
}

bool XPathEvaluator::ReachClasses(int32_t op_idx, const NodeSet& from,
                                  NodeSet& to) {
  to.clear();
  const CompiledPlan::Op& op = plan_->ops[op_idx];
  switch (op.code) {
    case CompiledPlan::OpCode::kEmptySet:
      return true;
    case CompiledPlan::OpCode::kEpsilon:
      to.assign(from.begin(), from.end());
      return true;
    case CompiledPlan::OpCode::kLabel: {
      const int label_id = plan_labels_[op.label];
      if (label_id < 0) return true;
      // Distinct classes have distinct child classes, so `to` is
      // duplicate-free; sorting keeps it a set.
      for (int32_t c : from) {
        const int32_t child = summary_->ChildClass(c, label_id);
        if (child >= 0) to.push_back(child);
      }
      std::ranges::sort(to);
      return true;
    }
    case CompiledPlan::OpCode::kWildcard:
      for (int32_t c : from) {
        const std::span<const int32_t> children = summary_->ChildClasses(c);
        to.insert(to.end(), children.begin(), children.end());
      }
      std::ranges::sort(to);
      return true;
    case CompiledPlan::OpCode::kSlash: {
      BorrowedSet mid(*scratch_);
      return ReachClasses(op.left, from, *mid) &&
             ReachClasses(op.right, *mid, to);
    }
    case CompiledPlan::OpCode::kUnion: {
      BorrowedSet a(*scratch_);
      BorrowedSet b(*scratch_);
      if (!ReachClasses(op.left, from, *a) ||
          !ReachClasses(op.right, from, *b)) {
        return false;
      }
      std::set_union(a->begin(), a->end(), b->begin(), b->end(),
                     std::back_inserter(to));
      return true;
    }
    case CompiledPlan::OpCode::kDescOrSelf:
    case CompiledPlan::OpCode::kQualified:
      return false;
  }
  return false;
}

void XPathEvaluator::SemiJoin(int32_t q_idx, int32_t cls,
                              const NodeSet& candidates, NodeSet& out) {
  out.clear();
  if (candidates.empty() || BudgetTripped()) return;
  if (profiler_ == nullptr) {
    SemiJoinStep(q_idx, cls, candidates, out);
    return;
  }
  const PlanProfiler::Mark mark = profiler_->Start(counters_);
  SemiJoinStep(q_idx, cls, candidates, out);
  profiler_->Add({true, q_idx}, mark, counters_, candidates.size(),
                 out.size());
}

void XPathEvaluator::SemiJoinStep(int32_t q_idx, int32_t cls,
                                  const NodeSet& candidates, NodeSet& out) {
  ++counters_.predicate_evals;
  const CompiledPlan::Qual& q = plan_->quals[q_idx];
  switch (q.kind) {
    case QualKind::kTrue:
      out.assign(candidates.begin(), candidates.end());
      return;
    case QualKind::kFalse:
    case QualKind::kAttrEq:  // never semi-joined (SemiJoinDecides)
    case QualKind::kAttrExists:
      return;
    case QualKind::kPath:
    case QualKind::kPathEqConst: {
      BorrowedSet from(*scratch_);
      BorrowedSet classes(*scratch_);
      from->push_back(cls);
      ReachClasses(q.path, *from, *classes);
      const std::string* want = q.kind == QualKind::kPathEqConst
                                    ? plan_consts_[q.constant]
                                    : nullptr;
      const int depth = tree_->depth(candidates[0]);
      BorrowedSet hits(*scratch_);
      BorrowedSet merged(*scratch_);
      for (size_t i = 0; i < classes->size(); ++i) {
        JoinExtent((*classes)[i], depth, candidates, want,
                   i == 0 ? out : *hits);
        if (i == 0) continue;
        merged->clear();
        std::set_union(out.begin(), out.end(), hits->begin(), hits->end(),
                       std::back_inserter(*merged));
        out.swap(*merged);
      }
      return;
    }
    case QualKind::kAnd: {
      // The right operand is decided only where the left one held, as
      // the per-node walk's && does.
      BorrowedSet left(*scratch_);
      SemiJoin(q.left, cls, candidates, *left);
      SemiJoin(q.right, cls, *left, out);
      return;
    }
    case QualKind::kOr: {
      BorrowedSet left(*scratch_);
      BorrowedSet rest(*scratch_);
      BorrowedSet right(*scratch_);
      SemiJoin(q.left, cls, candidates, *left);
      std::set_difference(candidates.begin(), candidates.end(), left->begin(),
                          left->end(), std::back_inserter(*rest));
      SemiJoin(q.right, cls, *rest, *right);
      std::set_union(left->begin(), left->end(), right->begin(),
                     right->end(), std::back_inserter(out));
      return;
    }
    case QualKind::kNot: {
      BorrowedSet held(*scratch_);
      SemiJoin(q.left, cls, candidates, *held);
      std::set_difference(candidates.begin(), candidates.end(), held->begin(),
                          held->end(), std::back_inserter(out));
      return;
    }
  }
}

void XPathEvaluator::JoinExtent(int32_t reached, int depth,
                                const NodeSet& candidates,
                                const std::string* want, NodeSet& out) {
  out.clear();
  const std::span<const NodeId> extent = summary_->Extent(reached);
  const int up = tree_->depth(extent.front()) - depth;
  size_t next = 0;  // first candidate not before the current owner
  for (NodeId v : extent) {
    // One visit per extent entry read, charged at the walk's stride.
    ++counters_.nodes_touched;
    if ((counters_.nodes_touched & (QueryBudget::kNodeStride - 1)) == 0 &&
        BudgetTripped()) {
      return;
    }
    NodeId owner = v;
    for (int i = 0; i < up; ++i) owner = tree_->parent(owner);
    while (next < candidates.size() && candidates[next] < owner) ++next;
    if (next == candidates.size()) return;  // past the last candidate
    if (candidates[next] != owner) continue;
    if (!out.empty() && out.back() == owner) continue;
    if (want == nullptr || tree_->TextEquals(v, *want)) out.push_back(owner);
  }
}

}  // namespace secview
