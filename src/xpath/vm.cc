// Compiled-plan executor (the VM half of xpath/plan.h): runs the flat
// step bytecode produced by CompilePlan over pooled NodeSet buffers.
//
// Parity contract: every op here reproduces its xpath/evaluator.cc
// counterpart *exactly* — the same counter increments in the same
// order, the same BudgetTripped checkpoints, the same SortUnique-skip
// condition, and the same profiler frame structure (an op whose context
// is empty opens no frame, like Eval's early return). The differential
// harness (tests/plan_test.cc, fuzz/fuzz_plan_diff.cc) holds both
// implementations to identical NodeSets, statuses, and EvalCounters;
// any change to one side must land on both.

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
  // plan constants -> bound strings. Same first-match-wins rule as
  // BindParams, so both paths read identical comparison values.
  std::vector<int>& labels = scratch->label_slots();
  labels.clear();
  for (const std::string& label : plan.labels) {
    labels.push_back(tree_->FindLabelId(label));
  }
  std::vector<const std::string*>& consts = scratch->const_slots();
  consts.clear();
  for (const CompiledPlan::Const& c : plan.consts) {
    if (!c.is_param) {
      consts.push_back(&c.value);
      continue;
    }
    const std::string* bound = nullptr;
    for (const auto& [name, value] : bindings) {
      if (name == c.value) {
        bound = &value;
        break;
      }
    }
    if (bound == nullptr) {
      // Message parity with Evaluate() on an unbound AST, so the
      // differential harness can compare statuses verbatim.
      return Status::FailedPrecondition(
          "query contains unbound $parameters; call BindParams first");
    }
    consts.push_back(bound);
  }

  plan_ = &plan;
  scratch_ = scratch;
  plan_labels_ = labels.data();
  plan_consts_ = consts.data();

  EvalCounters before = counters_;
  NodeSet result;
  {
    BorrowedSet out(*scratch);
    RunOp(plan.root, context, *out);
    result = std::move(*out);
  }

  plan_ = nullptr;
  scratch_ = nullptr;
  plan_labels_ = nullptr;
  plan_consts_ = nullptr;

  FlushDelta(before);
  if (metrics_ != nullptr) metrics_->compiled_queries->Add();
  if (budget_ != nullptr) {
    SECVIEW_RETURN_IF_ERROR(FinishBudget());
  }
  return result;
}

// Mirrors Eval(): an empty context short-circuits before the budget
// checkpoint and opens no profiler frame.
void XPathEvaluator::RunOp(int32_t op_idx, const NodeSet& ctx, NodeSet& out) {
  out.clear();
  if (ctx.empty()) return;
  if (BudgetTripped()) return;
  if (profiler_ == nullptr) {
    RunOpStep(op_idx, ctx, out);
    return;
  }
  profiler_->EnterPath(plan_->ops[op_idx].ast, counters_, ctx.size());
  RunOpStep(op_idx, ctx, out);
  profiler_->Exit(counters_, out.size());
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

bool XPathEvaluator::RunQual(int32_t q_idx, NodeId node) {
  if (BudgetTripped()) return false;
  if (profiler_ == nullptr) return RunQualStep(q_idx, node);
  profiler_->EnterQual(plan_->quals[q_idx].ast, counters_);
  bool result = RunQualStep(q_idx, node);
  profiler_->Exit(counters_, result ? 1 : 0);
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
      RunOp(q.path, *ctx, *reached);
      return !reached->empty();
    }
    case QualKind::kPathEqConst: {
      BorrowedSet ctx(*scratch_);
      BorrowedSet reached(*scratch_);
      ctx->push_back(node);
      RunOp(q.path, *ctx, *reached);
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
