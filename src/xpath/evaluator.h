#ifndef SECVIEW_XPATH_EVALUATOR_H_
#define SECVIEW_XPATH_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "xml/tree.h"
#include "xpath/ast.h"

namespace secview {

/// A set of element nodes, sorted by NodeId (== document order), no
/// duplicates.
using NodeSet = std::vector<NodeId>;

class PlanProfiler;
struct CompiledPlan;
class EvalScratch;

/// Machine-independent evaluation costs, accumulated across calls until
/// ResetWork(). `nodes_touched` is the paper's node-visit count; the
/// others break the same work down for observability.
struct EvalCounters {
  uint64_t nodes_touched = 0;    ///< tree nodes inspected
  uint64_t predicate_evals = 0;  ///< qualifier evaluations at a node
  uint64_t sort_skips = 0;       ///< child steps that skipped SortUnique
  uint64_t budget_checks = 0;    ///< strided QueryBudget charge points
};

/// The registry counters an evaluator flushes its EvalCounters into,
/// resolved once per registry (Resolve takes the registry's lock and
/// string lookups; the evaluator's flush then only does atomic adds).
struct EvalMetrics {
  obs::Counter* nodes_touched = nullptr;     ///< eval.nodes_touched
  obs::Counter* predicate_evals = nullptr;   ///< eval.predicate_evals
  obs::Counter* sort_skips = nullptr;        ///< eval.sort_skips
  obs::Counter* budget_checks = nullptr;     ///< xpath.budget_checks
  obs::Counter* compiled_queries = nullptr;  ///< eval.compiled_queries

  static EvalMetrics Resolve(obs::MetricsRegistry& registry);
};

/// The serving evaluator for the paper's XPath fragment over one
/// XmlTree: it runs compiled plans (xpath/plan.h) on the bytecode VM in
/// xpath/vm.cc. The result of evaluating p at context v is v[[p]]: the
/// set of element nodes reachable via p from v (Section 2). `[p = c]`
/// compares the concatenated text content of the reached elements with
/// c, which coincides with the paper's text-node formulation because
/// PCDATA only occurs under str-typed elements.
///
/// The VM is the only evaluator that counts (EvalCounters, eval.*
/// metrics), charges a QueryBudget, feeds a PlanProfiler and reads the
/// tree's PathSummary. The reference walk at the end of this header
/// answers the same queries with none of that, for tests and oracles.
class XPathEvaluator {
 public:
  explicit XPathEvaluator(const XmlTree& tree) : tree_(&tree) {}

  /// Compiles `p` and runs the plan at a single context node. Fails with
  /// InvalidArgument on a null query and FailedPrecondition if `p` still
  /// contains unbound $parameters.
  Result<NodeSet> Evaluate(const PathPtr& p, NodeId context);

  /// Same, at a set of context nodes (in any order; duplicates count
  /// once).
  Result<NodeSet> Evaluate(const PathPtr& p, const NodeSet& context);

  /// Executes a compiled plan over pooled NodeSet buffers from
  /// `scratch`. `bindings` resolve the plan's $parameter constants per
  /// call through BindPlanConsts, first match wins (the plan itself
  /// stays unbound, so cached plans serve every binding set). `scratch`
  /// defaults to the calling thread's EvalScratch::ThreadLocal(). A
  /// context that is not sorted and duplicate-free is sorted and
  /// deduplicated on entry, so the answer is the union of the answers at
  /// its nodes. Fails with FailedPrecondition when a $parameter is
  /// unbound.
  Result<NodeSet> EvaluateCompiled(
      const CompiledPlan& plan, NodeId context,
      const std::vector<std::pair<std::string, std::string>>& bindings = {},
      EvalScratch* scratch = nullptr);
  Result<NodeSet> EvaluateCompiled(
      const CompiledPlan& plan, const NodeSet& context,
      const std::vector<std::pair<std::string, std::string>>& bindings = {},
      EvalScratch* scratch = nullptr);

  /// Attaches pre-resolved registry counters: every public
  /// Evaluate/EvaluateCompiled call flushes the counters it accumulated
  /// into them (EvalMetrics names each one) and bumps
  /// `eval.compiled_queries`. The hot loops only bump plain fields; the
  /// atomic adds happen once per call. The struct must outlive the
  /// evaluator's use of it; nullptr detaches.
  void set_metrics(const EvalMetrics* metrics) { metrics_ = metrics; }

  /// Attaches a cooperative budget: evaluation charges node visits to it
  /// every QueryBudget::kNodeStride touches and unwinds with the budget's
  /// error (DeadlineExceeded / ResourceExhausted / Cancelled) once it
  /// trips. The budget must outlive the evaluator's use of it; pass
  /// nullptr to detach. The unbudgeted fast path costs one pointer
  /// compare per checkpoint.
  void set_budget(QueryBudget* budget) {
    budget_ = budget;
    budget_charged_ = counters_.nodes_touched;
    budget_stop_ = false;
    budget_status_ = Status::OK();
  }

  /// Attaches a per-step plan profiler (xpath/profiler.h): every plan
  /// op invocation and qualifier evaluation adds its costs to the cell
  /// of its op id, and each EvaluateCompiled call folds the cells into
  /// an EXPLAIN ANALYZE-style StepProfile tree. Pass nullptr to detach.
  /// The unprofiled fast path costs one pointer compare per op
  /// invocation; results are identical with and without a profiler.
  void set_profiler(PlanProfiler* profiler) { profiler_ = profiler; }

  /// Costs accumulated since construction or ResetWork().
  const EvalCounters& counters() const { return counters_; }
  void ResetWork() { counters_ = {}; }

 private:
  /// One op invocation: an empty context short-circuits before the
  /// budget checkpoint and is not counted by the profiler. Indices address the
  /// plan bound in plan_ for the duration of one EvaluateCompiled call.
  void RunOp(int32_t op, const NodeSet& ctx, NodeSet& out);
  void RunOpStep(int32_t op, const NodeSet& ctx, NodeSet& out);
  void RunLabel(int label_id, const NodeSet& ctx, NodeSet& out);
  void RunWildcard(const NodeSet& ctx, NodeSet& out);
  void RunDescOrSelf(const NodeSet& ctx, NodeSet& out);
  /// Dispatcher/body split, same shape as RunOp/RunOpStep.
  bool RunQual(int32_t q, NodeId node);
  bool RunQualStep(int32_t q, NodeId node);

  /// out = the `candidates` at which qualifier `q` holds, decided by one
  /// semi-join over the path summary when that pays (see vm.cc), else
  /// by RunQual at each candidate.
  void Filter(int32_t q, const NodeSet& candidates, NodeSet& out);
  /// True iff every path leaf of `q` reaches its classes from class
  /// `cls` through child tables alone (see ReachClasses) and `q` has no
  /// attribute test. Adds the leaves' reached extent sizes to `*reached`
  /// and their number to `*leaves`.
  bool SemiJoinDecides(int32_t q, int32_t cls, uint64_t* reached,
                       uint64_t* leaves);
  /// to = the summary classes path op `op` reaches from the classes in
  /// `from` (class ids, sorted), through child label, `*`, `∪`, `.` and
  /// `∅` steps; false when the path has any other step.
  bool ReachClasses(int32_t op, const NodeSet& from, NodeSet& to);
  /// out = the nodes of `candidates` (all of class `cls`) at which `q`
  /// holds, as sets: the profiler counts one invocation of `q`.
  void SemiJoin(int32_t q, int32_t cls, const NodeSet& candidates,
                NodeSet& out);
  void SemiJoinStep(int32_t q, int32_t cls, const NodeSet& candidates,
                    NodeSet& out);
  /// out = the `candidates` that are depth-`depth` ancestors of an
  /// element of class `reached` (whose text equals `*want`, if set).
  void JoinExtent(int32_t reached, int depth, const NodeSet& candidates,
                  const std::string* want, NodeSet& out);

  static void SortUnique(NodeSet& set);

  /// Adds the counter deltas since `before` to the attached counters.
  void FlushDelta(const EvalCounters& before);

  /// Charges uncharged node visits to the budget once kNodeStride have
  /// accumulated. Returns true when evaluation must stop; the verdict is
  /// sticky so deep recursion unwinds without re-checking the clock.
  bool BudgetTripped() {
    if (budget_ == nullptr || budget_stop_) return budget_stop_;
    uint64_t delta = counters_.nodes_touched - budget_charged_;
    if (delta < QueryBudget::kNodeStride) return false;
    ChargeBudget(delta);
    return budget_stop_;
  }

  void ChargeBudget(uint64_t delta);

  /// Charges the final sub-stride remainder and returns the budget's
  /// verdict for this evaluation (OK when nothing tripped).
  Status FinishBudget();

  const XmlTree* tree_;
  EvalCounters counters_;
  const EvalMetrics* metrics_ = nullptr;
  PlanProfiler* profiler_ = nullptr;
  QueryBudget* budget_ = nullptr;
  uint64_t budget_charged_ = 0;
  bool budget_stop_ = false;
  Status budget_status_;

  /// Execution state, valid only during an EvaluateCompiled call: the
  /// plan being run, the scratch arena, and the per-call label/constant
  /// resolutions (slot arrays owned by the scratch, exposed here as raw
  /// pointers for the hot loops).
  const CompiledPlan* plan_ = nullptr;
  EvalScratch* scratch_ = nullptr;
  const int* plan_labels_ = nullptr;
  const std::string* const* plan_consts_ = nullptr;
  /// The tree's path summary, looked up once per EvaluateCompiled call
  /// (its once-flag stays out of the step loop).
  const PathSummary* summary_ = nullptr;
  /// Nesting depth of qualifier paths being run (0 on the main path).
  int qual_depth_ = 0;
};

// ---------------------------------------------------------------------------
// Reference walk (xpath/evaluator.cc)
//
// A plain recursive walk of the AST that states the fragment's semantics
// directly. It has no counters, budget, profiler, metrics or path
// summary, and shares no code with the VM, so it serves as the
// independent answer that the VM is differentially tested against
// (tests/plan_test.cc, fuzz/fuzz_plan_diff.cc) and as the evaluator of
// the oracle paths: MaterializeView, ComputeAccessibility (and with it
// the naive baseline) and the materialize-then-evaluate check. Each
// entry point fails with FailedPrecondition while its input has unbound
// $parameters.

/// Evaluates `p` at the tree root. Fails on an empty document.
Result<NodeSet> EvaluateAtRoot(const XmlTree& tree, const PathPtr& p);

/// Evaluates `p` at one context node.
Result<NodeSet> EvaluateAtNode(const XmlTree& tree, const PathPtr& p,
                               NodeId context);

/// Evaluates a qualifier at one node.
Result<bool> EvaluateQualifierAtNode(const XmlTree& tree, const QualPtr& q,
                                     NodeId node);

}  // namespace secview

#endif  // SECVIEW_XPATH_EVALUATOR_H_
