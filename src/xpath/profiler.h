#ifndef SECVIEW_XPATH_PROFILER_H_
#define SECVIEW_XPATH_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/alloc_tracker.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "xpath/evaluator.h"

namespace secview {

struct CompiledPlan;

/// The costs of one plan step. In a StepProfile the counters are
/// *exclusive* (self) costs — work charged to this step and not to any
/// nested step — so summing a field over the whole tree reproduces the
/// evaluator's aggregate EvalCounters exactly; `total_nanos` is the only
/// inclusive field (children included), mirroring EXPLAIN ANALYZE's
/// "actual time".
struct StepCosts {
  uint64_t invocations = 0;      ///< times this step ran
  uint64_t in_cardinality = 0;   ///< sum of context-set sizes
  uint64_t out_cardinality = 0;  ///< sum of result-set sizes (preds: hits)
  uint64_t nodes_touched = 0;    ///< self tree-node inspections
  uint64_t predicate_evals = 0;  ///< self qualifier evaluations
  uint64_t index_scans = 0;      ///< self indexed '//label' answers
  uint64_t sort_skips = 0;       ///< self skipped SortUnique passes
  uint64_t self_nanos = 0;       ///< wall time minus nested steps
  uint64_t total_nanos = 0;      ///< wall time including nested steps
  uint64_t alloc_bytes = 0;      ///< self heap churn (0 w/o alloc tracker)
  uint64_t alloc_count = 0;      ///< self operator-new calls
};

/// One node of an EXPLAIN ANALYZE-style cost tree mirroring the shape of
/// the evaluated plan: one node per plan op or qualifier that ran at
/// least once. CompilePlan lowers every AST occurrence separately, so a
/// subexpression that the AST shares between several positions is
/// profiled once per position.
struct StepProfile : StepCosts {
  /// Canonical step signature, e.g. "child::patient", "descendant::*",
  /// "pred::eq". Stable across runs; PlanProfileTable aggregates by it.
  std::string signature;
  /// Coarse step class: child | descendant | self | empty | compose |
  /// union | filter | predicate. Per-axis metrics aggregate by this.
  std::string axis;

  std::vector<std::unique_ptr<StepProfile>> children;
};

/// Records per-step costs while an XPathEvaluator runs compiled plans.
/// Attach with XPathEvaluator::set_profiler before evaluating; root()
/// then holds the profile tree (a synthetic "query" container; each
/// EvaluateCompiled call adds its plan's tree under it).
///
/// During a call the VM adds each op's and qualifier's *inclusive*
/// deltas into a cell indexed by its id. At the end of the call Fold
/// walks the plan and charges each step its cell minus its children's
/// cells. The evaluator pays one pointer-null compare per op invocation
/// when no profiler is attached; all clock/alloc reads happen in
/// profiled runs only. Not thread-safe: one profiler per evaluator per
/// thread, like the evaluator itself.
class PlanProfiler {
 public:
  /// The evaluator's counters, clock and allocation counts when a
  /// profiled op or qualifier starts (kept on the VM's own stack).
  struct Mark {
    EvalCounters counters;
    std::chrono::steady_clock::time_point start;
    AllocCounts alloc;
  };

  /// A step of the plan tree: op `id`, or qualifier `id` when `qual`.
  struct Position {
    bool qual = false;
    int32_t id = -1;
  };

  PlanProfiler();
  ~PlanProfiler();
  PlanProfiler(const PlanProfiler&) = delete;
  PlanProfiler& operator=(const PlanProfiler&) = delete;

  /// Starts a call: one zeroed cell per op and qualifier of `plan`.
  void Begin(const CompiledPlan& plan);

  /// Reads the state an invocation's deltas are measured from.
  Mark Start(const EvalCounters& counters) const;

  /// Adds one invocation of the step at `at` that started at `mark` and
  /// ended at `counters`, with context size `in` and result size `out`
  /// (a qualifier: 1, and 1 if it held).
  void Add(Position at, const Mark& mark, const EvalCounters& counters,
           size_t in, size_t out);

  /// Ends the call: folds the cells of `plan` into StepProfile nodes
  /// under root(). Steps that never ran get no node.
  void Fold(const CompiledPlan& plan);

  /// The profile collected so far (valid until TakeRoot).
  const StepProfile& root() const { return *root_; }

  /// Moves the collected profile out and resets to an empty root.
  std::unique_ptr<StepProfile> TakeRoot();

 private:
  const StepCosts& CellAt(Position at) const {
    return at.qual ? qual_cells_[at.id] : op_cells_[at.id];
  }
  std::unique_ptr<StepProfile> FoldStep(const CompiledPlan& plan,
                                        Position at) const;

  std::unique_ptr<StepProfile> root_;
  /// Per-call cells, indexed by op / qualifier id. Their counts are
  /// inclusive sums (self_nanos unused) until FoldStep copies and
  /// subtracts them.
  std::vector<StepCosts> op_cells_;
  std::vector<StepCosts> qual_cells_;
  bool track_alloc_;
};

/// Aggregate exclusive costs over a profile tree. By construction these
/// equal the evaluator's EvalCounters deltas for the profiled calls
/// (minus budget_checks, which the profiler does not attribute).
EvalCounters ProfileTotals(const StepProfile& root);

/// The step with the largest exclusive nodes_touched (ties: largest
/// self_nanos), skipping the synthetic root; nullptr for an empty
/// profile.
const StepProfile* HottestStep(const StepProfile& root);

/// One-line hot-step summary for slow-query-log entries and request
/// traces: "child::patient nodes=123". Empty for an empty profile.
std::string HotStepLine(const StepProfile& root);

/// Indented per-step cost table (the CLI `--profile` rendering).
std::string StepProfileText(const StepProfile& root);

/// Recursive plan object of the secview.profile.v1 schema.
obs::Json StepProfileJson(const StepProfile& step);

/// One secview.profile.v1 JSONL line: schema tag, policy, query,
/// unix_micros, hot_step, aggregate counters, and the plan tree.
/// docs/observability.md documents the schema;
/// obs::ValidateProfileLine checks it.
obs::Json ProfileLineJson(const StepProfile& root, std::string_view policy,
                          std::string_view query, int64_t unix_micros);

/// Flattens a profile tree into per-signature records (same-signature
/// steps merged, synthetic root skipped) for PlanProfileTable::Record.
std::vector<obs::PlanStepRecord> FlattenStepProfile(const StepProfile& root);

/// Adds the tree's exclusive costs to per-axis instruments:
/// `eval.axis.<axis>.nodes` / `eval.axis.<axis>.micros` counters plus an
/// `eval.axis.<axis>.step_micros` histogram observing each step's self
/// time. Called once per profiled query.
void FlushStepProfileMetrics(const StepProfile& root,
                             obs::MetricsRegistry& metrics);

}  // namespace secview

#endif  // SECVIEW_XPATH_PROFILER_H_
