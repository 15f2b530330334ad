#ifndef SECVIEW_XPATH_PLAN_H_
#define SECVIEW_XPATH_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "xml/tree.h"
#include "xpath/ast.h"

namespace secview {

/// A query plan compiled once from a rewritten (and optionally
/// optimized) AST: the tree of shared_ptr-linked PathExpr/Qualifier
/// nodes lowered into two flat, contiguous op arrays (`ops` for path
/// steps, `quals` for qualifier sub-programs) that reference each other
/// by index instead of by pointer. Labels, comparison constants, and
/// attribute names are hoisted into per-plan tables so the executor
/// resolves each of them exactly once per evaluation (per tree / per
/// binding set) instead of once per step invocation.
///
/// The plan keeps no pointer into its AST. Every AST occurrence is
/// compiled separately, so ops and quals form a tree (one parent per
/// index): the PlanProfiler counts per id and folds over that tree.
///
/// A CompiledPlan is immutable after CompilePlan returns and carries no
/// document- or binding-specific state:
///
///  * label ids are interned *per tree*, so the plan stores label
///    strings and the VM resolves them to this tree's ids at the start
///    of each EvaluateCompiled call;
///  * `[p = $param]` constants are stored unresolved (`is_param`) and
///    looked up in the caller's bindings per execution (BindPlanConsts),
///    so one cached plan serves every binding set.
///
/// This is what makes it safe to cache the plan next to the rewritten
/// AST in ShardedRewriteCache and share it, read-only, across all
/// serving threads (docs/concurrency.md).
struct CompiledPlan {
  /// Path-step opcodes, one per PathKind,
  /// plus kDescLabelIndexed: the pre-decided index-scan form of
  /// '//label' / '//label[q]' emitted when the plan is compiled for a
  /// LabelIndex (PlanCompileOptions::use_index). Bytecode op reference:
  /// docs/observability.md, "Plan compilation".
  enum class OpCode : uint8_t {
    kEmptySet,          ///< push the empty set
    kEpsilon,           ///< copy the context set
    kLabel,             ///< child step by interned label
    kWildcard,          ///< child step, any element
    kSlash,             ///< compose: left then right
    kDescOrSelf,        ///< descendant-or-self closure, then left
    kDescLabelIndexed,  ///< '//label[q]?' answered from the label index
    kUnion,             ///< left ∪ right (sorted merge)
    kQualified,         ///< left filtered by qualifier program `qual`
  };

  /// One flat path step. Children are `ops` indices (compiled before
  /// their parent, so every reference points backwards).
  struct Op {
    OpCode code;
    int32_t label = -1;  ///< labels[] index (kLabel, kDescLabelIndexed)
    int32_t left = -1;   ///< ops[] index (kSlash/kUnion lhs, unary operand)
    int32_t right = -1;  ///< ops[] index (kSlash/kUnion rhs)
    int32_t qual = -1;   ///< quals[] index (kQualified, kDescLabelIndexed)
  };

  /// One flat qualifier step (the inlined sub-program of a filter op).
  struct Qual {
    QualKind kind;
    int32_t path = -1;      ///< ops[] index (kPath, kPathEqConst)
    int32_t constant = -1;  ///< consts[] index (kPathEqConst, kAttrEq)
    int32_t attr = -1;      ///< attrs[] index (kAttrEq, kAttrExists)
    int32_t left = -1;      ///< quals[] index (kAnd/kOr lhs, kNot operand)
    int32_t right = -1;     ///< quals[] index (kAnd/kOr rhs)
  };

  /// A comparison constant, or (is_param) the name of a $parameter the
  /// VM resolves from the caller's bindings at execution time.
  struct Const {
    std::string value;
    bool is_param = false;
  };

  /// Entry op (always the last op compiled; the arrays are post-order).
  int32_t root = -1;
  std::vector<Op> ops;
  std::vector<Qual> quals;
  /// Deduplicated label strings, resolved to this-tree ids per call.
  std::vector<std::string> labels;
  std::vector<Const> consts;
  std::vector<std::string> attrs;
  /// True iff '//label' steps were lowered to kDescLabelIndexed; such a
  /// plan requires an evaluator with a LabelIndex attached.
  bool uses_index = false;

  /// Approximate resident footprint (tables + strings + this struct),
  /// cached at compile time; drives the engine.plan.cache_bytes gauge
  /// and the rewrite cache's per-shard byte accounting.
  size_t byte_size() const { return byte_size_; }
  size_t byte_size_ = 0;
};

struct PlanCompileOptions {
  /// Lower '//label' (and '//label[q]') steps to index scans. The
  /// resulting plan can only run on an evaluator with a LabelIndex
  /// attached; the engine compiles with the default (false) because it
  /// evaluates against arbitrary caller documents.
  bool use_index = false;
};

/// Lowers `p` into a CompiledPlan. Returns nullptr for a null query.
/// Deterministic and side-effect free; the plan copies what it needs
/// and does not retain the AST.
std::shared_ptr<const CompiledPlan> CompilePlan(
    const PathPtr& p, const PlanCompileOptions& options = {});

/// The one test of whether a plan's `$parameters` are all bound: false
/// as soon as one has no binding. Appends each of `plan.consts`, in
/// order, resolved to `slots` when non-null: a literal to its own text,
/// a parameter to its first binding (first match wins, like
/// BindParams). Execute passes null to refuse an unbound query early.
bool BindPlanConsts(
    const CompiledPlan& plan,
    const std::vector<std::pair<std::string, std::string>>& bindings,
    std::vector<const std::string*>* slots);

/// Reusable evaluation scratch: a pool of NodeSet buffers plus the
/// per-execution label/constant resolution slots, so steady-state
/// compiled evaluation performs no per-step heap allocation — every
/// intermediate context/result set is borrowed from the pool and
/// returned with its capacity intact.
///
/// Not thread-safe: one scratch per thread, like the evaluator itself.
/// EvaluateCompiled defaults to a thread_local instance, which is what
/// gives each QueryWorkerPool worker its own warm arena. Buffers are
/// retained for the lifetime of the scratch (bounded by the deepest
/// plan evaluated on the thread); lifecycle details are documented in
/// docs/observability.md, "Plan compilation".
class EvalScratch {
 public:
  EvalScratch();
  ~EvalScratch();
  EvalScratch(const EvalScratch&) = delete;
  EvalScratch& operator=(const EvalScratch&) = delete;

  /// The calling thread's shared scratch arena.
  static EvalScratch& ThreadLocal();

  /// Borrows a cleared buffer (capacity retained from earlier use).
  std::vector<NodeId>* AcquireSet() {
    if (free_.empty()) {
      owned_.push_back(std::make_unique<std::vector<NodeId>>());
      return owned_.back().get();
    }
    std::vector<NodeId>* set = free_.back();
    free_.pop_back();
    set->clear();
    return set;
  }

  /// Returns a borrowed buffer to the pool.
  void ReleaseSet(std::vector<NodeId>* set) { free_.push_back(set); }

  /// Per-execution resolution slots (plan label -> this tree's interned
  /// id; plan const -> bound string). Reused across calls.
  std::vector<int>& label_slots() { return label_slots_; }
  std::vector<const std::string*>& const_slots() { return const_slots_; }

  /// Buffers ever created (pool high-water mark, for tests).
  size_t pooled_sets() const { return owned_.size(); }

  /// Retained heap behind this scratch (pooled buffer capacities plus
  /// the slot vectors), computed by walking owned_ — owner thread only.
  size_t FootprintBytes() const;

  /// Publishes FootprintBytes() to a cross-thread-readable atomic. The
  /// evaluator calls this once per compiled evaluation (cheap: the pool
  /// is bounded by the deepest plan), so the memory ledger can sum all
  /// threads' warm arenas without racing their owners.
  void PublishFootprint() {
    published_bytes_.store(FootprintBytes(), std::memory_order_relaxed);
  }

  /// Sum of every live scratch's last published footprint, process-wide.
  /// Feeds the "xpath.eval_scratch" memory-ledger provider.
  static size_t TotalPublishedBytes();

 private:
  std::vector<std::unique_ptr<std::vector<NodeId>>> owned_;
  std::vector<std::vector<NodeId>*> free_;
  std::vector<int> label_slots_;
  std::vector<const std::string*> const_slots_;
  /// Owner-written (relaxed), scraper-read; see PublishFootprint.
  std::atomic<size_t> published_bytes_{0};
};

}  // namespace secview

#endif  // SECVIEW_XPATH_PLAN_H_
