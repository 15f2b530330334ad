#ifndef SECVIEW_ENGINE_ENGINE_H_
#define SECVIEW_ENGINE_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "dtd/dtd.h"
#include "engine/rewrite_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimize/optimizer.h"
#include "rewrite/rewriter.h"
#include "security/access_spec.h"
#include "security/security_view.h"
#include "xml/tree.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace secview {

namespace obs {
class AuditSink;
class HealthTracker;
class PlanProfileTable;
class PolicyStatsTable;
class RequestTraceStore;
class SlidingWindowStats;
class SlowQueryLog;
}  // namespace obs

struct QueryExplain;
struct ExplainOptions;
struct StepProfile;

/// Engine-construction knobs (defaults fit tests and the CLI; servers
/// tune them once at startup).
struct EngineOptions {
  /// Lock stripes of each policy's rewrite cache. More shards = less
  /// contention between concurrent cache hits/inserts.
  size_t cache_shards = 8;
  /// Entry budget of each policy's rewrite cache. Every distinct
  /// (query text, effective optimize, unfold depth) triple is one entry,
  /// so the bound is what keeps a hostile query stream from growing the
  /// cache without limit.
  size_t cache_capacity = 1024;
};

/// Per-execution options.
struct ExecuteOptions {
  /// Bindings for the policy's $parameters (e.g. {"wardNo", "3"}).
  std::vector<std::pair<std::string, std::string>> bindings;

  /// Run the DTD-based optimizer over the rewritten query (Section 5).
  /// Ignored (treated as false) when the document DTD is recursive.
  bool optimize = true;

  /// When non-null, Execute records its phase-span tree (parse, unfold,
  /// rewrite, optimize, bind, evaluate) into this trace.
  obs::Trace* trace = nullptr;

  /// When non-null, Execute records exactly one audit event into this
  /// sink — for successes *and* failures. Failed executions carry an
  /// outcome distinguishing "denied" (policy/input failures), "timeout"
  /// (deadline or budget exhausted), and "shed" (cancelled / rejected
  /// under load). See obs/audit.h.
  obs::AuditSink* audit = nullptr;

  /// Per-execution resource budget (all-zero = unlimited, the default).
  /// Enforced cooperatively through rewrite, optimize, and evaluate;
  /// tripping returns kDeadlineExceeded / kResourceExhausted. The
  /// deadline is relative to the start of Execute.
  BudgetLimits limits;

  /// Cooperative cancellation token (common/budget.h). A cancelled
  /// execution returns kCancelled at its next budget checkpoint.
  /// QueryWorkerPool installs its own token for queued tasks.
  CancelToken cancel;

  /// Hardening limits applied when parsing the query text.
  XPathParseLimits parse_limits;

  /// When non-null, Execute additionally fills this with the rewrite
  /// decision trail (see engine/explain.h). Adds a non-cached explain
  /// pass on top of the normal preparation.
  QueryExplain* explain = nullptr;

  /// Collect a per-step plan profile (EXPLAIN ANALYZE) for this
  /// execution: ExecuteResult::profile carries the StepProfile tree,
  /// ExecuteStats::hot_step the hottest step's one-liner, and the
  /// per-axis eval.axis.* metrics are charged. Results are identical
  /// with and without profiling; the off path costs one pointer compare
  /// per plan-node invocation. Profiling is also implied (regardless of
  /// this flag) while a PlanProfileTable is attached.
  bool profile = false;
};

/// Structured per-execution statistics (the successor of the old bare
/// `work` counter). Phase durations are wall-clock microseconds. Each
/// execution prepares its query at most once, so the parse, rewrite and
/// optimize durations, allocations and DP counts are those of that one
/// preparation, and all zero on a cache hit.
struct ExecuteStats {
  /// Evaluator node touches (machine-independent cost).
  uint64_t nodes_touched = 0;
  /// Qualifier evaluations during evaluation.
  uint64_t predicate_evals = 0;
  /// Number of result nodes.
  size_t result_count = 0;
  /// True iff the prepared query came out of the rewrite cache.
  bool cache_hit = false;
  /// Unfolding depth used (0 for non-recursive views).
  int unfold_depth = 0;
  /// |p| after rewriting, before optimization.
  int ast_size_rewritten = 0;
  /// |p| of the query actually evaluated.
  int ast_size_evaluated = 0;
  uint64_t parse_micros = 0;
  uint64_t rewrite_micros = 0;
  uint64_t optimize_micros = 0;
  uint64_t evaluate_micros = 0;

  /// Heap allocation charged to this execution and its phases
  /// (common/alloc_tracker): bytes/calls requested through operator new
  /// on the executing thread — churn, not live memory. All zero when the
  /// tracker is compiled out (AllocTrackingAvailable() == false). The
  /// whole-execution totals also cover work between phases, so they
  /// exceed the phase sum.
  uint64_t alloc_bytes = 0;
  uint64_t alloc_count = 0;
  uint64_t parse_alloc_bytes = 0;
  uint64_t parse_alloc_count = 0;
  uint64_t rewrite_alloc_bytes = 0;
  uint64_t rewrite_alloc_count = 0;
  uint64_t optimize_alloc_bytes = 0;
  uint64_t optimize_alloc_count = 0;
  uint64_t evaluate_alloc_bytes = 0;
  uint64_t evaluate_alloc_count = 0;

  /// DP table sizes and optimizer prune counts of this execution's
  /// preparation. All zero on a cache hit — the work literally did not
  /// happen again.
  uint64_t rewrite_dp_entries = 0;
  uint64_t optimize_dp_entries = 0;
  uint64_t nonexistence_prunes = 0;
  uint64_t simulation_tests = 0;
  uint64_t union_prunes = 0;

  /// Hottest plan step when this execution was profiled (e.g.
  /// "descendant::patient nodes=1234"); empty otherwise. Rides along on
  /// slow-query-log entries and sampled request traces.
  std::string hot_step;
};

/// Execution outcome with provenance, for auditing and the CLI.
struct ExecuteResult {
  /// Result nodes in the *document*, in document order.
  NodeSet nodes;
  /// The query after rewriting over the view (unbound).
  PathPtr rewritten;
  /// The query the evaluated plan was compiled from: the cache entry's
  /// optimized rewriting, shared and *unbound* (the VM binds $parameters
  /// per call). Null when the execution failed before binding.
  PathPtr evaluated;
  /// Per-execution cost and provenance statistics.
  ExecuteStats stats;

  /// Per-step plan profile (xpath/profiler.h); non-null only when the
  /// execution ran with ExecuteOptions::profile (or an attached
  /// PlanProfileTable) and evaluation succeeded.
  std::shared_ptr<const StepProfile> profile;

  /// Evaluator node touches — backward-compatible accessor for the old
  /// `work` field.
  uint64_t work() const { return stats.nodes_touched; }
};

/// The secure query-answering framework of the paper's Fig. 3: one
/// document DTD, any number of named access-control policies, and a
/// query interface that enforces each policy by query rewriting — views
/// stay virtual.
///
/// Typical use:
///
///   auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
///   engine->RegisterPolicy("nurse", nurse_spec_text);
///   auto result = engine->Execute("nurse", doc, "//patient//bill",
///                                 {.bindings = {{"wardNo", "3"}}});
///
/// Prepared queries are cached per (policy, query text, effective
/// optimize flag), one entry per query holding the rewritten AST, the
/// evaluated (optimized) AST and its compiled plan. The optimize flag is
/// effective only when the document DTD admits the optimizer, so on a
/// recursive DTD optimize on and off share one entry. For *recursive*
/// views the cache key additionally
/// includes the unfolding depth — the rewritten query is only equivalent
/// over documents of height <= depth, so two documents of different
/// heights must not share a cache entry (Section 4.2; the depth is
/// derived from each document's height and is 0 for non-recursive
/// views). engine_test.cc guards this keying with a regression test.
/// The cache is sharded, lock-striped, and bounded (EngineOptions);
/// evictions are LRU-ish per shard. Every execution evaluates its
/// entry's compiled plan on the XPathEvaluator VM (xpath/vm.cc), the one
/// evaluator that counts, budgets and profiles. A query whose plan fails
/// to compile is refused with ResourceExhausted and not cached.
///
/// The engine keeps a lifetime obs::MetricsRegistry (see metrics()):
/// per-policy query counts, rewrite-cache hits/misses, rewriter/optimizer
/// DP sizes and prune counts, evaluator node touches, and per-phase
/// latency histograms. Pass an obs::Trace in ExecuteOptions to capture a
/// per-query span tree.
///
/// Threading contract (details: docs/concurrency.md). The engine's
/// lifetime splits into a *setup* phase and a *serve* phase:
///
///  * Setup — Create + RegisterPolicy calls — is single-threaded and
///    must complete before any concurrent use. Seal() ends it
///    explicitly (later registrations fail); QueryWorkerPool seals on
///    construction.
///  * Serve — Rewrite, Execute, ExecuteBatch, Explain, View,
///    PublishedViewDtd, metrics() — is safe from any number of threads
///    against the sealed policy set. The document, DTD, views, prepared
///    rewriter/optimizer, and cached ASTs are all immutable; the only
///    mutable shared state is the sharded cache (internally locked) and
///    the metrics instruments (atomics).
///
/// Per-execution scratch state (the XPathEvaluator and its counters)
/// lives on the calling thread's stack and flushes into the shared
/// atomic metrics at the end of each call.
class SecureQueryEngine {
 public:
  /// Takes ownership of the (finalized) document DTD.
  static Result<std::unique_ptr<SecureQueryEngine>> Create(Dtd dtd);
  static Result<std::unique_ptr<SecureQueryEngine>> Create(
      Dtd dtd, const EngineOptions& options);

  const Dtd& dtd() const { return *dtd_; }

  /// True iff the document DTD admits the optimizer (non-recursive).
  bool CanOptimize() const { return optimizer_.has_value(); }

  /// Engine-lifetime metrics (metric catalog: docs/observability.md).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches serving-time observers: every published query (see
  /// Publish) is recorded into `window` (sliding-window QPS/latency
  /// aggregates) and, at or above its threshold, into `slow_log`
  /// (bounded slow-query ring). Either may be null. The observers must
  /// outlive the engine's serve phase; attach them during setup, before
  /// concurrent serving starts — the pointers are not synchronized.
  void AttachServingObservers(obs::SlidingWindowStats* window,
                              obs::SlowQueryLog* slow_log);

  /// Attaches the per-policy rollup table: every Execute and every
  /// RecordServingOutcome is additionally charged to its policy id
  /// (queries, outcome mix, nodes touched, alloc bytes, latency). Same
  /// lifetime/attachment discipline as AttachServingObservers.
  void AttachPolicyStats(obs::PolicyStatsTable* policy_stats);

  /// Attaches the cross-query hot-step rollup (the /profilez table):
  /// every Execute runs with plan profiling on and merges its flattened
  /// StepProfile into the table, keyed by canonical step signature.
  /// Same lifetime/attachment discipline as AttachServingObservers.
  void AttachPlanProfiles(obs::PlanProfileTable* plan_profiles);

  /// Attaches the sampled request-trace store. When the store is enabled
  /// (sample_every > 0) and the caller did not pass its own trace,
  /// Execute records a span tree for the request and offers it to the
  /// store, which retains 1-in-N plus every slow/denied/timeout/shed
  /// request (see obs/trace_store.h). Attach before serving starts.
  void AttachTraceStore(obs::RequestTraceStore* traces);

  /// Attaches the serving-health state machine (/healthz): every Execute
  /// and RecordServingOutcome reports its ok/failed verdict so sustained
  /// error rates flip the tracker to degraded. Same lifetime/attachment
  /// discipline as AttachServingObservers.
  void AttachHealth(obs::HealthTracker* health);

  /// Publishes a query that bypassed Execute (shed, expired or
  /// cancelled at a worker pool's queue) exactly as Execute publishes
  /// its queries, `audit` included, so /statusz matches the audit trail.
  /// It counts in the outcome mix but adds no latency sample.
  void RecordServingOutcome(const std::string& policy,
                            std::string_view query_text, const Status& status,
                            obs::AuditSink* audit);

  // -- Policies -------------------------------------------------------------

  /// Registers a policy from the textual annotation syntax
  /// (security/spec_parser.h). Fails on parse errors, duplicate names,
  /// derivation failure, or after Seal(). Setup-phase only: must not run
  /// concurrently with any other engine call.
  Status RegisterPolicy(const std::string& name, std::string_view spec_text);

  /// Registers an already-built specification: derives its view (timed
  /// as phase.derive.micros), then registers that view.
  Status RegisterPolicy(const std::string& name, AccessSpec spec);

  /// Registers an already-derived security view, e.g. one loaded with
  /// ParseView (security/view_io.h). Fails on an empty or duplicate
  /// name, a view built on another Dtd instance than dtd(), or after
  /// Seal(). Such a policy serves Rewrite, Execute and Explain like any
  /// other; ExtractResults refuses it (it needs the specification).
  Status RegisterPolicy(const std::string& name, SecurityView view);

  /// Ends the setup phase: subsequent RegisterPolicy calls fail with
  /// FailedPrecondition. Idempotent. Sealing is what makes concurrent
  /// serving sound — the policy map is only read from then on.
  void Seal() { sealed_.store(true, std::memory_order_release); }
  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  std::vector<std::string> PolicyNames() const;

  /// The derived security view of a policy.
  Result<const SecurityView*> View(const std::string& policy) const;

  /// The view DTD text published to the policy's users (sigma hidden).
  Result<std::string> PublishedViewDtd(const std::string& policy) const;

  // -- Querying -------------------------------------------------------------

  /// Rewrites (and optionally optimizes) a view query for the policy,
  /// without evaluating it, and returns the AST Execute would evaluate
  /// (before binding). Reads and fills the same cache entry as Execute.
  /// `doc_height` selects the unfolding depth for recursive views; pass
  /// the height of the target document (ignored for non-recursive
  /// views).
  Result<PathPtr> Rewrite(const std::string& policy,
                          std::string_view query_text, bool optimize,
                          int doc_height = 0);

  /// Full enforcement path: parse, rewrite, optimize, bind, evaluate.
  /// `doc` must be an instance of the engine's DTD; results are nodes of
  /// `doc` the policy's users are allowed to see.
  Result<ExecuteResult> Execute(const std::string& policy, const XmlTree& doc,
                                std::string_view query_text,
                                const ExecuteOptions& options = {});

  /// Fans a batch of queries out over `threads` worker threads (0 picks
  /// the hardware concurrency, 1 runs inline) and returns per-query
  /// results in input order. Seals the engine. `options` applies to
  /// every query of the batch; its `trace`/`explain` outputs are ignored
  /// (see QueryWorkerPool::ExecuteBatch, which this wraps — servers that
  /// serve many batches should hold a long-lived QueryWorkerPool
  /// instead of paying thread startup per call).
  std::vector<Result<ExecuteResult>> ExecuteBatch(
      const std::string& policy, const XmlTree& doc,
      const std::vector<std::string>& queries,
      const ExecuteOptions& options = {}, size_t threads = 0);

  /// Renders the rewrite decision trail for a query without evaluating
  /// it: the (unfolded) view, which σ annotations fired at which steps,
  /// which subqueries were pruned and why, and what the optimizer did.
  /// Deterministic — the output carries no timestamps or durations (see
  /// engine/explain.h). The overload without options uses the defaults
  /// (optimize on, default unfolding depth for recursive views).
  Result<QueryExplain> Explain(const std::string& policy,
                               std::string_view query_text);
  Result<QueryExplain> Explain(const std::string& policy,
                               std::string_view query_text,
                               const ExplainOptions& options);

  /// Builds a serialization-safe answer document: the *view* subtrees of
  /// the result nodes, copied under a fresh <results> root. Answers never
  /// contain concealed labels or inaccessible descendants because they
  /// are taken from the (internally materialized) view, not from the raw
  /// document — returning raw document subtrees would leak hidden nodes
  /// nested below accessible ones. This is a convenience for serving
  /// serialized answers; it costs one view materialization per call.
  /// FailedPrecondition for a policy registered from a view: its
  /// accessibility filter needs the access specification.
  Result<XmlTree> ExtractResults(
      const std::string& policy, const XmlTree& doc, const NodeSet& nodes,
      const std::vector<std::pair<std::string, std::string>>& bindings =
          {}) const;

 private:
  struct Policy {
    /// Absent for a policy registered from a saved view.
    std::optional<AccessSpec> spec;
    SecurityView view;
    /// Prepared rewriter for non-recursive views. Rewrite() is const
    /// and stateless per call, so many threads may share it.
    std::optional<QueryRewriter> rewriter;
    /// One CachedQuery per key: query text + "\x1f" + effective optimize
    /// flag + "\x1f" + unfold depth. The optimize flag is effective only
    /// when the engine has an optimizer (non-recursive DTD). The depth
    /// component matters for recursive views only — a rewriting unfolded
    /// to depth d is valid for documents of height <= d, so entries for
    /// different heights must stay distinct. For non-recursive views the
    /// depth is always 0.
    ShardedRewriteCache cache;
    /// Pre-resolved instruments (resolving a name takes the registry
    /// lock; the serve path must not).
    obs::Counter* queries_counter = nullptr;
    obs::Gauge* cache_size_gauge = nullptr;

    Policy(SecurityView v, const ShardedRewriteCache::Options& cache_options)
        : view(std::move(v)), cache(cache_options) {}
  };

  /// Engine-wide instruments resolved once at construction so the serve
  /// path updates them lock-free (obs/metrics.h documents this pattern).
  struct HotMetrics {
    obs::Counter* queries = nullptr;
    obs::Counter* results_returned = nullptr;
    obs::Counter* execute_errors = nullptr;
    /// Queries that failed with kDeadlineExceeded (also in a queue).
    obs::Counter* rejected_deadline = nullptr;
    /// Executions that failed with kResourceExhausted.
    obs::Counter* rejected_budget = nullptr;
    /// audit.events — events handed to an audit sink.
    obs::Counter* audit_events = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Gauge* cache_size = nullptr;
    /// engine.cache.bytes — byte footprint of all rewrite-cache entries
    /// (keys + AST estimates + compiled-plan tables), across policies.
    /// engine.cache.size counts entries only, which stopped being a
    /// proxy for memory once entries started carrying bytecode.
    obs::Gauge* cache_bytes = nullptr;
    /// engine.plan.compiles — plan compilations performed (one per cache
    /// miss; a hit reuses the entry's plan).
    obs::Counter* plan_compiles = nullptr;
    /// engine.plan.cached — compiled plans resident in the caches. Every
    /// resident entry carries one, so this equals engine.cache.size.
    obs::Gauge* plan_cached = nullptr;
    /// engine.plan.cache_bytes — bytes of resident compiled plans
    /// (subset of engine.cache.bytes).
    obs::Gauge* plan_cache_bytes = nullptr;
    /// engine.execute.micros — end-to-end Execute latency (all phases,
    /// successes and failures alike).
    obs::Histogram* execute_micros = nullptr;
    /// engine.alloc.bytes / engine.alloc.count — per-execution heap
    /// allocation churn (observed once per Execute; flat zeros when the
    /// alloc tracker is compiled out).
    obs::Histogram* alloc_bytes = nullptr;
    obs::Histogram* alloc_count = nullptr;
    /// alloc.<phase>.{bytes,count} — cumulative per-phase allocation,
    /// charged by Prepare/ExecuteInto alongside the phase timers.
    obs::Counter* alloc_parse_bytes = nullptr;
    obs::Counter* alloc_parse_count = nullptr;
    obs::Counter* alloc_rewrite_bytes = nullptr;
    obs::Counter* alloc_rewrite_count = nullptr;
    obs::Counter* alloc_optimize_bytes = nullptr;
    obs::Counter* alloc_optimize_count = nullptr;
    obs::Counter* alloc_evaluate_bytes = nullptr;
    obs::Counter* alloc_evaluate_count = nullptr;
    /// phase.<phase>.micros — per-phase wall time, observed alongside
    /// the trace spans of the same names.
    obs::Histogram* phase_parse = nullptr;
    obs::Histogram* phase_unfold = nullptr;
    obs::Histogram* phase_rewrite = nullptr;
    obs::Histogram* phase_optimize = nullptr;
    obs::Histogram* phase_compile = nullptr;
    obs::Histogram* phase_evaluate = nullptr;
    /// rewrite.* / optimize.* — per-preparation work of the rewriter and
    /// the optimizer (RewriteStats / OptimizeStats), charged on misses.
    obs::Counter* rewrite_unfolds = nullptr;
    obs::Counter* rewrite_queries = nullptr;
    obs::Counter* rewrite_dp_entries = nullptr;
    obs::Counter* optimize_queries = nullptr;
    obs::Counter* optimize_dp_entries = nullptr;
    obs::Counter* optimize_nonexistence_prunes = nullptr;
    obs::Counter* optimize_simulation_tests = nullptr;
    obs::Counter* optimize_union_prunes = nullptr;
    /// eval.* — the evaluator's flush targets.
    EvalMetrics eval;
    /// engine.cache.shard_<i>.size, aggregated across policies.
    std::vector<obs::Gauge*> shard_size;
    /// engine.cache.shard_<i>.bytes, aggregated across policies.
    std::vector<obs::Gauge*> shard_bytes;
  };

  SecureQueryEngine(std::unique_ptr<Dtd> dtd, const EngineOptions& options);

  Result<Policy*> FindPolicy(const std::string& name);
  Result<const Policy*> FindPolicy(const std::string& name) const;

  /// The instrumented preparation path behind Rewrite and Execute: one
  /// sharded-cache lookup, then on a miss parse -> [unfold ->] rewrite
  /// -> [optimize ->] compile -> cache insert. `optimize` is reduced to
  /// the effective flag (optimize && CanOptimize()) before keying. Safe
  /// from many threads (serve phase). `trace`, `stats`, and `budget` may
  /// be null. A preparation that trips its budget or fails to compile
  /// (an injected plan.compile fault, ResourceExhausted) refuses the
  /// query and caches nothing, so every resident entry has a plan.
  Result<std::shared_ptr<const CachedQuery>> Prepare(
      Policy& policy, std::string_view query_text, bool optimize, int depth,
      obs::Trace* trace, ExecuteStats* stats,
      const XPathParseLimits& parse_limits, QueryBudget* budget);

  /// Lowers a rewritten query to bytecode under the "compile" span /
  /// phase.compile.micros timer and bumps engine.plan.compiles.
  Result<std::shared_ptr<const CompiledPlan>> CompileQueryPlan(
      const PathPtr& query, obs::Trace* trace);

  /// Execute minus the publishing; fills `result` as far as the
  /// execution got, so a failing run still exposes partial provenance
  /// (e.g. the rewritten query when binding failed) to the audit event.
  Status ExecuteInto(const std::string& policy_name, const XmlTree& doc,
                     std::string_view query_text,
                     const ExecuteOptions& options, ExecuteResult& result);

  /// The one place a finished query's facts leave the engine: maps
  /// `status` to its outcome once and feeds every attached observer,
  /// the trace store (given `request_trace`), `audit`, and the error
  /// and audit counters. `result` is null for a query never executed:
  /// it then counts in neither execute_errors nor rejected.budget, and
  /// adds no latency sample to the window or the policy rollup.
  void Publish(const std::string& policy, std::string_view query_text,
               const Status& status, uint64_t latency_micros,
               const ExecuteResult* result,
               const std::vector<std::pair<std::string, std::string>>& bindings,
               obs::AuditSink* audit, obs::Trace* request_trace);

  std::unique_ptr<Dtd> dtd_;
  EngineOptions options_;
  std::optional<QueryOptimizer> optimizer_;
  std::unordered_map<std::string, std::unique_ptr<Policy>> policies_;
  obs::MetricsRegistry metrics_;
  HotMetrics hot_;
  /// Serving observers (AttachServingObservers); null until attached.
  obs::SlidingWindowStats* window_stats_ = nullptr;
  obs::SlowQueryLog* slow_log_ = nullptr;
  obs::PolicyStatsTable* policy_stats_ = nullptr;
  obs::PlanProfileTable* plan_profiles_ = nullptr;
  obs::RequestTraceStore* trace_store_ = nullptr;
  obs::HealthTracker* health_ = nullptr;
  std::atomic<bool> sealed_{false};
};

}  // namespace secview

#endif  // SECVIEW_ENGINE_ENGINE_H_
