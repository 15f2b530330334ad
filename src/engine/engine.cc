#include "engine/engine.h"

#include <algorithm>
#include <chrono>

#include "common/alloc_tracker.h"
#include "common/crash_reporter.h"
#include "common/failpoint.h"
#include "engine/explain.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/plan_profile.h"
#include "obs/policy_stats.h"
#include "obs/serving_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace_store.h"
#include "rewrite/unfold.h"
#include "security/derive.h"
#include "security/materializer.h"
#include "security/spec_parser.h"
#include "xpath/parser.h"
#include "xpath/plan.h"
#include "xpath/printer.h"
#include "xpath/profiler.h"

namespace secview {

namespace {

/// RAII companion of ScopedTimer for allocation: on destruction charges
/// the phase's thread-local allocation delta into the pre-resolved
/// registry counters and the optional ExecuteStats accumulators. All
/// four sinks may be null; with the alloc tracker compiled out the delta
/// is zero and the guard is two TLS struct reads.
class ScopedPhaseAlloc {
 public:
  ScopedPhaseAlloc(obs::Counter* bytes_counter, obs::Counter* count_counter,
                   uint64_t* stats_bytes, uint64_t* stats_count)
      : bytes_counter_(bytes_counter),
        count_counter_(count_counter),
        stats_bytes_(stats_bytes),
        stats_count_(stats_count),
        start_(ThreadAllocCounts()) {}
  ~ScopedPhaseAlloc() {
    const AllocCounts now = ThreadAllocCounts();
    const uint64_t bytes = now.bytes - start_.bytes;
    const uint64_t count = now.count - start_.count;
    if (bytes_counter_ != nullptr) bytes_counter_->Add(bytes);
    if (count_counter_ != nullptr) count_counter_->Add(count);
    if (stats_bytes_ != nullptr) *stats_bytes_ += bytes;
    if (stats_count_ != nullptr) *stats_count_ += count;
  }
  ScopedPhaseAlloc(const ScopedPhaseAlloc&) = delete;
  ScopedPhaseAlloc& operator=(const ScopedPhaseAlloc&) = delete;

 private:
  obs::Counter* bytes_counter_;
  obs::Counter* count_counter_;
  uint64_t* stats_bytes_;
  uint64_t* stats_count_;
  AllocCounts start_;
};

}  // namespace

SecureQueryEngine::SecureQueryEngine(std::unique_ptr<Dtd> dtd,
                                     const EngineOptions& options)
    : dtd_(std::move(dtd)), options_(options) {
  hot_.queries = &metrics_.GetCounter("engine.queries");
  hot_.results_returned = &metrics_.GetCounter("engine.results_returned");
  hot_.execute_errors = &metrics_.GetCounter("engine.execute_errors");
  hot_.rejected_deadline = &metrics_.GetCounter("engine.rejected.deadline");
  hot_.rejected_budget = &metrics_.GetCounter("engine.rejected.budget");
  hot_.cache_hits = &metrics_.GetCounter("engine.cache.hits");
  hot_.cache_misses = &metrics_.GetCounter("engine.cache.misses");
  hot_.cache_evictions = &metrics_.GetCounter("engine.cache.evictions");
  hot_.cache_size = &metrics_.GetGauge("engine.cache.size");
  hot_.cache_bytes = &metrics_.GetGauge("engine.cache.bytes");
  hot_.plan_compiles = &metrics_.GetCounter("engine.plan.compiles");
  hot_.plan_cached = &metrics_.GetGauge("engine.plan.cached");
  hot_.plan_cache_bytes = &metrics_.GetGauge("engine.plan.cache_bytes");
  hot_.execute_micros = &metrics_.GetHistogram("engine.execute.micros");
  hot_.alloc_bytes = &metrics_.GetHistogram(
      "engine.alloc.bytes", obs::MetricsRegistry::DefaultByteBounds());
  hot_.alloc_count = &metrics_.GetHistogram(
      "engine.alloc.count", obs::MetricsRegistry::DefaultCountBounds());
  hot_.alloc_parse_bytes = &metrics_.GetCounter("alloc.parse.bytes");
  hot_.alloc_parse_count = &metrics_.GetCounter("alloc.parse.count");
  hot_.alloc_rewrite_bytes = &metrics_.GetCounter("alloc.rewrite.bytes");
  hot_.alloc_rewrite_count = &metrics_.GetCounter("alloc.rewrite.count");
  hot_.alloc_optimize_bytes = &metrics_.GetCounter("alloc.optimize.bytes");
  hot_.alloc_optimize_count = &metrics_.GetCounter("alloc.optimize.count");
  hot_.alloc_evaluate_bytes = &metrics_.GetCounter("alloc.evaluate.bytes");
  hot_.alloc_evaluate_count = &metrics_.GetCounter("alloc.evaluate.count");
  hot_.phase_parse = &metrics_.GetHistogram("phase.parse.micros");
  hot_.phase_unfold = &metrics_.GetHistogram("phase.unfold.micros");
  hot_.phase_rewrite = &metrics_.GetHistogram("phase.rewrite.micros");
  hot_.phase_optimize = &metrics_.GetHistogram("phase.optimize.micros");
  hot_.phase_compile = &metrics_.GetHistogram("phase.compile.micros");
  hot_.phase_evaluate = &metrics_.GetHistogram("phase.evaluate.micros");
  hot_.rewrite_unfolds = &metrics_.GetCounter("rewrite.unfolds");
  hot_.rewrite_queries = &metrics_.GetCounter("rewrite.queries");
  hot_.rewrite_dp_entries = &metrics_.GetCounter("rewrite.dp_entries");
  hot_.optimize_queries = &metrics_.GetCounter("optimize.queries");
  hot_.optimize_dp_entries = &metrics_.GetCounter("optimize.dp_entries");
  hot_.optimize_nonexistence_prunes =
      &metrics_.GetCounter("optimize.nonexistence_prunes");
  hot_.optimize_simulation_tests =
      &metrics_.GetCounter("optimize.simulation_tests");
  hot_.optimize_union_prunes = &metrics_.GetCounter("optimize.union_prunes");
  hot_.eval = EvalMetrics::Resolve(metrics_);
  const size_t shards = std::max<size_t>(1, options_.cache_shards);
  hot_.shard_size.reserve(shards);
  hot_.shard_bytes.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    hot_.shard_size.push_back(&metrics_.GetGauge(
        "engine.cache.shard_" + std::to_string(i) + ".size"));
    hot_.shard_bytes.push_back(&metrics_.GetGauge(
        "engine.cache.shard_" + std::to_string(i) + ".bytes"));
  }
}

Result<std::unique_ptr<SecureQueryEngine>> SecureQueryEngine::Create(Dtd dtd) {
  return Create(std::move(dtd), EngineOptions{});
}

Result<std::unique_ptr<SecureQueryEngine>> SecureQueryEngine::Create(
    Dtd dtd, const EngineOptions& options) {
  if (!dtd.finalized()) {
    SECVIEW_RETURN_IF_ERROR(dtd.Finalize());
  }
  auto owned = std::make_unique<Dtd>(std::move(dtd));
  std::unique_ptr<SecureQueryEngine> engine(
      new SecureQueryEngine(std::move(owned), options));
  Result<QueryOptimizer> optimizer = QueryOptimizer::Create(*engine->dtd_);
  if (optimizer.ok()) {
    engine->optimizer_.emplace(std::move(optimizer).value());
  }
  // A recursive document DTD simply disables optimization; everything
  // else still works.
  return engine;
}

Status SecureQueryEngine::RegisterPolicy(const std::string& name,
                                         std::string_view spec_text) {
  SECVIEW_ASSIGN_OR_RETURN(AccessSpec spec,
                           ParseAccessSpec(*dtd_, spec_text));
  return RegisterPolicy(name, std::move(spec));
}

Status SecureQueryEngine::RegisterPolicy(const std::string& name,
                                         AccessSpec spec) {
  if (sealed()) {
    return Status::FailedPrecondition(
        "the engine is sealed (serve phase); register every policy "
        "before Seal() / before attaching a QueryWorkerPool");
  }
  if (name.empty()) {
    return Status::InvalidArgument("policy name must not be empty");
  }
  if (policies_.count(name)) {
    return Status::InvalidArgument("policy '" + name +
                                   "' is already registered");
  }
  if (&spec.dtd() != dtd_.get()) {
    return Status::InvalidArgument(
        "specification was built against a different DTD instance");
  }
  Result<SecurityView> derived = [&]() -> Result<SecurityView> {
    obs::ScopedTimer timer(&metrics_.GetHistogram("phase.derive.micros"));
    return DeriveSecurityView(spec);
  }();
  SECVIEW_ASSIGN_OR_RETURN(SecurityView view, std::move(derived));

  ShardedRewriteCache::Options cache_options;
  cache_options.shards = options_.cache_shards;
  cache_options.capacity = options_.cache_capacity;
  auto policy = std::make_unique<Policy>(std::move(spec), std::move(view),
                                         cache_options);
  if (!policy->view.IsRecursive()) {
    SECVIEW_ASSIGN_OR_RETURN(QueryRewriter rewriter,
                             QueryRewriter::Create(policy->view));
    policy->rewriter.emplace(std::move(rewriter));
  }
  policy->queries_counter =
      &metrics_.GetCounter("policy." + name + ".queries");
  policy->cache_size_gauge =
      &metrics_.GetGauge("policy." + name + ".cache_size");
  policies_.emplace(name, std::move(policy));
  metrics_.GetCounter("engine.policies_registered").Add();
  metrics_.GetGauge("engine.policies")
      .Set(static_cast<int64_t>(policies_.size()));
  return Status::OK();
}

std::vector<std::string> SecureQueryEngine::PolicyNames() const {
  std::vector<std::string> names;
  names.reserve(policies_.size());
  for (const auto& [name, policy] : policies_) {
    (void)policy;
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<SecureQueryEngine::Policy*> SecureQueryEngine::FindPolicy(
    const std::string& name) {
  auto it = policies_.find(name);
  if (it == policies_.end()) {
    return Status::NotFound("no policy named '" + name + "'");
  }
  return it->second.get();
}

Result<const SecureQueryEngine::Policy*> SecureQueryEngine::FindPolicy(
    const std::string& name) const {
  auto it = policies_.find(name);
  if (it == policies_.end()) {
    return Status::NotFound("no policy named '" + name + "'");
  }
  return static_cast<const Policy*>(it->second.get());
}

Result<const SecurityView*> SecureQueryEngine::View(
    const std::string& policy) const {
  SECVIEW_ASSIGN_OR_RETURN(const Policy* p, FindPolicy(policy));
  return &p->view;
}

Result<std::string> SecureQueryEngine::PublishedViewDtd(
    const std::string& policy) const {
  SECVIEW_ASSIGN_OR_RETURN(const Policy* p, FindPolicy(policy));
  return p->view.ViewDtdString();
}

Result<std::shared_ptr<const CompiledPlan>>
SecureQueryEngine::CompileQueryPlan(const PathPtr& query, obs::Trace* trace) {
  static FailPoint& compile_fault =
      FailPointRegistry::Instance().Get(failpoints::kPlanCompile);
  if (compile_fault.Fire()) {
    // Simulated compiler failure. The VM is the only evaluator, so the
    // query is refused with the status class of a tripped resource
    // budget (like alloc.evaluate) — never a partial or slower answer.
    return Status::ResourceExhausted("plan compilation failed (injected)");
  }
  obs::ScopedSpan span(trace, "compile");
  obs::ScopedTimer timer(hot_.phase_compile);
  std::shared_ptr<const CompiledPlan> plan = CompilePlan(query);
  hot_.plan_compiles->Add();
  span.SetAttr("ops", static_cast<uint64_t>(plan->ops.size()));
  span.SetAttr("bytes", static_cast<uint64_t>(plan->byte_size()));
  return plan;
}

Result<std::shared_ptr<const CachedQuery>> SecureQueryEngine::Prepare(
    Policy& policy, std::string_view query_text, bool optimize, int depth,
    obs::Trace* trace, ExecuteStats* stats,
    const XPathParseLimits& parse_limits, QueryBudget* budget) {
  const bool recursive = !policy.rewriter.has_value();
  // Without an optimizer (recursive DTD) optimize on and off prepare the
  // same entry, so they share one key.
  optimize = optimize && optimizer_.has_value();
  std::string cache_key = std::string(query_text) + "\x1f" +
                          (optimize ? "1" : "0") + "\x1f" +
                          std::to_string(depth);
  if (std::shared_ptr<const CachedQuery> cached =
          policy.cache.Lookup(cache_key)) {
    hot_.cache_hits->Add();
    if (stats != nullptr) stats->cache_hit = true;
    return cached;
  }
  hot_.cache_misses->Add();
  if (stats != nullptr) stats->cache_hit = false;

  PathPtr query;
  {
    obs::ScopedSpan span(trace, "parse");
    obs::ScopedTimer timer(hot_.phase_parse,
                           stats != nullptr ? &stats->parse_micros : nullptr);
    ScopedPhaseAlloc alloc(
        hot_.alloc_parse_bytes, hot_.alloc_parse_count,
        stats != nullptr ? &stats->parse_alloc_bytes : nullptr,
        stats != nullptr ? &stats->parse_alloc_count : nullptr);
    SECVIEW_ASSIGN_OR_RETURN(query, ParseXPath(query_text, parse_limits));
    span.SetAttr("ast_size", PathSize(query));
  }
  if (budget != nullptr) SECVIEW_RETURN_IF_ERROR(budget->Check());

  // Recursive views: unfold to the document height first, then rewrite
  // over the unfolded (now non-recursive) view.
  std::optional<SecurityView> unfolded;
  if (recursive) {
    obs::ScopedSpan span(trace, "unfold");
    obs::ScopedTimer timer(hot_.phase_unfold);
    SECVIEW_ASSIGN_OR_RETURN(SecurityView u, UnfoldView(policy.view, depth));
    unfolded.emplace(std::move(u));
    span.SetAttr("depth", depth);
    hot_.rewrite_unfolds->Add();
  }

  auto value = std::make_shared<CachedQuery>();
  PathPtr& rewritten = value->rewritten;
  {
    obs::ScopedSpan span(trace, "rewrite");
    obs::ScopedTimer timer(
        hot_.phase_rewrite,
        stats != nullptr ? &stats->rewrite_micros : nullptr);
    ScopedPhaseAlloc alloc(
        hot_.alloc_rewrite_bytes, hot_.alloc_rewrite_count,
        stats != nullptr ? &stats->rewrite_alloc_bytes : nullptr,
        stats != nullptr ? &stats->rewrite_alloc_count : nullptr);
    RewriteStats rstats;
    if (recursive) {
      SECVIEW_ASSIGN_OR_RETURN(QueryRewriter rewriter,
                               QueryRewriter::Create(*unfolded));
      SECVIEW_ASSIGN_OR_RETURN(rewritten,
                               rewriter.Rewrite(query, &rstats, budget));
    } else {
      SECVIEW_ASSIGN_OR_RETURN(
          rewritten, policy.rewriter->Rewrite(query, &rstats, budget));
    }
    span.SetAttr("dp_entries", static_cast<uint64_t>(rstats.dp_entries));
    span.SetAttr("ast_size", rstats.output_size);
    hot_.rewrite_queries->Add();
    hot_.rewrite_dp_entries->Add(static_cast<uint64_t>(rstats.dp_entries));
    if (stats != nullptr) {
      stats->rewrite_dp_entries += static_cast<uint64_t>(rstats.dp_entries);
    }
  }

  value->rewritten_size = PathSize(rewritten);
  value->evaluated = rewritten;
  if (optimize) {
    obs::ScopedSpan span(trace, "optimize");
    obs::ScopedTimer timer(
        hot_.phase_optimize,
        stats != nullptr ? &stats->optimize_micros : nullptr);
    ScopedPhaseAlloc alloc(
        hot_.alloc_optimize_bytes, hot_.alloc_optimize_count,
        stats != nullptr ? &stats->optimize_alloc_bytes : nullptr,
        stats != nullptr ? &stats->optimize_alloc_count : nullptr);
    span.SetAttr("ast_before", value->rewritten_size);
    OptimizeStats ostats;
    SECVIEW_ASSIGN_OR_RETURN(value->evaluated,
                             optimizer_->Optimize(rewritten, &ostats, budget));
    span.SetAttr("ast_after", ostats.output_size);
    span.SetAttr("union_prunes", static_cast<uint64_t>(ostats.union_prunes));
    hot_.optimize_queries->Add();
    hot_.optimize_dp_entries->Add(static_cast<uint64_t>(ostats.dp_entries));
    hot_.optimize_nonexistence_prunes->Add(
        static_cast<uint64_t>(ostats.nonexistence_prunes));
    hot_.optimize_simulation_tests->Add(
        static_cast<uint64_t>(ostats.simulation_tests));
    hot_.optimize_union_prunes->Add(
        static_cast<uint64_t>(ostats.union_prunes));
    if (stats != nullptr) {
      stats->optimize_dp_entries += static_cast<uint64_t>(ostats.dp_entries);
      stats->nonexistence_prunes +=
          static_cast<uint64_t>(ostats.nonexistence_prunes);
      stats->simulation_tests +=
          static_cast<uint64_t>(ostats.simulation_tests);
      stats->union_prunes += static_cast<uint64_t>(ostats.union_prunes);
    }
  }
  value->evaluated_size = value->evaluated == rewritten
                              ? value->rewritten_size
                              : PathSize(value->evaluated);
  SECVIEW_ASSIGN_OR_RETURN(value->plan,
                           CompileQueryPlan(value->evaluated, trace));
  static FailPoint& insert_fault =
      FailPointRegistry::Instance().Get(failpoints::kCacheInsert);
  if (insert_fault.Fire()) {
    // A simulated cache-insert failure: serve this execution from the
    // locally built entry and skip caching it, so the next miss retries.
    // Degraded hit rate, same answer.
    return std::shared_ptr<const CachedQuery>(std::move(value));
  }
  // Two threads that missed on the same key both prepared the (same,
  // deterministic) entry; Insert keeps whichever landed first and
  // returns the resident value so every caller shares one entry.
  ShardedRewriteCache::InsertOutcome outcome =
      policy.cache.Insert(cache_key, std::move(value));
  if (outcome.evicted) hot_.cache_evictions->Add();
  if (outcome.inserted) {
    // Size gauges track the insert/evict delta; an eviction and an
    // insert land in the same shard, so they cancel there too.
    const size_t shard = outcome.shard % hot_.shard_size.size();
    if (!outcome.evicted) {
      hot_.cache_size->Add(1);
      hot_.plan_cached->Add(1);
      hot_.shard_size[shard]->Add(1);
    }
    policy.cache_size_gauge->Set(static_cast<int64_t>(policy.cache.size()));
    hot_.cache_bytes->Add(outcome.bytes_delta);
    hot_.shard_bytes[shard]->Add(outcome.bytes_delta);
    hot_.plan_cache_bytes->Add(outcome.plan_bytes_delta);
  }
  return std::move(outcome.value);
}

Result<PathPtr> SecureQueryEngine::Rewrite(const std::string& policy_name,
                                           std::string_view query_text,
                                           bool optimize, int doc_height) {
  SECVIEW_ASSIGN_OR_RETURN(Policy* policy, FindPolicy(policy_name));
  const int depth = policy->rewriter.has_value() ? 0 : doc_height;
  SECVIEW_ASSIGN_OR_RETURN(
      std::shared_ptr<const CachedQuery> prepared,
      Prepare(*policy, query_text, optimize, depth, /*trace=*/nullptr,
              /*stats=*/nullptr, XPathParseLimits{}, /*budget=*/nullptr));
  return prepared->evaluated;
}

Status SecureQueryEngine::ExecuteInto(const std::string& policy_name,
                                      const XmlTree& doc,
                                      std::string_view query_text,
                                      const ExecuteOptions& options,
                                      ExecuteResult& result) {
  obs::ScopedSpan exec_span(options.trace, "execute");
  exec_span.SetAttr("policy", policy_name);
  exec_span.SetAttr("query", std::string(query_text));

  if (doc.empty()) return Status::InvalidArgument("empty document");
  if (doc.label(doc.root()) != dtd_->TypeName(dtd_->root())) {
    return Status::InvalidArgument(
        "document root does not match the engine's DTD");
  }
  SECVIEW_ASSIGN_OR_RETURN(Policy* policy, FindPolicy(policy_name));
  hot_.queries->Add();
  policy->queries_counter->Add();

  // One budget spans the whole execution; it is only installed when a
  // limit or a cancellation token is present, so unlimited executions
  // pay nothing beyond this stack object.
  QueryBudget budget(options.limits, options.cancel);
  QueryBudget* budget_ptr = budget.active() ? &budget : nullptr;

  // Only recursive views need the document height (the unfolding depth).
  const int doc_height = policy->rewriter.has_value() ? 0 : doc.Height();
  result.stats.unfold_depth = doc_height;
  SECVIEW_ASSIGN_OR_RETURN(
      std::shared_ptr<const CachedQuery> prepared,
      Prepare(*policy, query_text, options.optimize, doc_height, options.trace,
              &result.stats, options.parse_limits, budget_ptr));
  result.rewritten = prepared->rewritten;
  if (budget_ptr != nullptr) SECVIEW_RETURN_IF_ERROR(budget_ptr->Check());
  {
    // The VM binds $parameters itself, per call, from options.bindings;
    // this only refuses a query some of whose parameters have no value.
    obs::ScopedSpan span(options.trace, "bind");
    if (!BindPlanConsts(*prepared->plan, options.bindings, nullptr)) {
      return Status::FailedPrecondition(
          "the policy's qualifiers have unbound $parameters; pass them in "
          "ExecuteOptions::bindings");
    }
  }
  result.evaluated = prepared->evaluated;
  result.stats.ast_size_rewritten = prepared->rewritten_size;
  result.stats.ast_size_evaluated = prepared->evaluated_size;

  static FailPoint& alloc_fault =
      FailPointRegistry::Instance().Get(failpoints::kAllocEvaluate);
  if (alloc_fault.Fire()) {
    // Simulated allocation failure entering the evaluate phase. Refuse
    // the query with the same status class a tripped resource budget
    // uses — a correct degraded answer ("try again"), never a partial
    // node set.
    return Status::ResourceExhausted(
        "allocation failure entering evaluation (injected)");
  }
  {
    obs::ScopedSpan span(options.trace, "evaluate");
    obs::ScopedTimer timer(hot_.phase_evaluate, &result.stats.evaluate_micros);
    ScopedPhaseAlloc alloc(hot_.alloc_evaluate_bytes, hot_.alloc_evaluate_count,
                           &result.stats.evaluate_alloc_bytes,
                           &result.stats.evaluate_alloc_count);
    XPathEvaluator evaluator(doc);
    evaluator.set_metrics(&hot_.eval);
    evaluator.set_budget(budget_ptr);
    // EXPLAIN ANALYZE mode: opt-in per execution, or always-on while a
    // cross-query /profilez table is attached.
    const bool profile_on = options.profile || plan_profiles_ != nullptr;
    std::optional<PlanProfiler> profiler;
    if (profile_on) {
      profiler.emplace();
      evaluator.set_profiler(&*profiler);
    }
    // The plan was lowered from the *unbound* AST; $parameters resolve
    // against options.bindings per execution, so one cached plan serves
    // every binding. Pooled per-thread scratch buffers keep the steady
    // state allocation-free.
    SECVIEW_ASSIGN_OR_RETURN(
        result.nodes, evaluator.EvaluateCompiled(*prepared->plan, doc.root(),
                                                 options.bindings));
    result.stats.nodes_touched = evaluator.counters().nodes_touched;
    result.stats.predicate_evals = evaluator.counters().predicate_evals;
    span.SetAttr("nodes_touched", result.stats.nodes_touched);
    span.SetAttr("predicate_evals", result.stats.predicate_evals);
    span.SetAttr("results", static_cast<uint64_t>(result.nodes.size()));
    if (profile_on) {
      std::shared_ptr<const StepProfile> profile = profiler->TakeRoot();
      result.stats.hot_step = HotStepLine(*profile);
      FlushStepProfileMetrics(*profile, metrics_);
      if (plan_profiles_ != nullptr) {
        plan_profiles_->Record(FlattenStepProfile(*profile));
      }
      if (!result.stats.hot_step.empty()) {
        span.SetAttr("hot_step", result.stats.hot_step);
      }
      result.profile = std::move(profile);
    }
  }
  result.stats.result_count = result.nodes.size();
  hot_.results_returned->Add(static_cast<uint64_t>(result.nodes.size()));
  exec_span.SetAttr("cache",
                    result.stats.cache_hit ? "hit" : "miss");
  return Status::OK();
}

void SecureQueryEngine::AttachServingObservers(obs::SlidingWindowStats* window,
                                               obs::SlowQueryLog* slow_log) {
  window_stats_ = window;
  slow_log_ = slow_log;
}

void SecureQueryEngine::AttachPolicyStats(obs::PolicyStatsTable* policy_stats) {
  policy_stats_ = policy_stats;
}

void SecureQueryEngine::AttachPlanProfiles(
    obs::PlanProfileTable* plan_profiles) {
  plan_profiles_ = plan_profiles;
}

void SecureQueryEngine::AttachTraceStore(obs::RequestTraceStore* traces) {
  trace_store_ = traces;
}

void SecureQueryEngine::AttachHealth(obs::HealthTracker* health) {
  health_ = health;
}

void SecureQueryEngine::RecordServingOutcome(const std::string& policy,
                                             std::string_view query_text,
                                             const Status& status,
                                             uint64_t latency_micros) {
  obs::ServeOutcome outcome = obs::ServeOutcomeForStatus(status);
  if (health_ != nullptr) health_->RecordOutcome(status.ok());
  if (window_stats_ != nullptr) {
    window_stats_->Record(latency_micros, outcome);
  }
  if (policy_stats_ != nullptr) {
    policy_stats_->Record(policy, outcome, latency_micros,
                          /*nodes_touched=*/0, /*alloc_bytes=*/0);
  }
  if (slow_log_ != nullptr) {
    obs::SlowQueryLog::Entry entry;
    entry.unix_micros = obs::AuditEvent::NowUnixMicros();
    entry.policy = policy;
    entry.query = std::string(query_text);
    entry.outcome = outcome;
    entry.latency_micros = latency_micros;
    slow_log_->MaybeRecord(std::move(entry));
  }
}

Result<ExecuteResult> SecureQueryEngine::Execute(
    const std::string& policy_name, const XmlTree& doc,
    std::string_view query_text, const ExecuteOptions& options) {
  ExecuteResult result;
  // Crash-report context: how many queries were in flight when we died.
  ScopedActiveQuery active_query;
  const auto exec_start = std::chrono::steady_clock::now();
  // Serve-mode request tracing: when a trace store is attached and
  // enabled and the caller did not bring its own trace, build a span
  // tree for this request and offer it to the store afterwards. The
  // Trace lives on this stack frame, so worker-pool threads each trace
  // their own requests without synchronization.
  std::optional<obs::Trace> request_trace;
  ExecuteOptions traced_options;
  const ExecuteOptions* opts = &options;
  if (options.trace == nullptr && trace_store_ != nullptr &&
      trace_store_->enabled()) {
    request_trace.emplace("secview.request");
    traced_options = options;
    traced_options.trace = &*request_trace;
    opts = &traced_options;
  }
  Status status;
  {
    ScopedAllocCounter alloc(&result.stats.alloc_bytes,
                             &result.stats.alloc_count);
    status = ExecuteInto(policy_name, doc, query_text, *opts, result);
  }
  const uint64_t latency_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - exec_start)
          .count());
  hot_.execute_micros->Observe(latency_micros);
  hot_.alloc_bytes->Observe(result.stats.alloc_bytes);
  hot_.alloc_count->Observe(result.stats.alloc_count);
  if (health_ != nullptr) health_->RecordOutcome(status.ok());
  if (window_stats_ != nullptr || slow_log_ != nullptr ||
      policy_stats_ != nullptr) {
    obs::ServeOutcome outcome = obs::ServeOutcomeForStatus(status);
    if (window_stats_ != nullptr) {
      window_stats_->Record(latency_micros, outcome);
    }
    if (policy_stats_ != nullptr) {
      policy_stats_->Record(policy_name, outcome, latency_micros,
                            result.stats.nodes_touched,
                            result.stats.alloc_bytes);
    }
    if (slow_log_ != nullptr) {
      obs::SlowQueryLog::Entry entry;
      entry.unix_micros = obs::AuditEvent::NowUnixMicros();
      entry.policy = policy_name;
      entry.query = std::string(query_text);
      entry.outcome = outcome;
      entry.latency_micros = latency_micros;
      entry.cache_hit = result.stats.cache_hit;
      entry.nodes_touched = result.stats.nodes_touched;
      entry.predicate_evals = result.stats.predicate_evals;
      entry.results = static_cast<uint64_t>(result.stats.result_count);
      entry.alloc_bytes = result.stats.alloc_bytes;
      entry.hot_step = result.stats.hot_step;
      slow_log_->MaybeRecord(std::move(entry));
    }
  }
  if (request_trace.has_value()) {
    request_trace->root().SetAttr("alloc_bytes", result.stats.alloc_bytes);
    request_trace->root().SetAttr("alloc_count", result.stats.alloc_count);
    if (!result.stats.hot_step.empty()) {
      request_trace->root().SetAttr("hot_step", result.stats.hot_step);
    }
    trace_store_->Offer(policy_name, query_text, status, latency_micros,
                        *request_trace);
  }
  if (options.audit != nullptr) {
    obs::AuditEvent event;
    event.unix_micros = obs::AuditEvent::NowUnixMicros();
    event.policy = policy_name;
    event.query = std::string(query_text);
    if (!status.ok()) {
      event.outcome = obs::AuditOutcomeForStatus(status);
      event.status = StatusCodeToString(status.code());
      event.error = status.message();
    }
    // A failed execution still reports whatever provenance it produced
    // before failing (e.g. the rewritten query when binding failed).
    if (result.rewritten != nullptr) {
      event.rewritten = ToXPathString(result.rewritten);
    }
    if (result.evaluated != nullptr) {
      event.evaluated = ToXPathString(result.evaluated, options.bindings);
    }
    const ExecuteStats& s = result.stats;
    event.results = static_cast<uint64_t>(s.result_count);
    event.cache_hit = s.cache_hit;
    event.unfold_depth = s.unfold_depth;
    event.ast_size_rewritten = s.ast_size_rewritten;
    event.ast_size_evaluated = s.ast_size_evaluated;
    event.parse_micros = s.parse_micros;
    event.rewrite_micros = s.rewrite_micros;
    event.optimize_micros = s.optimize_micros;
    event.evaluate_micros = s.evaluate_micros;
    event.nodes_touched = s.nodes_touched;
    event.predicate_evals = s.predicate_evals;
    event.rewrite_dp_entries = s.rewrite_dp_entries;
    event.optimize_dp_entries = s.optimize_dp_entries;
    event.nonexistence_prunes = s.nonexistence_prunes;
    event.simulation_tests = s.simulation_tests;
    event.union_prunes = s.union_prunes;
    options.audit->Record(event);
    metrics_.GetCounter("audit.events").Add();
  }
  if (!status.ok()) {
    hot_.execute_errors->Add();
    if (status.IsDeadlineExceeded()) hot_.rejected_deadline->Add();
    if (status.IsResourceExhausted()) hot_.rejected_budget->Add();
    return status;
  }
  if (options.explain != nullptr) {
    ExplainOptions explain_options;
    explain_options.optimize = options.optimize;
    // The depth the execution prepared with, so the explain's reported
    // unfold depth matches result.stats.unfold_depth.
    explain_options.doc_height = result.stats.unfold_depth;
    SECVIEW_ASSIGN_OR_RETURN(
        *options.explain, Explain(policy_name, query_text, explain_options));
  }
  return result;
}

Result<QueryExplain> SecureQueryEngine::Explain(const std::string& policy,
                                                std::string_view query_text) {
  return Explain(policy, query_text, ExplainOptions{});
}

Result<QueryExplain> SecureQueryEngine::Explain(
    const std::string& policy_name, std::string_view query_text,
    const ExplainOptions& options) {
  SECVIEW_ASSIGN_OR_RETURN(Policy* policy, FindPolicy(policy_name));
  metrics_.GetCounter("engine.explains").Add();
  // Reuse the Prepare path's rewriter/optimizer: no per-explain rebuild,
  // and EXPLAIN describes exactly the objects Execute runs with. Safe
  // while serving — both are const, and the sharded cache is never
  // touched (the trail must re-run the DP with collect_explain anyway).
  PreparedExplainInputs prepared;
  prepared.rewriter =
      policy->rewriter.has_value() ? &*policy->rewriter : nullptr;
  prepared.optimizer = optimizer_.has_value() ? &*optimizer_ : nullptr;
  SECVIEW_ASSIGN_OR_RETURN(
      QueryExplain explain,
      ExplainQuery(*dtd_, policy->view, query_text, options, prepared));
  explain.policy = policy_name;
  return explain;
}

namespace {

/// Copies the view subtree rooted at `node` under `parent` in `out`.
void CopyViewSubtree(const XmlTree& view_tree, NodeId node, XmlTree& out,
                     NodeId parent) {
  NodeId copy = view_tree.IsText(node)
                    ? out.AppendText(parent, view_tree.text(node))
                    : out.AppendElement(parent, view_tree.label(node));
  out.SetOrigin(copy, view_tree.origin(node));
  for (NodeId c = view_tree.first_child(node); c != kNullNode;
       c = view_tree.next_sibling(c)) {
    CopyViewSubtree(view_tree, c, out, copy);
  }
}

}  // namespace

Result<XmlTree> SecureQueryEngine::ExtractResults(
    const std::string& policy, const XmlTree& doc, const NodeSet& nodes,
    const std::vector<std::pair<std::string, std::string>>& bindings) const {
  SECVIEW_ASSIGN_OR_RETURN(const Policy* p, FindPolicy(policy));
  MaterializeOptions options;
  options.bindings = bindings;
  SECVIEW_ASSIGN_OR_RETURN(XmlTree tv,
                           MaterializeView(doc, p->view, p->spec, options));

  // Map each requested document node to its view node(s).
  std::unordered_map<NodeId, std::vector<NodeId>> by_origin;
  for (NodeId v = 0; v < static_cast<NodeId>(tv.node_count()); ++v) {
    if (tv.IsElement(v)) by_origin[tv.origin(v)].push_back(v);
  }

  XmlTree out;
  NodeId root = out.CreateRoot("results");
  for (NodeId n : nodes) {
    auto it = by_origin.find(n);
    if (it == by_origin.end()) continue;  // not visible in the view
    for (NodeId v : it->second) CopyViewSubtree(tv, v, out, root);
  }
  return out;
}

}  // namespace secview
