#include "engine/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/failpoint.h"

namespace secview {

QueryWorkerPool::QueryWorkerPool(SecureQueryEngine& engine)
    : QueryWorkerPool(engine, Options{}) {}

QueryWorkerPool::QueryWorkerPool(SecureQueryEngine& engine,
                                 const Options& options)
    : engine_(engine),
      options_(options),
      tasks_counter_(&engine.metrics().GetCounter("engine.pool.tasks")),
      batches_counter_(&engine.metrics().GetCounter("engine.pool.batches")),
      shed_counter_(&engine.metrics().GetCounter("engine.pool.shed")),
      queue_depth_gauge_(&engine.metrics().GetGauge("engine.pool.queue_depth")),
      threads_gauge_(&engine.metrics().GetGauge("engine.pool.threads")) {
  // Serving from many threads requires the policy set to be fixed.
  engine.Seal();
  size_t n = options.threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  threads_gauge_->Set(static_cast<int64_t>(n));
}

QueryWorkerPool::~QueryWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
  threads_gauge_->Set(0);
}

void QueryWorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_gauge_->Add(-1);
    tasks_counter_->Add();
    task();
  }
}

std::vector<Result<ExecuteResult>> QueryWorkerPool::ExecuteBatch(
    const std::string& policy, const XmlTree& doc,
    const std::vector<std::string>& queries, const ExecuteOptions& options) {
  batches_counter_->Add();

  // Per-batch completion state, shared with the task closures. A
  // shared_ptr keeps it alive even if a caller could abandon the wait
  // (it cannot today, but the tasks must never dangle).
  struct BatchState {
    std::vector<Result<ExecuteResult>> results;
    std::mutex mu;
    std::condition_variable done_cv;
    size_t remaining = 0;
  };
  auto state = std::make_shared<BatchState>();
  state->results.resize(queries.size(),
                        Status::Internal("batch slot not filled"));
  state->remaining = queries.size();
  if (queries.empty()) return std::move(state->results);

  // Trace and explain are single-execution outputs; a batch would write
  // them from many threads at once, so they are dropped here (the
  // bindings/optimize/audit parts of the options apply per task).
  ExecuteOptions task_options = options;
  task_options.trace = nullptr;
  task_options.explain = nullptr;

  // The deadline is absolute from here on: time a task spends queued
  // counts against it. The pool's own cancellation token replaces any
  // caller-provided one (CancelAll must reach every task it fans out).
  const uint64_t deadline_ms = options.limits.deadline_ms;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  task_options.cancel = CancelToken(cancel_source_);

  auto run_task = [this, state, &policy, &doc, &queries, task_options,
                   deadline_ms, deadline](size_t i) {
    ExecuteOptions opts = task_options;
    Result<ExecuteResult> result = [&]() -> Result<ExecuteResult> {
      if (opts.cancel.cancelled()) {
        Status st = Status::Cancelled("query cancelled while queued");
        engine_.RecordServingOutcome(policy, queries[i], st, opts.audit);
        return st;
      }
      if (deadline_ms > 0) {
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          Status st = Status::DeadlineExceeded(
              "deadline of " + std::to_string(deadline_ms) +
              " ms expired while the query was queued");
          engine_.RecordServingOutcome(policy, queries[i], st, opts.audit);
          return st;
        }
        auto remaining_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                deadline - now)
                                .count();
        opts.limits.deadline_ms =
            std::max<uint64_t>(1, static_cast<uint64_t>(remaining_ms));
      }
      return engine_.Execute(policy, doc, queries[i], opts);
    }();
    std::lock_guard<std::mutex> slot_lock(state->mu);
    state->results[i] = std::move(result);
    if (--state->remaining == 0) state->done_cv.notify_all();
  };

  // Enqueue under one lock hold, so shedding is deterministic: with a
  // cap of C and a queue already holding Q tasks, exactly the first
  // max(0, C - Q) tasks of this batch enqueue and the rest shed. The
  // pool.submit failpoint sheds individual submissions the same way a
  // full queue would (simulating enqueue-time allocation failure).
  static FailPoint& submit_fault =
      FailPointRegistry::Instance().Get(failpoints::kPoolSubmit);
  std::vector<size_t> shed;
  std::vector<bool> shed_injected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (options_.queue_cap != 0 && queue_.size() >= options_.queue_cap) {
        shed.push_back(i);
        shed_injected.push_back(false);
        continue;
      }
      if (submit_fault.Fire()) {
        shed.push_back(i);
        shed_injected.push_back(true);
        continue;
      }
      queue_.emplace_back([run_task, i] { run_task(i); });
      queue_depth_gauge_->Add(1);
    }
  }
  work_available_.notify_all();

  for (size_t s = 0; s < shed.size(); ++s) {
    const size_t i = shed[s];
    shed_counter_->Add();
    Status st = shed_injected[s]
                    ? Status::ResourceExhausted(
                          "query shed: task submission failed (injected)")
                    : Status::ResourceExhausted(
                          "query shed: the pool's submission queue is full "
                          "(cap " +
                          std::to_string(options_.queue_cap) + ")");
    engine_.RecordServingOutcome(policy, queries[i], st, task_options.audit);
    std::lock_guard<std::mutex> slot_lock(state->mu);
    state->results[i] = std::move(st);
    if (--state->remaining == 0) state->done_cv.notify_all();
  }

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->remaining == 0; });
  return std::move(state->results);
}

std::vector<Result<ExecuteResult>> SecureQueryEngine::ExecuteBatch(
    const std::string& policy, const XmlTree& doc,
    const std::vector<std::string>& queries, const ExecuteOptions& options,
    size_t threads) {
  Seal();
  if (threads == 1) {
    // Inline serial path: same semantics (input order, per-slot
    // failures, trace/explain dropped) without thread startup.
    ExecuteOptions task_options = options;
    task_options.trace = nullptr;
    task_options.explain = nullptr;
    std::vector<Result<ExecuteResult>> results;
    results.reserve(queries.size());
    for (const std::string& query : queries) {
      results.push_back(Execute(policy, doc, query, task_options));
    }
    return results;
  }
  QueryWorkerPool::Options pool_options;
  pool_options.threads = threads;
  QueryWorkerPool pool(*this, pool_options);
  return pool.ExecuteBatch(policy, doc, queries, options);
}

}  // namespace secview
