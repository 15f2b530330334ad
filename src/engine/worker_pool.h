#ifndef SECVIEW_ENGINE_WORKER_POOL_H_
#define SECVIEW_ENGINE_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"

namespace secview {

/// Fixed-size thread pool that fans query batches out over a
/// SecureQueryEngine. Construction seals the engine (policy
/// registration is a setup-phase activity; see docs/concurrency.md) and
/// starts the worker threads; destruction drains the queue and joins.
///
/// Each queued task runs one SecureQueryEngine::Execute on a worker
/// thread. The evaluator an execution uses lives on that worker's stack
/// (engine executions construct their own XPathEvaluator), so evaluator
/// counters are per-execution and flush into the engine's shared atomic
/// metrics — no evaluator state ever crosses threads.
///
/// Pool activity is visible in the engine's registry:
///   engine.pool.threads      gauge    worker threads of the live pool
///   engine.pool.queue_depth  gauge    tasks enqueued but not started
///   engine.pool.tasks        counter  tasks executed (lifetime)
///   engine.pool.batches      counter  ExecuteBatch calls (lifetime)
///   engine.pool.shed         counter  tasks rejected at submission
///                                     because the queue was full
///
/// ExecuteBatch may be called from several client threads at once; each
/// batch tracks its own completion state.
///
/// Defensive serving (docs/robustness.md):
///
///  * `Options::queue_cap` bounds the submission queue. A batch whose
///    tasks would push the queue past the cap has the overflow *shed*:
///    those slots return ResourceExhausted immediately, without
///    executing, and engine.pool.shed counts them. The whole batch is
///    enqueued under one lock hold, so shedding is deterministic —
///    exactly the tasks beyond the cap are rejected.
///  * `ExecuteOptions::limits.deadline_ms` is fixed at *submission*:
///    queue wait counts against it. A task whose deadline expired while
///    queued returns DeadlineExceeded without executing; one that starts
///    in time runs with the remaining milliseconds.
///  * CancelAll() aborts everything submitted so far — queued tasks
///    return Cancelled when dequeued, running executions trip at their
///    next budget checkpoint. Batches submitted afterwards run clean.
///    The pool installs its own CancelToken into every task, replacing
///    any caller-provided token.
///
/// A task the pool sheds, expires or cancels never reaches Execute. The
/// pool hands it to SecureQueryEngine::RecordServingOutcome with the
/// batch's audit sink, which publishes it like an executed query: the
/// observers, the error counters, one audit event and audit.events. It
/// counts in the outcome mix but adds no latency sample.
class QueryWorkerPool {
 public:
  struct Options {
    /// Worker threads; 0 picks std::thread::hardware_concurrency()
    /// (minimum 1).
    size_t threads = 0;
    /// Maximum tasks enqueued-but-not-started before submissions shed.
    /// 0 = unbounded (the historical behavior).
    size_t queue_cap = 0;
  };

  explicit QueryWorkerPool(SecureQueryEngine& engine);
  QueryWorkerPool(SecureQueryEngine& engine, const Options& options);
  ~QueryWorkerPool();

  QueryWorkerPool(const QueryWorkerPool&) = delete;
  QueryWorkerPool& operator=(const QueryWorkerPool&) = delete;

  size_t threads() const { return workers_.size(); }

  /// Cancels every task submitted before this call (queued or running);
  /// see the class comment. Thread-safe; later batches are unaffected.
  void CancelAll() { cancel_source_.CancelAll(); }

  /// Executes every query of `queries` against (`policy`, `doc`) on the
  /// pool and blocks until all are done. Results are returned in input
  /// order: result[i] belongs to queries[i], whatever order the workers
  /// finished in. Per-query failures (denied, malformed) are per-slot
  /// Results — one bad query never aborts the rest of the batch.
  ///
  /// `options` is shared by all tasks of the batch: `bindings`,
  /// `optimize`, and `audit` apply to each query (the audit sink must be
  /// thread-safe — obs::JsonlAuditLog is). `trace` and `explain` are
  /// per-execution outputs and are ignored for batches (a span tree or
  /// explain written by many threads at once would interleave).
  std::vector<Result<ExecuteResult>> ExecuteBatch(
      const std::string& policy, const XmlTree& doc,
      const std::vector<std::string>& queries,
      const ExecuteOptions& options = {});

 private:
  void WorkerLoop();

  SecureQueryEngine& engine_;
  Options options_;
  std::vector<std::thread> workers_;
  CancelSource cancel_source_;

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;

  obs::Counter* tasks_counter_;
  obs::Counter* batches_counter_;
  obs::Counter* shed_counter_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* threads_gauge_;
};

}  // namespace secview

#endif  // SECVIEW_ENGINE_WORKER_POOL_H_
