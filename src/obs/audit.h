#ifndef SECVIEW_OBS_AUDIT_H_
#define SECVIEW_OBS_AUDIT_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/rng.h"
#include "obs/json.h"

namespace secview::obs {

class Counter;
class HealthTracker;

/// One security-relevant query execution, as recorded by the engine:
/// who asked (policy), what they asked (original query), what was
/// actually run against the document (rewritten / optimized XPath), what
/// came back (cardinality, never the data itself), and what it cost.
/// Denials and failures are first-class events — an audit trail that
/// only records successes cannot answer "who tried".
///
/// Serialized as one JSON object per line under the stable schema tag
/// "secview.audit.v1" (field reference: docs/observability.md).
struct AuditEvent {
  /// Monotone per-sink sequence number; assigned by the sink at record
  /// time (0 until then). Restarts from 1 in every process.
  uint64_t seq = 0;
  /// Wall-clock microseconds since the Unix epoch.
  int64_t unix_micros = 0;

  std::string policy;
  std::string query;

  /// ServeOutcomeName of the execution status (obs/serving_stats.h):
  /// "ok" for answered queries; failures are split by cause:
  ///   "denied"  — policy/input failures (unknown policy, malformed
  ///               query, unbound parameters, limit violations, ...),
  ///   "timeout" — the execution's deadline or resource budget tripped,
  ///   "shed"    — the work was cancelled or rejected under load.
  /// ("error" is the pre-v1.1 catch-all for all failures; readers must
  /// keep accepting it.)
  std::string outcome = "ok";
  /// StatusCodeToString of the execution status ("OK" when ok).
  std::string status = "OK";
  /// Error message; empty for ok outcomes.
  std::string error;

  /// Serialized XPath after rewriting over the view (empty when the
  /// execution failed before the rewrite completed).
  std::string rewritten;
  /// Serialized XPath actually evaluated (optimized + bound).
  std::string evaluated;

  uint64_t results = 0;
  bool cache_hit = false;
  int unfold_depth = 0;
  int ast_size_rewritten = 0;
  int ast_size_evaluated = 0;

  uint64_t parse_micros = 0;
  uint64_t rewrite_micros = 0;
  uint64_t optimize_micros = 0;
  uint64_t evaluate_micros = 0;

  uint64_t nodes_touched = 0;
  uint64_t predicate_evals = 0;

  uint64_t rewrite_dp_entries = 0;
  uint64_t optimize_dp_entries = 0;
  uint64_t nonexistence_prunes = 0;
  uint64_t simulation_tests = 0;
  uint64_t union_prunes = 0;

  /// The secview.audit.v1 document for this event.
  Json ToJson() const;

  /// Current wall clock in microseconds since the Unix epoch.
  static int64_t NowUnixMicros();
};

/// Destination for audit events. Implementations must tolerate being
/// called from several threads; the engine calls Record exactly once per
/// audited query, for successes and failures alike, and also for a
/// query a worker pool sheds, expires or cancels without executing it.
class AuditSink {
 public:
  virtual ~AuditSink() = default;
  virtual void Record(const AuditEvent& event) = 0;
};

/// Append-only JSONL audit log with size-based rotation.
///
/// Each Record serializes one event as a single line and flushes it under
/// a mutex, so concurrent writers never interleave partial lines. The
/// file is opened in append mode — sequential CLI invocations accumulate
/// into one trail. When appending a line would push the file past
/// `max_bytes`, the current file is renamed to "<path>.1", "<path>.2",
/// ... (per-process rotation counter) and a fresh file is started; a
/// line is never split across files.
///
/// Degradation contract (docs/robustness.md): a failed write (stream
/// error, ENOSPC, or the `audit.write` failpoint) is retried with capped
/// exponential backoff plus deterministic jitter; when the retries are
/// exhausted the event is dropped and counted (`dropped()`, mirrored to
/// an attached `audit.dropped` counter and health tracker) instead of
/// blocking or aborting the query path. The event's sequence number is
/// consumed before the write is attempted, so a drop leaves a visible
/// seq gap that `audit-verify` reports — never a silent hole.
class JsonlAuditLog : public AuditSink {
 public:
  struct Options {
    /// Rotation threshold. A single oversized line is still written
    /// whole (to an otherwise empty file).
    uint64_t max_bytes = 64ull << 20;
    /// Write retries after the first failed attempt before dropping.
    int write_retries = 3;
    /// First retry backoff; doubled per retry up to the cap. A random
    /// jitter in [0, backoff/2] is added to each sleep.
    uint64_t retry_backoff_micros = 100;
    uint64_t retry_backoff_cap_micros = 10'000;
    /// Seed for the jitter RNG (deterministic replay in tests).
    uint64_t retry_jitter_seed = 42;
  };

  /// Opens (or creates) `path` for appending.
  static Result<std::unique_ptr<JsonlAuditLog>> Open(std::string path);
  static Result<std::unique_ptr<JsonlAuditLog>> Open(std::string path,
                                                     Options options);
  ~JsonlAuditLog() override;

  /// Stamps the event's seq, writes it as one line, flushes. On write
  /// failure: bounded retries with backoff, then drop-and-count.
  void Record(const AuditEvent& event) override;

  /// Events written successfully.
  uint64_t events() const;
  /// Events dropped after exhausting write retries.
  uint64_t dropped() const;
  uint64_t rotations() const;
  const std::string& path() const { return path_; }

  /// Mirrors every drop into `counter` (typically the engine registry's
  /// "audit.dropped"). Pass nullptr to detach. The counter must outlive
  /// this sink or be detached first.
  void AttachDropCounter(Counter* counter);

  /// Reports every drop to `health` so sustained audit loss degrades
  /// /healthz. Same lifetime rules as AttachDropCounter.
  void AttachHealth(HealthTracker* health);

 private:
  JsonlAuditLog(std::string path, Options options);

  void RotateLocked();
  /// One write+flush attempt; false on stream failure or an injected
  /// `audit.write` fault (the stream error state is cleared so a later
  /// attempt can succeed).
  bool TryWriteLocked(const std::string& line);

  const std::string path_;
  const Options options_;

  mutable std::mutex mu_;
  std::ofstream out_;
  Rng retry_rng_;       ///< jitter source, guarded by mu_
  uint64_t bytes_ = 0;  ///< current file size
  uint64_t seq_ = 0;
  uint64_t events_ = 0;
  uint64_t dropped_ = 0;
  uint64_t rotations_ = 0;
  std::atomic<Counter*> dropped_counter_{nullptr};
  std::atomic<HealthTracker*> health_{nullptr};
};

/// Checks that `line` is a valid secview.audit.v1 record: parseable
/// JSON object, correct schema tag, all required fields present with the
/// right types, outcome-specific invariants (errors carry a message,
/// successes carry a result count and rewritten query). Returns the
/// first violation found. Error-like outcomes are "error" (legacy),
/// "denied", "timeout", and "shed"; all share the same invariants.
Status ValidateAuditLine(std::string_view line);

}  // namespace secview::obs

#endif  // SECVIEW_OBS_AUDIT_H_
