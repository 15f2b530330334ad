#ifndef SECVIEW_OBS_TRACE_STORE_H_
#define SECVIEW_OBS_TRACE_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/serving_stats.h"
#include "obs/trace.h"

namespace secview::obs {

/// Bounded in-memory ring of sampled serve-mode request traces, the
/// store behind the /tracez telemetry page and the secview.trace.v1
/// JSONL export.
///
/// The engine builds an obs::Trace span tree for a request only when a
/// store is attached and enabled (sample_every > 0), then Offers the
/// finished trace here. The store decides retention:
///   - every Nth offered request (1-in-N head sampling), plus
///   - every request at or above `slow_micros`, plus
///   - every request that did not end kOk (denied/timeout/shed) —
/// so the ring skews toward exactly the traffic an operator wants to
/// inspect. Entries get a process-unique trace id that is stable across
/// scrapes (ids identify a retained trace, not a scrape).
///
/// Thread-safety: Offer/Snapshot lock one mutex around the ring, the
/// same discipline as SlowQueryLog; the sampling counter is a lone
/// atomic so the keep/drop decision itself never serializes writers.
/// Like the slow-query log, entries hold query *text* and span metadata,
/// never query results — nothing a policy hid can leak through /tracez.
class RequestTraceStore {
 public:
  struct Options {
    /// Keep every Nth finished request (1 = every request). 0 disables
    /// request tracing entirely: enabled() is false and the engine
    /// never constructs a Trace, so the serve path pays nothing.
    uint64_t sample_every = 0;
    /// Latency at or above which a request is always retained.
    uint64_t slow_micros = 100'000;
    /// Ring capacity (newest entries win).
    size_t capacity = 64;
  };

  RequestTraceStore() : RequestTraceStore(Options{}) {}
  explicit RequestTraceStore(Options options);

  bool enabled() const { return options_.sample_every != 0; }
  const Options& options() const { return options_; }

  struct Entry {
    std::string trace_id;  ///< 16 lowercase hex chars, process-unique
    int64_t unix_micros = 0;  ///< wall clock at completion
    std::string policy;
    std::string query;
    ServeOutcome outcome = ServeOutcome::kOk;
    /// Why the ring kept it: "sampled", "slow", "denied", "timeout",
    /// or "shed" (outcome beats slow beats sampled).
    std::string reason;
    uint64_t latency_micros = 0;
    /// The span tree as Trace::ToJson() produced it.
    Json spans;
  };

  /// Offers one finished request; finishes the trace, applies the
  /// sampling decision, and retains a ring entry if it qualifies.
  void Offer(std::string_view policy, std::string_view query,
             ServeOutcome outcome, uint64_t latency_micros, Trace& trace);

  /// Newest-first copy of the retained entries.
  std::vector<Entry> Snapshot() const;

  /// Lifetime counts: requests offered, requests retained.
  uint64_t offered() const { return offered_.load(std::memory_order_relaxed); }
  uint64_t retained() const;

  /// Approximate retained heap behind the ring (entry strings + span
  /// JSON), for the memory ledger's "obs.trace_ring" provider.
  size_t ApproxBytes() const;

  /// One secview.trace.v1 JSON object for an entry:
  /// {"schema":"secview.trace.v1","trace_id":...,"unix_micros":...,
  ///  "policy":...,"query":...,"outcome":...,"reason":...,
  ///  "latency_micros":...,"spans":{...}}.
  static Json EntryJson(const Entry& entry);

  /// The whole ring as JSONL (one EntryJson per line, newest first) —
  /// the /tracez?format=json payload and trace-export's input format.
  std::string SnapshotJsonl() const;

  /// Human-oriented /tracez rendering: a header line plus one indented
  /// span-per-line block per retained trace.
  std::string SnapshotText() const;

 private:
  Options options_;

  std::atomic<uint64_t> offered_{0};

  mutable std::mutex mu_;
  std::vector<Entry> ring_;
  size_t next_ = 0;  ///< slot the next entry lands in
  uint64_t retained_count_ = 0;
};

}  // namespace secview::obs

#endif  // SECVIEW_OBS_TRACE_STORE_H_
