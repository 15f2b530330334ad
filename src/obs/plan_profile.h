#ifndef SECVIEW_OBS_PLAN_PROFILE_H_
#define SECVIEW_OBS_PLAN_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/json.h"

namespace secview::obs {

/// The "schema" tag of every plan-profile JSON document: the per-query
/// JSONL line (ProfileLineJson) and the /profilez table
/// (PlanProfileJson). ValidateProfileLine accepts only this tag.
inline constexpr char kProfileSchema[] = "secview.profile.v2";

/// Flattened costs of one canonical plan step ("child::patient",
/// "descendant::*", "pred::eq", ...). The xpath profiler produces these
/// from its StepProfile tree (exclusive/self costs, so rows are additive
/// across steps and queries); this layer only aggregates and renders —
/// it never sees AST types.
struct PlanStepRecord {
  std::string signature;
  /// Coarse step class: child | descendant | self | empty | compose |
  /// union | filter | predicate.
  std::string axis;
  uint64_t queries = 0;  ///< profiled queries this step appeared in
  uint64_t invocations = 0;
  uint64_t in_cardinality = 0;
  uint64_t out_cardinality = 0;
  uint64_t nodes_touched = 0;
  uint64_t predicate_evals = 0;
  uint64_t sort_skips = 0;
  uint64_t self_nanos = 0;
  uint64_t total_nanos = 0;
  uint64_t alloc_bytes = 0;
  uint64_t alloc_count = 0;
};

/// Cross-query rollup of hot plan steps, keyed by canonical step
/// signature — the table behind /profilez. Same design as
/// PolicyStatsTable: lock-striped (a signature hashes to one stripe with
/// its own mutex + map), writers for different signatures rarely
/// contend, a scrape locks one stripe at a time, and entries are never
/// evicted (the signature set is bounded by the served query plans, not
/// by traffic).
class PlanProfileTable {
 public:
  struct Options {
    size_t stripes = 8;
  };

  PlanProfileTable() : PlanProfileTable(Options{}) {}
  explicit PlanProfileTable(Options options);

  /// Merges one profiled query's flattened steps into the table (each
  /// row's `queries` contribution is forced to 1 — a step occurs in a
  /// query once no matter how many plan positions it held).
  void Record(const std::vector<PlanStepRecord>& steps);

  /// Every step's rollup, hottest first (exclusive nodes_touched
  /// descending, then signature for determinism).
  std::vector<PlanStepRecord> Snapshot() const;

  /// The `k` hottest steps of Snapshot().
  std::vector<PlanStepRecord> TopK(size_t k) const;

  /// Distinct step signatures seen.
  size_t steps() const;

  /// Profiled queries recorded (Record calls).
  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, PlanStepRecord, std::less<>> entries;
  };

  size_t StripeFor(std::string_view signature) const;

  size_t stripes_n_;
  std::unique_ptr<Stripe[]> stripes_;
  std::atomic<uint64_t> queries_{0};
};

/// The /profilez text page: "N step(s) across Q profiled query(s)"
/// header plus a top-`top_k` table (signature, axis, queries,
/// invocations, in/out cardinality, nodes, predicates, sort skips,
/// self/total time). `rows` must be pre-sorted (Snapshot order).
std::string RenderPlanProfileText(const std::vector<PlanStepRecord>& rows,
                                  size_t top_k, uint64_t queries);

/// The /profilez?format=json document: {"schema":kProfileSchema,
/// "queries":Q,"steps":[{...}, ...]} with one object per record.
Json PlanProfileJson(const std::vector<PlanStepRecord>& rows,
                     uint64_t queries);

/// Validates one kProfileSchema JSONL line (the per-query form the
/// CLI --profile-json emits): parseable JSON object, correct "schema"
/// tag, policy/query/hot_step strings, unix_micros number, counters
/// object, and a recursively well-formed "plan" tree whose exclusive
/// nodes_touched sum to counters.nodes_touched. Returns the first
/// violation.
Status ValidateProfileLine(std::string_view line);

/// Parses a kProfileSchema JSONL document (one profile per line,
/// blank lines ignored), validating every line; the error names the
/// offending line number.
Result<std::vector<Json>> ParseProfileJsonl(std::string_view text);

/// Accumulates a validated line's plan tree into per-signature records
/// (the `profile-top` aggregation; merges into existing rows in `out`).
Status FlattenProfilePlanJson(const Json& plan,
                              std::vector<PlanStepRecord>* out);

}  // namespace secview::obs

#endif  // SECVIEW_OBS_PLAN_PROFILE_H_
