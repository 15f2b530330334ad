#ifndef SECVIEW_ENGINE_REWRITE_CACHE_H_
#define SECVIEW_ENGINE_REWRITE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "xpath/ast.h"

namespace secview {

struct CompiledPlan;

/// One prepared query: everything an execution needs that depends only
/// on (query text, optimize, unfold depth), built once on a cache miss
/// and immutable afterwards. The cache hands out shared_ptr<const> to
/// it, so a hit costs one reference and any number of threads share it.
struct CachedQuery {
  /// The query after rewriting over the view, before optimization
  /// (ExecuteResult::rewritten, the audit line, the CLI).
  PathPtr rewritten;
  /// The query that is evaluated: the optimized rewriting when the key
  /// has optimize set, otherwise the same AST as `rewritten`.
  PathPtr evaluated;
  /// `evaluated` lowered to bytecode (xpath/plan.h). Every entry the
  /// cache admits has one; it is null only on an uncached preparation
  /// whose compile failed.
  std::shared_ptr<const CompiledPlan> plan;
  /// PathSize of the two ASTs (binding $parameters keeps the size).
  int rewritten_size = 0;
  int evaluated_size = 0;
};

/// Thread-safe bounded cache of prepared queries, striped into N shards
/// so concurrent lookups of different keys never contend on one lock.
/// Each shard is guarded by its own shared_mutex: cache hits take the
/// lock shared (many readers in parallel), inserts take it exclusive.
///
/// Capacity is bounded per shard (total capacity / shard count, at
/// least one entry per shard) with LRU-ish eviction: every hit stamps
/// the entry with a global relaxed tick, and an insert into a full
/// shard evicts the entry with the smallest stamp. The stamp is an
/// atomic field updated under the *shared* lock, so hits stay
/// reader-parallel; eviction scans the shard, which is cheap because a
/// shard holds capacity/shards entries. The bound makes the cache safe
/// against hostile query streams (each distinct query text is a new
/// key) in single- and multi-threaded use alike.
///
/// Alongside the entry count, every shard tracks the byte footprint of
/// its entries (key + AST estimates + compiled-plan tables), recorded
/// at admission and subtracted exactly on eviction.
class ShardedRewriteCache {
 public:
  struct Options {
    /// Number of lock stripes. More shards = less contention; sizes are
    /// rounded up so every shard exists even for tiny capacities.
    size_t shards = 8;
    /// Total entry budget across all shards.
    size_t capacity = 1024;
  };

  /// What an Insert did, so the owner can maintain metrics without the
  /// cache knowing about any registry. The byte deltas are signed net
  /// changes (inserted minus evicted), so the owner can feed them
  /// straight into gauges.
  struct InsertOutcome {
    /// The resident value: the inserted one, or the already-present one
    /// when another thread inserted the same key first (both threads
    /// prepared the same deterministic entry; sharing maximizes reuse).
    std::shared_ptr<const CachedQuery> value;
    /// True iff this call added a new entry.
    bool inserted = false;
    /// True iff this call evicted an entry to make room.
    bool evicted = false;
    /// Shard the key mapped to (for per-shard gauges).
    size_t shard = 0;
    /// Net entry-footprint change in bytes.
    int64_t bytes_delta = 0;
    /// Net compiled-plan bytes change.
    int64_t plan_bytes_delta = 0;
  };

  ShardedRewriteCache();
  explicit ShardedRewriteCache(const Options& options);

  ShardedRewriteCache(const ShardedRewriteCache&) = delete;
  ShardedRewriteCache& operator=(const ShardedRewriteCache&) = delete;

  /// Returns the cached entry, or null on a miss. A hit refreshes the
  /// entry's recency stamp.
  std::shared_ptr<const CachedQuery> Lookup(const std::string& key);

  /// Inserts `value` under `key`, evicting the least-recently-used
  /// entry of the target shard when it is full. Keeps the existing
  /// value on a key collision (see InsertOutcome::value).
  InsertOutcome Insert(const std::string& key,
                       std::shared_ptr<const CachedQuery> value);

  /// Drops every entry (all shards locked exclusively, one at a time).
  void Clear();

  size_t shard_count() const { return shards_.size(); }
  size_t shard_capacity() const { return shard_capacity_; }
  /// Entries currently held by shard `i`.
  size_t ShardSize(size_t i) const;
  /// Byte footprint of shard `i` (keys + AST estimates + plan tables).
  size_t ShardBytes(size_t i) const;
  /// Total entries across shards (each shard read under its own lock;
  /// the sum is approximate while writers are active, exact at rest).
  size_t size() const;
  /// Total byte footprint across shards (same caveat as size()).
  size_t bytes() const;
  /// Lifetime evictions across shards.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Shard a key maps to (exposed for tests and metric labelling).
  size_t ShardIndex(const std::string& key) const;

  /// Footprint estimate an entry is admitted with: key bytes + entry
  /// struct + AST estimates (shared subexpressions counted once per
  /// occurrence; an unoptimized entry's single AST counted once) +
  /// compiled-plan byte_size(). Exposed for tests.
  static size_t EntryFootprintBytes(const std::string& key,
                                    const CachedQuery& value);

 private:
  struct Entry {
    std::shared_ptr<const CachedQuery> value;
    /// Footprint recorded at admission, so eviction subtracts exactly
    /// what insertion added.
    size_t bytes = 0;
    /// Recency stamp; atomic so hits can refresh it under the shared
    /// lock while other readers race on the same entry.
    std::atomic<uint64_t> last_used{0};
  };

  struct Shard {
    mutable std::shared_mutex mu;
    /// unique_ptr values keep Entry (with its atomic) stable across
    /// rehashes.
    std::unordered_map<std::string, std::unique_ptr<Entry>> map;
    /// Byte accounting, written under the exclusive lock and read under
    /// the shared lock.
    size_t bytes = 0;
  };

  uint64_t NextTick() { return tick_.fetch_add(1, std::memory_order_relaxed); }

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> tick_{1};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace secview

#endif  // SECVIEW_ENGINE_REWRITE_CACHE_H_
