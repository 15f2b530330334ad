#include "engine/rewrite_cache.h"

#include <algorithm>
#include <functional>
#include <mutex>

#include "xpath/plan.h"

namespace secview {

namespace {

size_t StringHeapBytes(const std::string& s) {
  return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
}

size_t QualBytes(const QualPtr& q);

/// Estimated heap footprint of an AST: node structs plus out-of-line
/// string payloads. Shared subexpressions are counted once per
/// occurrence — an overestimate for heavily shared rewrites, which errs
/// on the safe side for a gauge that exists to bound memory.
size_t PathBytes(const PathPtr& p) {
  if (!p) return 0;
  size_t bytes = sizeof(PathExpr) + StringHeapBytes(p->label);
  bytes += PathBytes(p->left);
  bytes += PathBytes(p->right);
  bytes += QualBytes(p->qualifier);
  return bytes;
}

size_t QualBytes(const QualPtr& q) {
  if (!q) return 0;
  size_t bytes = sizeof(Qualifier) + StringHeapBytes(q->constant) +
                 StringHeapBytes(q->attr);
  bytes += PathBytes(q->path);
  bytes += QualBytes(q->left);
  bytes += QualBytes(q->right);
  return bytes;
}

size_t PlanBytes(const CachedQuery& value) {
  return value.plan != nullptr ? value.plan->byte_size() : 0;
}

}  // namespace

size_t ShardedRewriteCache::EntryFootprintBytes(const std::string& key,
                                                const CachedQuery& value) {
  size_t bytes = key.size() + sizeof(Entry) + sizeof(CachedQuery) +
                 PathBytes(value.rewritten) + PlanBytes(value);
  if (value.evaluated != value.rewritten) bytes += PathBytes(value.evaluated);
  return bytes;
}

ShardedRewriteCache::ShardedRewriteCache() : ShardedRewriteCache(Options{}) {}

ShardedRewriteCache::ShardedRewriteCache(const Options& options) {
  const size_t shard_count = std::max<size_t>(1, options.shards);
  const size_t capacity = std::max<size_t>(1, options.capacity);
  // Round the per-shard budget up so the total is never below the
  // requested capacity (a shard always holds at least one entry).
  shard_capacity_ = (capacity + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ShardedRewriteCache::ShardIndex(const std::string& key) const {
  return std::hash<std::string>{}(key) % shards_.size();
}

std::shared_ptr<const CachedQuery> ShardedRewriteCache::Lookup(
    const std::string& key) {
  Shard& shard = *shards_[ShardIndex(key)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  it->second->last_used.store(NextTick(), std::memory_order_relaxed);
  return it->second->value;
}

ShardedRewriteCache::InsertOutcome ShardedRewriteCache::Insert(
    const std::string& key, std::shared_ptr<const CachedQuery> value) {
  InsertOutcome outcome;
  outcome.shard = ShardIndex(key);
  Shard& shard = *shards_[outcome.shard];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Another thread prepared the same key concurrently; keep its entry
    // (preparation is deterministic, so the values are equivalent).
    Entry& entry = *it->second;
    entry.last_used.store(NextTick(), std::memory_order_relaxed);
    outcome.value = entry.value;
    return outcome;
  }
  if (shard.map.size() >= shard_capacity_) {
    auto victim = shard.map.begin();
    uint64_t oldest = victim->second->last_used.load(std::memory_order_relaxed);
    for (auto cand = shard.map.begin(); cand != shard.map.end(); ++cand) {
      uint64_t stamp = cand->second->last_used.load(std::memory_order_relaxed);
      if (stamp < oldest) {
        oldest = stamp;
        victim = cand;
      }
    }
    const Entry& evicted = *victim->second;
    shard.bytes -= evicted.bytes;
    outcome.bytes_delta -= static_cast<int64_t>(evicted.bytes);
    outcome.plan_bytes_delta -=
        static_cast<int64_t>(PlanBytes(*evicted.value));
    shard.map.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    outcome.evicted = true;
  }
  auto entry = std::make_unique<Entry>();
  entry->value = value;
  entry->bytes = EntryFootprintBytes(key, *value);
  entry->last_used.store(NextTick(), std::memory_order_relaxed);
  shard.bytes += entry->bytes;
  outcome.bytes_delta += static_cast<int64_t>(entry->bytes);
  outcome.plan_bytes_delta += static_cast<int64_t>(PlanBytes(*value));
  shard.map.emplace(key, std::move(entry));
  outcome.value = std::move(value);
  outcome.inserted = true;
  return outcome;
}

void ShardedRewriteCache::Clear() {
  for (auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mu);
    shard->map.clear();
    shard->bytes = 0;
  }
}

size_t ShardedRewriteCache::ShardSize(size_t i) const {
  const Shard& shard = *shards_[i];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  return shard.map.size();
}

size_t ShardedRewriteCache::ShardBytes(size_t i) const {
  const Shard& shard = *shards_[i];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  return shard.bytes;
}

size_t ShardedRewriteCache::size() const {
  size_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) total += ShardSize(i);
  return total;
}

size_t ShardedRewriteCache::bytes() const {
  size_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) total += ShardBytes(i);
  return total;
}

}  // namespace secview
