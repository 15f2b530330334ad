// Concurrency coverage for the serve phase: many threads x mixed
// policies x cache hits/misses/evictions x recursive-view depth keys,
// always asserting byte-identical results against a serial engine, plus
// worker-pool batch semantics (input order, per-slot failures) and
// EXPLAIN-while-serving. Run these under -DSECVIEW_SANITIZE=thread
// (scripts/check.sh does) — a passing race-free run is the point.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/explain.h"
#include "engine/rewrite_cache.h"
#include "engine/worker_pool.h"
#include "obs/plan_profile.h"
#include "obs/policy_stats.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "workload/hospital.h"
#include "workload/synthetic.h"
#include "xml/parser.h"
#include "xpath/parser.h"
#include "xpath/plan.h"
#include "xpath/printer.h"

namespace secview {
namespace {

constexpr char kNursePolicy[] = R"(
  ann(hospital, dept) = [*/patient/wardNo = $wardNo]
  ann(dept, clinicalTrial) = N
  ann(clinicalTrial, patientInfo) = Y
  ann(treatment, trial) = N
  ann(treatment, regular) = N
  ann(trial, bill) = Y
  ann(regular, bill) = Y
  ann(regular, medication) = Y
)";

constexpr char kResearcherPolicy[] = R"(
  # Researchers see clinical-trial data of every ward, nothing else.
  ann(dept, patientInfo) = N
  ann(dept, staffInfo) = N
)";

// A mixed query set: repeats make cache hits, distinct texts make
// misses, and all are valid over both views' exposed labels.
const char* kQueries[] = {
    "//patient/name",  "//bill",           "//patient//bill",
    "//patient/name",  "//wardNo",         "//patient[wardNo]/name",
    "//bill",          "patientInfo//name", "//medication",
    "//patient/name | //bill",
};

std::unique_ptr<SecureQueryEngine> MakeHospitalEngine(
    const EngineOptions& options = EngineOptions{}) {
  auto engine = SecureQueryEngine::Create(MakeHospitalDtd(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  auto e = std::move(engine).value();
  EXPECT_TRUE(e->RegisterPolicy("nurse", kNursePolicy).ok());
  EXPECT_TRUE(e->RegisterPolicy("researcher", kResearcherPolicy).ok());
  return e;
}

XmlTree MakeHospitalDoc() {
  auto doc = GenerateDocument(MakeHospitalDtd(),
                              HospitalGeneratorOptions(7, 60'000));
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

ExecuteOptions NurseOptions() {
  ExecuteOptions options;
  options.bindings = {{"wardNo", "3"}};
  return options;
}

// A cache entry whose rewritten and evaluated AST is `query`, with its
// compiled plan when `with_plan` is set.
std::shared_ptr<const CachedQuery> MakeEntry(const PathPtr& query,
                                             bool with_plan = false) {
  auto entry = std::make_shared<CachedQuery>();
  entry->rewritten = query;
  entry->evaluated = query;
  if (with_plan) entry->plan = CompilePlan(query);
  return entry;
}

TEST(ShardedRewriteCacheTest, LookupInsertEvict) {
  ShardedRewriteCache::Options options;
  options.shards = 2;
  options.capacity = 4;
  ShardedRewriteCache cache(options);
  EXPECT_EQ(cache.shard_count(), 2u);
  EXPECT_EQ(cache.shard_capacity(), 2u);
  EXPECT_EQ(cache.Lookup("missing"), nullptr);

  // Insert more keys than the budget; every shard stays within its
  // capacity, evictions are counted, and the byte accounting shrinks
  // along with the entries.
  for (int i = 0; i < 20; ++i) {
    auto r = ParseXPath("//bill");
    ASSERT_TRUE(r.ok());
    cache.Insert("key" + std::to_string(i), MakeEntry(*r));
  }
  EXPECT_LE(cache.ShardSize(0), cache.shard_capacity());
  EXPECT_LE(cache.ShardSize(1), cache.shard_capacity());
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GE(cache.evictions(), 16u);
  EXPECT_GT(cache.bytes(), 0u);
  EXPECT_EQ(cache.ShardBytes(0) + cache.ShardBytes(1), cache.bytes());

  // A key collision keeps the resident value.
  auto a = ParseXPath("//bill");
  auto b = ParseXPath("//wardNo");
  ASSERT_TRUE(a.ok() && b.ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  auto first = cache.Insert("k", MakeEntry(*a));
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.bytes_delta,
            static_cast<int64_t>(ShardedRewriteCache::EntryFootprintBytes(
                "k", *MakeEntry(*a))));
  auto second = cache.Insert("k", MakeEntry(*b));
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(second.value->evaluated.get(), a->get());
  EXPECT_EQ(second.bytes_delta, 0);
  EXPECT_EQ(cache.Lookup("k")->evaluated.get(), a->get());
}

TEST(ShardedRewriteCacheTest, LruIshEvictionKeepsRecentlyUsed) {
  ShardedRewriteCache::Options options;
  options.shards = 1;  // one shard makes the eviction order deterministic
  options.capacity = 3;
  ShardedRewriteCache cache(options);
  auto q = ParseXPath("//bill");
  ASSERT_TRUE(q.ok());
  cache.Insert("a", MakeEntry(*q));
  cache.Insert("b", MakeEntry(*q));
  cache.Insert("c", MakeEntry(*q));
  // Touch "a" so "b" is now the least recently used.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("d", MakeEntry(*q));
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);
}

TEST(ShardedRewriteCacheTest, CompiledPlanEvictionKeepsAccountingExact) {
  // Entries carrying compiled plans must evict with their byte and plan
  // byte counts subtracted exactly.
  ShardedRewriteCache::Options options;
  options.shards = 1;
  options.capacity = 2;
  ShardedRewriteCache cache(options);
  auto q = ParseXPath("//bill");
  ASSERT_TRUE(q.ok());

  auto first = cache.Insert("a", MakeEntry(*q, /*with_plan=*/true));
  ASSERT_NE(first.value->plan, nullptr);
  const int64_t plan_bytes =
      static_cast<int64_t>(first.value->plan->byte_size());
  EXPECT_EQ(first.plan_bytes_delta, plan_bytes);
  EXPECT_EQ(first.bytes_delta,
            static_cast<int64_t>(
                ShardedRewriteCache::EntryFootprintBytes("a", *first.value)));
  auto second = cache.Insert("b", MakeEntry(*q, /*with_plan=*/true));
  EXPECT_EQ(cache.bytes(), static_cast<size_t>(first.bytes_delta +
                                               second.bytes_delta));

  // Filling past capacity evicts a plan-carrying entry; the deltas net
  // to zero for same-sized entries and the totals still equal exactly
  // what the resident entries account for.
  cache.Lookup("b");  // make "a" the LRU victim
  auto evicting = cache.Insert("c", MakeEntry(*q, /*with_plan=*/true));
  EXPECT_TRUE(evicting.evicted);
  EXPECT_EQ(evicting.plan_bytes_delta, 0);  // evicted one plan, added one
  EXPECT_EQ(evicting.bytes_delta, 0);
  EXPECT_EQ(cache.bytes(), static_cast<size_t>(first.bytes_delta +
                                               second.bytes_delta));
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ConcurrentEngineTest, CompiledPlanEvictionUnderContentionIsRaceFree) {
  // A tiny cache and a query stream wider than it: every thread drives
  // compiles, same-key insert collisions, and evictions of entries whose
  // bytecode other threads are concurrently executing. TSan-clean is
  // the point; results must still match the serial engine.
  XmlTree doc = MakeHospitalDoc();
  auto serial = MakeHospitalEngine();
  std::vector<std::vector<NodeId>> expected;
  for (const char* q : kQueries) {
    auto r = serial->Execute("nurse", doc, q, NurseOptions());
    ASSERT_TRUE(r.ok()) << q << ": " << r.status();
    expected.push_back(r->nodes);
  }

  EngineOptions tiny;
  tiny.cache_shards = 2;
  tiny.cache_capacity = 4;  // far fewer entries than distinct keys
  auto engine = MakeHospitalEngine(tiny);
  engine->Seal();

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int qi = (t + round) % static_cast<int>(std::size(kQueries));
        auto r = engine->Execute("nurse", doc, kQueries[qi], NurseOptions());
        if (!r.ok() || r->nodes != expected[qi]) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(engine->metrics().GetCounter("engine.cache.evictions").value(),
            0u);
  EXPECT_GT(engine->metrics().GetCounter("engine.plan.compiles").value(), 0u);
  // Gauges must stay balanced after the dust settles: every insert and
  // evict delta netted out against resident entries, each with a plan.
  const int64_t plan_count =
      engine->metrics().GetGauge("engine.plan.cached").value();
  const int64_t plan_bytes =
      engine->metrics().GetGauge("engine.plan.cache_bytes").value();
  EXPECT_EQ(plan_count,
            engine->metrics().GetGauge("engine.cache.size").value());
  EXPECT_LE(plan_count, 4);
  EXPECT_GT(plan_bytes, 0);
  EXPECT_GT(engine->metrics().GetGauge("engine.cache.bytes").value(), 0);
}

TEST(ConcurrentEngineTest, SealStopsRegistration) {
  auto engine = MakeHospitalEngine();
  EXPECT_FALSE(engine->sealed());
  engine->Seal();
  EXPECT_TRUE(engine->sealed());
  Status late = engine->RegisterPolicy("late", kResearcherPolicy);
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  // Serving still works after sealing.
  XmlTree doc = MakeHospitalDoc();
  EXPECT_TRUE(engine->Execute("nurse", doc, "//bill", NurseOptions()).ok());
}

TEST(ConcurrentEngineTest, PoolConstructionSealsEngine) {
  auto engine = MakeHospitalEngine();
  QueryWorkerPool::Options options;
  options.threads = 2;
  QueryWorkerPool pool(*engine, options);
  EXPECT_EQ(pool.threads(), 2u);
  EXPECT_TRUE(engine->sealed());
  EXPECT_EQ(engine->metrics().GetGauge("engine.pool.threads").value(), 2);
}

// The central identity check: a multi-threaded engine must return
// byte-identical results (node ids, order, rewritten queries) to a
// serial engine for the same query stream.
TEST(ConcurrentEngineTest, ManyThreadsMatchSerialResults) {
  XmlTree doc = MakeHospitalDoc();

  // Serial baseline on its own engine.
  auto serial = MakeHospitalEngine();
  std::vector<std::vector<NodeId>> nurse_expected;
  std::vector<std::vector<NodeId>> researcher_expected;
  std::vector<std::string> nurse_rewritten;
  for (const char* q : kQueries) {
    auto rn = serial->Execute("nurse", doc, q, NurseOptions());
    ASSERT_TRUE(rn.ok()) << q << ": " << rn.status();
    nurse_expected.push_back(rn->nodes);
    nurse_rewritten.push_back(ToXPathString(rn->rewritten));
    auto rr = serial->Execute("researcher", doc, q);
    ASSERT_TRUE(rr.ok()) << q << ": " << rr.status();
    researcher_expected.push_back(rr->nodes);
  }

  // Shared concurrent engine with a small sharded cache so hits,
  // misses, collisions, and evictions all happen under contention.
  EngineOptions small;
  small.cache_shards = 4;
  small.cache_capacity = 8;
  auto engine = MakeHospitalEngine(small);
  engine->Seal();

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int num_queries = static_cast<int>(std::size(kQueries));
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the query list at its own offset so threads
        // collide on some keys and diverge on others.
        int i = (t + round) % num_queries;
        const char* q = kQueries[i];
        if (t % 2 == 0) {
          auto r = engine->Execute("nurse", doc, q, NurseOptions());
          if (!r.ok() || r->nodes != nurse_expected[i] ||
              ToXPathString(r->rewritten) != nurse_rewritten[i]) {
            failures.fetch_add(1);
          }
        } else {
          auto r = engine->Execute("researcher", doc, q);
          if (!r.ok() || r->nodes != researcher_expected[i]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  obs::MetricsRegistry& metrics = engine->metrics();
  EXPECT_GT(metrics.GetCounter("engine.cache.hits").value(), 0u);
  EXPECT_GT(metrics.GetCounter("engine.cache.misses").value(), 0u);
  // The tiny capacity guarantees the eviction path ran under load.
  EXPECT_GT(metrics.GetCounter("engine.cache.evictions").value(), 0u);
  EXPECT_LE(metrics.GetGauge("engine.cache.size").value(),
            2 * static_cast<int64_t>(small.cache_capacity));
}

// Plan profiling under contention: many threads feed the lock-striped
// PlanProfileTable while results stay identical to unprofiled runs, and
// the table's exclusive rows stay additive against the aggregate
// node-touch counter.
TEST(ConcurrentEngineTest, PlanProfilingUnderConcurrencyStaysConsistent) {
  XmlTree doc = MakeHospitalDoc();
  auto serial = MakeHospitalEngine();
  std::vector<std::vector<NodeId>> expected;
  for (const char* q : kQueries) {
    auto r = serial->Execute("nurse", doc, q, NurseOptions());
    ASSERT_TRUE(r.ok()) << q << ": " << r.status();
    expected.push_back(r->nodes);
  }

  auto engine = MakeHospitalEngine();
  obs::PlanProfileTable table;
  engine->AttachPlanProfiles(&table);  // implies profiling on every query
  engine->Seal();

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int num_queries = static_cast<int>(std::size(kQueries));
      for (int round = 0; round < kRounds; ++round) {
        int i = (t + round) % num_queries;
        auto r = engine->Execute("nurse", doc, kQueries[i], NurseOptions());
        if (!r.ok() || r->nodes != expected[i] || r->profile == nullptr ||
            r->stats.hot_step.empty()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_EQ(table.queries(),
            static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kRounds));
  uint64_t table_nodes = 0;
  for (const obs::PlanStepRecord& row : table.Snapshot()) {
    table_nodes += row.nodes_touched;
  }
  EXPECT_EQ(table_nodes,
            engine->metrics().GetCounter("eval.nodes_touched").value());
}

// Recursive views key the cache by unfolding depth; concurrent queries
// against documents of different heights must stay isolated.
TEST(ConcurrentEngineTest, RecursiveDepthKeysUnderConcurrency) {
  RecursiveFixture fixture = MakeRecursiveFixture();
  auto engine = SecureQueryEngine::Create(std::move(fixture.dtd));
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->RegisterPolicy("p", fixture.spec_text).ok());

  auto shallow = ParseXml(
      "<doc><section><title>t</title><meta/></section></doc>");
  auto deep = ParseXml(R"(
    <doc>
      <section><title>t1</title>
        <meta>
          <section><title>t1.1</title>
            <meta>
              <section><title>t1.1.1</title><meta/></section>
            </meta>
          </section>
        </meta>
      </section>
    </doc>
  )");
  ASSERT_TRUE(shallow.ok() && deep.ok());

  auto expected_shallow = (*engine)->Execute("p", *shallow, "//title");
  auto expected_deep = (*engine)->Execute("p", *deep, "//title");
  ASSERT_TRUE(expected_shallow.ok() && expected_deep.ok());
  ASSERT_NE(expected_shallow->nodes.size(), expected_deep->nodes.size());

  (*engine)->Seal();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        const bool use_deep = (t + round) % 2 == 0;
        const XmlTree& doc = use_deep ? *deep : *shallow;
        const auto& expected =
            use_deep ? expected_deep->nodes : expected_shallow->nodes;
        auto r = (*engine)->Execute("p", doc, "//title");
        if (!r.ok() || r->nodes != expected) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentEngineTest, ExecuteBatchPreservesInputOrder) {
  auto engine = MakeHospitalEngine();
  XmlTree doc = MakeHospitalDoc();

  std::vector<std::string> queries;
  for (int round = 0; round < 5; ++round) {
    for (const char* q : kQueries) queries.push_back(q);
  }
  // Serial expectations, in input order.
  auto serial = MakeHospitalEngine();
  std::vector<std::vector<NodeId>> expected;
  for (const std::string& q : queries) {
    auto r = serial->Execute("nurse", doc, q, NurseOptions());
    ASSERT_TRUE(r.ok()) << q;
    expected.push_back(r->nodes);
  }

  QueryWorkerPool::Options pool_options;
  pool_options.threads = 4;
  QueryWorkerPool pool(*engine, pool_options);
  auto results = pool.ExecuteBatch("nurse", doc, queries, NurseOptions());
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << queries[i] << ": " << results[i].status();
    EXPECT_EQ(results[i]->nodes, expected[i]) << "slot " << i;
  }
  EXPECT_GE(engine->metrics().GetCounter("engine.pool.tasks").value(),
            queries.size());
  EXPECT_GE(engine->metrics().GetCounter("engine.pool.batches").value(), 1u);
}

TEST(ConcurrentEngineTest, ExecuteBatchReportsPerSlotFailures) {
  auto engine = MakeHospitalEngine();
  XmlTree doc = MakeHospitalDoc();
  std::vector<std::string> queries = {"//bill", "//(((", "//wardNo"};
  auto results = engine->ExecuteBatch("nurse", doc, queries, NurseOptions(),
                                      /*threads=*/2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(engine->sealed());
}

TEST(ConcurrentEngineTest, EngineExecuteBatchSerialPathMatchesPool) {
  auto engine = MakeHospitalEngine();
  XmlTree doc = MakeHospitalDoc();
  std::vector<std::string> queries(kQueries, std::end(kQueries));
  auto serial = engine->ExecuteBatch("nurse", doc, queries, NurseOptions(),
                                     /*threads=*/1);
  auto pooled = engine->ExecuteBatch("nurse", doc, queries, NurseOptions(),
                                     /*threads=*/3);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok() && pooled[i].ok());
    EXPECT_EQ(serial[i]->nodes, pooled[i]->nodes) << "slot " << i;
    EXPECT_EQ(ToXPathString(serial[i]->evaluated),
              ToXPathString(pooled[i]->evaluated));
  }
}

// Explain runs the same prepared rewriter/optimizer the serving threads
// use; it must neither race with them nor disturb the cache.
TEST(ConcurrentEngineTest, ExplainWhileServing) {
  auto engine = MakeHospitalEngine();
  XmlTree doc = MakeHospitalDoc();
  engine->Seal();

  auto baseline = engine->Explain("nurse", "//patient//bill");
  ASSERT_TRUE(baseline.ok());
  const std::string baseline_text = baseline->ToText();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> servers;
  for (int t = 0; t < 4; ++t) {
    servers.emplace_back([&] {
      while (!stop.load()) {
        auto r = engine->Execute("nurse", doc, "//patient//bill",
                                 NurseOptions());
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    auto explain = engine->Explain("nurse", "//patient//bill");
    if (!explain.ok() || explain->ToText() != baseline_text) {
      failures.fetch_add(1);
    }
  }
  stop.store(true);
  for (std::thread& t : servers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Execute-with-explain agrees with the standalone Explain while the
  // cache is warm (the explain pass must not be poisoned by caching).
  ExecuteOptions options = NurseOptions();
  QueryExplain via_execute;
  options.explain = &via_execute;
  ASSERT_TRUE(
      engine->Execute("nurse", doc, "//patient//bill", options).ok());
  QueryExplain expected = std::move(baseline).value();
  EXPECT_EQ(via_execute.ToText(), expected.ToText());
}

// The EvalLabel/EvalWildcard fast path (single context node skips
// SortUnique) must fire and be observable.
TEST(ConcurrentEngineTest, SortSkipCounterFires) {
  auto engine = MakeHospitalEngine();
  XmlTree doc = MakeHospitalDoc();
  ASSERT_TRUE(engine->Execute("nurse", doc, "//bill", NurseOptions()).ok());
  EXPECT_GT(engine->metrics().GetCounter("eval.sort_skips").value(), 0u);
}

// ---------------------------------------------------------------------------
// New observability state under concurrency (the TSan surface for the
// per-policy table and the request-trace ring).

TEST(ConcurrentObsTest, PolicyStatsRecordAndSnapshotRace) {
  obs::PolicyStatsTable table;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& row : table.Snapshot()) {
        // Each stripe is locked during copy: a row is always internally
        // consistent (outcome parts never exceed the query count).
        EXPECT_LE(row.ok + row.denied + row.timeout + row.shed, row.queries);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&table, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        table.Record("policy" + std::to_string(i % 7),
                     i % 11 == 0 ? obs::ServeOutcome::kDenied
                                 : obs::ServeOutcome::kOk,
                     static_cast<uint64_t>(i % 500), 3, 128);
        (void)t;
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(table.total(), uint64_t{kWriters} * kPerWriter);
  uint64_t sum = 0;
  for (const auto& row : table.Snapshot()) sum += row.queries;
  EXPECT_EQ(sum, uint64_t{kWriters} * kPerWriter);
}

TEST(ConcurrentObsTest, TraceStoreOfferAndSnapshotRace) {
  obs::RequestTraceStore::Options options;
  options.sample_every = 2;
  options.slow_micros = 400;
  options.capacity = 16;
  obs::RequestTraceStore store(options);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& entry : store.Snapshot()) {
        EXPECT_EQ(entry.trace_id.size(), 16u);
        EXPECT_FALSE(entry.reason.empty());
      }
      std::string jsonl = store.SnapshotJsonl();
      EXPECT_TRUE(jsonl.empty() || jsonl.back() == '\n');
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&store, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        obs::Trace trace("secview.request");
        {
          obs::ScopedSpan span(&trace, "evaluate");
          span.SetAttr("writer", t);
        }
        store.Offer("policy" + std::to_string(t), "//q", Status::OK(),
                    static_cast<uint64_t>(i), trace);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(store.offered(), uint64_t{kWriters} * kPerWriter);
  EXPECT_GT(store.retained(), 0u);
  EXPECT_EQ(store.Snapshot().size(), 16u);
}

TEST(ConcurrentEngineTest, BatchExecutionFeedsPolicyAndTraceStores) {
  auto engine = MakeHospitalEngine();
  XmlTree doc = MakeHospitalDoc();
  obs::PolicyStatsTable policy_stats;
  engine->AttachPolicyStats(&policy_stats);
  obs::RequestTraceStore::Options trace_options;
  trace_options.sample_every = 1;
  obs::RequestTraceStore traces(trace_options);
  engine->AttachTraceStore(&traces);

  QueryWorkerPool pool(*engine);
  std::vector<std::string> queries(kQueries, kQueries + 10);
  for (int round = 0; round < 3; ++round) {
    for (const auto& result :
         pool.ExecuteBatch("nurse", doc, queries, NurseOptions())) {
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }
  EXPECT_EQ(policy_stats.total(), 30u);
  std::vector<obs::PolicyStatsTable::PolicySnapshot> rows =
      policy_stats.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].policy, "nurse");
  EXPECT_EQ(rows[0].ok, 30u);
  EXPECT_EQ(traces.offered(), 30u);
  EXPECT_GT(traces.retained(), 0u);
  // Worker threads each built their own trace; the retained span trees
  // are complete (root with at least an evaluate child).
  for (const auto& entry : traces.Snapshot()) {
    const obs::Json* children = entry.spans.Find("children");
    ASSERT_NE(children, nullptr);
    EXPECT_FALSE(children->items().empty());
  }
}

// CancelAll racing batch admission racing pool teardown, repeatedly.
// Several client threads submit batches while a canceller spams
// CancelAll, so cancellation hits batches before, during, and after the
// admission loop's single lock hold; the pool is then destroyed (drain +
// join) the moment the batches return. Every slot must be filled with a
// definite outcome — a cancelled batch reports Cancelled (or a
// late-stage resource failure), never a hang, a missing slot, or a torn
// result. Run under TSan (scripts/check.sh does).
TEST(ConcurrentEngineTest, CancelAllRacesAdmissionAndShutdown) {
  auto engine = MakeHospitalEngine();
  XmlTree doc = MakeHospitalDoc();
  std::vector<std::string> queries(kQueries, kQueries + 10);
  ExecuteOptions options = NurseOptions();

  for (int iter = 0; iter < 20; ++iter) {
    QueryWorkerPool::Options pool_options;
    pool_options.threads = 2;  // keep the queue populated mid-batch
    QueryWorkerPool pool(*engine, pool_options);

    constexpr int kSubmitters = 3;
    std::vector<std::vector<Result<ExecuteResult>>> outcomes(kSubmitters);
    std::atomic<bool> stop_cancelling{false};
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        outcomes[t] = pool.ExecuteBatch("nurse", doc, queries, options);
      });
    }
    std::thread canceller([&] {
      while (!stop_cancelling.load()) {
        pool.CancelAll();
        std::this_thread::yield();
      }
    });
    for (std::thread& t : submitters) t.join();
    stop_cancelling.store(true);
    canceller.join();
    // Pool destruction (drain + join) runs here, immediately after the
    // last batch returned — the shutdown edge the test is about.

    for (const auto& batch : outcomes) {
      ASSERT_EQ(batch.size(), queries.size());
      for (const Result<ExecuteResult>& r : batch) {
        if (r.ok()) continue;
        const StatusCode code = r.status().code();
        EXPECT_TRUE(code == StatusCode::kCancelled ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kDeadlineExceeded)
            << r.status();
        // The placeholder a batch slot is initialized with must never
        // leak out as a result.
        EXPECT_EQ(r.status().message().find("batch slot not filled"),
                  std::string::npos);
      }
    }
  }
}

}  // namespace
}  // namespace secview
