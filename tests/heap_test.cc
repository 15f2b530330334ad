// Tests for the memory observatory: the sampled allocation-site heap
// profiler (obs/heap_profile), the secview.heap.v2 exporters and
// validator (obs/heap_export), the subsystem memory ledger
// (obs/mem_ledger), and the end-to-end reconciliation invariant — after
// a full engine setup/serve/teardown cycle the ledger balances exactly
// and the sampled site table agrees with the document footprint and RSS
// within sampling error.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/build_info.h"
#include "engine/engine.h"
#include "obs/export.h"
#include "obs/heap_export.h"
#include "obs/heap_profile.h"
#include "obs/json.h"
#include "obs/mem_ledger.h"
#include "workload/hospital.h"
#include "xml/tree.h"
#include "xpath/plan.h"

namespace secview {
namespace {

bool UnderSanitizer() { return GetBuildInfo().sanitizer != "none"; }

// ---------------------------------------------------------------------------
// HeapProfiler lifecycle and sampling

TEST(HeapProfilerTest, RefusesToStartUnderSanitizerBuilds) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  if (!UnderSanitizer()) {
    GTEST_SKIP() << "not a sanitizer build; refusal path not reachable";
  }
  Status refused = obs::HeapProfiler::Instance().Start();
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
  EXPECT_NE(refused.message().find("sanitizer"), std::string::npos) << refused;
  EXPECT_FALSE(obs::HeapProfiler::Instance().running());
}

TEST(HeapProfilerTest, RejectsZeroInterval) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  obs::HeapProfileOptions options;
  options.sample_interval_bytes = 0;
  options.allow_under_sanitizers = true;
  EXPECT_FALSE(obs::HeapProfiler::Instance().Start(options).ok());
  EXPECT_FALSE(obs::HeapProfiler::Instance().running());
}

TEST(HeapProfilerTest, StartStopLifecycle) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  if (UnderSanitizer()) GTEST_SKIP() << "frame-pointer walk vs sanitizer";
  obs::HeapProfiler& profiler = obs::HeapProfiler::Instance();
  obs::HeapProfileOptions options;
  options.sample_interval_bytes = 1024;
  ASSERT_TRUE(profiler.Start(options).ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start(options).ok()) << "double start must refuse";

  // Enough churn to guarantee samples at a 1KiB interval.
  std::vector<std::unique_ptr<char[]>> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(std::make_unique<char[]>(8192));
  obs::HeapProfileSnapshot live = profiler.Snapshot(/*symbolize=*/false);
  EXPECT_TRUE(live.running);
  EXPECT_EQ(live.sample_interval_bytes, 1024u);
  EXPECT_GT(live.samples, 0u);
  EXPECT_FALSE(live.sites.empty());

  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  obs::HeapProfileSnapshot stopped = profiler.Snapshot(/*symbolize=*/false);
  EXPECT_FALSE(stopped.running);
  EXPECT_EQ(stopped.samples, 0u);
  EXPECT_TRUE(stopped.sites.empty()) << "Stop discards all samples";
}

TEST(HeapProfilerTest, SnapshotTotalsAreTheSumOverSites) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  if (UnderSanitizer()) GTEST_SKIP() << "frame-pointer walk vs sanitizer";
  obs::HeapProfiler& profiler = obs::HeapProfiler::Instance();
  obs::HeapProfileOptions options;
  options.sample_interval_bytes = 2048;
  ASSERT_TRUE(profiler.Start(options).ok());
  std::vector<std::string> strings;
  for (int i = 0; i < 200; ++i) strings.emplace_back(1000, 'x');

  obs::HeapProfileSnapshot snapshot = profiler.Snapshot(/*symbolize=*/false);
  uint64_t live_bytes = 0, live_objects = 0, alloc_bytes = 0, samples = 0;
  for (const obs::HeapSiteSnapshot& site : snapshot.sites) {
    live_bytes += site.live_bytes;
    live_objects += site.live_objects;
    alloc_bytes += site.alloc_bytes;
    samples += site.samples;
    EXPECT_FALSE(site.frames.empty());
  }
  EXPECT_EQ(snapshot.live_bytes, live_bytes);
  EXPECT_EQ(snapshot.live_objects, live_objects);
  EXPECT_EQ(snapshot.alloc_bytes, alloc_bytes);
  // Every raw sample event lands in exactly one site: the global event
  // counter and the per-site counters must agree.
  EXPECT_EQ(snapshot.samples, samples);
  for (size_t i = 1; i < snapshot.sites.size(); ++i) {
    EXPECT_GE(snapshot.sites[i - 1].live_bytes, snapshot.sites[i].live_bytes);
  }
  profiler.Stop();
}

TEST(HeapProfilerTest, SampledLiveBytesTrackAllocationsWithinSamplingError) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  if (UnderSanitizer()) GTEST_SKIP() << "frame-pointer walk vs sanitizer";
  obs::HeapProfiler& profiler = obs::HeapProfiler::Instance();
  obs::HeapProfileOptions options;
  // Interval far below the allocation size: every block is sampled with
  // weight ~= its own size, so the estimate is tight.
  options.sample_interval_bytes = 4096;
  ASSERT_TRUE(profiler.Start(options).ok());

  constexpr size_t kBlock = 64 * 1024;
  constexpr size_t kCount = 64;
  std::vector<char*> blocks;
  blocks.reserve(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    blocks.push_back(new char[kBlock]);
    blocks.back()[0] = static_cast<char>(i);
  }
  const uint64_t expected = kBlock * kCount;
  obs::HeapProfileSnapshot held = profiler.Snapshot(/*symbolize=*/false);
  // Relative error ~ sqrt(N/B) is far under 25% at these sizes; the
  // estimate must bracket the truth.
  EXPECT_GT(held.live_bytes, expected * 3 / 4) << "sampled estimate too low";
  EXPECT_LT(held.live_bytes, expected * 5 / 4) << "sampled estimate too high";
  EXPECT_GE(held.samples, kCount)
      << "every 64KiB block crosses a 4KiB sampling interval";

  // Freeing sampled pointers must drain the estimated live bytes; the
  // cumulative churn statistics survive.
  for (char* block : blocks) delete[] block;
  obs::HeapProfileSnapshot drained = profiler.Snapshot(/*symbolize=*/false);
  EXPECT_LT(drained.live_bytes, expected / 10)
      << "frees of sampled blocks must decrement their sites";
  EXPECT_GE(drained.alloc_bytes, held.live_bytes)
      << "cumulative attribution never shrinks";
  profiler.Stop();
}

// Populates every stack-hash stripe by allocating from a family of
// distinct call depths, so the snapshot loop below has to copy sites
// out of each stripe it locks.
__attribute__((noinline)) void ChurnAtDepth(int depth,
                                            std::vector<std::string>* sink) {
  if (depth > 0) {
    ChurnAtDepth(depth - 1, sink);
  }
  sink->push_back(std::string(512, static_cast<char>('a' + depth % 26)));
}

TEST(HeapProfilerTest, SnapshotUnderFullSamplingDoesNotSelfDeadlock) {
  if (!AllocTrackingAvailable()) GTEST_SKIP() << "tracker compiled out";
  if (UnderSanitizer()) GTEST_SKIP() << "frame-pointer walk vs sanitizer";
  obs::HeapProfiler& profiler = obs::HeapProfiler::Instance();
  obs::HeapProfileOptions options;
  // Interval 1 samples every allocation — including, before the hook
  // shield existed, Snapshot's own copies made while it held a site
  // stripe lock, which self-deadlocked whenever such a copy's stack
  // hashed to the held stripe. This test hangs (and times out) on a
  // regression instead of failing an assertion.
  options.sample_interval_bytes = 1;
  ASSERT_TRUE(profiler.Start(options).ok());
  std::vector<std::string> sink;
  for (int round = 0; round < 50; ++round) {
    for (int depth = 1; depth <= 24; ++depth) {
      ChurnAtDepth(depth, &sink);
    }
    obs::HeapProfileSnapshot snapshot = profiler.Snapshot(/*symbolize=*/false);
    EXPECT_GT(snapshot.samples, 0u);
    sink.clear();
  }
  profiler.Stop();
}

TEST(HeapProfilerTest, SymbolizePcProducesAName) {
  // dladdr on an address inside our own (-rdynamic, exported) code; the
  // worst case falls back to a bare hex string, never empty.
  std::string name = obs::SymbolizePc(
      reinterpret_cast<uintptr_t>(&obs::SymbolizePc) + 1);
  EXPECT_FALSE(name.empty());
}

// ---------------------------------------------------------------------------
// secview.heap.v2 export, validation, parse round-trip

obs::HeapProfileSnapshot MakeFakeSnapshot() {
  obs::HeapProfileSnapshot snapshot;
  snapshot.running = true;
  snapshot.sample_interval_bytes = 65536;
  snapshot.samples = 3;
  obs::HeapSiteSnapshot site;
  site.frames = {0x401234, 0x401000};
  site.symbols = {"ParseXml(char const*)", "main"};
  site.live_bytes = 131072;
  site.live_objects = 2;
  site.alloc_bytes = 262144;
  site.alloc_objects = 4;
  site.samples = 3;
  snapshot.sites.push_back(site);
  snapshot.live_bytes = site.live_bytes;
  snapshot.live_objects = site.live_objects;
  snapshot.alloc_bytes = site.alloc_bytes;
  snapshot.alloc_objects = site.alloc_objects;
  return snapshot;
}

TEST(HeapExportTest, JsonValidatesAndParsesBackLossless) {
  obs::HeapProfileSnapshot snapshot = MakeFakeSnapshot();
  obs::Json doc = obs::HeapProfileJson(snapshot);
  std::string text = doc.Dump(true);
  Status valid = obs::ValidateHeapProfileJson(text);
  ASSERT_TRUE(valid.ok()) << valid;

  auto parsed = obs::ParseHeapProfileJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->running, snapshot.running);
  EXPECT_EQ(parsed->sample_interval_bytes, snapshot.sample_interval_bytes);
  EXPECT_EQ(parsed->samples, snapshot.samples);
  EXPECT_EQ(parsed->live_bytes, snapshot.live_bytes);
  ASSERT_EQ(parsed->sites.size(), 1u);
  EXPECT_EQ(parsed->sites[0].frames, snapshot.sites[0].frames);
  EXPECT_EQ(parsed->sites[0].symbols, snapshot.sites[0].symbols);
  EXPECT_EQ(parsed->sites[0].live_bytes, snapshot.sites[0].live_bytes);

  // Re-rendering the parsed snapshot reproduces the sampled data
  // byte-for-byte. (The process section is freshly read from the
  // kernel each render, so only the sampled half is stable.)
  obs::Json again = obs::HeapProfileJson(*parsed);
  EXPECT_EQ(again.Find("sampled")->Dump(), doc.Find("sampled")->Dump());
  EXPECT_EQ(again.Find("sites")->Dump(), doc.Find("sites")->Dump());
}

TEST(HeapExportTest, TopKBoundsTheSiteList) {
  obs::HeapProfileSnapshot snapshot = MakeFakeSnapshot();
  snapshot.sites.push_back(snapshot.sites[0]);
  snapshot.sites.push_back(snapshot.sites[0]);
  obs::Json doc = obs::HeapProfileJson(snapshot, /*top_k=*/2);
  ASSERT_NE(doc.Find("sites"), nullptr);
  EXPECT_EQ(doc.Find("sites")->items().size(), 2u);
  // The "sampled" section still reports the full site count.
  EXPECT_EQ(doc.Find("sampled")->Find("sites")->AsNumber(), 3);
}

TEST(HeapExportTest, CollapsedLinesAreRootFirstAndSanitized) {
  obs::HeapProfileSnapshot snapshot = MakeFakeSnapshot();
  snapshot.sites[0].symbols = {"leaf fn(int; long)", "root"};
  std::string folded = obs::RenderHeapProfileCollapsed(snapshot);
  // Root-first, ';'-joined, space, live bytes. Separator characters in
  // frame names are squeezed out.
  EXPECT_EQ(folded, "root;leaf_fn(int:_long) 131072\n");

  // Sites with zero live bytes produce no line.
  snapshot.sites[0].live_bytes = 0;
  EXPECT_EQ(obs::RenderHeapProfileCollapsed(snapshot), "");
}

TEST(HeapExportTest, TextRenderShowsProcessAndSites) {
  std::string text = obs::RenderHeapProfileText(MakeFakeSnapshot(), 10);
  EXPECT_NE(text.find("heap profile:"), std::string::npos) << text;
  EXPECT_NE(text.find("process: rss"), std::string::npos) << text;
  EXPECT_NE(text.find("ParseXml"), std::string::npos) << text;
}

TEST(HeapExportTest, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(obs::ValidateHeapProfileJson("not json").ok());
  EXPECT_FALSE(obs::ValidateHeapProfileJson("{}").ok());
  EXPECT_FALSE(
      obs::ValidateHeapProfileJson(R"({"schema":"secview.trace.v1"})").ok());

  // A well-formed document, broken one field at a time.
  obs::Json doc = obs::HeapProfileJson(MakeFakeSnapshot());
  obs::Json no_process = obs::Json::Parse(doc.Dump()).value();
  no_process.Set("process", 42);
  EXPECT_FALSE(obs::ValidateHeapProfileJson(no_process.Dump()).ok());

  obs::Json bad_site = obs::Json::Parse(doc.Dump()).value();
  obs::Json site = obs::Json::Object();
  site.Set("live_bytes", 1);
  obs::Json sites = obs::Json::Array();
  sites.Append(std::move(site));
  bad_site.Set("sites", std::move(sites));
  EXPECT_FALSE(obs::ValidateHeapProfileJson(bad_site.Dump()).ok());
}

// ---------------------------------------------------------------------------
// MemLedger

TEST(MemLedgerTest, AccountsChargeAndBalance) {
  obs::MemLedger& ledger = obs::MemLedger::Instance();
  ledger.ResetForTesting();
  obs::MemLedger::Account& account = ledger.GetAccount("test.subsystem");
  EXPECT_EQ(account.bytes(), 0);
  account.Add(1024);
  account.Add(2048);
  EXPECT_EQ(account.bytes(), 3072);
  EXPECT_EQ(account.charges(), 2u);
  account.Add(-3072);
  EXPECT_EQ(account.bytes(), 0);
  account.Set(500);
  EXPECT_EQ(account.bytes(), 500);
  // Same name, same account: references are stable.
  EXPECT_EQ(&ledger.GetAccount("test.subsystem"), &account);
  ledger.ResetForTesting();
}

TEST(MemLedgerTest, ScopedChargeAlwaysRefunds) {
  obs::MemLedger& ledger = obs::MemLedger::Instance();
  ledger.ResetForTesting();
  {
    obs::ScopedLedgerCharge charge("test.doc", 4096);
    EXPECT_EQ(ledger.GetAccount("test.doc").bytes(), 4096);
    EXPECT_EQ(ledger.TotalBytes(), 4096);
  }
  EXPECT_EQ(ledger.GetAccount("test.doc").bytes(), 0) << "exact balance";
  ledger.ResetForTesting();
}

TEST(MemLedgerTest, ProvidersAreLiveAndWinOverAccounts) {
  obs::MemLedger& ledger = obs::MemLedger::Instance();
  ledger.ResetForTesting();
  std::atomic<int64_t> footprint{100};
  ledger.GetAccount("test.cache").Set(7);  // stale charged value
  {
    obs::ScopedLedgerProvider provider(
        "test.cache", [&footprint] { return footprint.load(); });
    std::vector<obs::MemLedger::Row> rows = ledger.Snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].name, "test.cache");
    EXPECT_EQ(rows[0].bytes, 100) << "provider beats the charged account";
    EXPECT_TRUE(rows[0].live);
    footprint.store(250);
    EXPECT_EQ(ledger.Snapshot()[0].bytes, 250) << "providers read live state";
    EXPECT_EQ(ledger.TotalBytes(), 250);
  }
  // Provider unregistered: the charged account shows through again.
  std::vector<obs::MemLedger::Row> rows = ledger.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].bytes, 7);
  EXPECT_FALSE(rows[0].live);
  ledger.ResetForTesting();
}

TEST(MemLedgerTest, SnapshotIsNameSorted) {
  obs::MemLedger& ledger = obs::MemLedger::Instance();
  ledger.ResetForTesting();
  ledger.GetAccount("zeta").Set(1);
  ledger.GetAccount("alpha").Set(2);
  ledger.GetAccount("mid").Set(3);
  std::vector<obs::MemLedger::Row> rows = ledger.Snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "alpha");
  EXPECT_EQ(rows[1].name, "mid");
  EXPECT_EQ(rows[2].name, "zeta");
  ledger.ResetForTesting();
}

TEST(MemLedgerTest, RendersTextAndValidPrometheus) {
  obs::MemLedger& ledger = obs::MemLedger::Instance();
  ledger.ResetForTesting();
  ledger.GetAccount("xml.doc").Set(12345);
  obs::ScopedLedgerProvider provider("test.ring", [] { return int64_t{99}; });

  std::string text = RenderMemLedgerText(ledger);
  EXPECT_NE(text.find("xml.doc: 12345 B"), std::string::npos) << text;
  EXPECT_NE(text.find("test.ring: 99 B (live)"), std::string::npos) << text;
  EXPECT_NE(text.find("total: 12444 B"), std::string::npos) << text;

  std::string prom = RenderMemLedgerPrometheus(ledger, "secview");
  Status valid = obs::ValidatePrometheusText(prom);
  EXPECT_TRUE(valid.ok()) << valid << "\n" << prom;
  EXPECT_NE(prom.find("secview_mem_ledger_bytes{account=\"xml.doc\"} 12345"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("secview_mem_ledger_total_bytes 12444"),
            std::string::npos)
      << prom;
  ledger.ResetForTesting();
}

TEST(MemLedgerTest, ConcurrentChargesAndSnapshotsAreCoherent) {
  obs::MemLedger& ledger = obs::MemLedger::Instance();
  ledger.ResetForTesting();
  std::atomic<bool> stop{false};
  std::thread scraper([&ledger, &stop] {
    while (!stop.load()) {
      for (const obs::MemLedger::Row& row : ledger.Snapshot()) {
        volatile int64_t sink = row.bytes;
        (void)sink;
      }
    }
  });
  std::vector<std::thread> chargers;
  for (int t = 0; t < 4; ++t) {
    chargers.emplace_back([&ledger, t] {
      obs::MemLedger::Account& mine =
          ledger.GetAccount("worker." + std::to_string(t));
      for (int i = 0; i < 2000; ++i) {
        obs::ScopedLedgerCharge charge("shared.pool", 64);
        mine.Add(8);
        mine.Add(-8);
      }
    });
  }
  for (std::thread& t : chargers) t.join();
  stop.store(true);
  scraper.join();
  // Every scope balanced: all accounts must read zero.
  for (const obs::MemLedger::Row& row : ledger.Snapshot()) {
    EXPECT_EQ(row.bytes, 0) << row.name;
  }
  ledger.ResetForTesting();
}

// ---------------------------------------------------------------------------
// EvalScratch footprint publication

TEST(EvalScratchFootprintTest, PublishedBytesFeedTheProcessTotal) {
  const size_t before = EvalScratch::TotalPublishedBytes();
  {
    EvalScratch scratch;
    std::vector<NodeId>* set = scratch.AcquireSet();
    set->resize(10000);
    scratch.ReleaseSet(set);
    scratch.PublishFootprint();
    EXPECT_GE(scratch.FootprintBytes(), 10000 * sizeof(NodeId));
    EXPECT_GE(EvalScratch::TotalPublishedBytes(),
              before + 10000 * sizeof(NodeId));
  }
  // A destroyed scratch leaves the registry; the total drops back.
  EXPECT_EQ(EvalScratch::TotalPublishedBytes(), before);
}

// ---------------------------------------------------------------------------
// The reconciliation invariant: engine setup / serve / teardown

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

TEST(HeapObservatoryTest, LedgerAndCountersReconcileAcrossEngineLifecycle) {
  obs::MemLedger& ledger = obs::MemLedger::Instance();
  ledger.ResetForTesting();

  const bool sample = AllocTrackingAvailable() && !UnderSanitizer();
  if (sample) {
    obs::HeapProfileOptions options;
    options.sample_interval_bytes = 8192;
    ASSERT_TRUE(obs::HeapProfiler::Instance().Start(options).ok());
  }

  {
    auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE((*engine)->RegisterPolicy("nurse", kNursePolicy).ok());
    auto doc = GenerateDocument(MakeHospitalDtd(),
                                HospitalGeneratorOptions(5, 20'000));
    ASSERT_TRUE(doc.ok()) << doc.status();
    const size_t doc_bytes = doc->MemoryFootprintBytes();
    ASSERT_GT(doc_bytes, 0u);

    // The document charge is exact by construction: the scope charges
    // the measured footprint and refunds the same number.
    obs::ScopedLedgerCharge doc_charge("xml.doc",
                                       static_cast<int64_t>(doc_bytes));
    EXPECT_EQ(ledger.GetAccount("xml.doc").bytes(),
              static_cast<int64_t>(doc_bytes));

    (*engine)->Seal();
    ExecuteOptions exec;
    exec.bindings = {{"wardNo", "3"}};
    for (int i = 0; i < 20; ++i) {
      auto result = (*engine)->Execute("nurse", *doc, "//patient//bill", exec);
      ASSERT_TRUE(result.ok()) << result.status();
    }

    if (sample) {
      obs::HeapProfileSnapshot snapshot =
          obs::HeapProfiler::Instance().Snapshot(/*symbolize=*/false);
      EXPECT_GT(snapshot.samples, 0u) << "engine setup allocates enough "
                                         "to cross the sampling interval";
      // The document was built after Start: its node/string storage is
      // real live heap, so the estimate carries at least a large
      // fraction of what the ledger attributes to it.
      EXPECT_GE(snapshot.live_bytes, doc_bytes / 2)
          << "tree footprint must be visible in the sampled estimate";
      // The sampled estimate covers written heap bytes allocated since
      // Start, a subset of the resident set; it can exceed RSS only by
      // sampling error.
      EXPECT_LT(snapshot.live_bytes,
                ProcessResidentBytes() * 5 / 4 + 65536);
    }
  }

  // Teardown: the scoped charge balanced exactly.
  EXPECT_EQ(ledger.GetAccount("xml.doc").bytes(), 0);
  EXPECT_EQ(ledger.TotalBytes(), 0);

  if (sample) {
    // The sampled live estimate returns to the neighborhood of zero (it
    // only sees allocations since Start). Not exact: interned statics,
    // thread-local eval-scratch pools, and lazily-grown library caches
    // legitimately survive the scope — but the document and engine
    // must not.
    obs::HeapProfileSnapshot after =
        obs::HeapProfiler::Instance().Snapshot(/*symbolize=*/false);
    EXPECT_LT(after.live_bytes, 4u << 20)
        << "engine teardown must return its heap";
    obs::HeapProfiler::Instance().Stop();
  }
  ledger.ResetForTesting();
}

}  // namespace
}  // namespace secview
