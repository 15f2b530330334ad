// Tests for the memory observatory: the subsystem memory ledger
// (obs/mem_ledger), the eval-scratch footprint it reads, and the
// end-to-end reconciliation invariant — after a full engine
// setup/serve/teardown cycle the ledger balances exactly. That the
// teardown also returns its heap is checked by LeakSanitizer when this
// suite runs under -DSECVIEW_SANITIZE=address (scripts/check.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "obs/export.h"
#include "obs/mem_ledger.h"
#include "workload/hospital.h"
#include "xml/tree.h"
#include "xpath/plan.h"

namespace secview {
namespace {

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

TEST(HeapObservatoryTest, DocFootprintCountsThePathSummaryOnceBuilt) {
  auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->RegisterPolicy("nurse", kNursePolicy).ok());
  auto doc = GenerateDocument(MakeHospitalDtd(),
                              HospitalGeneratorOptions(5, 20'000));
  ASSERT_TRUE(doc.ok()) << doc.status();
  ExecuteOptions exec;
  exec.bindings = {{"wardNo", "3"}};

  // The first evaluation builds the summary (a class per node, plus the
  // extents), and the footprint, hence the xml.doc ledger row, shows it.
  const size_t before = doc->MemoryFootprintBytes();
  ASSERT_TRUE((*engine)->Execute("nurse", *doc, "//patient", exec).ok());
  const size_t after = doc->MemoryFootprintBytes();
  EXPECT_GE(after, before + 4 * doc->node_count());

  // Later evaluations reuse it.
  ASSERT_TRUE((*engine)->Execute("nurse", *doc, "//bill", exec).ok());
  EXPECT_EQ(doc->MemoryFootprintBytes(), after);
}

TEST(HeapObservatoryTest, LedgerAndCountersReconcileAcrossEngineLifecycle) {
  obs::MemLedger& ledger = obs::MemLedger::Instance();
  ledger.ResetForTesting();

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
  }

  // Teardown: the scoped charge balanced exactly.
  EXPECT_EQ(ledger.GetAccount("xml.doc").bytes(), 0);
  EXPECT_EQ(ledger.TotalBytes(), 0);

  ledger.ResetForTesting();
}

}  // namespace
}  // namespace secview
