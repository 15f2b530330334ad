#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/budget.h"
#include "dtd/dtd_parser.h"
#include "engine/engine.h"
#include "engine/worker_pool.h"
#include "obs/audit.h"
#include "workload/hospital.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace secview {
namespace {

/// Hostile-input hardening and defensive-serving harness
/// (docs/robustness.md): every input below is adversarial — deeply
/// nested documents, billion-laughs-shaped DTDs, giant XPath
/// expressions, queries engineered to run forever — and every assertion
/// is that the library answers with a clean non-OK Status instead of a
/// crash, a hang, or unbounded allocation. Run under ASan/TSan via
/// scripts/check.sh.

// ---------------------------------------------------------------------------
// XML parser limits

TEST(HostileXmlTest, NestingBeyondDefaultDepthIsRejected) {
  constexpr int kDepth = 20'000;  // > the 16384 default
  std::string xml;
  xml.reserve(kDepth * 8);
  for (int i = 0; i < kDepth; ++i) xml += "<a>";
  for (int i = 0; i < kDepth; ++i) xml += "</a>";
  auto result = ParseXml(xml);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status();
}

TEST(HostileXmlTest, CustomDepthLimitIsEnforcedExactly) {
  XmlParseOptions options;
  options.max_depth = 16;
  std::string deep, ok;
  for (int i = 0; i < 32; ++i) deep += "<a>";
  for (int i = 0; i < 32; ++i) deep += "</a>";
  for (int i = 0; i < 8; ++i) ok += "<a>";
  for (int i = 0; i < 8; ++i) ok += "</a>";
  EXPECT_EQ(ParseXml(deep, options).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(ParseXml(ok, options).ok());
  // 0 = unlimited restores the old behavior.
  options.max_depth = 0;
  EXPECT_TRUE(ParseXml(deep, options).ok());
}

TEST(HostileXmlTest, GiantNamesAttributesAndTextAreRejected) {
  std::string giant_name = "<" + std::string(8192, 'a') + "/>";
  EXPECT_EQ(ParseXml(giant_name).status().code(), StatusCode::kOutOfRange);

  std::string many_attrs = "<a";
  for (int i = 0; i < 2000; ++i) {  // > the 1024 default
    many_attrs += " x" + std::to_string(i) + "=\"1\"";
  }
  many_attrs += "/>";
  EXPECT_EQ(ParseXml(many_attrs).status().code(), StatusCode::kOutOfRange);

  XmlParseOptions tiny_text;
  tiny_text.max_text_bytes = 16;
  EXPECT_EQ(
      ParseXml("<a>" + std::string(64, 't') + "</a>", tiny_text).status().code(),
      StatusCode::kOutOfRange);
  XmlParseOptions tiny_attr;
  tiny_attr.max_attr_value_bytes = 16;
  EXPECT_EQ(ParseXml("<a x=\"" + std::string(64, 'v') + "\"/>", tiny_attr)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(HostileXmlTest, TruncationsOfHostileInputStayClean) {
  std::string xml = "<a x=\"1\">";
  for (int i = 0; i < 40; ++i) xml += "<b y=\"&amp;\"><![CDATA[z]]>";
  for (size_t len = 0; len <= xml.size(); ++len) {
    auto result = ParseXml(xml.substr(0, len));
    (void)result;  // must not crash, hang, or leak (ASan-checked)
  }
}

// ---------------------------------------------------------------------------
// DTD parser limits

TEST(HostileDtdTest, BillionLaughsShapedEntityFloodIsRejected) {
  // The classic shape: each entity references the previous one many
  // times. The normalizer never inline-expands references, so the
  // declaration-count limit is what bounds the damage.
  std::string dtd = "<!ELEMENT a (#PCDATA)>";
  for (int i = 0; i < 200; ++i) {
    dtd += "<!ENTITY e" + std::to_string(i) + " \"&e" + std::to_string(i - 1) +
           ";&e" + std::to_string(i - 1) + ";\">";
  }
  DtdParseLimits limits;
  limits.max_decls = 100;
  auto result = ParseDtdText(dtd, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status();
  // Under the default (generous) limit the same text parses fine — the
  // entities are skipped, not expanded.
  EXPECT_TRUE(ParseDtdText(dtd).ok());
}

TEST(HostileDtdTest, OversizedInputIsRejectedUpfront) {
  std::string giant(9 << 20, 'x');  // > the 8 MB default
  EXPECT_EQ(ParseDtdText(giant).status().code(), StatusCode::kOutOfRange);
}

TEST(HostileDtdTest, DeeplyNestedContentModelIsRejected) {
  std::string dtd = "<!ELEMENT a ";
  for (int i = 0; i < 200; ++i) dtd += "(";  // > the 128 default
  dtd += "b";
  for (int i = 0; i < 200; ++i) dtd += ")";
  dtd += ">";
  auto result = ParseDtdText(dtd);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status();
}

TEST(HostileDtdTest, RegexNodeFloodIsRejected) {
  std::string dtd = "<!ELEMENT a (b";
  for (int i = 0; i < 64; ++i) dtd += ", b";
  dtd += ")><!ELEMENT b (#PCDATA)>";
  DtdParseLimits limits;
  limits.max_regex_nodes = 16;
  EXPECT_EQ(ParseDtdText(dtd, limits).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(ParseDtdText(dtd).ok());
}

// ---------------------------------------------------------------------------
// XPath parser limits

TEST(HostileXPathTest, DeepNestingIsRejectedNotStackOverflowed) {
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "(";  // > the 256 default
  deep += "a";
  for (int i = 0; i < 2000; ++i) deep += ")";
  auto result = ParseXPath(deep);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status();

  std::string quals = "a";
  for (int i = 0; i < 2000; ++i) quals += "[a";
  for (int i = 0; i < 2000; ++i) quals += "]";
  EXPECT_EQ(ParseXPath(quals).status().code(), StatusCode::kOutOfRange);
}

TEST(HostileXPathTest, GiantPredicateIsRejectedByTokenBudget) {
  std::string query = "a[b = \"1\"";
  for (int i = 0; i < 200; ++i) query += " and b = \"1\"";
  query += "]";
  XPathParseLimits limits;
  limits.max_tokens = 64;
  EXPECT_EQ(ParseXPath(query, limits).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(ParseXPath(query).ok());
}

TEST(HostileXPathTest, LongSlashChainIsRejectedByDepthLimit) {
  // 20,000 steps is ~100 KB, inside the input and token limits, but a
  // left-deep '/' chain that long would overflow the stack in the
  // rewriter's recursive normalization; each extra operand counts as one
  // level of nesting.
  std::string chain = "dept";
  for (int i = 1; i < 20'000; ++i) chain += "/dept";
  auto parsed = ParseXPath(chain);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kOutOfRange)
      << parsed.status();
  // Every chain production counts: '//', '|', '[q]', 'and', 'or'.
  std::string desc = "dept";
  std::string unions = "dept";
  std::string filters = "dept";
  std::string conjunction = "dept[a";
  std::string disjunction = "dept[a";
  for (int i = 1; i < 1'000; ++i) {
    desc += "//dept";
    unions += " | dept";
    filters += "[a]";
    conjunction += " and a";
    disjunction += " or a";
  }
  conjunction += "]";
  disjunction += "]";
  for (const std::string& query :
       {desc, unions, filters, conjunction, disjunction}) {
    EXPECT_EQ(ParseXPath(query).status().code(), StatusCode::kOutOfRange)
        << query.substr(0, 40);
  }

  // The CLI refuses the same query with a clean error, not a crash.
  const std::string dir = testing::TempDir() + "/secview_hardening_chain";
  const std::string dtd = dir + ".dtd";
  const std::string spec = dir + ".spec";
  std::ofstream(dtd) << "<!ELEMENT hospital (dept)*>\n"
                        "<!ELEMENT dept (#PCDATA)>\n";
  std::ofstream(spec) << "ann(hospital, dept) = Y\n";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunCli({"rewrite", "--dtd", dtd, "--spec", spec, "--query", chain,
                    "--no-optimize"},
                   out, err),
            1);
  EXPECT_NE(err.str().find("OutOfRange"), std::string::npos) << err.str();
  std::remove(dtd.c_str());
  std::remove(spec.c_str());
}

TEST(HostileXPathTest, OversizedInputIsRejectedUpfront) {
  std::string giant(2 << 20, 'a');  // > the 1 MB default
  EXPECT_EQ(ParseXPath(giant).status().code(), StatusCode::kOutOfRange);
}

TEST(HostileXPathTest, TruncationsUnderLimitsStayClean) {
  const std::string valid =
      "//dept[*/patient/wardNo = $w]/(a | b)[not(@x = \"1\")]//bill";
  XPathParseLimits limits;
  limits.max_depth = 8;
  limits.max_tokens = 32;
  for (size_t len = 0; len <= valid.size(); ++len) {
    auto result = ParseXPath(valid.substr(0, len), limits);
    (void)result;  // clean Status either way
  }
}

// ---------------------------------------------------------------------------
// Evaluator budgets (deadline / node visits / cancellation)

/// A chain document deep enough that `//a//a//a` visits tens of
/// millions of nodes — effectively unbounded work at test timescales.
class EvaluatorBudgetTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    constexpr int kDepth = 5'000;
    std::string xml;
    xml.reserve(kDepth * 8);
    for (int i = 0; i < kDepth; ++i) xml += "<a>";
    for (int i = 0; i < kDepth; ++i) xml += "</a>";
    auto doc = ParseXml(xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = new XmlTree(std::move(doc).value());
    // Nested descendant *qualifiers* defeat the evaluator's
    // covered-subtree dedup (each qualifier evaluates from a single
    // context node), making the work cubic in the chain depth.
    auto query = ParseXPath("//a[a//a[a//a]]");
    ASSERT_TRUE(query.ok());
    query_ = new PathPtr(std::move(query).value());
  }
  static void TearDownTestSuite() {
    delete doc_;
    delete query_;
    doc_ = nullptr;
    query_ = nullptr;
  }

  static XmlTree* doc_;
  static PathPtr* query_;
};

XmlTree* EvaluatorBudgetTest::doc_ = nullptr;
PathPtr* EvaluatorBudgetTest::query_ = nullptr;

TEST_F(EvaluatorBudgetTest, DeadlineTripsWithinSmallMultipleOfDeadline) {
  constexpr uint64_t kDeadlineMs = 50;
  BudgetLimits limits;
  limits.deadline_ms = kDeadlineMs;
  QueryBudget budget(limits);
  XPathEvaluator evaluator(*doc_);
  evaluator.set_budget(&budget);

  auto start = std::chrono::steady_clock::now();
  auto result = evaluator.Evaluate(*query_, doc_->root());
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  // The evaluator checks the clock every kNodeStride visits, so the
  // overshoot is microseconds; the bound below is a scheduler-safe 5x.
  EXPECT_LT(elapsed_ms, static_cast<int64_t>(5 * kDeadlineMs))
      << "took " << elapsed_ms << " ms against a " << kDeadlineMs
      << " ms deadline";
}

TEST_F(EvaluatorBudgetTest, NodeBudgetTripsResourceExhausted) {
  BudgetLimits limits;
  limits.max_nodes = 10'000;
  QueryBudget budget(limits);
  XPathEvaluator evaluator(*doc_);
  evaluator.set_budget(&budget);
  auto result = evaluator.Evaluate(*query_, doc_->root());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_GT(evaluator.counters().budget_checks, 0u);
}

TEST_F(EvaluatorBudgetTest, SmallNodeBudgetTripsDeterministically) {
  // Budgets below one stride must still trip: the final sub-stride tail
  // is charged when evaluation finishes.
  BudgetLimits limits;
  limits.max_nodes = 10;
  QueryBudget budget(limits);
  XPathEvaluator evaluator(*doc_);
  evaluator.set_budget(&budget);
  std::string chain = "a";
  for (int i = 0; i < 19; ++i) chain += "/a";  // ~20 visits, far below one stride
  auto small_query = ParseXPath(chain);
  ASSERT_TRUE(small_query.ok());
  auto result = evaluator.Evaluate(*small_query, doc_->root());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
}

TEST_F(EvaluatorBudgetTest, CancelledTokenUnwindsWithCancelled) {
  CancelSource source;
  CancelToken token(source);
  source.CancelAll();
  QueryBudget budget(BudgetLimits{}, token);
  ASSERT_TRUE(budget.active());
  XPathEvaluator evaluator(*doc_);
  evaluator.set_budget(&budget);
  auto result = evaluator.Evaluate(*query_, doc_->root());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
}

TEST_F(EvaluatorBudgetTest, BudgetChecksFlushIntoMetrics) {
  obs::MetricsRegistry metrics;
  BudgetLimits limits;
  limits.max_nodes = 10'000;
  QueryBudget budget(limits);
  XPathEvaluator evaluator(*doc_);
  const EvalMetrics eval_metrics = EvalMetrics::Resolve(metrics);
  evaluator.set_metrics(&eval_metrics);
  evaluator.set_budget(&budget);
  (void)evaluator.Evaluate(*query_, doc_->root());
  EXPECT_GT(metrics.GetCounter("xpath.budget_checks").value(), 0u);
}

// ---------------------------------------------------------------------------
// Engine budgets, audit outcomes, metrics

/// Thread-safe in-memory audit sink for outcome assertions.
class CaptureSink : public obs::AuditSink {
 public:
  void Record(const obs::AuditEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
  }
  std::vector<obs::AuditEvent> events() {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  std::mutex mu_;
  std::vector<obs::AuditEvent> events_;
};

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

/// A hospital document with thousands of departments, so one rewritten
/// query visits close to a million nodes — far more than any budget or
/// millisecond deadline the tests below grant it.
class EngineBudgetTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    constexpr int kDepts = 20'000;
    std::string xml = "<hospital>";
    for (int i = 0; i < kDepts; ++i) {
      xml +=
          "<dept><clinicalTrial><patientInfo/><test>t</test></clinicalTrial>"
          "<patientInfo><patient><name>n</name><wardNo>3</wardNo>"
          "<treatment><regular><bill>1</bill><medication>m</medication>"
          "</regular></treatment></patient></patientInfo>"
          "<staffInfo/></dept>";
    }
    xml += "</hospital>";
    auto doc = ParseXml(xml);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = new XmlTree(std::move(doc).value());
  }
  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
  }

  void SetUp() override {
    auto engine = SecureQueryEngine::Create(MakeHospitalDtd());
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();
    ASSERT_TRUE(engine_->RegisterPolicy("nurse", kNursePolicy).ok());
  }

  ExecuteOptions BoundOptions() {
    ExecuteOptions options;
    options.bindings = {{"wardNo", "3"}};
    return options;
  }

  static constexpr char kHeavyQuery[] = "//dept//patient//bill";

  static XmlTree* doc_;
  std::unique_ptr<SecureQueryEngine> engine_;
};

XmlTree* EngineBudgetTest::doc_ = nullptr;

TEST_F(EngineBudgetTest, NodeBudgetRejectsWithResourceExhausted) {
  CaptureSink sink;
  ExecuteOptions options = BoundOptions();
  options.limits.max_nodes = 1'000;
  options.audit = &sink;
  auto result = engine_->Execute("nurse", *doc_, kHeavyQuery, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_EQ(engine_->metrics().GetCounter("engine.rejected.budget").value(),
            1u);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].outcome, "timeout");
}

TEST_F(EngineBudgetTest, DeadlineRejectsWithDeadlineExceeded) {
  CaptureSink sink;
  ExecuteOptions options = BoundOptions();
  options.limits.deadline_ms = 1;
  options.audit = &sink;
  auto result = engine_->Execute("nurse", *doc_, kHeavyQuery, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  EXPECT_EQ(engine_->metrics().GetCounter("engine.rejected.deadline").value(),
            1u);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].outcome, "timeout");
}

TEST_F(EngineBudgetTest, MemoryBudgetBoundsPreparationDp) {
  ExecuteOptions options = BoundOptions();
  options.limits.max_memory = 1;  // one DP cell, then trip
  auto result = engine_->Execute("nurse", *doc_, kHeavyQuery, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
}

TEST_F(EngineBudgetTest, CancelledTokenRejectsWithCancelled) {
  CaptureSink sink;
  CancelSource source;
  CancelToken token(source);
  source.CancelAll();
  ExecuteOptions options = BoundOptions();
  options.cancel = token;
  options.audit = &sink;
  auto result = engine_->Execute("nurse", *doc_, kHeavyQuery, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].outcome, "shed");
}

TEST_F(EngineBudgetTest, UnlimitedBudgetStillAnswers) {
  // All-zero limits must behave exactly like no limits at all.
  ExecuteOptions options = BoundOptions();
  auto baseline = engine_->Execute("nurse", *doc_, "//patient/name", options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  options.limits = BudgetLimits{};
  auto limited = engine_->Execute("nurse", *doc_, "//patient/name", options);
  ASSERT_TRUE(limited.ok()) << limited.status();
  EXPECT_EQ(baseline->nodes, limited->nodes);
}

TEST_F(EngineBudgetTest, ParseLimitsRejectHostileQueryText) {
  ExecuteOptions options = BoundOptions();
  options.parse_limits.max_depth = 4;
  std::string deep = "//dept";
  for (int i = 0; i < 16; ++i) deep += "[patientInfo";
  for (int i = 0; i < 16; ++i) deep += "]";
  auto result = engine_->Execute("nurse", *doc_, deep, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status();
}

// ---------------------------------------------------------------------------
// Worker-pool shedding, queued deadlines, CancelAll

TEST_F(EngineBudgetTest, PoolShedsDeterministicallyBeyondQueueCap) {
  QueryWorkerPool::Options pool_options;
  pool_options.threads = 1;
  pool_options.queue_cap = 1;
  QueryWorkerPool pool(*engine_, pool_options);

  std::vector<std::string> queries(6, "//patient/name");
  auto results =
      pool.ExecuteBatch("nurse", *doc_, queries, BoundOptions());
  ASSERT_EQ(results.size(), queries.size());
  // The whole batch is enqueued under one lock hold against an empty
  // queue of cap 1: exactly the first query runs, the rest shed.
  EXPECT_TRUE(results[0].ok()) << results[0].status();
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_FALSE(results[i].ok()) << i;
    EXPECT_TRUE(results[i].status().IsResourceExhausted())
        << results[i].status();
  }
  EXPECT_EQ(engine_->metrics().GetCounter("engine.pool.shed").value(), 5u);
}

TEST_F(EngineBudgetTest, PoolShedRecordsAuditEvents) {
  CaptureSink sink;
  QueryWorkerPool::Options pool_options;
  pool_options.threads = 1;
  pool_options.queue_cap = 1;
  QueryWorkerPool pool(*engine_, pool_options);
  ExecuteOptions options = BoundOptions();
  options.audit = &sink;
  std::vector<std::string> queries(3, "//patient/name");
  pool.ExecuteBatch("nurse", *doc_, queries, options);
  size_t shed_events = 0;
  for (const obs::AuditEvent& event : sink.events()) {
    if (event.outcome == "timeout") ++shed_events;
  }
  EXPECT_EQ(shed_events, 2u);  // shed = ResourceExhausted = "timeout"
}

TEST_F(EngineBudgetTest, PoolDeadlineCoversQueueWait) {
  QueryWorkerPool::Options pool_options;
  pool_options.threads = 1;
  QueryWorkerPool pool(*engine_, pool_options);
  ExecuteOptions options = BoundOptions();
  options.limits.deadline_ms = 1;
  std::vector<std::string> queries(2, kHeavyQuery);
  auto results = pool.ExecuteBatch("nurse", *doc_, queries, options);
  ASSERT_EQ(results.size(), 2u);
  // The first trips inside evaluation; the second either expired while
  // queued behind it or trips the same way. Both are DeadlineExceeded.
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  }
  EXPECT_GE(engine_->metrics().GetCounter("engine.rejected.deadline").value(),
            2u);
}

TEST_F(EngineBudgetTest, CancelAllAbortsInFlightBatchOnly) {
  QueryWorkerPool::Options pool_options;
  pool_options.threads = 1;
  QueryWorkerPool pool(*engine_, pool_options);
  std::vector<std::string> queries(8, kHeavyQuery);

  std::vector<Result<ExecuteResult>> results;
  std::thread submitter([&] {
    results = pool.ExecuteBatch("nurse", *doc_, queries, BoundOptions());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pool.CancelAll();
  submitter.join();

  ASSERT_EQ(results.size(), queries.size());
  for (const auto& r : results) {
    // Every slot resolves cleanly: answered before the cancel, or
    // cancelled (queued tasks when dequeued, the running execution at
    // its next budget checkpoint).
    EXPECT_TRUE(r.ok() || r.status().IsCancelled()) << r.status();
  }

  // Batches submitted after CancelAll run clean (generation counting:
  // only tokens snapshotted before the bump are cancelled).
  auto after = pool.ExecuteBatch("nurse", *doc_,
                                 {std::string("//patient/name")},
                                 BoundOptions());
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].ok()) << after[0].status();
}

}  // namespace
}  // namespace secview
