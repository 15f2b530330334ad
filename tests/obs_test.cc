// Unit tests for the observability layer (src/obs/): metrics registry
// semantics, span-tree construction, and the JSON model both exporters
// share.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "obs/policy_stats.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "obs/trace_store.h"

namespace secview {
namespace obs {
namespace {

// -- Json ---------------------------------------------------------------

TEST(JsonTest, DumpParseRoundTrip) {
  Json doc = Json::Object();
  doc.Set("name", Json("phase.rewrite"));
  doc.Set("count", Json(uint64_t{42}));
  doc.Set("mean", Json(1.5));
  doc.Set("enabled", Json(true));
  doc.Set("none", Json());
  Json arr = Json::Array();
  arr.Append(Json(1)).Append(Json("two")).Append(Json::Object());
  doc.Set("items", std::move(arr));

  for (bool pretty : {false, true}) {
    auto parsed = Json::Parse(doc.Dump(pretty));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed->Equals(doc));
  }
}

TEST(JsonTest, ParseEscapesAndNumbers) {
  auto parsed = Json::Parse(R"({"s":"a\"b\\c\ndA","n":-1.25e2})");
  ASSERT_TRUE(parsed.ok());
  const Json* s = parsed->Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->AsString(), "a\"b\\c\ndA");
  EXPECT_DOUBLE_EQ(parsed->Find("n")->AsNumber(), -125.0);
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
}

TEST(JsonTest, SetOverwritesAndPreservesOrder) {
  Json obj = Json::Object();
  obj.Set("b", Json(1)).Set("a", Json(2)).Set("b", Json(3));
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "b");
  EXPECT_DOUBLE_EQ(obj.members()[0].second.AsNumber(), 3.0);
  EXPECT_EQ(obj.members()[1].first, "a");
}

TEST(JsonTest, EscapesControlCharactersInDump) {
  Json doc = Json::Object();
  doc.Set("s", Json(std::string("a\x01" "b\x1f\tc")));
  std::string dumped = doc.Dump(/*pretty=*/false);
  // Raw control bytes must never appear in the output.
  for (char c : dumped) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("\\u001f"), std::string::npos);
  EXPECT_NE(dumped.find("\\t"), std::string::npos);
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s")->AsString(), "a\x01" "b\x1f\tc");
}

TEST(JsonTest, RecombinesSurrogatePairs) {
  // U+1F600 as a surrogate pair must decode to 4-byte UTF-8, not CESU-8.
  auto parsed = Json::Parse("{\"s\":\"\\ud83d\\ude00\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s")->AsString(), "\xf0\x9f\x98\x80");
  // Unpaired surrogates decode leniently to U+FFFD.
  auto lone_high = Json::Parse(R"({"s":"\ud83dx"})");
  ASSERT_TRUE(lone_high.ok());
  EXPECT_EQ(lone_high->Find("s")->AsString(), "\xef\xbf\xbdx");
  auto lone_low = Json::Parse(R"({"s":"\ude00"})");
  ASSERT_TRUE(lone_low.ok());
  EXPECT_EQ(lone_low->Find("s")->AsString(), "\xef\xbf\xbd");
}

// -- Metrics ------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeSemantics) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("engine.queries");
  c.Add();
  c.Add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&registry.GetCounter("engine.queries"), &c);

  Gauge& g = registry.GetGauge("engine.policies");
  g.Set(3);
  g.Add(-1);
  EXPECT_EQ(g.value(), 2);

  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsTest, HistogramBucketsAndPercentiles) {
  Histogram h({10, 100, 1000});
  for (uint64_t v : {1u, 5u, 10u, 50u, 500u, 5000u}) h.Observe(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 5566u);
  std::vector<uint64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 3u);      // <= 10
  EXPECT_EQ(buckets[1], 1u);      // <= 100
  EXPECT_EQ(buckets[2], 1u);      // <= 1000
  EXPECT_EQ(buckets[3], 1u);      // overflow
  EXPECT_EQ(h.ApproxPercentile(0.5), 10u);
  // The overflow bucket has no upper bound; the estimate clamps to the
  // largest finite bound.
  EXPECT_EQ(h.ApproxPercentile(1.0), 1000u);
}

TEST(MetricsTest, PercentileEstimateFlagsOverflow) {
  Histogram h({10, 100});
  for (int i = 0; i < 9; ++i) h.Observe(5);
  h.Observe(50'000);  // lands in the +Inf bucket
  EXPECT_EQ(h.OverflowCount(), 1u);

  PercentileEstimate p50 = h.ApproxPercentileEstimate(0.5);
  EXPECT_EQ(p50.value, 10u);
  EXPECT_FALSE(p50.overflow);

  // The tail sample is in the overflow bucket: the clamped value is the
  // largest finite bound, and the flag says it is only a lower bound.
  PercentileEstimate p99 = h.ApproxPercentileEstimate(0.99);
  EXPECT_EQ(p99.value, 100u);
  EXPECT_TRUE(p99.overflow);
  // The legacy API still returns the clamped value alone.
  EXPECT_EQ(h.ApproxPercentile(0.99), 100u);
}

TEST(MetricsTest, PercentileEstimateOnEmptyAndAllOverflow) {
  Histogram empty({10});
  PercentileEstimate none = empty.ApproxPercentileEstimate(0.5);
  EXPECT_EQ(none.value, 0u);
  EXPECT_FALSE(none.overflow);

  Histogram tail({10});
  tail.Observe(1000);
  tail.Observe(2000);
  EXPECT_EQ(tail.OverflowCount(), 2u);
  PercentileEstimate p50 = tail.ApproxPercentileEstimate(0.5);
  EXPECT_EQ(p50.value, 10u);
  EXPECT_TRUE(p50.overflow);
}

TEST(MetricsTest, ToTextMarksOverflowedPercentiles) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("phase.tail.micros", {10, 100});
  for (int i = 0; i < 9; ++i) h.Observe(5);
  h.Observe(50'000);
  std::string text = registry.ToText();
  // p50 is a normal in-range estimate; p99 landed beyond the last bound,
  // so it carries the '>' lower-bound marker.
  EXPECT_NE(text.find("p50~10"), std::string::npos) << text;
  EXPECT_NE(text.find("p99~>100"), std::string::npos) << text;
}

TEST(MetricsTest, ConcurrentCounterUpdates) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter& c = registry.GetCounter("eval.nodes_touched");
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("eval.nodes_touched").value(),
            uint64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, JsonExportRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("rewrite.queries").Add(7);
  registry.GetGauge("policy.nurse.cache_size").Set(2);
  registry.GetHistogram("phase.rewrite.micros", {10, 100}).Observe(42);

  auto parsed = Json::Parse(registry.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Equals(registry.ToJson()));

  const Json* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("rewrite.queries")->AsNumber(), 7.0);
  const Json* hist = parsed->Find("histograms")->Find("phase.rewrite.micros");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->AsNumber(), 42.0);
  // Buckets: le=10 (0), le=100 (1), le=inf (0).
  const Json* buckets = hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items().size(), 3u);
  EXPECT_DOUBLE_EQ(buckets->items()[1].Find("count")->AsNumber(), 1.0);
  EXPECT_EQ(buckets->items()[2].Find("le")->AsString(), "inf");
}

TEST(MetricsTest, TextExportListsInstruments) {
  MetricsRegistry registry;
  registry.GetCounter("engine.queries").Add(3);
  registry.GetHistogram("phase.parse.micros").Observe(5);
  std::string text = registry.ToText();
  EXPECT_NE(text.find("engine.queries = 3"), std::string::npos);
  EXPECT_NE(text.find("phase.parse.micros"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

TEST(MetricsTest, CollectTakesAConsistentSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("engine.queries").Add(3);
  registry.GetGauge("engine.policies").Set(2);
  registry.GetHistogram("phase.rewrite.micros", {10, 100}).Observe(42);

  MetricsSnapshot snapshot = registry.Collect();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "engine.queries");
  EXPECT_EQ(snapshot.counters[0].second, 3u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 2);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const MetricsSnapshot::HistogramSnapshot& h = snapshot.histograms[0];
  EXPECT_EQ(h.name, "phase.rewrite.micros");
  ASSERT_EQ(h.bounds.size(), 2u);
  ASSERT_EQ(h.buckets.size(), 3u);  // bounds + overflow
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, 42u);
  uint64_t bucket_total = 0;
  for (uint64_t b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);
  // The snapshot is detached: later updates do not alter it.
  registry.GetCounter("engine.queries").Add(10);
  EXPECT_EQ(snapshot.counters[0].second, 3u);
}

// -- Prometheus export --------------------------------------------------

TEST(ExportTest, PrometheusMetricNameSanitizes) {
  EXPECT_EQ(PrometheusMetricName("engine.queries"), "secview_engine_queries");
  EXPECT_EQ(PrometheusMetricName("policy.nurse.cache_size"),
            "secview_policy_nurse_cache_size");
  EXPECT_EQ(PrometheusMetricName("weird-name!", "ns"), "ns_weird_name_");
  // Without a namespace a leading digit gets an underscore prefix.
  EXPECT_EQ(PrometheusMetricName("9lives", ""), "_9lives");
}

TEST(ExportTest, RenderedTextValidatesAndCoversEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("engine.queries").Add(5);
  registry.GetGauge("engine.policies").Set(-1);
  Histogram& h = registry.GetHistogram("phase.rewrite.micros", {10, 100});
  h.Observe(7);
  h.Observe(5000);

  std::string text = RenderPrometheusText(registry.Collect());
  Status valid = ValidatePrometheusText(text);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << text;

  EXPECT_NE(text.find("# TYPE secview_engine_queries counter"),
            std::string::npos);
  EXPECT_NE(text.find("secview_engine_queries_total 5"), std::string::npos);
  EXPECT_NE(text.find("secview_engine_policies -1"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf; _sum and _count
  // follow.
  EXPECT_NE(text.find("secview_phase_rewrite_micros_bucket{le=\"10\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("secview_phase_rewrite_micros_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("secview_phase_rewrite_micros_sum 5007"),
            std::string::npos);
  EXPECT_NE(text.find("secview_phase_rewrite_micros_count 2"),
            std::string::npos);
}

TEST(ExportTest, ValidatorRejectsMalformedText) {
  EXPECT_TRUE(ValidatePrometheusText("").ok());
  EXPECT_TRUE(ValidatePrometheusText("# just a comment\n").ok());
  EXPECT_FALSE(ValidatePrometheusText("# TYPE m spaceship\n").ok());
  EXPECT_FALSE(ValidatePrometheusText("9bad_name 1\n").ok());
  EXPECT_FALSE(ValidatePrometheusText("name_without_value\n").ok());
  EXPECT_FALSE(ValidatePrometheusText("m{unclosed=\"x\" 1\n").ok());
  EXPECT_FALSE(ValidatePrometheusText("m not_a_number\n").ok());
  EXPECT_TRUE(ValidatePrometheusText("m{le=\"+Inf\"} 3\nm_sum 4\n").ok());
}

TEST(ExportTest, ValidatorRequiresTrailingNewline) {
  // A non-empty exposition must end in '\n'; scrapers treat a missing
  // terminator as a truncated response.
  EXPECT_FALSE(ValidatePrometheusText("m 1").ok());
  EXPECT_TRUE(ValidatePrometheusText("m 1\n").ok());
  EXPECT_FALSE(ValidatePrometheusText("m 1\nm2 2").ok());
}

TEST(ExportTest, ValidatorAcceptsEscapedLabelValues) {
  EXPECT_TRUE(
      ValidatePrometheusText("m{path=\"a\\\\b\",msg=\"say \\\"hi\\\"\"} 1\n")
          .ok());
  EXPECT_TRUE(ValidatePrometheusText("m{note=\"line\\nbreak\"} 1\n").ok());
  // An unescaped quote inside a value terminates it early and leaves
  // garbage before the closing brace.
  EXPECT_FALSE(ValidatePrometheusText("m{msg=\"say \"hi\"\"} 1\n").ok());
}

TEST(ExportTest, RenderIncludesProcessAndBuildInfo) {
  MetricsRegistry registry;
  registry.GetCounter("engine.queries").Add(1);
  std::string text = RenderPrometheusText(registry.Collect());
  Status valid = ValidatePrometheusText(text);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << text;

  // Every render carries the process-level series so any scrape can
  // detect a restart and identify the answering binary.
  EXPECT_NE(text.find("secview_process_start_time_unix "), std::string::npos);
  EXPECT_NE(text.find("secview_process_uptime_ms "), std::string::npos);
  EXPECT_NE(text.find("secview_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("compiler=\""), std::string::npos);
  EXPECT_NE(text.find("std=\""), std::string::npos);
  EXPECT_EQ(text.back(), '\n');

  // The standalone process render validates on its own too, and its
  // start time is stable across calls (a scraper keys restarts off it).
  std::string info = RenderProcessInfoText();
  EXPECT_TRUE(ValidatePrometheusText(info).ok()) << info;
  std::string again = RenderProcessInfoText();
  auto start_line = [](const std::string& t) {
    size_t at = t.find("secview_process_start_time_unix ");
    return t.substr(at, t.find('\n', at) - at);
  };
  EXPECT_EQ(start_line(info), start_line(again));
}

TEST(ExportTest, MetricsV1DocumentMatchesRegistryExport) {
  MetricsRegistry registry;
  registry.GetCounter("engine.queries").Add(3);
  registry.GetGauge("engine.policies").Set(2);
  registry.GetHistogram("phase.eval.micros", {10, 100}).Observe(42);

  Json doc = MetricsV1Document(registry.Collect());
  EXPECT_EQ(doc.Find("schema")->AsString(), "secview.metrics.v1");
  EXPECT_DOUBLE_EQ(doc.Find("counters")->Find("engine.queries")->AsNumber(),
                   3.0);
  EXPECT_DOUBLE_EQ(doc.Find("gauges")->Find("engine.policies")->AsNumber(),
                   2.0);
  const Json* hist = doc.Find("histograms")->Find("phase.eval.micros");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->AsNumber(), 42.0);
  // bounds + the +Inf overflow bucket.
  EXPECT_EQ(hist->Find("buckets")->items().size(), 3u);
  // The document round-trips through the JSON parser.
  auto parsed = Json::Parse(doc.Dump(true));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Equals(doc));
}

TEST(ExportTest, SnapshotWriterWritesBothFormatsAtomically) {
  MetricsRegistry registry;
  registry.GetCounter("engine.queries").Add(2);
  std::string dir = testing::TempDir() + "/secview_snap_once";
  std::filesystem::remove_all(dir);

  MetricsSnapshotWriter writer(&registry, dir);
  Status wrote = writer.WriteOnce();
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  EXPECT_EQ(writer.writes(), 1u);

  std::ifstream prom(dir + "/metrics.prom");
  ASSERT_TRUE(prom.good());
  std::stringstream prom_text;
  prom_text << prom.rdbuf();
  EXPECT_TRUE(ValidatePrometheusText(prom_text.str()).ok());
  EXPECT_NE(prom_text.str().find("secview_engine_queries_total 2"),
            std::string::npos);

  std::ifstream json(dir + "/metrics.json");
  ASSERT_TRUE(json.good());
  std::stringstream json_text;
  json_text << json.rdbuf();
  auto parsed = Json::Parse(json_text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema")->AsString(), "secview.metrics.v1");
  EXPECT_DOUBLE_EQ(
      parsed->Find("counters")->Find("engine.queries")->AsNumber(), 2.0);
  // No temp files survive the atomic rename.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos);
  }
}

TEST(ExportTest, SnapshotWriterBackgroundLoopAndFinalWrite) {
  MetricsRegistry registry;
  registry.GetCounter("engine.queries").Add(1);
  std::string dir = testing::TempDir() + "/secview_snap_loop";
  std::filesystem::remove_all(dir);

  MetricsSnapshotWriter::Options options;
  options.interval = std::chrono::milliseconds(5);
  MetricsSnapshotWriter writer(&registry, dir, options);
  writer.Start();
  // Let the loop tick at least once, then update and stop; Stop() must
  // flush a final snapshot carrying the latest values.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  registry.GetCounter("engine.queries").Add(41);
  writer.Stop();
  EXPECT_GE(writer.writes(), 1u);

  std::ifstream prom(dir + "/metrics.prom");
  ASSERT_TRUE(prom.good());
  std::stringstream text;
  text << prom.rdbuf();
  EXPECT_NE(text.str().find("secview_engine_queries_total 42"),
            std::string::npos)
      << text.str();
  // Stop is idempotent and Start/Stop can cycle.
  writer.Stop();
  writer.Start();
  writer.Stop();
}

TEST(ExportTest, SnapshotWriterReportsUnusableDirectory) {
  MetricsRegistry registry;
  registry.GetCounter("engine.queries").Add(1);
  // A regular file where the snapshot directory should go: the
  // create_directories step (or the write below it) must fail, and the
  // error must surface from WriteOnce rather than being swallowed.
  // (chmod-based setups don't work here — the suite may run as root.)
  std::string blocker = testing::TempDir() + "/secview_snap_blocker";
  std::filesystem::remove_all(blocker);
  std::ofstream(blocker) << "not a directory";

  MetricsSnapshotWriter writer(&registry, blocker + "/snapshots");
  Status wrote = writer.WriteOnce();
  EXPECT_FALSE(wrote.ok());
  EXPECT_EQ(writer.writes(), 0u);

  // The background loop and Stop()'s final flush tolerate the same
  // persistent failure: no crash, no partial files, still zero writes.
  writer.Start();
  writer.Stop();
  EXPECT_EQ(writer.writes(), 0u);
  EXPECT_FALSE(std::filesystem::exists(blocker + "/snapshots"));
  std::filesystem::remove(blocker);
}

// -- Trace --------------------------------------------------------------

TEST(TraceTest, SpanNesting) {
  Trace trace("query");
  {
    ScopedSpan rewrite(&trace, "rewrite");
    rewrite.SetAttr("dp_entries", uint64_t{26});
    { ScopedSpan unfold(&trace, "unfold"); }
  }
  { ScopedSpan evaluate(&trace, "evaluate"); }
  trace.Finish();

  const Span& root = trace.root();
  EXPECT_EQ(root.name, "query");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->name, "rewrite");
  ASSERT_EQ(root.children[0]->children.size(), 1u);
  EXPECT_EQ(root.children[0]->children[0]->name, "unfold");
  EXPECT_EQ(root.children[1]->name, "evaluate");
  EXPECT_EQ(root.TreeSize(), 4u);

  const Span* rewrite = root.FindSpan("rewrite");
  ASSERT_NE(rewrite, nullptr);
  const std::string* dp = rewrite->FindAttr("dp_entries");
  ASSERT_NE(dp, nullptr);
  EXPECT_EQ(*dp, "26");
  EXPECT_EQ(root.FindSpan("nope"), nullptr);
}

TEST(TraceTest, NullTraceIsNoOp) {
  ScopedSpan span(nullptr, "anything");
  span.SetAttr("k", "v");  // must not crash
  EXPECT_EQ(span.span(), nullptr);
}

TEST(TraceTest, JsonExportRoundTrips) {
  Trace trace("query");
  {
    ScopedSpan parse(&trace, "parse");
    parse.SetAttr("ast_size", 5);
  }
  { ScopedSpan evaluate(&trace, "evaluate"); }
  auto parsed = Json::Parse(trace.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("name")->AsString(), "query");
  const Json* children = parsed->Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->items().size(), 2u);
  EXPECT_EQ(children->items()[0].Find("name")->AsString(), "parse");
  EXPECT_EQ(children->items()[0].Find("attrs")->Find("ast_size")->AsString(),
            "5");
}

TEST(TraceTest, ScopedTimerAccumulates) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("phase.evaluate.micros");
  uint64_t total = 0;
  { ScopedTimer timer(&hist, &total); }
  { ScopedTimer timer(&total); }
  EXPECT_EQ(hist.count(), 1u);
  // Durations can legitimately round to 0us; the accumulator must at
  // least have been written without crashing.
  EXPECT_GE(total, hist.sum());
}

// -- PolicyStatsTable ---------------------------------------------------

TEST(PolicyStatsTest, RollsUpPerPolicy) {
  PolicyStatsTable table;
  table.Record("nurse", ServeOutcome::kOk, 100, 10, 4096);
  table.Record("nurse", ServeOutcome::kOk, 300, 20, 8192);
  table.Record("nurse", ServeOutcome::kDenied, 50, 0, 0);
  table.Record("admin", ServeOutcome::kTimeout, 9000, 5, 1024);
  EXPECT_EQ(table.policies(), 2u);
  EXPECT_EQ(table.total(), 4u);

  std::vector<PolicyStatsTable::PolicySnapshot> rows = table.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].policy, "admin");  // sorted by policy id
  EXPECT_EQ(rows[0].timeout, 1u);
  EXPECT_EQ(rows[1].policy, "nurse");
  EXPECT_EQ(rows[1].queries, 3u);
  EXPECT_EQ(rows[1].ok, 2u);
  EXPECT_EQ(rows[1].denied, 1u);
  EXPECT_EQ(rows[1].nodes_touched, 30u);
  EXPECT_EQ(rows[1].alloc_bytes, 12288u);
  EXPECT_EQ(rows[1].latency_sum_micros, 450u);
  EXPECT_GT(rows[1].p50_micros, 0u);
  EXPECT_GE(rows[1].p99_micros, rows[1].p50_micros);
}

TEST(PolicyStatsTest, PercentilesTrackBucketBounds) {
  PolicyStatsTable::Options options;
  options.latency_bounds = {10, 100, 1000};
  PolicyStatsTable table(options);
  for (int i = 0; i < 99; ++i) {
    table.Record("p", ServeOutcome::kOk, 5, 0, 0);  // first bucket
  }
  table.Record("p", ServeOutcome::kOk, 50'000, 0, 0);  // overflow
  std::vector<PolicyStatsTable::PolicySnapshot> rows = table.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].p50_micros, 10u);
  EXPECT_EQ(rows[0].p99_micros, 10u);
  EXPECT_FALSE(rows[0].p99_overflow);
  // Push the tail into the overflow bucket: p99 becomes a lower bound.
  for (int i = 0; i < 30; ++i) {
    table.Record("p", ServeOutcome::kOk, 50'000, 0, 0);
  }
  rows = table.Snapshot();
  EXPECT_TRUE(rows[0].p99_overflow);
  EXPECT_EQ(rows[0].p99_micros, 1000u);
}

TEST(PolicyStatsTest, ManyPoliciesAcrossStripes) {
  PolicyStatsTable::Options options;
  options.stripes = 4;
  PolicyStatsTable table(options);
  for (int i = 0; i < 100; ++i) {
    table.Record("policy" + std::to_string(i), ServeOutcome::kOk, 10, 1, 1);
  }
  EXPECT_EQ(table.policies(), 100u);
  EXPECT_EQ(table.total(), 100u);
  std::vector<PolicyStatsTable::PolicySnapshot> rows = table.Snapshot();
  ASSERT_EQ(rows.size(), 100u);
  // Snapshot is globally sorted even though storage is striped.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].policy, rows[i].policy);
  }
}

TEST(PolicyStatsTest, RenderedTextValidatesWithHostileIds) {
  PolicyStatsTable table;
  // Label-value torture: backslash, double quote, newline — the three
  // characters the Prometheus text format escapes.
  table.Record("role\\with\"quotes\"\nand newline", ServeOutcome::kOk, 100, 1,
               64);
  table.Record("plain", ServeOutcome::kDenied, 5, 0, 0);
  std::string text = RenderPolicyStatsText(table.Snapshot());
  Status status = ValidatePrometheusText(text);
  EXPECT_TRUE(status.ok()) << status.ToString() << "\n" << text;
  EXPECT_NE(text.find("policy=\"role\\\\with\\\"quotes\\\"\\nand newline\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("secview_policy_outcome_total{policy=\"plain\","
                      "outcome=\"denied\"} 1"),
            std::string::npos)
      << text;
}

TEST(PolicyStatsTest, EmptyTableRendersNothing) {
  PolicyStatsTable table;
  EXPECT_EQ(RenderPolicyStatsText(table.Snapshot()), "");
  Json doc = PolicyStatsJson(table.Snapshot());
  EXPECT_TRUE(doc.members().empty());
}

TEST(PolicyStatsTest, JsonSectionCarriesCounts) {
  PolicyStatsTable table;
  table.Record("nurse", ServeOutcome::kOk, 250, 12, 2048);
  Json doc = PolicyStatsJson(table.Snapshot());
  const Json* nurse = doc.Find("nurse");
  ASSERT_NE(nurse, nullptr);
  EXPECT_EQ(nurse->Find("queries")->AsNumber(), 1);
  EXPECT_EQ(nurse->Find("alloc_bytes")->AsNumber(), 2048);
  EXPECT_EQ(nurse->Find("nodes_touched")->AsNumber(), 12);
}

// -- RequestTraceStore --------------------------------------------------

// Trace is neither copyable nor movable; fill a caller-owned one.
void FillTrace(Trace& trace) {
  {
    ScopedSpan rewrite(&trace, "rewrite");
    rewrite.SetAttr("cache", "miss");
  }
  ScopedSpan evaluate(&trace, "evaluate");
}

TEST(TraceStoreTest, DisabledByDefault) {
  RequestTraceStore store;
  EXPECT_FALSE(store.enabled());
  Trace trace("q");
  FillTrace(trace);
  store.Offer("nurse", "//a", ServeOutcome::kOk, 10, trace);
  EXPECT_TRUE(store.Snapshot().empty());
}

TEST(TraceStoreTest, SamplesEveryNth) {
  RequestTraceStore::Options options;
  options.sample_every = 3;
  options.slow_micros = 1'000'000;
  RequestTraceStore store(options);
  for (int i = 0; i < 9; ++i) {
    Trace trace("q");
    FillTrace(trace);
    store.Offer("nurse", "//a", ServeOutcome::kOk, 10, trace);
  }
  EXPECT_EQ(store.offered(), 9u);
  std::vector<RequestTraceStore::Entry> entries = store.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& e : entries) {
    EXPECT_EQ(e.reason, "sampled");
    EXPECT_EQ(e.outcome, ServeOutcome::kOk);
  }
}

TEST(TraceStoreTest, AlwaysKeepsSlowAndNonOk) {
  RequestTraceStore::Options options;
  options.sample_every = 1'000'000;  // head sampling essentially never
  options.slow_micros = 500;
  RequestTraceStore store(options);
  {
    // Request #0 always matches 1-in-N head sampling; burn it so the
    // assertions below isolate the always-keep rules.
    Trace t("warmup");
    FillTrace(t);
    store.Offer("p", "//warmup", ServeOutcome::kOk, 10, t);
  }
  {
    Trace t("fast");
    FillTrace(t);
    store.Offer("p", "//fast", ServeOutcome::kOk, 10, t);
  }
  {
    Trace t("slow");
    FillTrace(t);
    store.Offer("p", "//slow", ServeOutcome::kOk, 900, t);
  }
  {
    Trace t("denied");
    FillTrace(t);
    store.Offer("p", "//denied", ServeOutcome::kDenied, 20, t);
  }
  {
    Trace t("timeout");
    FillTrace(t);
    store.Offer("p", "//deadline", ServeOutcome::kTimeout, 30, t);
  }
  std::vector<RequestTraceStore::Entry> entries = store.Snapshot();
  ASSERT_EQ(entries.size(), 4u);  // newest first; "fast" dropped
  EXPECT_EQ(entries[0].reason, "timeout");
  EXPECT_EQ(entries[1].reason, "denied");
  EXPECT_EQ(entries[2].reason, "slow");
  EXPECT_EQ(entries[3].reason, "sampled");  // the warmup request
  EXPECT_EQ(entries[0].outcome, ServeOutcome::kTimeout);
  EXPECT_EQ(entries[1].outcome, ServeOutcome::kDenied);
}

TEST(TraceStoreTest, RingWrapsKeepingNewest) {
  RequestTraceStore::Options options;
  options.sample_every = 1;
  options.capacity = 4;
  RequestTraceStore store(options);
  for (int i = 0; i < 10; ++i) {
    Trace t("q");
    FillTrace(t);
    store.Offer("p", "//q" + std::to_string(i), ServeOutcome::kOk, 10, t);
  }
  std::vector<RequestTraceStore::Entry> entries = store.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].query, "//q9");
  EXPECT_EQ(entries[3].query, "//q6");
  EXPECT_EQ(store.retained(), 10u);
}

TEST(TraceStoreTest, TraceIdsUniqueAndStableAcrossScrapes) {
  RequestTraceStore::Options options;
  options.sample_every = 1;
  RequestTraceStore store(options);
  for (int i = 0; i < 8; ++i) {
    Trace t("q");
    FillTrace(t);
    store.Offer("p", "//a", ServeOutcome::kOk, 10, t);
  }
  std::vector<RequestTraceStore::Entry> first = store.Snapshot();
  std::vector<RequestTraceStore::Entry> second = store.Snapshot();
  ASSERT_EQ(first.size(), 8u);
  std::set<std::string> ids;
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].trace_id, second[i].trace_id);
    EXPECT_EQ(first[i].trace_id.size(), 16u);
    for (char c : first[i].trace_id) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
          << first[i].trace_id;
    }
    ids.insert(first[i].trace_id);
  }
  EXPECT_EQ(ids.size(), 8u);
}

TEST(TraceStoreTest, JsonlAndTextRenderings) {
  RequestTraceStore::Options options;
  options.sample_every = 1;
  RequestTraceStore store(options);
  Trace t("q");
  FillTrace(t);
  store.Offer("nurse", "//patient//bill", ServeOutcome::kOk, 42, t);

  std::string jsonl = store.SnapshotJsonl();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  auto parsed = Json::Parse(jsonl.substr(0, jsonl.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema")->AsString(), "secview.trace.v1");
  EXPECT_EQ(parsed->Find("policy")->AsString(), "nurse");
  EXPECT_EQ(parsed->Find("outcome")->AsString(), "ok");
  const Json* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_NE(spans->Find("children"), nullptr);
  EXPECT_EQ(spans->Find("children")->items().size(), 2u);

  std::string text = store.SnapshotText();
  EXPECT_NE(text.find("//patient//bill"), std::string::npos);
  EXPECT_NE(text.find("rewrite"), std::string::npos);
  EXPECT_NE(text.find("evaluate"), std::string::npos);
}

// -- trace-export -------------------------------------------------------

std::string OneTraceJsonl() {
  RequestTraceStore::Options options;
  options.sample_every = 1;
  RequestTraceStore store(options);
  Trace t("q");
  FillTrace(t);
  store.Offer("nurse", "//patient//bill", ServeOutcome::kOk, 42, t);
  Trace slow("q");
  FillTrace(slow);
  store.Offer("admin", "//audit", ServeOutcome::kDenied, 10, slow);
  return store.SnapshotJsonl();
}

TEST(TraceExportTest, ValidatesStoreOutput) {
  std::string jsonl = OneTraceJsonl();
  auto traces = ParseTraceJsonl(jsonl);
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  EXPECT_EQ(traces->size(), 2u);
}

TEST(TraceExportTest, RejectsWrongSchemaAndMissingFields) {
  EXPECT_FALSE(ValidateTraceLine("{\"schema\":\"other.v1\"}").ok());
  EXPECT_FALSE(ValidateTraceLine("not json").ok());
  EXPECT_FALSE(ParseTraceJsonl("{\"schema\":\"secview.trace.v1\"}\n").ok());
  // A full line minus one required field must fail too.
  std::string jsonl = OneTraceJsonl();
  std::string line = jsonl.substr(0, jsonl.find('\n'));
  auto doc = Json::Parse(line);
  ASSERT_TRUE(doc.ok());
  Json broken = *doc;
  broken.Set("latency_micros", Json("not a number"));
  EXPECT_FALSE(ValidateTraceLine(broken.Dump(false)).ok());
}

TEST(TraceExportTest, ChromeTraceIsStructurallyLoadable) {
  auto traces = ParseTraceJsonl(OneTraceJsonl());
  ASSERT_TRUE(traces.ok());
  auto chrome = ChromeTraceJson(*traces);
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  const Json* events = chrome->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Per trace: 1 metadata event + 1 root span + 2 children = 4.
  ASSERT_EQ(events->items().size(), 8u);
  bool saw_meta = false, saw_complete = false;
  for (const Json& ev : events->items()) {
    const std::string ph = ev.Find("ph")->AsString();
    if (ph == "M") {
      saw_meta = true;
      EXPECT_EQ(ev.Find("name")->AsString(), "thread_name");
      ASSERT_NE(ev.Find("args"), nullptr);
      EXPECT_NE(ev.Find("args")->Find("name"), nullptr);
    } else {
      ASSERT_EQ(ph, "X");
      saw_complete = true;
      EXPECT_NE(ev.Find("name"), nullptr);
      EXPECT_NE(ev.Find("ts"), nullptr);
      EXPECT_NE(ev.Find("dur"), nullptr);
      EXPECT_NE(ev.Find("pid"), nullptr);
      EXPECT_NE(ev.Find("tid"), nullptr);
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_complete);
  // Distinct traces land on distinct tids so Perfetto draws two rows.
  std::set<std::string> tids;
  for (const Json& ev : events->items()) {
    tids.insert(ev.Find("tid")->Dump(false));
  }
  EXPECT_EQ(tids.size(), 2u);
}

TEST(TraceExportTest, EmptyInputYieldsEmptyEventList) {
  auto traces = ParseTraceJsonl("");
  ASSERT_TRUE(traces.ok());
  EXPECT_TRUE(traces->empty());
  auto chrome = ChromeTraceJson(*traces);
  ASSERT_TRUE(chrome.ok());
  EXPECT_TRUE(chrome->Find("traceEvents")->items().empty());
}

// -- secview.profile.v2 validation --------------------------------------

/// A well-formed plan step with `nodes` exclusive node touches, all
/// other numeric fields 1, and no children.
Json MakePlanStep(const std::string& sig, const std::string& axis,
                  uint64_t nodes) {
  Json step = Json::Object();
  step.Set("step", Json(sig));
  step.Set("axis", Json(axis));
  for (const char* field :
       {"invocations", "in", "out", "preds", "sort_skips", "self_nanos",
        "total_nanos", "alloc_bytes", "alloc_count"}) {
    step.Set(field, Json(uint64_t{1}));
  }
  step.Set("nodes", Json(nodes));
  step.Set("children", Json::Array());
  return step;
}

/// A profile line whose plan holds descendant::bill (3 nodes) with a
/// nested child::name (2 nodes); valid iff `total_nodes` == 5.
Json MakeProfileLine(uint64_t total_nodes) {
  Json doc = Json::Object();
  doc.Set("schema", Json("secview.profile.v2"));
  doc.Set("unix_micros", Json(uint64_t{1700000000000000}));
  doc.Set("policy", Json("nurse"));
  doc.Set("query", Json("//bill"));
  doc.Set("hot_step", Json("descendant::bill nodes=3"));
  Json counters = Json::Object();
  counters.Set("nodes_touched", Json(total_nodes));
  counters.Set("predicate_evals", Json(uint64_t{0}));
  counters.Set("sort_skips", Json(uint64_t{0}));
  doc.Set("counters", std::move(counters));
  Json outer = MakePlanStep("descendant::bill", "descendant", 3);
  Json children = Json::Array();
  children.Append(MakePlanStep("child::name", "child", 2));
  outer.Set("children", std::move(children));
  doc.Set("plan", Json::Array().Append(std::move(outer)));
  return doc;
}

TEST(PlanProfileValidatorTest, AcceptsWellFormedLine) {
  Status ok = ValidateProfileLine(MakeProfileLine(5).Dump(false));
  EXPECT_TRUE(ok.ok()) << ok.message();
}

TEST(PlanProfileValidatorTest, RejectsSchemaAndFieldViolations) {
  EXPECT_FALSE(ValidateProfileLine("not json").ok());
  EXPECT_FALSE(ValidateProfileLine("[1,2]").ok());

  Json wrong_schema = MakeProfileLine(5);
  wrong_schema.Set("schema", Json("secview.trace.v1"));
  EXPECT_FALSE(ValidateProfileLine(wrong_schema.Dump(false)).ok());

  Json missing_hot = MakeProfileLine(5);
  missing_hot.Set("hot_step", Json(uint64_t{3}));  // wrong type
  EXPECT_FALSE(ValidateProfileLine(missing_hot.Dump(false)).ok());

  Json negative = MakeProfileLine(5);
  Json bad_plan = Json::Array();
  Json bad_step = MakePlanStep("child::x", "child", 5);
  bad_step.Set("self_nanos", Json(-1.0));
  bad_plan.Append(std::move(bad_step));
  negative.Set("plan", std::move(bad_plan));
  EXPECT_FALSE(ValidateProfileLine(negative.Dump(false)).ok());

  Json no_children = MakeProfileLine(5);
  Json plan = Json::Array();
  Json step = MakePlanStep("child::x", "child", 5);
  step.Set("children", Json("nope"));
  plan.Append(std::move(step));
  no_children.Set("plan", std::move(plan));
  EXPECT_FALSE(ValidateProfileLine(no_children.Dump(false)).ok());
}

TEST(PlanProfileValidatorTest, EnforcesNodesSumInvariant) {
  Status mismatch = ValidateProfileLine(MakeProfileLine(6).Dump(false));
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.message().find("nodes"), std::string::npos);
}

TEST(PlanProfileValidatorTest, JsonlParserNamesTheOffendingLine) {
  std::string good = MakeProfileLine(5).Dump(false);
  auto parsed = ParseProfileJsonl(good + "\n\n" + good + "\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 2u);

  auto bad = ParseProfileJsonl(good + "\n" + MakeProfileLine(6).Dump(false));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().message();
}

TEST(PlanProfileFlattenTest, MergesPositionsAndCountsQueriesOnce) {
  std::vector<PlanStepRecord> rows;
  Json line = MakeProfileLine(5);
  const Json* plan = line.Find("plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(FlattenProfilePlanJson(*plan, &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  for (const PlanStepRecord& row : rows) {
    EXPECT_EQ(row.queries, 1u) << row.signature;
  }

  // A second query's plan merges into the same rows: costs add, and
  // each signature's query count rises by one (not per position).
  ASSERT_TRUE(FlattenProfilePlanJson(*plan, &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  for (const PlanStepRecord& row : rows) {
    EXPECT_EQ(row.queries, 2u) << row.signature;
  }
  uint64_t nodes = 0;
  for (const PlanStepRecord& row : rows) nodes += row.nodes_touched;
  EXPECT_EQ(nodes, 10u);
}

TEST(PlanProfileRenderTest, EmptyTableRendersHeaderOnly) {
  std::string text = RenderPlanProfileText({}, 10, 0);
  EXPECT_EQ(text, "plan profile: 0 step(s) across 0 profiled query(s)\n");
}

}  // namespace
}  // namespace obs
}  // namespace secview
