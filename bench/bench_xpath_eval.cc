// Experiment A6 (DESIGN.md): the child-vs-descendant axis cost asymmetry
// of the XPath evaluator, which underlies the Table 1 naive-vs-rewrite
// gap: '//' steps scan subtrees, '/' steps touch only children.

#include <map>

#include <benchmark/benchmark.h>

#include "metrics_emit.h"
#include "obs/trace.h"
#include "workload/adex.h"
#include "workload/generator.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/plan.h"
#include "xpath/profiler.h"

namespace secview {
namespace {

const XmlTree& AdexDoc(size_t bytes) {
  static auto* cache = new std::map<size_t, XmlTree*>();
  auto it = cache->find(bytes);
  if (it == cache->end()) {
    auto doc = GenerateDocument(MakeAdexDtd(),
                                AdexGeneratorOptions(13, bytes, 4));
    if (!doc.ok()) std::abort();
    it = cache->emplace(bytes, new XmlTree(std::move(doc).value())).first;
  }
  return *it->second;
}

void RunQuery(benchmark::State& state, const char* text) {
  const XmlTree& doc = AdexDoc(static_cast<size_t>(state.range(0)));
  PathPtr q = ParseXPath(text).value();
  // Compiled once, outside the timed loop, as the engine's cache does.
  std::shared_ptr<const CompiledPlan> plan = CompilePlan(q);
  uint64_t work = 0;
  for (auto _ : state) {
    XPathEvaluator evaluator(doc);
    auto result = evaluator.EvaluateCompiled(*plan, doc.root());
    if (!result.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(result);
    work = evaluator.work();
  }
  state.counters["nodes_touched"] = static_cast<double>(work);
  state.counters["doc_nodes"] = static_cast<double>(doc.node_count());
}

void BM_ChildChain(benchmark::State& state) {
  RunQuery(state, "head/buyer-info/contact-info");
}
void BM_DescendantStep(benchmark::State& state) {
  RunQuery(state, "//contact-info");
}
void BM_DescendantHeavy(benchmark::State& state) {
  RunQuery(state, "//buyer-info//contact-info");
}
void BM_PreciseDeepChain(benchmark::State& state) {
  RunQuery(state, "body/ad-instance/content/real-estate/house/r-e.warranty");
}
void BM_DescendantDeep(benchmark::State& state) {
  RunQuery(state, "//house//r-e.warranty");
}
void BM_WildcardChain(benchmark::State& state) {
  RunQuery(state, "*/*/*/*");
}

BENCHMARK(BM_ChildChain)->Arg(1'000'000)->Arg(8'000'000);
BENCHMARK(BM_DescendantStep)->Arg(1'000'000)->Arg(8'000'000);
BENCHMARK(BM_DescendantHeavy)->Arg(1'000'000)->Arg(8'000'000);
BENCHMARK(BM_PreciseDeepChain)->Arg(1'000'000)->Arg(8'000'000);
BENCHMARK(BM_DescendantDeep)->Arg(1'000'000)->Arg(8'000'000);
BENCHMARK(BM_WildcardChain)->Arg(1'000'000)->Arg(8'000'000);

/// --metrics-json workload: run each benchmark query once against the
/// 1 MB document with a registry and plan profiler attached, emitting
/// the evaluator's eval.* counters plus the per-axis eval.axis.*
/// attribution as a trajectory point (fixed seed, deterministic).
int EmitEvalMetrics(const std::string& path) {
  obs::MetricsRegistry registry;
  const XmlTree& doc = AdexDoc(1'000'000);
  const char* queries[] = {
      "head/buyer-info/contact-info", "//contact-info",
      "//buyer-info//contact-info",
      "body/ad-instance/content/real-estate/house/r-e.warranty",
      "//house//r-e.warranty", "*/*/*/*"};
  const EvalMetrics eval_metrics = EvalMetrics::Resolve(registry);
  for (const char* text : queries) {
    auto q = ParseXPath(text);
    if (!q.ok()) return 1;
    XPathEvaluator evaluator(doc);
    evaluator.set_metrics(&eval_metrics);
    PlanProfiler profiler;
    evaluator.set_profiler(&profiler);
    obs::ScopedTimer timer(&registry.GetHistogram("phase.evaluate.micros"));
    if (!evaluator.Evaluate(*q, doc.root()).ok()) return 1;
    FlushStepProfileMetrics(profiler.root(), registry);
  }
  return benchutil::EmitMetricsJson(path, "bench_xpath_eval", registry);
}

}  // namespace
}  // namespace secview

int main(int argc, char** argv) {
  std::string metrics_path =
      secview::benchutil::ExtractMetricsJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, &argv[0]);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_path.empty()) {
    return secview::EmitEvalMetrics(metrics_path);
  }
  return 0;
}
