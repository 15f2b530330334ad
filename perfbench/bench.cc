// Timed process of the end-to-end benchmark (perfbench/README.md).
//
//   perfbench_run --workload NAME --inputs DIR --seconds S --trace 0|1
//                 [--spans FILE]
//
// Reads one workload's generated inputs (perfbench_gen), sets up a
// sealed SecureQueryEngine with the observers `secview serve` attaches,
// and drives the workload's request sequence through
// SecureQueryEngine::Execute from a fixed number of closed-loop client
// threads. Every answer is hashed during the run and checked afterwards
// against the paper's definition: materialize the view, evaluate the
// original query over it, map the result to document origins.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a separate run over the same sequence (see
// RunTraced). The last stdout line is the result object; a correctness
// failure exits 1.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dtd/normalizer.h"
#include "engine/engine.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/policy_stats.h"
#include "obs/serving_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "security/materializer.h"
#include "security/spec_parser.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace secview {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_run: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::vector<std::string>> ReadTsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(ReadFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    size_t start = 0;
    for (size_t tab; (tab = line.find('\t', start)) != std::string::npos;
         start = tab + 1) {
      fields.push_back(line.substr(start, tab - start));
    }
    fields.push_back(line.substr(start));
    rows.push_back(std::move(fields));
  }
  return rows;
}

// -- Workload constants ------------------------------------------------------

/// Per-workload run shape. `nominal_qps` turns --seconds into a fixed
/// request count (so every run of a seed does identical work and lasts
/// about --seconds on a 4-vCPU host); `setup_reps` repeats short set-ups
/// so their median is steady.
struct Shape {
  const char* name;
  double nominal_qps;
  int setup_reps;
  int clients;
};

constexpr Shape kShapes[] = {
    {"serve_hot", 155'000, 200, 4},
    {"table1_scan", 60'000, 80, 4},
    {"prepare_cold", 2'800, 12, 2},
    {"recursive_height", 80'000, 48, 2},
};

// -- Inputs ------------------------------------------------------------------

/// One distinct request of the workload (the sequence repeats these).
struct Request {
  size_t policy = 0;
  size_t doc = 0;
  std::string bindings_text;
  std::string query;
  ExecuteOptions options;
};

struct Inputs {
  std::string dtd_text;
  std::vector<std::string> policy_names;
  std::vector<std::string> policy_specs;
  std::vector<std::string> doc_texts;
  std::vector<Request> distinct;
  std::vector<uint32_t> warmup;    // indices into distinct
  std::vector<uint32_t> sequence;  // the timed request sequence
  std::vector<uint32_t> checked;   // untimed cells (table1_scan)
  std::vector<bool> checked_no_nodes;  // per checked cell
};

Inputs LoadInputs(const std::string& dir) {
  Inputs in;
  in.dtd_text = ReadFile(dir + "/dtd.txt");
  for (const auto& row : ReadTsv(dir + "/manifest.tsv")) {
    if (row.size() == 3 && row[0] == "policy") {
      in.policy_names.push_back(row[1]);
      in.policy_specs.push_back(ReadFile(dir + "/" + row[2]));
    } else if (row.size() == 2 && row[0] == "doc") {
      in.doc_texts.push_back(ReadFile(dir + "/" + row[1]));
    } else {
      Die("bad manifest row");
    }
  }
  std::map<std::string, uint32_t> ids;
  auto intern = [&](const std::vector<std::string>& row) -> uint32_t {
    if (row.size() != 5) Die("bad request row");
    std::string key = row[0] + "\t" + row[1] + "\t" + row[2] + "\t" + row[3] +
                      "\t" + row[4];
    auto [it, fresh] =
        ids.emplace(key, static_cast<uint32_t>(in.distinct.size()));
    if (!fresh) return it->second;
    Request r;
    auto policy = std::find(in.policy_names.begin(), in.policy_names.end(),
                            row[0]);
    if (policy == in.policy_names.end()) Die("unknown policy " + row[0]);
    r.policy = static_cast<size_t>(policy - in.policy_names.begin());
    r.doc = std::stoul(row[1]);
    if (r.doc >= in.doc_texts.size()) Die("bad document index");
    r.bindings_text = row[3];
    if (row[3] != "-") {
      size_t eq = row[3].find('=');
      if (eq == std::string::npos) Die("bad binding " + row[3]);
      r.options.bindings.push_back(
          {row[3].substr(0, eq), row[3].substr(eq + 1)});
    }
    r.query = row[4];
    r.options.optimize = row[2] == "1";
    in.distinct.push_back(std::move(r));
    return it->second;
  };
  for (const auto& row : ReadTsv(dir + "/warmup.tsv")) {
    in.warmup.push_back(intern(row));
  }
  for (const auto& row : ReadTsv(dir + "/requests.tsv")) {
    in.sequence.push_back(intern(row));
  }
  for (auto row : ReadTsv(dir + "/checked.tsv")) {
    if (row.size() != 6) Die("bad checked row");
    in.checked_no_nodes.push_back(row[5] == "no_nodes");
    row.pop_back();
    in.checked.push_back(intern(row));
  }
  if (in.sequence.empty()) Die("empty request sequence");
  return in;
}

// -- Set-up ------------------------------------------------------------------

/// The serving observers `secview serve` attaches, at its defaults
/// (request tracing present but sampling off).
struct Observers {
  obs::SlidingWindowStats window;
  obs::SlowQueryLog slow_log;
  obs::PolicyStatsTable policy_stats;
  obs::RequestTraceStore traces;
  obs::HealthTracker health;
};

/// One set-up's product. Members are destroyed in reverse order, so the
/// engine goes before the documents and observers it points at.
struct Instance {
  Observers observers;
  std::vector<AccessSpec> specs;
  std::vector<XmlTree> docs;
  std::unique_ptr<SecureQueryEngine> engine;
  uint64_t warmup_failures = 0;

  void Attach(bool on) {
    engine->AttachServingObservers(on ? &observers.window : nullptr,
                                   on ? &observers.slow_log : nullptr);
    engine->AttachPolicyStats(on ? &observers.policy_stats : nullptr);
    engine->AttachTraceStore(on ? &observers.traces : nullptr);
    engine->AttachHealth(on ? &observers.health : nullptr);
  }
};

/// Benchmark-side set-up spans, seconds.
struct SetupTimes {
  double total = 0;
  double parse_docs = 0;
  double register_policies = 0;
  double warmup = 0;
};

std::unique_ptr<Instance> SetUp(const Inputs& in, SetupTimes* times,
                                obs::Trace* warmup_trace_sink) {
  auto inst = std::make_unique<Instance>();
  const Clock::time_point t0 = Clock::now();
  NormalizeResult dtd = Must(ParseAndNormalizeDtd(in.dtd_text), "DTD");
  inst->engine = Must(SecureQueryEngine::Create(std::move(dtd.dtd)), "engine");
  const Clock::time_point t1 = Clock::now();
  for (size_t i = 0; i < in.policy_names.size(); ++i) {
    Status st = inst->engine->RegisterPolicy(in.policy_names[i],
                                             in.policy_specs[i]);
    if (!st.ok()) Die("register " + in.policy_names[i] + ": " + st.ToString());
  }
  const Clock::time_point t2 = Clock::now();
  for (const std::string& text : in.doc_texts) {
    inst->docs.push_back(Must(ParseXml(text), "document"));
  }
  const Clock::time_point t3 = Clock::now();
  inst->Attach(true);
  inst->engine->Seal();
  for (uint32_t id : in.warmup) {
    const Request& r = in.distinct[id];
    ExecuteOptions options = r.options;
    std::unique_ptr<obs::Trace> trace;
    if (warmup_trace_sink != nullptr) {
      trace = std::make_unique<obs::Trace>("warmup");
      options.trace = trace.get();
    }
    auto result = inst->engine->Execute(in.policy_names[r.policy],
                                        inst->docs[r.doc], r.query, options);
    if (!result.ok()) ++inst->warmup_failures;
    if (trace != nullptr) {
      trace->Finish();
      // Keep only the span tree; the sink's root collects one child per
      // warm-up request.
      warmup_trace_sink->root().children.push_back(
          std::make_unique<obs::Span>(std::move(trace->root())));
    }
  }
  const Clock::time_point t4 = Clock::now();
  times->total = Seconds(t0, t4);
  times->register_policies = Seconds(t1, t2);
  times->parse_docs = Seconds(t2, t3);
  times->warmup = Seconds(t3, t4);
  return inst;
}

// -- Latency histogram -------------------------------------------------------

/// Log-linear nanosecond histogram: exact below 256 ns, then 256
/// sub-buckets per power of two (0.4% resolution). Quantiles interpolate
/// inside a bucket, so they read as continuous values. Constant memory,
/// so recording every request does not move peak RSS.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(256 + 48 * 256, 0) {}

  void Add(uint64_t ns) {
    ++counts_[Index(ns)];
    ++n_;
    sum_ns_ += ns;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ns_ += o.sum_ns_;
  }
  uint64_t count() const { return n_; }
  double MeanMicros() const { return n_ == 0 ? 0 : sum_ns_ / 1e3 / n_; }

  /// q in [0,1]; microseconds.
  double QuantileMicros(double q) const {
    if (n_ == 0) return 0;
    double rank = q * static_cast<double>(n_ - 1);
    uint64_t before = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (rank < static_cast<double>(before + counts_[i])) {
        double frac = (rank - static_cast<double>(before) + 0.5) /
                      static_cast<double>(counts_[i]);
        return (Lower(i) + frac * Width(i)) / 1e3;
      }
      before += counts_[i];
    }
    return Lower(counts_.size() - 1) / 1e3;
  }

 private:
  static size_t Index(uint64_t ns) {
    if (ns < 256) return static_cast<size_t>(ns);
    int e = 63 - __builtin_clzll(ns);
    int shift = e - 8;
    size_t i = 256 + static_cast<size_t>(shift) * 256 +
               static_cast<size_t>((ns >> shift) - 256);
    return std::min<size_t>(i, 256 + 48 * 256 - 1);
  }
  static double Lower(size_t i) {
    if (i < 256) return static_cast<double>(i);
    size_t shift = (i - 256) / 256;
    return static_cast<double>((256 + (i - 256) % 256) << shift);
  }
  static double Width(size_t i) {
    return i < 256 ? 1.0 : static_cast<double>(uint64_t{1} << ((i - 256) / 256));
  }

  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
  double sum_ns_ = 0;
};

// -- Serving passes ----------------------------------------------------------

uint64_t AnswerHash(const NodeSet& nodes) {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  uint64_t h = 1469598103934665603ULL ^ sorted.size();
  for (NodeId n : sorted) {
    h ^= static_cast<uint64_t>(n) + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
  }
  return h | 1;  // never 0, which marks "not seen"
}

/// Span names the engine records under its `execute` span, plus the
/// benchmark's own `request` root, indexed by SpanKind. kOther collects
/// anything else.
const std::vector<std::string> kSpanNames = {
    "request", "execute", "parse",    "unfold",  "rewrite",
    "optimize", "compile", "bind",    "evaluate"};
enum SpanKind : size_t {
  kRequest, kExecute, kParse, kUnfold, kRewrite,
  kOptimize, kCompile, kBind, kEvaluate, kOther
};

size_t SpanIndex(const std::string& name) {
  for (size_t i = 0; i < kSpanNames.size(); ++i) {
    if (kSpanNames[i] == name) return i;
  }
  return kOther;
}

/// Self time: the span's duration minus the part its children cover
/// (children are sequential and nested, so their durations sum).
void AddSelfTimes(const obs::Span& span, std::vector<double>* self_us) {
  double children = 0;
  for (const auto& child : span.children) {
    children += static_cast<double>(child->duration_micros);
    AddSelfTimes(*child, self_us);
  }
  (*self_us)[SpanIndex(span.name)] +=
      static_cast<double>(span.duration_micros) - children;
}

/// A flat copy of one span for the span dump.
struct SpanRecord {
  uint32_t request;
  uint8_t name;
  int32_t parent;  // index among the same request's records, -1 for root
  uint64_t start_us;
  uint64_t duration_us;
};

/// `first` is the index in `out` of the request's root record; record
/// and parent indices are relative to it.
void FlattenSpans(const obs::Span& span, uint32_t request, int32_t parent,
                  size_t first, std::vector<SpanRecord>* out) {
  const int32_t self = static_cast<int32_t>(out->size() - first);
  out->push_back({request, static_cast<uint8_t>(SpanIndex(span.name)), parent,
                  span.start_micros, span.duration_micros});
  for (const auto& child : span.children) {
    FlattenSpans(*child, request, self, first, out);
  }
}

/// Sums of the ExecuteStats fields the per-layer table reads.
struct StatSums {
  double nodes_touched = 0, predicate_evals = 0, results = 0;
  double alloc_bytes = 0, alloc_count = 0, evaluate_alloc_bytes = 0;
  double rewrite_dp = 0, optimize_dp = 0, simulation_tests = 0;
  double ast_rewritten = 0, ast_evaluated = 0;

  void Add(const ExecuteStats& s) {
    nodes_touched += static_cast<double>(s.nodes_touched);
    predicate_evals += static_cast<double>(s.predicate_evals);
    results += static_cast<double>(s.result_count);
    alloc_bytes += static_cast<double>(s.alloc_bytes);
    alloc_count += static_cast<double>(s.alloc_count);
    evaluate_alloc_bytes += static_cast<double>(s.evaluate_alloc_bytes);
    rewrite_dp += static_cast<double>(s.rewrite_dp_entries);
    optimize_dp += static_cast<double>(s.optimize_dp_entries);
    simulation_tests += static_cast<double>(s.simulation_tests);
    ast_rewritten += s.ast_size_rewritten;
    ast_evaluated += s.ast_size_evaluated;
  }
  void Merge(const StatSums& o) {
    nodes_touched += o.nodes_touched;
    predicate_evals += o.predicate_evals;
    results += o.results;
    alloc_bytes += o.alloc_bytes;
    alloc_count += o.alloc_count;
    evaluate_alloc_bytes += o.evaluate_alloc_bytes;
    rewrite_dp += o.rewrite_dp;
    optimize_dp += o.optimize_dp;
    simulation_tests += o.simulation_tests;
    ast_rewritten += o.ast_rewritten;
    ast_evaluated += o.ast_evaluated;
  }
};

/// What one closed-loop client saw.
struct ClientResult {
  LatencyHistogram latency;
  std::vector<uint64_t> answers;      // per distinct request, 0 = not seen
  std::vector<uint64_t> occurrences;  // per distinct request
  uint64_t failures = 0;
  uint64_t inconsistent = 0;  // same request, different answers
  std::string first_error;
  StatSums stats;
  std::vector<double> self_us = std::vector<double>(kOther + 1, 0.0);
  double request_us = 0;  // sum of traced request-span durations
  std::vector<SpanRecord> spans;

  void Merge(const ClientResult& c) {
    if (answers.empty()) {
      answers.assign(c.answers.size(), 0);
      occurrences.assign(c.occurrences.size(), 0);
    }
    latency.Merge(c.latency);
    failures += c.failures;
    inconsistent += c.inconsistent;
    if (first_error.empty()) first_error = c.first_error;
    stats.Merge(c.stats);
    for (size_t i = 0; i < self_us.size(); ++i) self_us[i] += c.self_us[i];
    request_us += c.request_us;
    for (size_t id = 0; id < answers.size(); ++id) {
      occurrences[id] += c.occurrences[id];
      if (c.answers[id] == 0) continue;
      if (answers[id] == 0) {
        answers[id] = c.answers[id];
      } else if (answers[id] != c.answers[id]) {
        inconsistent += c.occurrences[id];
      }
    }
    spans.insert(spans.end(), c.spans.begin(), c.spans.end());
  }
};

struct PassResult {
  double seconds = 0;
  uint64_t requests = 0;
  ClientResult merged;

  double qps() const { return requests / seconds; }
  void Merge(const PassResult& o) {
    seconds += o.seconds;
    requests += o.requests;
    merged.Merge(o.merged);
  }
};

constexpr uint32_t kSpanDumpPerClient = 500;

/// Runs `total` requests of the sequence, starting at its request
/// `first` and wrapping around, from `clients` closed-loop threads. The
/// launching thread only starts and joins them. With `traced`, each
/// request carries an obs::Trace rooted at the benchmark's `request`
/// span.
PassResult RunPass(const Inputs& in, Instance& inst, int clients,
                   uint64_t first, uint64_t total, bool traced,
                   uint32_t round = 0) {
  std::vector<ClientResult> results(static_cast<size_t>(clients));
  std::atomic<uint64_t> next{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  auto client = [&](ClientResult& out, uint32_t span_base) {
    out.answers.assign(in.distinct.size(), 0);
    out.occurrences.assign(in.distinct.size(), 0);
    std::vector<ExecuteOptions> options;
    for (const Request& r : in.distinct) options.push_back(r.options);
    uint32_t traced_requests = 0;
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    for (;;) {
      uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) break;
      const uint32_t id = in.sequence[(first + i) % in.sequence.size()];
      const Request& r = in.distinct[id];
      std::unique_ptr<obs::Trace> trace;
      if (traced) {
        trace = std::make_unique<obs::Trace>("request");
        options[id].trace = trace.get();
      }
      const Clock::time_point t0 = Clock::now();
      auto result = inst.engine->Execute(in.policy_names[r.policy],
                                         inst.docs[r.doc], r.query,
                                         options[id]);
      const Clock::time_point t1 = Clock::now();
      out.latency.Add(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      ++out.occurrences[id];
      if (!result.ok()) {
        if (out.failures++ == 0) out.first_error = result.status().ToString();
      } else {
        uint64_t h = AnswerHash(result->nodes);
        if (out.answers[id] == 0) {
          out.answers[id] = h;
        } else if (out.answers[id] != h) {
          ++out.inconsistent;
        }
        out.stats.Add(result->stats);
      }
      if (traced) {
        options[id].trace = nullptr;
        trace->Finish();
        AddSelfTimes(trace->root(), &out.self_us);
        out.request_us += static_cast<double>(trace->root().duration_micros);
        if (traced_requests < kSpanDumpPerClient) {
          FlattenSpans(trace->root(), span_base + traced_requests, -1,
                       out.spans.size(), &out.spans);
        }
        ++traced_requests;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(client, std::ref(results[c]),
                         (round * clients + c) * kSpanDumpPerClient);
  }
  while (ready.load() < clients) std::this_thread::yield();
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const Clock::time_point end = Clock::now();

  PassResult pass;
  pass.seconds = Seconds(start, end);
  pass.requests = total;
  for (const ClientResult& c : results) pass.merged.Merge(c);
  return pass;
}

// -- Correctness oracle ------------------------------------------------------

/// The paper's semantics, computed the slow way: materialize the view
/// for (policy, document, bindings), evaluate the original query over
/// it, and map the answer to document origins (Section 3.3).
class Oracle {
 public:
  Oracle(const Inputs& in, const Instance& inst) : in_(in), inst_(inst) {}

  Result<uint64_t> Answer(uint32_t id) {
    const Request& r = in_.distinct[id];
    std::string key = std::to_string(r.policy) + "/" + std::to_string(r.doc) +
                      "/" + r.bindings_text;
    auto it = views_.find(key);
    if (it == views_.end()) {
      SECVIEW_ASSIGN_OR_RETURN(
          const SecurityView* view,
          inst_.engine->View(in_.policy_names[r.policy]));
      MaterializeOptions options;
      options.bindings = r.options.bindings;
      SECVIEW_ASSIGN_OR_RETURN(
          XmlTree tv, MaterializeView(inst_.docs[r.doc], *view,
                                      inst_.specs[r.policy], options));
      it = views_.emplace(key, std::move(tv)).first;
    }
    SECVIEW_ASSIGN_OR_RETURN(PathPtr query, ParseXPath(r.query));
    SECVIEW_ASSIGN_OR_RETURN(NodeSet on_view, EvaluateAtRoot(it->second, query));
    NodeSet origins;
    for (NodeId n : on_view) origins.push_back(it->second.origin(n));
    return AnswerHash(origins);
  }

 private:
  const Inputs& in_;
  const Instance& inst_;
  std::map<std::string, XmlTree> views_;
};

/// Checks every distinct request the pass executed against the oracle;
/// returns the number of failed requests (errors plus every occurrence
/// of a request whose answer differs from the reference).
uint64_t CheckAnswers(const Inputs& in, Oracle& oracle, const ClientResult& m,
                      std::string* first_error) {
  uint64_t failed = m.failures + m.inconsistent;
  if (m.failures > 0 && first_error->empty()) *first_error = m.first_error;
  for (size_t id = 0; id < in.distinct.size(); ++id) {
    if (m.answers[id] == 0) continue;
    auto reference = oracle.Answer(static_cast<uint32_t>(id));
    if (!reference.ok() || *reference != m.answers[id]) {
      failed += m.occurrences[id];
      if (first_error->empty()) {
        *first_error = "answer mismatch for " + in.distinct[id].query +
                       (reference.ok() ? "" : ": " + reference.status().ToString());
      }
    }
  }
  return failed;
}

/// The untimed Table 1 cells: each must match the oracle, optimize on
/// and off must agree, and a cell marked no_nodes (optimized Q4, which
/// the optimizer reduces to the empty query) must touch no node.
/// Returns the number of failed cells.
uint64_t CheckCells(const Inputs& in, Instance& inst, Oracle& oracle,
                    std::string* first_error) {
  uint64_t failed = 0;
  std::map<std::string, uint64_t> by_query;
  auto fail = [&](const std::string& why) {
    ++failed;
    if (first_error->empty()) *first_error = why;
  };
  for (size_t i = 0; i < in.checked.size(); ++i) {
    const uint32_t id = in.checked[i];
    const Request& r = in.distinct[id];
    auto result = inst.engine->Execute(in.policy_names[r.policy],
                                       inst.docs[r.doc], r.query, r.options);
    if (!result.ok()) {
      fail("cell " + r.query + ": " + result.status().ToString());
      continue;
    }
    uint64_t h = AnswerHash(result->nodes);
    auto reference = oracle.Answer(id);
    if (!reference.ok() || *reference != h) {
      fail("cell " + r.query + " differs from the oracle");
    }
    auto [it, fresh] = by_query.emplace(r.query, h);
    if (!fresh && it->second != h) fail("optimize on/off differ: " + r.query);
    if (in.checked_no_nodes[i] && result->stats.nodes_touched != 0) {
      fail("optimized cell touched nodes: " + r.query);
    }
  }
  return failed;
}

// -- Reporting ---------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("VmHWM not found in /proc/self/status");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  obs::Json values = obs::Json::Object();
  for (const Metric& m : metrics) {
    obs::Json entry = obs::Json::Object();
    entry.Set("value", obs::Json(m.value));
    entry.Set("unit", obs::Json(m.unit));
    values.Set(m.name, std::move(entry));
  }
  obs::Json out = obs::Json::Object();
  out.Set("correct", obs::Json(correct));
  out.Set("attempted", obs::Json(static_cast<int64_t>(attempted)));
  out.Set("failed", obs::Json(static_cast<int64_t>(failed)));
  out.Set("metrics", std::move(values));
  std::printf("%s\n", out.Dump().c_str());
}

// -- Runs --------------------------------------------------------------------

struct Run {
  Inputs in;
  Shape shape;
  uint64_t total = 0;  // timed requests per run
  std::vector<SetupTimes> setups;
  std::unique_ptr<Instance> inst;
};

/// Repeats the set-up `setup_reps` times, keeping the last instance; each
/// earlier instance is destroyed before the next is built, so peak RSS
/// reflects one instance. Set-up is single-threaded, and on a shared
/// host one vCPU's speed swings far more than the sum over all of them,
/// so rep i runs pinned to the i-th allowed CPU in turn and the median
/// covers every vCPU.
void SetUpAll(Run& run, obs::Trace* warmup_trace_sink, int extra_traced) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  for (int rep = 0; rep < run.shape.setup_reps + extra_traced; ++rep) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<size_t>(rep) % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    run.inst.reset();
    SetupTimes t;
    bool traced_rep = rep >= run.shape.setup_reps;
    run.inst = SetUp(run.in, &t, traced_rep ? warmup_trace_sink : nullptr);
    if (!traced_rep) run.setups.push_back(t);
  }
  // Client threads inherit this thread's mask: restore it first.
  if (sched_setaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("sched_setaffinity failed");
  }
  for (const std::string& spec : run.in.policy_specs) {
    run.inst->specs.push_back(
        Must(ParseAccessSpec(run.inst->engine->dtd(), spec), "spec"));
  }
}

double MedianOf(const std::vector<SetupTimes>& setups,
                double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& t : setups) v.push_back(t.*field);
  return Median(v);
}

/// Splits the timed requests into rounds of at least kMinRound requests
/// (at most kMaxRounds), so each round's p99 has at least ten samples
/// beyond it; the reported serving metrics are medians over rounds,
/// which keeps a transient stall of the host out of the result. Each
/// round continues the sequence where the previous one stopped, so a run
/// covers all of it, not just its head.
constexpr uint64_t kMinRound = 1000;
constexpr uint64_t kMaxRounds = 10;

int RunEndToEnd(Run& run) {
  SetUpAll(run, nullptr, 0);
  const uint64_t rounds =
      std::clamp<uint64_t>(run.total / kMinRound, 1, kMaxRounds);
  PassResult pass;
  std::vector<double> qps, p50, p99;
  for (uint64_t r = 0; r < rounds; ++r) {
    const uint64_t n = run.total / rounds + (r + 1 == rounds ? run.total % rounds : 0);
    PassResult round = RunPass(run.in, *run.inst, run.shape.clients,
                               pass.requests, n, /*traced=*/false);
    qps.push_back(round.qps());
    p50.push_back(round.merged.latency.QuantileMicros(0.50));
    p99.push_back(round.merged.latency.QuantileMicros(0.99));
    pass.Merge(round);
  }
  const double peak_rss_mb = PeakRssMb();  // before the oracle allocates

  std::string first_error;
  Oracle oracle(run.in, *run.inst);
  uint64_t failed = run.inst->warmup_failures +
                    CheckAnswers(run.in, oracle, pass.merged, &first_error);
  failed += CheckCells(run.in, *run.inst, oracle, &first_error);
  const uint64_t attempted = pass.requests + run.in.checked.size();

  std::vector<Metric> metrics = {
      {"qps", Median(qps), "1/s"},
      {"latency_p50_us", Median(p50), "us"},
      {"latency_p99_us", Median(p99), "us"},
      {"setup_s", MedianOf(run.setups, &SetupTimes::total), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  const uint64_t per_round = run.total / rounds;
  std::printf("# %s: %llu requests in %.3f s from %d clients, %llu rounds "
              "of %llu latency samples (p99 has %llu beyond it per round); "
              "serving metrics are medians over rounds; setup_s is the "
              "median of %zu set-ups\n",
              run.shape.name, static_cast<unsigned long long>(pass.requests),
              pass.seconds, run.shape.clients, static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(per_round),
              static_cast<unsigned long long>(per_round / 100),
              run.setups.size());
  std::printf("# latency_p99_us over all samples: %.4f\n",
              pass.merged.latency.QuantileMicros(0.99));
  std::printf("# qps by round:");
  for (double q : qps) std::printf(" %.1f", q);
  std::printf("\n# setup_s by rep:");
  for (const SetupTimes& t : run.setups) std::printf(" %.4f", t.total);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("# %-16s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (failed > 0) std::printf("# FAILED: %s\n", first_error.c_str());
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

/// Registry counters read around a pass.
struct Counters {
  uint64_t hits, misses, evictions, compiles, fallbacks;
};

Counters ReadCounters(SecureQueryEngine& engine) {
  obs::MetricsRegistry& m = engine.metrics();
  return {m.GetCounter("engine.cache.hits").value(),
          m.GetCounter("engine.cache.misses").value(),
          m.GetCounter("engine.cache.evictions").value(),
          m.GetCounter("engine.plan.compiles").value(),
          m.GetCounter("engine.plan.fallbacks").value()};
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void WriteSpans(const std::string& path, const obs::Trace& warmup,
                const std::vector<SetupTimes>& setups,
                const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  for (size_t i = 0; i < setups.size(); ++i) {
    const SetupTimes& t = setups[i];
    out << "{\"kind\":\"setup\",\"rep\":" << i << ",\"total_us\":"
        << t.total * 1e6 << ",\"xml.parse_us\":" << t.parse_docs * 1e6
        << ",\"security.register_us\":" << t.register_policies * 1e6
        << ",\"engine.warmup_us\":" << t.warmup * 1e6 << "}\n";
  }
  out << "{\"kind\":\"warmup_trace\",\"trace\":"
      << warmup.ToJsonString(/*pretty=*/false) << "}\n";
  for (const SpanRecord& s : spans) {
    out << "{\"kind\":\"span\",\"request\":" << s.request << ",\"name\":\""
        << (s.name < kSpanNames.size() ? kSpanNames[s.name] : "other")
        << "\",\"parent\":" << s.parent << ",\"start_us\":" << s.start_us
        << ",\"duration_us\":" << s.duration_us << "}\n";
  }
}

/// The traced run: per-layer metrics over the same sequence. The timed
/// work is split into three passes — untraced with the serving
/// observers attached (counts, registry deltas), untraced with them
/// detached (observer fan-out cost), and traced (span self times).
int RunTraced(Run& run, const std::string& spans_path) {
  obs::Trace warmup_trace("warmup");
  SetUpAll(run, &warmup_trace, 1);
  Instance& inst = *run.inst;
  const Inputs& in = run.in;

  // Height() on each workload document, timed from outside.
  std::vector<double> height_us;
  for (const XmlTree& doc : inst.docs) {
    std::vector<double> samples;
    volatile int sink = 0;
    for (int i = 0; i < 51; ++i) {
      const Clock::time_point t0 = Clock::now();
      sink = sink + doc.Height();
      samples.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
    height_us.push_back(Median(samples));
  }
  double doc_bytes = 0;
  for (const XmlTree& doc : inst.docs) {
    doc_bytes += static_cast<double>(doc.MemoryFootprintBytes());
  }

  // The three passes rotate in kRounds rounds, so drift in host speed
  // lands on all three alike.
  constexpr int kRounds = 3;
  const int clients = run.shape.clients;
  const uint64_t chunk = std::max<uint64_t>(1, run.total / (3 * kRounds));
  PassResult attached, detached, traced;
  Counters delta{0, 0, 0, 0, 0};
  for (int round = 0; round < kRounds; ++round) {
    const Counters before = ReadCounters(*inst.engine);
    // The three passes of a round run the same requests.
    const uint64_t first = static_cast<uint64_t>(round) * chunk;
    attached.Merge(RunPass(in, inst, clients, first, chunk, false));
    const Counters after = ReadCounters(*inst.engine);
    delta.hits += after.hits - before.hits;
    delta.misses += after.misses - before.misses;
    delta.evictions += after.evictions - before.evictions;
    delta.compiles += after.compiles - before.compiles;
    delta.fallbacks += after.fallbacks - before.fallbacks;
    inst.Attach(false);
    detached.Merge(RunPass(in, inst, clients, first, chunk, false));
    inst.Attach(true);
    traced.Merge(
        RunPass(in, inst, clients, first, chunk, true,
                static_cast<uint32_t>(round)));
  }
  const double cache_bytes = static_cast<double>(
      inst.engine->metrics().GetGauge("engine.cache.bytes").value());

  std::string first_error;
  Oracle oracle(in, inst);
  uint64_t failed = inst.warmup_failures;
  for (const PassResult* p : {&attached, &detached, &traced}) {
    failed += CheckAnswers(in, oracle, p->merged, &first_error);
  }
  const uint64_t attempted = 3 * kRounds * chunk;

  // Warm-up spans: unfolding happens only on cache misses, i.e. there.
  std::vector<double> warmup_self(kOther + 1, 0.0);
  AddSelfTimes(warmup_trace.root(), &warmup_self);

  const double n = static_cast<double>(kRounds * chunk);
  const StatSums& s = attached.merged.stats;
  const double misses = static_cast<double>(delta.misses);
  const double lookups = static_cast<double>(delta.hits) + misses;
  const std::vector<double>& self = traced.merged.self_us;
  auto per_req = [&](size_t span) { return self[span] / n; };
  // Mean duration of the benchmark's `request` root spans; the request
  // root's own self time is the benchmark-side residual.
  const double traced_request_us = traced.merged.request_us / n;

  std::vector<Metric> metrics = {
      {"xml.parse_ms", MedianOf(run.setups, &SetupTimes::parse_docs) * 1e3,
       "ms"},
      {"xml.height_us",
       height_us.empty() ? 0
                         : std::accumulate(height_us.begin(), height_us.end(),
                                           0.0) /
                               static_cast<double>(height_us.size()),
       "us"},
      {"xml.doc_mb", doc_bytes / (1024.0 * 1024.0), "MB"},
      {"security.register_ms",
       MedianOf(run.setups, &SetupTimes::register_policies) * 1e3, "ms"},
      {"engine.self_us", per_req(kExecute), "us"},
      {"engine.warmup_ms", MedianOf(run.setups, &SetupTimes::warmup) * 1e3,
       "ms"},
      {"engine.cache_hit_ratio",
       Ratio(static_cast<double>(delta.hits), lookups), "ratio"},
      {"engine.cache_lookups_per_req", lookups / n, "count"},
      {"engine.cache_evictions_per_req",
       static_cast<double>(delta.evictions) / n, "count"},
      {"engine.cache_mb", cache_bytes / (1024.0 * 1024.0), "MB"},
      {"engine.plan_compiles_per_req",
       static_cast<double>(delta.compiles) / n, "count"},
      {"engine.plan_fallbacks",
       static_cast<double>(delta.fallbacks), "count"},
      {"rewrite.unfold_us", warmup_self[kUnfold], "us"},
      {"rewrite.rewrite_us", per_req(kRewrite), "us"},
      {"rewrite.dp_entries_per_miss", Ratio(s.rewrite_dp, misses), "count"},
      {"optimize.optimize_us", per_req(kOptimize), "us"},
      {"optimize.dp_entries_per_miss", Ratio(s.optimize_dp, misses), "count"},
      {"optimize.simulation_tests_per_miss", Ratio(s.simulation_tests, misses),
       "count"},
      {"optimize.ast_ratio", Ratio(s.ast_evaluated, s.ast_rewritten), "ratio"},
      {"xpath.parse_us", per_req(kParse), "us"},
      {"xpath.compile_us", per_req(kCompile), "us"},
      {"xpath.bind_us", per_req(kBind), "us"},
      {"xpath.evaluate_us", per_req(kEvaluate), "us"},
      {"xpath.nodes_touched_per_req", s.nodes_touched / n, "count"},
      {"xpath.predicate_evals_per_req", s.predicate_evals / n, "count"},
      {"xpath.results_per_node", Ratio(s.results, s.nodes_touched), "ratio"},
      {"obs.fanout_us",
       attached.merged.latency.MeanMicros() -
           detached.merged.latency.MeanMicros(),
       "us"},
      {"common.alloc_bytes_per_req", s.alloc_bytes / n, "B"},
      {"common.alloc_count_per_req", s.alloc_count / n, "count"},
      {"common.evaluate_alloc_bytes_per_req", s.evaluate_alloc_bytes / n, "B"},
      {"bench.client_us", per_req(kRequest), "us"},
      {"bench.other_us", per_req(kOther) + per_req(kUnfold), "us"},
      {"bench.request_us", traced_request_us, "us"},
      {"bench.trace_overhead_pct",
       (attached.qps() / traced.qps() - 1.0) * 100.0, "%"},
  };
  // Self times plus the residual must add up to the traced request time.
  double sum = 0;
  for (const Metric& m : metrics) {
    if (m.name == "engine.self_us" || m.name == "rewrite.rewrite_us" ||
        m.name == "optimize.optimize_us" || m.name == "xpath.parse_us" ||
        m.name == "xpath.compile_us" || m.name == "xpath.bind_us" ||
        m.name == "xpath.evaluate_us" || m.name == "bench.client_us" ||
        m.name == "bench.other_us") {
      sum += m.value;
    }
  }
  if (std::fabs(sum - traced_request_us) > 1e-6 * (1 + traced_request_us)) {
    ++failed;
    if (first_error.empty()) first_error = "layer times do not add up";
  }

  if (!spans_path.empty()) {
    WriteSpans(spans_path, warmup_trace, run.setups, traced.merged.spans);
  }
  std::printf("# %s traced: %llu requests per pass; qps attached %.1f, "
              "detached %.1f, traced %.1f; layers sum %.4f us of %.4f us\n",
              run.shape.name, static_cast<unsigned long long>(kRounds * chunk),
              attached.qps(), detached.qps(), traced.qps(), sum,
              traced_request_us);
  for (const Metric& m : metrics) {
    std::printf("# %-38s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (failed > 0) std::printf("# FAILED: %s\n", first_error.c_str());
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload, inputs, spans;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--inputs") {
      inputs = value;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--spans") {
      spans = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  const Shape* shape = nullptr;
  for (const Shape& s : kShapes) {
    if (workload == s.name) shape = &s;
  }
  if (shape == nullptr || inputs.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    Die("usage: perfbench_run --workload NAME --inputs DIR --seconds S "
        "--trace 0|1 [--spans FILE]");
  }
  Run run{LoadInputs(inputs), *shape, 0, {}, nullptr};
  run.total = static_cast<uint64_t>(std::ceil(seconds * shape->nominal_qps));
  return trace == 1 ? RunTraced(run, spans) : RunEndToEnd(run);
}

}  // namespace
}  // namespace secview

int main(int argc, char** argv) { return secview::Main(argc, argv); }
