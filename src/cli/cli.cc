#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/budget.h"
#include "common/crash_reporter.h"
#include "common/failpoint.h"

#include "engine/worker_pool.h"

#include "common/result.h"
#include "dtd/generic_validator.h"
#include "dtd/instance_normalizer.h"
#include "dtd/normalizer.h"
#include "dtd/validator.h"
#include "engine/engine.h"
#include "engine/explain.h"
#include "net/http_client.h"
#include "net/telemetry_server.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/mem_ledger.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "obs/serving_stats.h"
#include "obs/policy_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "obs/trace_store.h"
#include "security/derive.h"
#include "security/materializer.h"
#include "security/spec_parser.h"
#include "security/analysis.h"
#include "security/view_io.h"
#include "workload/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "optimize/optimizer.h"
#include "rewrite/rewriter.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/plan.h"
#include "xpath/printer.h"
#include "xpath/profiler.h"

namespace secview {

namespace {

constexpr char kUsage[] = R"(secview — secure XML querying with security views

usage:
  secview validate    --dtd FILE --xml FILE
  secview derive      --dtd FILE --spec FILE [--show-sigma] [--out FILE]
  secview rewrite     --dtd FILE (--spec FILE | --view FILE) --query XPATH
                      [--no-optimize]
  secview query       --dtd FILE (--spec FILE | --view FILE) --xml FILE
                      --query XPATH [--bind NAME=VALUE]... [--no-optimize]
                      [--extract] [--stats] [--trace-json FILE]
                      [--profile] [--profile-json FILE]
                      [--audit-log FILE [--audit-max-bytes N]]
                      [--metrics-prom FILE] [--metrics-snapshot-dir DIR]
                      [--deadline-ms N] [--max-nodes N] [--max-parse-depth N]
  secview explain     --dtd FILE (--spec FILE | --view FILE) --query XPATH
                      [--no-optimize] [--height N] [--json]
  secview audit-verify --log FILE
  secview bench-serve  --dtd FILE --spec FILE --xml FILE --queries FILE
                      [--threads N] [--repeat N] [--bind NAME=VALUE]...
                      [--no-optimize] [--metrics-prom FILE]
                      [--deadline-ms N] [--max-nodes N] [--queue-cap N]
                      [--telemetry-addr HOST:PORT] [--port-file FILE]
                      [--slow-query-micros N] [--trace-sample N] [--profile]
  secview serve       --dtd FILE --spec FILE --xml FILE
                      [--telemetry-addr HOST:PORT] [--port-file FILE]
                      [--queries FILE [--replay-delay-ms N]]
                      [--threads N] [--queue-cap N] [--slow-query-micros N]
                      [--trace-sample N] [--trace-capacity N]
                      [--max-seconds N] [--bind NAME=VALUE]...
                      [--no-optimize]
                      [--audit-log FILE [--audit-max-bytes N]]
                      [--deadline-ms N] [--max-nodes N] [--profile]
  secview scrape      (--addr HOST:PORT | --port N) [--path TARGET]
                      [--validate-prom] [--timeout-ms N] [--retries N]
  secview trace-export --in FILE [--chrome] [--out FILE] [--validate]
  secview profile-top --in FILE [--k N]
  secview materialize --dtd FILE --spec FILE --xml FILE [--bind NAME=VALUE]...
  secview generate    --dtd FILE [--bytes N] [--seed N] [--branch N]
  secview help

DTD files use <!ELEMENT>/<!ATTLIST> syntax (normalized on load); spec
files use the paper's annotation syntax: one
`ann(parent, child) = Y|N|[qualifier]` per line, `#` comments, `str` as
the child name for text-content annotations, `@name` for attributes.
`derive --out` saves the derived view definition (including the hidden
sigma annotations); `--view` loads one instead of re-deriving from a
specification.

Observability (docs/observability.md): `query --stats` appends the
engine's metrics summary (per-phase latencies, rewrite/optimize DP and
prune counters, evaluator node touches); `query --trace-json FILE`
writes the per-query phase-span tree (parse/unfold/rewrite/optimize/
bind/evaluate) as JSON to FILE ('-' for stdout).

`query --audit-log FILE` appends one secview.audit.v1 JSONL record per
execution — successes and denials alike — with size-based rotation at
--audit-max-bytes (engine path only); `audit-verify` checks such a log
line by line. `query --metrics-prom FILE` dumps the metrics in the
Prometheus text format ('-' for stdout); `--metrics-snapshot-dir DIR`
writes atomic metrics.prom/metrics.json snapshots into DIR. `explain`
renders the rewrite decision trail — σ annotations fired, subqueries
pruned and why, DP cells, optimizer actions — without touching any
document (--json for the secview.explain.v1 document; --height sets the
unfolding depth for recursive views).

`bench-serve` measures concurrent serving throughput (docs/
concurrency.md): it loads the policy, seals the engine, fans the
queries file (one XPath per line, `#` comments) out over a
QueryWorkerPool of --threads workers (default: hardware concurrency),
repeating the whole batch --repeat times (default 10), and reports
queries/sec and the rewrite-cache hit rate.

Defensive serving (docs/robustness.md): `--deadline-ms N` bounds each
execution's wall clock, `--max-nodes N` its evaluator node-visit
budget, and `--max-parse-depth N` the XML/XPath parser nesting depth;
0 (the default) means unlimited for the first two and the built-in
generous default for the third. `bench-serve --queue-cap N` bounds
the pool's submission queue — overflow tasks are shed with
ResourceExhausted instead of queued. Exit codes: 0 ok, 1 failure,
2 usage, 4 deadline exceeded, 5 budget/queue exhausted, 6 cancelled.

Fault injection (docs/robustness.md): every command accepts
`--failpoints SPEC` (or the SECVIEW_FAILPOINTS environment variable;
the flag is applied second and wins per point) to arm named fault
injection points. SPEC is a comma-separated list of
NAME=off|once|every:N|prob:P[:SEED] entries, e.g.
`--failpoints audit.write=every:3,net.send=prob:0.05:7`. Points:
audit.write net.accept net.recv net.send net.connect alloc.evaluate
plan.compile cache.insert pool.submit. Injected faults degrade instead
of crash: audit writes retry then drop-and-count (audit-verify reports
the seq gaps), alloc.evaluate and plan.compile faults refuse the
query (exit 5), cache.insert faults skip caching that entry, socket
faults answer 500 or shed the connection, pool faults shed the query.
`serve` reflects sustained degradation on /healthz ("degraded") and
/statusz, and arms a crash reporter that prints build info, active
query count, and the last slow query to stderr on SIGSEGV/SIGABRT.

Telemetry (docs/observability.md): `serve` runs a long-lived engine
behind an embedded HTTP server (localhost by default; port 0 picks an
ephemeral port, discoverable via --port-file) exposing /metrics
(Prometheus text), /varz (secview.metrics.v1 JSON), /healthz
(readiness = engine sealed), and /statusz (build info, uptime,
windowed QPS/error/shed rates, rewrite-cache occupancy, pool queue
depth, slowest recent queries; --slow-query-micros sets the slow-query
threshold, 0 logs every execution). With --queries it replays the file
through the worker pool every --replay-delay-ms (default 100) until
SIGINT/SIGTERM (or --max-seconds). `bench-serve --telemetry-addr`
serves the same endpoints live during a bench run. `scrape` is a
minimal built-in HTTP client for those endpoints; --validate-prom
additionally checks the fetched body against the Prometheus text
grammar.

Request tracing and cost profiling (docs/observability.md): `serve
--trace-sample N` keeps every Nth request's phase-span tree — plus
every slow (>= --slow-query-micros) and every denied/timeout/shed
request — in a bounded ring (--trace-capacity, default 64) served at
/tracez (text) and /tracez?format=json (secview.trace.v1 JSONL); 0
(the default) disables tracing. Per-policy rollups (queries, outcome
mix, nodes touched, allocation, latency percentiles) are always kept
and exposed as labeled series on /metrics, a policy_stats section on
/varz, and a per-policy block on /statusz. `trace-export` validates a
trace.v1 JSONL file (--validate alone checks and reports); with
--chrome it converts the traces to Chrome trace-event JSON (--out,
default stdout) loadable in Perfetto or chrome://tracing.

Plan profiling (docs/observability.md): `query --profile` appends an
EXPLAIN ANALYZE-style per-step cost table to the output — every plan
step's invocations, in/out cardinality, exclusive node touches and
predicate evaluations, and self/total wall time — and `query
--profile-json FILE` writes the same tree as one secview.profile.v1
JSONL line ('-' for stdout). `serve --profile` and `bench-serve
--profile` keep a cross-query rollup of the hottest steps, served live
at /profilez (text; ?k=N bounds the rows) and /profilez?format=json;
bench-serve prints the top steps after the run. `profile-top --in
FILE` validates a profile JSONL file and renders the aggregated
hottest steps (--k sets the row count, default 10). Profiled slow-log
and /tracez entries carry a `hot_step` one-liner naming the costliest
step.

Memory observatory (docs/observability.md): every process exports its
RSS and peak RSS on /metrics, /statusz, and /memz, which also
renders the subsystem memory ledger — exact per-subsystem byte
attribution for the loaded document, the rewrite cache, the per-thread
eval-scratch arenas, and the trace/slow-query rings;
/memz?format=json returns the same as secview.mem.v2.
)";

/// Parsed command line: flags with values, boolean switches, repeated
/// --bind pairs.
struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  std::map<std::string, bool> switches;
  std::vector<std::pair<std::string, std::string>> bindings;
};

/// Flags that stand alone.
constexpr std::string_view kSwitches[] = {
    "--show-sigma", "--no-optimize", "--extract", "--stats", "--json",
    "--validate-prom", "--chrome", "--validate", "--profile",
};

/// Flags that take the next argument as their value. Any other `--flag`
/// is a usage error, so a misspelt or retired flag never swallows the
/// argument after it.
constexpr std::string_view kValuedFlags[] = {
    "--addr", "--audit-log", "--audit-max-bytes", "--branch", "--bytes",
    "--deadline-ms", "--dtd", "--failpoints", "--height",
    "--in", "--k", "--log", "--max-nodes", "--max-parse-depth", "--max-seconds",
    "--metrics-prom", "--metrics-snapshot-dir", "--out", "--path", "--port",
    "--port-file", "--profile-json", "--queries", "--query", "--queue-cap",
    "--repeat", "--replay-delay-ms", "--retries", "--seed",
    "--slow-query-micros", "--spec", "--telemetry-addr", "--threads",
    "--timeout-ms", "--trace-capacity", "--trace-json", "--trace-sample",
    "--view", "--xml",
};

bool IsOneOf(std::string_view arg, std::span<const std::string_view> list) {
  return std::find(list.begin(), list.end(), arg) != list.end();
}

Result<Args> ParseArgs(const std::vector<std::string>& argv) {
  Args args;
  if (argv.empty()) return Status::InvalidArgument("missing command");
  args.command = argv[0];
  for (size_t i = 1; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (IsOneOf(arg, kSwitches)) {
      args.switches[arg] = true;
      continue;
    }
    if (arg == "--bind") {
      if (i + 1 >= argv.size()) {
        return Status::InvalidArgument("--bind needs NAME=VALUE");
      }
      const std::string& pair = argv[++i];
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("--bind needs NAME=VALUE, got '" +
                                       pair + "'");
      }
      args.bindings.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
      continue;
    }
    if (IsOneOf(arg, kValuedFlags)) {
      if (i + 1 >= argv.size()) {
        return Status::InvalidArgument(arg + " needs a value");
      }
      args.values[arg] = argv[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    return Status::InvalidArgument("unexpected argument '" + arg + "'");
  }
  return args;
}

/// Parses a flag value as a non-negative integer. Flags never reach
/// std::stoll (which throws on garbage); malformed or out-of-range
/// values become usage errors instead.
Result<uint64_t> ParseCount(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(flag + " needs a non-negative integer, " +
                                   "got '" + text + "'");
  }
  errno = 0;
  uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return Status::InvalidArgument(flag + " is out of range: " + text);
  }
  return value;
}

/// The value of a numeric flag, or `fallback` when absent.
Result<uint64_t> CountFlag(const Args& args, const std::string& flag,
                           uint64_t fallback) {
  auto it = args.values.find(flag);
  if (it == args.values.end()) return fallback;
  return ParseCount(flag, it->second);
}

Result<std::string> Required(const Args& args, const std::string& flag) {
  auto it = args.values.find(flag);
  if (it == args.values.end()) {
    return Status::InvalidArgument("missing required flag " + flag);
  }
  return it->second;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A loaded DTD: the original declarations plus the normalized form and
/// the instance rewriter between them.
struct DtdBundle {
  GenericDtd generic;
  NormalizeResult normalized;
};

Result<DtdBundle> LoadDtdBundle(const Args& args) {
  SECVIEW_ASSIGN_OR_RETURN(std::string path, Required(args, "--dtd"));
  SECVIEW_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  DtdBundle bundle;
  SECVIEW_ASSIGN_OR_RETURN(bundle.generic, ParseDtdText(text));
  SECVIEW_ASSIGN_OR_RETURN(bundle.normalized, NormalizeDtd(bundle.generic));
  return bundle;
}

Result<Dtd> LoadDtd(const Args& args) {
  SECVIEW_ASSIGN_OR_RETURN(DtdBundle bundle, LoadDtdBundle(args));
  return std::move(bundle.normalized.dtd);
}

/// Defensive-serving limits shared by `query` and `bench-serve`
/// (docs/robustness.md). 0 keeps a budget unlimited; --max-parse-depth 0
/// keeps the parsers' built-in generous defaults.
struct ServeLimits {
  BudgetLimits budget;
  XPathParseLimits xpath;
  XmlParseOptions xml;
};

Result<ServeLimits> LoadServeLimits(const Args& args) {
  ServeLimits limits;
  SECVIEW_ASSIGN_OR_RETURN(limits.budget.deadline_ms,
                           CountFlag(args, "--deadline-ms", 0));
  SECVIEW_ASSIGN_OR_RETURN(limits.budget.max_nodes,
                           CountFlag(args, "--max-nodes", 0));
  SECVIEW_ASSIGN_OR_RETURN(uint64_t depth,
                           CountFlag(args, "--max-parse-depth", 0));
  if (depth > 0) {
    limits.xpath.max_depth = static_cast<size_t>(depth);
    limits.xml.max_depth = static_cast<size_t>(depth);
  }
  return limits;
}

/// Loads the document and, when the DTD needed auxiliary types, rewrites
/// it into an instance of the normalized DTD (aux wrappers inserted).
Result<XmlTree> LoadXml(const Args& args, const DtdBundle& bundle,
                        const XmlParseOptions& xml_options = {}) {
  SECVIEW_ASSIGN_OR_RETURN(std::string path, Required(args, "--xml"));
  SECVIEW_ASSIGN_OR_RETURN(XmlTree doc, ParseXmlFile(path, xml_options));
  InstanceNormalizer normalizer = InstanceNormalizer::For(bundle.normalized);
  if (normalizer.IsIdentity()) return doc;
  return normalizer.Normalize(doc);
}

Result<std::unique_ptr<SecureQueryEngine>> LoadEngine(const Args& args) {
  SECVIEW_ASSIGN_OR_RETURN(Dtd dtd, LoadDtd(args));
  SECVIEW_ASSIGN_OR_RETURN(std::unique_ptr<SecureQueryEngine> engine,
                           SecureQueryEngine::Create(std::move(dtd)));
  SECVIEW_ASSIGN_OR_RETURN(std::string spec_path, Required(args, "--spec"));
  SECVIEW_ASSIGN_OR_RETURN(std::string spec_text, ReadFile(spec_path));
  SECVIEW_RETURN_IF_ERROR(engine->RegisterPolicy("policy", spec_text));
  return engine;
}

/// Loads the policy's security view: from a serialized definition
/// (--view) or by deriving from a specification (--spec).
Result<SecurityView> LoadView(const Args& args, const Dtd& dtd) {
  auto view_file = args.values.find("--view");
  if (view_file != args.values.end()) {
    SECVIEW_ASSIGN_OR_RETURN(std::string text, ReadFile(view_file->second));
    return ParseView(dtd, text);
  }
  SECVIEW_ASSIGN_OR_RETURN(std::string spec_path, Required(args, "--spec"));
  SECVIEW_ASSIGN_OR_RETURN(std::string spec_text, ReadFile(spec_path));
  SECVIEW_ASSIGN_OR_RETURN(AccessSpec spec, ParseAccessSpec(dtd, spec_text));
  return DeriveSecurityView(spec);
}

Status CmdValidate(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(DtdBundle bundle, LoadDtdBundle(args));
  SECVIEW_ASSIGN_OR_RETURN(std::string path, Required(args, "--xml"));
  SECVIEW_ASSIGN_OR_RETURN(XmlTree doc, ParseXmlFile(path));
  // Validate against the original declarations, then cross-check that the
  // normalized instance conforms to the normalized DTD.
  SECVIEW_RETURN_IF_ERROR(ValidateGenericInstance(doc, bundle.generic));
  InstanceNormalizer normalizer = InstanceNormalizer::For(bundle.normalized);
  SECVIEW_ASSIGN_OR_RETURN(XmlTree normalized, normalizer.Normalize(doc));
  SECVIEW_RETURN_IF_ERROR(ValidateInstance(normalized, bundle.normalized.dtd));
  out << "valid: " << doc.node_count() << " nodes conform to the DTD";
  if (!normalizer.IsIdentity()) {
    out << " (" << bundle.normalized.aux_types.size()
        << " auxiliary types in the normalized form)";
  }
  out << "\n";
  return Status::OK();
}

Status CmdDerive(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(std::unique_ptr<SecureQueryEngine> engine,
                           LoadEngine(args));
  SECVIEW_ASSIGN_OR_RETURN(const SecurityView* view,
                           engine->View("policy"));
  auto out_file = args.values.find("--out");
  if (out_file != args.values.end()) {
    std::ofstream file(out_file->second, std::ios::binary);
    if (!file) {
      return Status::NotFound("cannot open for writing: " +
                              out_file->second);
    }
    file << SerializeView(*view);
    out << "wrote view definition to " << out_file->second << "\n";
  }
  if (args.switches.count("--show-sigma")) {
    out << view->DebugString();
  } else {
    out << view->ViewDtdString();
  }
  for (const CompletenessWarning& warning :
       AnalyzeViewCompleteness(*view)) {
    out << "warning: " << warning.ToString() << "\n";
  }
  return Status::OK();
}

Status CmdRewrite(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(Dtd dtd, LoadDtd(args));
  SECVIEW_ASSIGN_OR_RETURN(SecurityView view, LoadView(args, dtd));
  SECVIEW_ASSIGN_OR_RETURN(std::string query_text, Required(args, "--query"));
  if (view.IsRecursive()) {
    return Status::FailedPrecondition(
        "the view is recursive; `secview rewrite` needs a concrete "
        "document height — use `secview query` instead");
  }
  SECVIEW_ASSIGN_OR_RETURN(QueryRewriter rewriter,
                           QueryRewriter::Create(view));
  SECVIEW_ASSIGN_OR_RETURN(PathPtr query, ParseXPath(query_text));
  SECVIEW_ASSIGN_OR_RETURN(PathPtr rewritten, rewriter.Rewrite(query));
  if (!args.switches.count("--no-optimize")) {
    rewritten = OptimizeOrPassThrough(dtd, rewritten);
  }
  out << ToXPathString(rewritten) << "\n";
  return Status::OK();
}

/// Writes the trace span tree to the --trace-json target ('-' = `out`).
Status DumpTraceJson(const Args& args, const obs::Trace& trace,
                     std::ostream& out) {
  auto it = args.values.find("--trace-json");
  if (it == args.values.end()) return Status::OK();
  if (it->second == "-") {
    out << trace.ToJsonString(/*pretty=*/true) << "\n";
    return Status::OK();
  }
  std::ofstream file(it->second, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open for writing: " + it->second);
  }
  file << trace.ToJsonString(/*pretty=*/true) << "\n";
  return Status::OK();
}

/// Writes the metrics in Prometheus text format to the --metrics-prom
/// target ('-' = `out`).
Status DumpPrometheus(const Args& args, const obs::MetricsRegistry& metrics,
                      std::ostream& out) {
  auto it = args.values.find("--metrics-prom");
  if (it == args.values.end()) return Status::OK();
  std::string text = obs::RenderPrometheusText(metrics.Collect());
  if (it->second == "-") {
    out << text;
    return Status::OK();
  }
  std::ofstream file(it->second, std::ios::binary);
  if (!file) return Status::NotFound("cannot open for writing: " + it->second);
  file << text;
  return Status::OK();
}

/// Writes the secview.profile.v1 JSONL line to the --profile-json
/// target ('-' = `out`).
Status DumpProfileJson(const Args& args, const StepProfile& profile,
                       const std::string& policy,
                       const std::string& query_text, std::ostream& out) {
  auto it = args.values.find("--profile-json");
  if (it == args.values.end()) return Status::OK();
  std::string body =
      ProfileLineJson(profile, policy, query_text,
                      obs::AuditEvent::NowUnixMicros())
          .Dump(/*pretty=*/false);
  body += "\n";
  if (it->second == "-") {
    out << body;
    return Status::OK();
  }
  std::ofstream file(it->second, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open for writing: " + it->second);
  }
  file << body;
  if (!file.good()) return Status::Internal("failed writing " + it->second);
  return Status::OK();
}

Status CmdQuery(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(ServeLimits limits, LoadServeLimits(args));
  SECVIEW_ASSIGN_OR_RETURN(DtdBundle bundle, LoadDtdBundle(args));
  SECVIEW_ASSIGN_OR_RETURN(XmlTree doc, LoadXml(args, bundle, limits.xml));
  SECVIEW_ASSIGN_OR_RETURN(std::string query_text,
                           Required(args, "--query"));
  const bool use_view_file = args.values.count("--view") > 0;
  const bool optimize = !args.switches.count("--no-optimize");
  const bool want_stats = args.switches.count("--stats") > 0;
  const bool want_profile = args.switches.count("--profile") > 0 ||
                            args.values.count("--profile-json") > 0;
  obs::Trace trace("secview.query");

  if (use_view_file && args.values.count("--audit-log")) {
    return Status::InvalidArgument(
        "--audit-log needs the audited engine path; use --spec instead of "
        "--view");
  }

  if (!use_view_file) {
    SECVIEW_ASSIGN_OR_RETURN(std::unique_ptr<SecureQueryEngine> engine,
                             LoadEngine(args));

    std::unique_ptr<obs::JsonlAuditLog> audit_log;
    auto audit_path = args.values.find("--audit-log");
    if (audit_path != args.values.end()) {
      obs::JsonlAuditLog::Options audit_options;
      SECVIEW_ASSIGN_OR_RETURN(
          audit_options.max_bytes,
          CountFlag(args, "--audit-max-bytes", audit_options.max_bytes));
      SECVIEW_ASSIGN_OR_RETURN(
          audit_log, obs::JsonlAuditLog::Open(audit_path->second,
                                              audit_options));
    }
    std::unique_ptr<obs::MetricsSnapshotWriter> snapshots;
    auto snapshot_dir = args.values.find("--metrics-snapshot-dir");
    if (snapshot_dir != args.values.end()) {
      snapshots = std::make_unique<obs::MetricsSnapshotWriter>(
          &engine->metrics(), snapshot_dir->second);
      snapshots->Start();
    }

    ExecuteOptions options;
    options.bindings = args.bindings;
    options.optimize = optimize;
    options.trace = &trace;
    options.audit = audit_log.get();
    options.limits = limits.budget;
    options.parse_limits = limits.xpath;
    options.profile = want_profile;
    Result<ExecuteResult> executed =
        engine->Execute("policy", doc, query_text, options);
    // The final snapshot and the audit record must land even when the
    // query is denied — that is the point of an audit trail.
    if (snapshots != nullptr) snapshots->Stop();
    if (!executed.ok()) {
      SECVIEW_RETURN_IF_ERROR(DumpPrometheus(args, engine->metrics(), out));
      return executed.status();
    }
    ExecuteResult result = std::move(executed).value();
    out << "# rewritten: " << ToXPathString(result.rewritten) << "\n";
    out << "# evaluated: " << ToXPathString(result.evaluated, args.bindings)
        << "\n";
    out << "# results: " << result.nodes.size() << "\n";
    if (args.switches.count("--extract")) {
      SECVIEW_ASSIGN_OR_RETURN(
          XmlTree answer,
          engine->ExtractResults("policy", doc, result.nodes,
                                 args.bindings));
      XmlWriteOptions pretty;
      pretty.indent = true;
      WriteXml(answer, answer.root(), out, pretty);
    } else {
      for (NodeId n : result.nodes) {
        out << "<" << doc.label(n) << "> node #" << n;
        std::string text = doc.CollectText(n);
        if (!text.empty()) out << " text=\"" << text << "\"";
        out << "\n";
      }
    }
    if (want_stats) {
      const ExecuteStats& s = result.stats;
      out << "# stats: cache=" << (s.cache_hit ? "hit" : "miss")
          << " nodes_touched=" << s.nodes_touched
          << " predicate_evals=" << s.predicate_evals
          << " ast_rewritten=" << s.ast_size_rewritten
          << " ast_evaluated=" << s.ast_size_evaluated << "\n";
      out << engine->metrics().ToText();
    }
    if (result.profile != nullptr) {
      if (args.switches.count("--profile")) {
        out << StepProfileText(*result.profile);
      }
      SECVIEW_RETURN_IF_ERROR(
          DumpProfileJson(args, *result.profile, "policy", query_text, out));
    }
    if (audit_log != nullptr) {
      out << "# audit: " << audit_log->events() << " event(s) appended to "
          << audit_log->path() << "\n";
    }
    if (snapshots != nullptr) {
      out << "# metrics snapshot: " << snapshots->dir() << "\n";
    }
    SECVIEW_RETURN_IF_ERROR(DumpPrometheus(args, engine->metrics(), out));
    return DumpTraceJson(args, trace, out);
  }

  // Saved-view path: rewrite against the loaded definition directly (no
  // specification needed). Instrumented with a local registry so --stats
  // and --trace-json behave the same as the engine path.
  obs::MetricsRegistry metrics;
  const Dtd& dtd = bundle.normalized.dtd;
  SECVIEW_ASSIGN_OR_RETURN(SecurityView view, LoadView(args, dtd));
  PathPtr query;
  {
    obs::ScopedSpan span(&trace, "parse");
    obs::ScopedTimer timer(&metrics.GetHistogram("phase.parse.micros"));
    SECVIEW_ASSIGN_OR_RETURN(query, ParseXPath(query_text, limits.xpath));
  }
  PathPtr rewritten;
  {
    obs::ScopedSpan span(&trace, "rewrite");
    obs::ScopedTimer timer(&metrics.GetHistogram("phase.rewrite.micros"));
    SECVIEW_ASSIGN_OR_RETURN(rewritten,
                             RewriteForDocument(view, query, doc.Height()));
    span.SetAttr("ast_size", PathSize(rewritten));
    metrics.GetCounter("rewrite.queries").Add();
  }
  out << "# rewritten: " << ToXPathString(rewritten) << "\n";
  if (optimize) {
    obs::ScopedSpan span(&trace, "optimize");
    obs::ScopedTimer timer(&metrics.GetHistogram("phase.optimize.micros"));
    span.SetAttr("ast_before", PathSize(rewritten));
    rewritten = OptimizeOrPassThrough(dtd, rewritten);
    span.SetAttr("ast_after", PathSize(rewritten));
    metrics.GetCounter("optimize.queries").Add();
  }
  std::shared_ptr<const CompiledPlan> plan;
  {
    obs::ScopedSpan span(&trace, "compile");
    plan = CompilePlan(rewritten);
  }
  out << "# evaluated: " << ToXPathString(rewritten, args.bindings) << "\n";
  NodeSet nodes;
  std::unique_ptr<StepProfile> profile;
  {
    obs::ScopedSpan span(&trace, "evaluate");
    obs::ScopedTimer timer(&metrics.GetHistogram("phase.evaluate.micros"));
    XPathEvaluator evaluator(doc);
    const EvalMetrics eval_metrics = EvalMetrics::Resolve(metrics);
    evaluator.set_metrics(&eval_metrics);
    std::optional<PlanProfiler> profiler;
    if (want_profile) {
      profiler.emplace();
      evaluator.set_profiler(&*profiler);
    }
    SECVIEW_ASSIGN_OR_RETURN(
        nodes, evaluator.EvaluateCompiled(*plan, doc.root(), args.bindings));
    span.SetAttr("nodes_touched", evaluator.counters().nodes_touched);
    span.SetAttr("results", static_cast<uint64_t>(nodes.size()));
    if (want_profile) {
      profile = profiler->TakeRoot();
      FlushStepProfileMetrics(*profile, metrics);
    }
  }
  out << "# results: " << nodes.size() << "\n";
  for (NodeId n : nodes) {
    out << "<" << doc.label(n) << "> node #" << n;
    std::string text = doc.CollectText(n);
    if (!text.empty()) out << " text=\"" << text << "\"";
    out << "\n";
  }
  if (want_stats) out << metrics.ToText();
  if (profile != nullptr) {
    if (args.switches.count("--profile")) out << StepProfileText(*profile);
    SECVIEW_RETURN_IF_ERROR(
        DumpProfileJson(args, *profile, "view", query_text, out));
  }
  SECVIEW_RETURN_IF_ERROR(DumpPrometheus(args, metrics, out));
  return DumpTraceJson(args, trace, out);
}

Status CmdExplain(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(Dtd dtd, LoadDtd(args));
  SECVIEW_ASSIGN_OR_RETURN(SecurityView view, LoadView(args, dtd));
  SECVIEW_ASSIGN_OR_RETURN(std::string query_text, Required(args, "--query"));
  ExplainOptions options;
  options.optimize = !args.switches.count("--no-optimize");
  auto height = args.values.find("--height");
  if (height != args.values.end()) {
    SECVIEW_ASSIGN_OR_RETURN(uint64_t h,
                             ParseCount("--height", height->second));
    options.doc_height = static_cast<int>(h);
  }
  SECVIEW_ASSIGN_OR_RETURN(QueryExplain explain,
                           ExplainQuery(dtd, view, query_text, options));
  explain.policy = "policy";
  if (args.switches.count("--json")) {
    out << explain.ToJson().Dump(/*pretty=*/true) << "\n";
  } else {
    out << explain.ToText();
  }
  return Status::OK();
}

Status CmdAuditVerify(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(std::string path, Required(args, "--log"));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open audit log: " + path);
  std::string line;
  size_t line_no = 0;
  size_t events = 0;
  // The sink consumes a sequence number before attempting the write, so
  // an event dropped under write failure leaves a hole in the seq chain.
  // A seq at or below its predecessor is a restart (seqs begin at 1 in
  // every process) or a rotation boundary, not a gap.
  uint64_t prev_seq = 0;
  uint64_t gap_events = 0;
  size_t gaps = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Status status = obs::ValidateAuditLine(line);
    if (!status.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + status.message());
    }
    SECVIEW_ASSIGN_OR_RETURN(obs::Json record, obs::Json::Parse(line));
    uint64_t seq = static_cast<uint64_t>(record.Find("seq")->AsNumber());
    if (prev_seq > 0 && seq > prev_seq + 1) {
      ++gaps;
      gap_events += seq - prev_seq - 1;
      out << "warning: " << path << ":" << line_no << ": seq jumps "
          << prev_seq << " -> " << seq << " (" << (seq - prev_seq - 1)
          << " dropped event(s))\n";
    }
    prev_seq = seq;
    ++events;
  }
  out << "ok: " << events << " audit events validated";
  if (gap_events > 0) {
    out << " (" << gap_events << " dropped across " << gaps
        << " seq gap(s))";
  }
  out << "\n";
  return Status::OK();
}

/// Loads a queries file: one XPath expression per line, blank lines and
/// `#` comment lines skipped.
Result<std::vector<std::string>> LoadQueriesFile(const std::string& path) {
  SECVIEW_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  std::vector<std::string> queries;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    // Trim leading/trailing whitespace so indented entries work.
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    size_t end = line.find_last_not_of(" \t\r");
    line = line.substr(begin, end - begin + 1);
    if (line.empty() || line[0] == '#') continue;
    queries.push_back(line);
  }
  if (queries.empty()) {
    return Status::InvalidArgument("queries file has no queries: " + path);
  }
  return queries;
}

/// "HOST:PORT" (or ":PORT" / bare "PORT" with host 127.0.0.1).
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& flag, const std::string& text) {
  std::string host = "127.0.0.1";
  std::string port_text = text;
  size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
  }
  SECVIEW_ASSIGN_OR_RETURN(uint64_t port, ParseCount(flag, port_text));
  if (port > 65535) {
    return Status::InvalidArgument(flag + " port out of range: " + port_text);
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

/// Publishes the bound telemetry port for scripts and tests: written to
/// a temp file then renamed, so a reader polling the path never sees a
/// partial write.
Status WritePortFile(const std::string& path, uint16_t port) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return Status::NotFound("cannot open for writing: " + tmp);
    file << port << "\n";
    if (!file.flush()) return Status::Internal("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp + " -> " + path);
  }
  return Status::OK();
}

/// The serving observers plus the telemetry HTTP server that exposes
/// them, owned together so their lifetimes cannot diverge from the
/// engine they observe.
struct TelemetryBundle {
  obs::SlidingWindowStats window;
  obs::SlowQueryLog slow_log;
  obs::PolicyStatsTable policy_stats;
  obs::RequestTraceStore traces;
  obs::PlanProfileTable plan_profiles;
  obs::HealthTracker health;
  std::unique_ptr<net::TelemetryServer> server;
  /// Memory-ledger registrations (the rings, the rewrite cache, the
  /// eval-scratch arenas). Declared last so they unregister first, while
  /// the stores they capture are still alive; a scrape racing the
  /// teardown either sees the provider row or doesn't — never a dangling
  /// callback (MemLedger::Snapshot copies the callbacks under its lock).
  std::vector<std::unique_ptr<obs::ScopedLedgerProvider>> ledger_providers;

  TelemetryBundle(obs::SlowQueryLog::Options slow_options,
                  obs::RequestTraceStore::Options trace_options)
      : slow_log(slow_options), traces(trace_options) {}
};

/// Builds, attaches, and starts the telemetry stack for `engine` when
/// --telemetry-addr is present (or `require` forces it on, as `serve`
/// does, defaulting to an ephemeral localhost port). Returns null when
/// telemetry was not requested.
Result<std::unique_ptr<TelemetryBundle>> StartTelemetry(
    const Args& args, SecureQueryEngine& engine, bool require,
    std::ostream& out) {
  auto addr_flag = args.values.find("--telemetry-addr");
  if (addr_flag == args.values.end() && !require) return {nullptr};
  std::string addr_text =
      addr_flag != args.values.end() ? addr_flag->second : "127.0.0.1:0";
  SECVIEW_ASSIGN_OR_RETURN(auto addr,
                           ParseHostPort("--telemetry-addr", addr_text));

  obs::SlowQueryLog::Options slow_options;
  SECVIEW_ASSIGN_OR_RETURN(
      slow_options.threshold_micros,
      CountFlag(args, "--slow-query-micros", slow_options.threshold_micros));
  obs::RequestTraceStore::Options trace_options;
  SECVIEW_ASSIGN_OR_RETURN(trace_options.sample_every,
                           CountFlag(args, "--trace-sample", 0));
  SECVIEW_ASSIGN_OR_RETURN(
      uint64_t trace_capacity,
      CountFlag(args, "--trace-capacity", trace_options.capacity));
  trace_options.capacity = static_cast<size_t>(trace_capacity);
  // The trace store's always-keep-slow threshold follows the slow-query
  // log's: one knob decides what "slow" means on this process.
  trace_options.slow_micros = slow_options.threshold_micros;
  auto bundle = std::make_unique<TelemetryBundle>(slow_options, trace_options);
  // Attach during setup: the engine reads these pointers unsynchronized
  // on the serve path.
  engine.AttachServingObservers(&bundle->window, &bundle->slow_log);
  engine.AttachPolicyStats(&bundle->policy_stats);
  engine.AttachTraceStore(&bundle->traces);
  engine.AttachHealth(&bundle->health);
  if (args.switches.count("--profile")) {
    engine.AttachPlanProfiles(&bundle->plan_profiles);
  }

  net::TelemetryServer::Options server_options;
  server_options.http.bind_address = addr.first;
  server_options.http.port = addr.second;
  server_options.ready = [&engine] { return engine.sealed(); };
  server_options.window = &bundle->window;
  server_options.slow_log = &bundle->slow_log;
  server_options.policy_stats = &bundle->policy_stats;
  server_options.traces = &bundle->traces;
  // Only exposed when profiling is on, so /profilez distinguishes "not
  // profiling" from "profiling but nothing recorded yet".
  if (args.switches.count("--profile")) {
    server_options.plan_profiles = &bundle->plan_profiles;
  }
  server_options.health = &bundle->health;

  // Memory-ledger charge points: each subsystem that already tracks its
  // own footprint reports it live, so /memz and the secview_mem_* gauges
  // stay exact without a second bookkeeping path.
  obs::RequestTraceStore* traces = &bundle->traces;
  bundle->ledger_providers.push_back(
      std::make_unique<obs::ScopedLedgerProvider>(
          "obs.trace_ring",
          [traces] { return static_cast<int64_t>(traces->ApproxBytes()); }));
  obs::SlowQueryLog* slow_log = &bundle->slow_log;
  bundle->ledger_providers.push_back(
      std::make_unique<obs::ScopedLedgerProvider>(
          "obs.slow_query_ring",
          [slow_log] { return static_cast<int64_t>(slow_log->ApproxBytes()); }));
  bundle->ledger_providers.push_back(
      std::make_unique<obs::ScopedLedgerProvider>("xpath.eval_scratch", [] {
        return static_cast<int64_t>(EvalScratch::TotalPublishedBytes());
      }));
  obs::MetricsRegistry* metrics = &engine.metrics();
  bundle->ledger_providers.push_back(
      std::make_unique<obs::ScopedLedgerProvider>(
          "engine.rewrite_cache", [metrics] {
            return metrics->GetGauge("engine.cache.bytes").value() +
                   metrics->GetGauge("engine.plan.cache_bytes").value();
          }));

  bundle->server = std::make_unique<net::TelemetryServer>(&engine.metrics(),
                                                          server_options);
  SECVIEW_RETURN_IF_ERROR(bundle->server->Start());
  out << "# telemetry: http://" << addr.first << ":" << bundle->server->port()
      << " (/metrics /varz /healthz /statusz /tracez /profilez /memz)\n";
  auto port_file = args.values.find("--port-file");
  if (port_file != args.values.end()) {
    SECVIEW_RETURN_IF_ERROR(
        WritePortFile(port_file->second, bundle->server->port()));
  }
  return bundle;
}

/// SIGINT/SIGTERM latch for `serve` — a plain flag is all a signal
/// handler may touch.
std::atomic<bool> g_serve_stop{false};

void HandleServeSignal(int) { g_serve_stop.store(true); }

/// Mirrors failpoint fires into the engine registry's
/// `engine.failpoint.<name>` counters for this scope; detaches on exit so
/// the process-lifetime registry never outlives the engine's counters.
struct ScopedFailpointMetrics {
  explicit ScopedFailpointMetrics(obs::MetricsRegistry* metrics) {
    FailPointRegistry::Instance().AttachMetrics(metrics);
  }
  ~ScopedFailpointMetrics() {
    FailPointRegistry::Instance().AttachMetrics(nullptr);
  }
  ScopedFailpointMetrics(const ScopedFailpointMetrics&) = delete;
  ScopedFailpointMetrics& operator=(const ScopedFailpointMetrics&) = delete;
};

/// Deletes the --port-file on graceful shutdown so restarting scripts
/// never scrape a dead process's port. Best-effort: a failed remove only
/// leaves the file a restarted server will overwrite (WritePortFile
/// truncates via rename).
void RemovePortFile(const Args& args) {
  auto port_file = args.values.find("--port-file");
  if (port_file == args.values.end()) return;
  std::remove(port_file->second.c_str());
}

Status CmdServe(const Args& args, std::ostream& out) {
  InstallCrashReporter();
  SECVIEW_ASSIGN_OR_RETURN(ServeLimits limits, LoadServeLimits(args));
  SECVIEW_ASSIGN_OR_RETURN(DtdBundle bundle, LoadDtdBundle(args));
  SECVIEW_ASSIGN_OR_RETURN(XmlTree doc, LoadXml(args, bundle, limits.xml));
  // The served document's footprint is fixed for the command's
  // lifetime: one exact ledger charge covers it.
  obs::ScopedLedgerCharge doc_charge(
      "xml.doc", static_cast<int64_t>(doc.MemoryFootprintBytes()));
  SECVIEW_ASSIGN_OR_RETURN(std::unique_ptr<SecureQueryEngine> engine,
                           LoadEngine(args));
  ScopedFailpointMetrics failpoint_metrics(&engine->metrics());

  std::vector<std::string> queries;
  if (args.values.count("--queries")) {
    SECVIEW_ASSIGN_OR_RETURN(queries,
                             LoadQueriesFile(args.values.at("--queries")));
  }
  SECVIEW_ASSIGN_OR_RETURN(uint64_t threads_n, CountFlag(args, "--threads", 0));
  SECVIEW_ASSIGN_OR_RETURN(uint64_t queue_cap,
                           CountFlag(args, "--queue-cap", 0));
  SECVIEW_ASSIGN_OR_RETURN(uint64_t replay_delay_ms,
                           CountFlag(args, "--replay-delay-ms", 100));
  SECVIEW_ASSIGN_OR_RETURN(uint64_t max_seconds,
                           CountFlag(args, "--max-seconds", 0));

  SECVIEW_ASSIGN_OR_RETURN(
      std::unique_ptr<TelemetryBundle> telemetry,
      StartTelemetry(args, *engine, /*require=*/true, out));

  std::unique_ptr<obs::JsonlAuditLog> audit_log;
  auto audit_path = args.values.find("--audit-log");
  if (audit_path != args.values.end()) {
    obs::JsonlAuditLog::Options audit_options;
    SECVIEW_ASSIGN_OR_RETURN(
        audit_options.max_bytes,
        CountFlag(args, "--audit-max-bytes", audit_options.max_bytes));
    SECVIEW_ASSIGN_OR_RETURN(
        audit_log, obs::JsonlAuditLog::Open(audit_path->second,
                                            audit_options));
    // Drops feed the registry (for /statusz and scrapes) and the health
    // tracker (so a dying audit disk flips /healthz to "degraded").
    audit_log->AttachDropCounter(
        &engine->metrics().GetCounter("audit.dropped"));
    audit_log->AttachHealth(&telemetry->health);
  }

  QueryWorkerPool::Options pool_options;
  pool_options.threads = static_cast<size_t>(threads_n);
  pool_options.queue_cap = static_cast<size_t>(queue_cap);
  QueryWorkerPool pool(*engine, pool_options);  // seals the engine

  ExecuteOptions options;
  options.bindings = args.bindings;
  options.optimize = !args.switches.count("--no-optimize");
  options.audit = audit_log.get();
  options.limits = limits.budget;
  options.parse_limits = limits.xpath;

  g_serve_stop.store(false);
  auto old_int = std::signal(SIGINT, HandleServeSignal);
  auto old_term = std::signal(SIGTERM, HandleServeSignal);
  out << "# serving; stop with SIGINT/SIGTERM"
      << (max_seconds > 0
              ? " (or after " + std::to_string(max_seconds) + "s)"
              : std::string())
      << "\n";
  out.flush();

  const auto start = std::chrono::steady_clock::now();
  uint64_t rounds = 0;
  while (!g_serve_stop.load()) {
    if (max_seconds > 0 &&
        std::chrono::steady_clock::now() - start >=
            std::chrono::seconds(max_seconds)) {
      break;
    }
    if (!queries.empty()) {
      pool.ExecuteBatch("policy", doc, queries, options);
      ++rounds;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        queries.empty() ? 50 : replay_delay_ms));
  }
  std::signal(SIGINT, old_int);
  std::signal(SIGTERM, old_term);

  telemetry->server->Stop();
  RemovePortFile(args);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out << "# served " << seconds << " s, " << rounds << " replay round(s), "
      << telemetry->window.total() << " queries observed, "
      << telemetry->server->http().requests_handled()
      << " telemetry request(s)\n";
  if (audit_log != nullptr) {
    out << "# audit: " << audit_log->events() << " event(s) written, "
        << audit_log->dropped() << " dropped, to " << audit_log->path()
        << "\n";
  }
  return Status::OK();
}

Status CmdScrape(const Args& args, std::ostream& out) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  auto addr_flag = args.values.find("--addr");
  if (addr_flag != args.values.end()) {
    SECVIEW_ASSIGN_OR_RETURN(auto addr,
                             ParseHostPort("--addr", addr_flag->second));
    host = addr.first;
    port = addr.second;
  } else {
    SECVIEW_ASSIGN_OR_RETURN(uint64_t p, CountFlag(args, "--port", 0));
    if (p == 0 || p > 65535) {
      return Status::InvalidArgument("scrape needs --addr HOST:PORT or --port N");
    }
    port = static_cast<uint16_t>(p);
  }
  std::string path = "/metrics";
  auto path_flag = args.values.find("--path");
  if (path_flag != args.values.end()) path = path_flag->second;
  SECVIEW_ASSIGN_OR_RETURN(uint64_t timeout_ms,
                           CountFlag(args, "--timeout-ms", 5000));
  SECVIEW_ASSIGN_OR_RETURN(uint64_t retries, CountFlag(args, "--retries", 0));

  net::HttpGetOptions get_options;
  get_options.timeout_ms = static_cast<int>(timeout_ms);
  get_options.retries = static_cast<int>(retries);
  SECVIEW_ASSIGN_OR_RETURN(net::FetchedResponse response,
                           net::HttpGet(host, port, path, get_options));
  if (response.status != 200) {
    return Status::Internal("HTTP " + std::to_string(response.status) +
                            " from " + path + ": " + response.body);
  }
  if (args.switches.count("--validate-prom")) {
    Status valid = obs::ValidatePrometheusText(response.body);
    if (!valid.ok()) {
      return Status::InvalidArgument("fetched body fails Prometheus text "
                                     "validation: " +
                                     valid.message());
    }
  }
  out << response.body;
  return Status::OK();
}

Status CmdBenchServe(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(ServeLimits limits, LoadServeLimits(args));
  SECVIEW_ASSIGN_OR_RETURN(DtdBundle bundle, LoadDtdBundle(args));
  SECVIEW_ASSIGN_OR_RETURN(XmlTree doc, LoadXml(args, bundle, limits.xml));
  SECVIEW_ASSIGN_OR_RETURN(std::string queries_path,
                           Required(args, "--queries"));
  SECVIEW_ASSIGN_OR_RETURN(std::vector<std::string> queries,
                           LoadQueriesFile(queries_path));
  SECVIEW_ASSIGN_OR_RETURN(std::unique_ptr<SecureQueryEngine> engine,
                           LoadEngine(args));
  ScopedFailpointMetrics failpoint_metrics(&engine->metrics());
  obs::ScopedLedgerCharge doc_charge(
      "xml.doc", static_cast<int64_t>(doc.MemoryFootprintBytes()));

  SECVIEW_ASSIGN_OR_RETURN(uint64_t threads_n, CountFlag(args, "--threads", 0));
  if (args.values.count("--threads") && threads_n < 1) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  SECVIEW_ASSIGN_OR_RETURN(uint64_t repeat_n, CountFlag(args, "--repeat", 10));
  if (repeat_n < 1) return Status::InvalidArgument("--repeat must be >= 1");
  size_t threads = static_cast<size_t>(threads_n);
  size_t repeat = static_cast<size_t>(repeat_n);
  SECVIEW_ASSIGN_OR_RETURN(uint64_t queue_cap, CountFlag(args, "--queue-cap", 0));

  ExecuteOptions options;
  options.bindings = args.bindings;
  options.optimize = !args.switches.count("--no-optimize");
  options.limits = limits.budget;
  options.parse_limits = limits.xpath;

  // With --telemetry-addr the endpoints stay live for the whole run, so
  // an external scraper (or the run's own scripts) can watch the bench.
  SECVIEW_ASSIGN_OR_RETURN(
      std::unique_ptr<TelemetryBundle> telemetry,
      StartTelemetry(args, *engine, /*require=*/false, out));

  // With --profile every execution feeds a cross-query hot-step table;
  // StartTelemetry already attached the bundle's table when telemetry is
  // live, otherwise a run-local table collects for the end-of-run print.
  obs::PlanProfileTable local_profiles;
  const obs::PlanProfileTable* profiles = nullptr;
  if (args.switches.count("--profile")) {
    if (telemetry != nullptr) {
      profiles = &telemetry->plan_profiles;
    } else {
      engine->AttachPlanProfiles(&local_profiles);
      profiles = &local_profiles;
    }
  }

  QueryWorkerPool::Options pool_options;
  pool_options.threads = threads;
  pool_options.queue_cap = static_cast<size_t>(queue_cap);
  QueryWorkerPool pool(*engine, pool_options);

  // One untimed warm-up pass populates the rewrite cache and surfaces
  // per-query failures before the measured runs.
  size_t ok = 0;
  size_t failed = 0;
  for (const Result<ExecuteResult>& r :
       pool.ExecuteBatch("policy", doc, queries, options)) {
    if (r.ok()) {
      ++ok;
    } else {
      if (failed == 0) {
        out << "# warning: some queries fail (first: "
            << r.status().ToString() << ")\n";
      }
      ++failed;
    }
  }

  auto start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < repeat; ++round) {
    pool.ExecuteBatch("policy", doc, queries, options);
  }
  auto stop = std::chrono::steady_clock::now();
  double seconds = std::chrono::duration<double>(stop - start).count();
  size_t executed = queries.size() * repeat;
  double qps = seconds > 0 ? static_cast<double>(executed) / seconds : 0.0;

  obs::MetricsRegistry& metrics = engine->metrics();
  uint64_t hits = metrics.GetCounter("engine.cache.hits").value();
  uint64_t misses = metrics.GetCounter("engine.cache.misses").value();
  double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;

  out << "threads: " << pool.threads() << "\n";
  out << "queries: " << queries.size() << " (" << ok << " ok, " << failed
      << " failing), repeated " << repeat << "x\n";
  out << "executed: " << executed << " in " << seconds << " s\n";
  out << "throughput: " << qps << " queries/sec\n";
  out << "cache: " << hits << " hits, " << misses << " misses ("
      << hit_rate * 100.0 << "% hit rate), size "
      << metrics.GetGauge("engine.cache.size").value() << ", evictions "
      << metrics.GetCounter("engine.cache.evictions").value() << "\n";
  uint64_t shed = metrics.GetCounter("engine.pool.shed").value();
  uint64_t deadline_rejects =
      metrics.GetCounter("engine.rejected.deadline").value();
  uint64_t budget_rejects =
      metrics.GetCounter("engine.rejected.budget").value();
  if (shed + deadline_rejects + budget_rejects > 0) {
    out << "rejected: " << shed << " shed, " << deadline_rejects
        << " deadline, " << budget_rejects << " budget\n";
  }
  if (telemetry != nullptr) {
    obs::SlidingWindowStats::Window window = telemetry->window.Snapshot(60);
    out << "telemetry: " << telemetry->server->http().requests_handled()
        << " request(s) served, window(60s) " << window.count
        << " queries at " << window.qps << " qps\n";
    telemetry->server->Stop();
    // Unlike `serve`, bench-serve keeps its --port-file: the run is a
    // batch and the file is its discoverable output, not a liveness
    // signal a restarting supervisor could trip over.
  }
  if (profiles != nullptr) {
    out << "\n"
        << obs::RenderPlanProfileText(profiles->Snapshot(), /*top_k=*/10,
                                      profiles->queries());
  }
  return DumpPrometheus(args, metrics, out);
}

Status CmdTraceExport(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(std::string in_path, Required(args, "--in"));
  SECVIEW_ASSIGN_OR_RETURN(std::string text, ReadFile(in_path));
  // Every run validates; --validate alone just reports instead of
  // converting.
  SECVIEW_ASSIGN_OR_RETURN(std::vector<obs::Json> traces,
                           obs::ParseTraceJsonl(text));
  if (!args.switches.count("--chrome")) {
    if (!args.switches.count("--validate")) {
      return Status::InvalidArgument(
          "trace-export needs --chrome (convert) and/or --validate (check)");
    }
    out << "ok: " << traces.size() << " trace(s) validated\n";
    return Status::OK();
  }
  SECVIEW_ASSIGN_OR_RETURN(obs::Json chrome, obs::ChromeTraceJson(traces));
  std::string body = chrome.Dump(true);
  body += "\n";
  auto out_flag = args.values.find("--out");
  if (out_flag == args.values.end() || out_flag->second == "-") {
    out << body;
  } else {
    std::ofstream file(out_flag->second, std::ios::binary);
    if (!file) {
      return Status::Internal("cannot open " + out_flag->second);
    }
    file << body;
    if (!file.good()) {
      return Status::Internal("failed writing " + out_flag->second);
    }
  }
  if (args.switches.count("--validate")) {
    out << "ok: " << traces.size() << " trace(s) validated\n";
  }
  return Status::OK();
}

Status CmdProfileTop(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(std::string in_path, Required(args, "--in"));
  SECVIEW_ASSIGN_OR_RETURN(std::string text, ReadFile(in_path));
  // Parsing validates every line (schema tag, plan-tree shape, and the
  // exclusive-nodes-sum invariant) before anything is aggregated.
  SECVIEW_ASSIGN_OR_RETURN(std::vector<obs::Json> lines,
                           obs::ParseProfileJsonl(text));
  SECVIEW_ASSIGN_OR_RETURN(uint64_t k, CountFlag(args, "--k", 10));
  if (k == 0) k = 1;
  std::vector<obs::PlanStepRecord> rows;
  for (const obs::Json& line : lines) {
    const obs::Json* plan = line.Find("plan");
    if (plan == nullptr) continue;  // unreachable: validation requires it
    SECVIEW_RETURN_IF_ERROR(obs::FlattenProfilePlanJson(*plan, &rows));
  }
  std::sort(rows.begin(), rows.end(),
            [](const obs::PlanStepRecord& a, const obs::PlanStepRecord& b) {
              if (a.nodes_touched != b.nodes_touched) {
                return a.nodes_touched > b.nodes_touched;
              }
              return a.signature < b.signature;
            });
  out << obs::RenderPlanProfileText(rows, static_cast<size_t>(k),
                                    lines.size());
  return Status::OK();
}

Status CmdMaterialize(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(DtdBundle bundle, LoadDtdBundle(args));
  const Dtd& dtd = bundle.normalized.dtd;
  SECVIEW_ASSIGN_OR_RETURN(std::string spec_path, Required(args, "--spec"));
  SECVIEW_ASSIGN_OR_RETURN(std::string spec_text, ReadFile(spec_path));
  SECVIEW_ASSIGN_OR_RETURN(AccessSpec spec, ParseAccessSpec(dtd, spec_text));
  SECVIEW_ASSIGN_OR_RETURN(SecurityView view, DeriveSecurityView(spec));
  SECVIEW_ASSIGN_OR_RETURN(XmlTree doc, LoadXml(args, bundle));

  MaterializeOptions options;
  options.bindings = args.bindings;
  SECVIEW_ASSIGN_OR_RETURN(XmlTree tv,
                           MaterializeView(doc, view, spec, options));
  XmlWriteOptions pretty;
  pretty.indent = true;
  WriteXml(tv, tv.root(), out, pretty);
  return Status::OK();
}

Status CmdGenerate(const Args& args, std::ostream& out) {
  SECVIEW_ASSIGN_OR_RETURN(Dtd dtd, LoadDtd(args));
  GeneratorOptions options;
  SECVIEW_ASSIGN_OR_RETURN(uint64_t bytes, CountFlag(args, "--bytes", 0));
  SECVIEW_ASSIGN_OR_RETURN(uint64_t seed, CountFlag(args, "--seed", 42));
  SECVIEW_ASSIGN_OR_RETURN(uint64_t branch, CountFlag(args, "--branch", 3));
  options.target_bytes = static_cast<size_t>(bytes);
  options.seed = seed;
  options.max_branching = static_cast<int>(branch);
  options.min_branching = options.max_branching > 0 ? 1 : 0;
  SECVIEW_ASSIGN_OR_RETURN(XmlTree doc, GenerateDocument(dtd, options));
  WriteXml(doc, doc.root(), out);
  out << "\n";
  return Status::OK();
}

/// Arms the failpoint registry from SECVIEW_FAILPOINTS and then the
/// --failpoints flag (so the flag wins for a point named in both). Any
/// command can run with faults armed — chaos testing must reach the
/// whole CLI surface, not just `serve`.
Status ArmFailpoints(const Args& args) {
  const char* env = std::getenv("SECVIEW_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    Status status = FailPointRegistry::Instance().ArmFromSpec(env);
    if (!status.ok()) {
      return Status::InvalidArgument("SECVIEW_FAILPOINTS: " +
                                     status.message());
    }
  }
  auto it = args.values.find("--failpoints");
  if (it != args.values.end()) {
    Status status = FailPointRegistry::Instance().ArmFromSpec(it->second);
    if (!status.ok()) {
      return Status::InvalidArgument("--failpoints: " + status.message());
    }
  }
  return Status::OK();
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  Result<Args> parsed = ParseArgs(args);
  if (!parsed.ok()) {
    err << "error: " << parsed.status().message() << "\n" << kUsage;
    return 2;
  }
  Status armed = ArmFailpoints(*parsed);
  if (!armed.ok()) {
    err << "error: " << armed.message() << "\n" << kUsage;
    return 2;
  }
  // The registry is process-lifetime but the arming belongs to this
  // invocation: disarm on the way out so in-process callers (tests)
  // running several commands do not leak faults between them.
  const bool disarm_on_exit =
      parsed->values.count("--failpoints") > 0 ||
      (std::getenv("SECVIEW_FAILPOINTS") != nullptr &&
       std::getenv("SECVIEW_FAILPOINTS")[0] != '\0');
  struct DisarmGuard {
    bool active;
    ~DisarmGuard() {
      if (active) FailPointRegistry::Instance().DisarmAll();
    }
  } disarm_guard{disarm_on_exit};
  Status status = Status::OK();
  if (parsed->command == "help" || parsed->command == "--help") {
    out << kUsage;
    return 0;
  } else if (parsed->command == "validate") {
    status = CmdValidate(*parsed, out);
  } else if (parsed->command == "derive") {
    status = CmdDerive(*parsed, out);
  } else if (parsed->command == "rewrite") {
    status = CmdRewrite(*parsed, out);
  } else if (parsed->command == "query") {
    status = CmdQuery(*parsed, out);
  } else if (parsed->command == "explain") {
    status = CmdExplain(*parsed, out);
  } else if (parsed->command == "audit-verify") {
    status = CmdAuditVerify(*parsed, out);
  } else if (parsed->command == "bench-serve") {
    status = CmdBenchServe(*parsed, out);
  } else if (parsed->command == "serve") {
    status = CmdServe(*parsed, out);
  } else if (parsed->command == "scrape") {
    status = CmdScrape(*parsed, out);
  } else if (parsed->command == "trace-export") {
    status = CmdTraceExport(*parsed, out);
  } else if (parsed->command == "profile-top") {
    status = CmdProfileTop(*parsed, out);
  } else if (parsed->command == "materialize") {
    status = CmdMaterialize(*parsed, out);
  } else if (parsed->command == "generate") {
    status = CmdGenerate(*parsed, out);
  } else {
    err << "error: unknown command '" << parsed->command << "'\n" << kUsage;
    return 2;
  }
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    // Distinct exit codes let serving wrappers tell resource pressure
    // (retryable) from denials (not): see docs/robustness.md.
    if (status.IsDeadlineExceeded()) return 4;
    if (status.IsResourceExhausted()) return 5;
    if (status.IsCancelled()) return 6;
    return status.code() == StatusCode::kInvalidArgument &&
                   status.message().rfind("missing required", 0) == 0
               ? 2
               : 1;
  }
  return 0;
}

}  // namespace secview
