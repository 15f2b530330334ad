// Diffs two secview metrics/trace JSON files (the output of a bench's
// --metrics-json flag, the CLI's --trace-json flag, or the engine's
// MetricsRegistry::ToJsonString) for bench trajectory tracking:
//
//   bench_summary OLD.json NEW.json     # old/new/delta table
//   bench_summary FILE.json             # flatten one file
//   bench_summary --fail-above 20 OLD.json NEW.json
//                                       # exit 3 if any metric grew >20%
//   bench_summary --fail-above 50 OLD.json NEW.json
//                                       # gate two bench_concurrent runs
//                                       # (its qps gauges are wall-clock,
//                                       # so budget generously)
//
// Every numeric leaf is flattened to a dotted path (arrays indexed as
// [i]) and compared; keys present in only one file are shown as added
// or removed. Histogram-shaped objects ({"count","sum","buckets":
// [{"le","count"}...]}, as written by MetricsRegistry::ToJson and the
// snapshot writer) are summarized to .count/.sum/.p50/.p95/.p99 plus an
// .overflow leaf (the +Inf bucket's occupancy — nonzero means the .p*
// values are clamped lower bounds) instead of per-bucket leaves, so
// bucket boundary changes don't churn the diff.
//
// A metric that is absent from one side, or zero on the old side, has
// no meaningful growth percentage: such rows render as added/removed/
// "new" and are exempt from --fail-above (otherwise introducing an
// instrument — e.g. the per-axis eval.axis.* counters — would read as
// an infinite regression against any pre-instrument baseline).
// Exit code 0 on success, 1 on I/O or parse errors, 3 when --fail-above
// trips.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace secview {
namespace {

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One histogram bucket: upper bound (+Inf for the overflow bucket) and
/// the number of samples that landed in it (non-cumulative).
struct Bucket {
  double le = 0;
  double count = 0;
};

/// Recognizes the histogram rendering shared by MetricsRegistry::ToJson
/// and the snapshot writer: {"count": N, "sum": S, "buckets":
/// [{"le": bound-or-"inf", "count": n}, ...]}. Fills `buckets` on match.
bool AsHistogram(const obs::Json& v, std::vector<Bucket>& buckets) {
  if (!v.is_object()) return false;
  const obs::Json* count = v.Find("count");
  const obs::Json* sum = v.Find("sum");
  const obs::Json* list = v.Find("buckets");
  if (count == nullptr || count->kind() != obs::Json::Kind::kNumber ||
      sum == nullptr || sum->kind() != obs::Json::Kind::kNumber ||
      list == nullptr || list->kind() != obs::Json::Kind::kArray) {
    return false;
  }
  buckets.clear();
  for (const obs::Json& entry : list->items()) {
    if (!entry.is_object()) return false;
    const obs::Json* le = entry.Find("le");
    const obs::Json* n = entry.Find("count");
    if (le == nullptr || n == nullptr ||
        n->kind() != obs::Json::Kind::kNumber) {
      return false;
    }
    Bucket b;
    if (le->kind() == obs::Json::Kind::kNumber) {
      b.le = le->AsNumber();
    } else if (le->kind() == obs::Json::Kind::kString &&
               (le->AsString() == "inf" || le->AsString() == "+Inf")) {
      b.le = std::numeric_limits<double>::infinity();
    } else {
      return false;
    }
    b.count = n->AsNumber();
    buckets.push_back(b);
  }
  return !buckets.empty();
}

/// Estimates the q-quantile (q in [0,1]) by linear interpolation within
/// the bucket the target rank falls into. Samples in the +Inf bucket are
/// clamped to the last finite bound — the histogram carries no upper
/// bound for them, so this is the tightest honest answer.
double HistogramPercentile(const std::vector<Bucket>& buckets, double q) {
  double total = 0;
  for (const Bucket& b : buckets) total += b.count;
  if (total <= 0) return 0;
  double target = q * total;
  double cumulative = 0;
  double lower = 0;
  double last_finite = 0;
  for (const Bucket& b : buckets) {
    if (std::isfinite(b.le)) last_finite = b.le;
    if (b.count > 0 && cumulative + b.count >= target) {
      if (!std::isfinite(b.le)) return last_finite;
      double frac = (target - cumulative) / b.count;
      return lower + frac * (b.le - lower);
    }
    cumulative += b.count;
    if (std::isfinite(b.le)) lower = b.le;
  }
  return last_finite;
}

/// Collects every numeric leaf of `v` into `out` under dotted paths.
/// Histogram-shaped subtrees are summarized (count/sum/percentiles)
/// rather than flattened bucket by bucket.
void Flatten(const obs::Json& v, const std::string& prefix,
             std::map<std::string, double>& out) {
  switch (v.kind()) {
    case obs::Json::Kind::kNumber:
      out[prefix.empty() ? "." : prefix] = v.AsNumber();
      break;
    case obs::Json::Kind::kObject: {
      std::vector<Bucket> buckets;
      if (!prefix.empty() && AsHistogram(v, buckets)) {
        out[prefix + ".count"] = v.Find("count")->AsNumber();
        out[prefix + ".sum"] = v.Find("sum")->AsNumber();
        out[prefix + ".p50"] = HistogramPercentile(buckets, 0.50);
        out[prefix + ".p95"] = HistogramPercentile(buckets, 0.95);
        out[prefix + ".p99"] = HistogramPercentile(buckets, 0.99);
        // Overflow-bucket occupancy, surfaced so a clamped percentile is
        // visible as such: when .overflow grows, the .p* values above are
        // lower bounds, not estimates.
        double overflow = 0;
        for (const Bucket& b : buckets) {
          if (!std::isfinite(b.le)) overflow += b.count;
        }
        out[prefix + ".overflow"] = overflow;
        break;
      }
      for (const auto& [key, child] : v.members()) {
        Flatten(child, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    }
    case obs::Json::Kind::kArray: {
      size_t i = 0;
      for (const obs::Json& child : v.items()) {
        Flatten(child, prefix + "[" + std::to_string(i++) + "]", out);
      }
      break;
    }
    default:
      break;  // strings/bools/nulls are labels, not measurements
  }
}

int LoadFlat(const std::string& path, std::map<std::string, double>& out) {
  std::optional<std::string> text = ReadFile(path);
  if (!text) {
    std::fprintf(stderr, "bench_summary: cannot read %s\n", path.c_str());
    return 1;
  }
  Result<obs::Json> doc = obs::Json::Parse(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "bench_summary: %s: %s\n", path.c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  Flatten(*doc, "", out);
  return 0;
}

std::string FormatNumber(double v) {
  char buffer[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", v);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.3f", v);
  }
  return buffer;
}

int Run(int argc, char** argv) {
  double fail_above = -1;  // disabled until --fail-above is seen
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string pct;
    if (arg.rfind("--fail-above=", 0) == 0) {
      pct = arg.substr(13);
    } else if (arg == "--fail-above") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_summary: --fail-above needs a percent\n");
        return 1;
      }
      pct = argv[++i];
    } else {
      files.push_back(std::move(arg));
      continue;
    }
    char* end = nullptr;
    fail_above = std::strtod(pct.c_str(), &end);
    if (end != pct.c_str() + pct.size() || pct.empty() || fail_above < 0) {
      std::fprintf(stderr, "bench_summary: bad --fail-above value '%s'\n",
                   pct.c_str());
      return 1;
    }
  }
  if (files.size() != 1 && files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_summary [--fail-above PCT] OLD.json "
                 "[NEW.json]\n");
    return 1;
  }
  if (fail_above >= 0 && files.size() != 2) {
    std::fprintf(stderr, "bench_summary: --fail-above needs two files\n");
    return 1;
  }
  std::map<std::string, double> old_flat;
  if (LoadFlat(files[0], old_flat) != 0) return 1;
  if (files.size() == 1) {
    for (const auto& [key, value] : old_flat) {
      std::printf("%-56s %s\n", key.c_str(), FormatNumber(value).c_str());
    }
    return 0;
  }
  std::map<std::string, double> new_flat;
  if (LoadFlat(files[1], new_flat) != 0) return 1;

  std::vector<std::pair<std::string, double>> regressions;
  std::printf("%-56s %14s %14s %14s %9s\n", "metric", "old", "new", "delta",
              "pct");
  for (const auto& [key, old_value] : old_flat) {
    auto it = new_flat.find(key);
    if (it == new_flat.end()) {
      std::printf("%-56s %14s %14s %14s %9s\n", key.c_str(),
                  FormatNumber(old_value).c_str(), "-", "-", "removed");
      continue;
    }
    double delta = it->second - old_value;
    std::string pct = old_value != 0.0
                          ? FormatNumber(100.0 * delta / old_value) + "%"
                          : (delta == 0.0 ? "0%" : "new");
    if (fail_above >= 0 && delta > 0.0 && old_value != 0.0) {
      double growth = 100.0 * delta / old_value;
      if (growth > fail_above) regressions.emplace_back(key, growth);
    }
    std::printf("%-56s %14s %14s %14s %9s\n", key.c_str(),
                FormatNumber(old_value).c_str(),
                FormatNumber(it->second).c_str(), FormatNumber(delta).c_str(),
                pct.c_str());
  }
  for (const auto& [key, new_value] : new_flat) {
    if (old_flat.count(key)) continue;
    std::printf("%-56s %14s %14s %14s %9s\n", key.c_str(), "-",
                FormatNumber(new_value).c_str(), "-", "added");
  }
  if (!regressions.empty()) {
    for (const auto& [key, growth] : regressions) {
      std::printf("REGRESSION %-56s +%s%% (limit %s%%)\n", key.c_str(),
                  FormatNumber(growth).c_str(),
                  FormatNumber(fail_above).c_str());
    }
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace secview

int main(int argc, char** argv) { return secview::Run(argc, argv); }
