#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "common/alloc_tracker.h"
#include "common/build_info.h"
#include "obs/json.h"

namespace secview::obs {

std::string PrometheusMetricName(std::string_view name, std::string_view ns) {
  std::string out;
  out.reserve(ns.size() + 1 + name.size());
  auto append_sanitized = [&out](std::string_view s) {
    for (char c : s) {
      bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                   (c >= '0' && c <= '9') || c == '_' || c == ':';
      out.push_back(valid ? c : '_');
    }
  };
  if (!ns.empty()) {
    append_sanitized(ns);
    out.push_back('_');
  }
  append_sanitized(name);
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

std::string RenderPrometheusText(const MetricsSnapshot& snapshot,
                                 std::string_view ns) {
  std::string out;
  char buf[64];
  auto append_u64 = [&](uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    out += buf;
  };
  auto append_i64 = [&](int64_t v) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  };

  for (const auto& [name, value] : snapshot.counters) {
    std::string prom = PrometheusMetricName(name, ns);
    out += "# TYPE " + prom + " counter\n";
    out += prom + "_total ";
    append_u64(value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string prom = PrometheusMetricName(name, ns);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    append_i64(value);
    out.push_back('\n');
  }
  for (const MetricsSnapshot::HistogramSnapshot& h : snapshot.histograms) {
    std::string prom = PrometheusMetricName(h.name, ns);
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      out += prom + "_bucket{le=\"";
      if (i < h.bounds.size()) {
        append_u64(h.bounds[i]);
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      append_u64(cumulative);
      out.push_back('\n');
    }
    out += prom + "_sum ";
    append_u64(h.sum);
    out.push_back('\n');
    out += prom + "_count ";
    append_u64(h.count);
    out.push_back('\n');
  }
  out += RenderProcessInfoText(ns);
  return out;
}

std::string PrometheusEscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string RenderProcessInfoText(std::string_view ns) {
  const BuildInfo& build = GetBuildInfo();
  std::string start_name = PrometheusMetricName("process.start_time_unix", ns);
  std::string uptime_name = PrometheusMetricName("process.uptime_ms", ns);
  std::string build_name = PrometheusMetricName("build_info", ns);
  std::string out;
  out += "# TYPE " + start_name + " gauge\n";
  out += start_name + " " + std::to_string(ProcessStartUnixSeconds()) + "\n";
  out += "# TYPE " + uptime_name + " gauge\n";
  out += uptime_name + " " + std::to_string(ProcessUptimeMillis()) + "\n";
  // Memory gauges ride on every exposition so dashboards get memory
  // without a dedicated scrape path; both read the kernel's accounting.
  const struct {
    const char* name;
    uint64_t value;
  } memory_gauges[] = {
      {"process.resident_memory_bytes", ProcessResidentBytes()},
      {"process.peak_resident_memory_bytes", ProcessPeakResidentBytes()},
  };
  for (const auto& gauge : memory_gauges) {
    std::string prom = PrometheusMetricName(gauge.name, ns);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + std::to_string(gauge.value) + "\n";
  }
  out += "# TYPE " + build_name + " gauge\n";
  out += build_name + "{version=\"" + PrometheusEscapeLabelValue(build.version) +
         "\",compiler=\"" + PrometheusEscapeLabelValue(build.compiler) +
         "\",std=\"" + PrometheusEscapeLabelValue(build.cxx_standard) +
         "\",build_type=\"" + PrometheusEscapeLabelValue(build.build_type) +
         "\"} 1\n";
  return out;
}

namespace {

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool IsValidLabelName(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

/// Parses `{name="value",...}` starting at `pos` (which must point at
/// '{'); advances past the closing '}'. Returns false on any syntax
/// violation.
bool ConsumeLabels(std::string_view line, size_t& pos) {
  ++pos;  // '{'
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
    return true;
  }
  while (true) {
    size_t eq = line.find('=', pos);
    if (eq == std::string_view::npos) return false;
    if (!IsValidLabelName(line.substr(pos, eq - pos))) return false;
    pos = eq + 1;
    if (pos >= line.size() || line[pos] != '"') return false;
    ++pos;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\') {
        // The format defines exactly three label-value escapes.
        ++pos;
        if (pos >= line.size() ||
            (line[pos] != '\\' && line[pos] != '"' && line[pos] != 'n')) {
          return false;
        }
      }
      ++pos;
    }
    if (pos >= line.size()) return false;
    ++pos;  // closing quote
    if (pos < line.size() && line[pos] == ',') {
      ++pos;
      continue;
    }
    if (pos < line.size() && line[pos] == '}') {
      ++pos;
      return true;
    }
    return false;
  }
}

bool IsValidFloat(std::string_view token) {
  if (token.empty()) return false;
  if (token == "+Inf" || token == "-Inf" || token == "NaN") return true;
  std::string copy(token);
  char* end = nullptr;
  std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

}  // namespace

Status ValidatePrometheusText(std::string_view text) {
  size_t line_no = 0;
  size_t start = 0;
  auto fail = [&line_no](const std::string& what) {
    return Status::InvalidArgument("prometheus text line " +
                                   std::to_string(line_no) + ": " + what);
  };
  // The exposition format requires the last line to end in '\n'; a
  // scrape cut off mid-line must be rejected, not silently accepted.
  if (!text.empty() && text.back() != '\n') {
    line_no = 1 + static_cast<size_t>(
                      std::count(text.begin(), text.end(), '\n'));
    return fail("missing trailing newline");
  }
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    std::string_view line = text.substr(
        start, end == std::string_view::npos ? text.size() - start
                                             : end - start);
    ++line_no;
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <name> <type>", "# HELP <name> <text>", or free comment.
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        size_t space = rest.find(' ');
        if (space == std::string_view::npos) return fail("malformed TYPE");
        if (!IsValidMetricName(rest.substr(0, space))) {
          return fail("invalid metric name in TYPE");
        }
        std::string_view kind = rest.substr(space + 1);
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped") {
          return fail("unknown metric type '" + std::string(kind) + "'");
        }
      }
      continue;
    }
    // Metric line: name[{labels}] value [timestamp]
    size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    if (!IsValidMetricName(line.substr(0, pos))) {
      return fail("invalid metric name");
    }
    if (pos < line.size() && line[pos] == '{') {
      if (!ConsumeLabels(line, pos)) return fail("malformed labels");
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail("missing value");
    }
    ++pos;
    size_t value_end = line.find(' ', pos);
    std::string_view value = line.substr(
        pos, value_end == std::string_view::npos ? line.size() - pos
                                                 : value_end - pos);
    if (!IsValidFloat(value)) return fail("invalid value");
    if (value_end != std::string_view::npos) {
      std::string_view ts = line.substr(value_end + 1);
      if (!IsValidFloat(ts)) return fail("invalid timestamp");
    }
  }
  return Status::OK();
}

MetricsSnapshotWriter::MetricsSnapshotWriter(const MetricsRegistry* registry,
                                             std::string dir)
    : MetricsSnapshotWriter(registry, std::move(dir), Options()) {}

MetricsSnapshotWriter::MetricsSnapshotWriter(const MetricsRegistry* registry,
                                             std::string dir, Options options)
    : registry_(registry), dir_(std::move(dir)), options_(std::move(options)) {}

MetricsSnapshotWriter::~MetricsSnapshotWriter() { Stop(); }

namespace {

Status AtomicWrite(const std::string& dir, const std::string& filename,
                   const std::string& content) {
  std::string tmp = dir + "/." + filename + ".tmp." +
                    std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::NotFound("cannot open for writing: " + tmp);
    out << content;
    if (!out.flush()) {
      return Status::Internal("write failed: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, dir + "/" + filename, ec);
  if (ec) {
    return Status::Internal("rename failed: " + tmp + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace

Json MetricsV1Document(const MetricsSnapshot& snapshot) {
  Json counters = Json::Object();
  for (const auto& [name, value] : snapshot.counters) counters.Set(name, value);
  Json gauges = Json::Object();
  for (const auto& [name, value] : snapshot.gauges) gauges.Set(name, value);
  Json histograms = Json::Object();
  for (const MetricsSnapshot::HistogramSnapshot& h : snapshot.histograms) {
    Json hist = Json::Object();
    hist.Set("count", h.count);
    hist.Set("sum", h.sum);
    Json buckets = Json::Array();
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      Json bucket = Json::Object();
      if (i < h.bounds.size()) {
        bucket.Set("le", h.bounds[i]);
      } else {
        bucket.Set("le", "inf");
      }
      bucket.Set("count", h.buckets[i]);
      buckets.Append(std::move(bucket));
    }
    hist.Set("buckets", std::move(buckets));
    histograms.Set(h.name, std::move(hist));
  }
  Json doc = Json::Object();
  doc.Set("schema", Json("secview.metrics.v1"));
  doc.Set("counters", std::move(counters));
  doc.Set("gauges", std::move(gauges));
  doc.Set("histograms", std::move(histograms));
  return doc;
}

Status MetricsSnapshotWriter::WriteOnce() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::NotFound("cannot create snapshot dir " + dir_ + ": " +
                            ec.message());
  }
  MetricsSnapshot snapshot = registry_->Collect();
  SECVIEW_RETURN_IF_ERROR(AtomicWrite(
      dir_, options_.prom_filename, RenderPrometheusText(snapshot,
                                                         options_.ns)));
  // The JSON twin is rendered from the *same* snapshot, so the two
  // files always agree.
  SECVIEW_RETURN_IF_ERROR(AtomicWrite(dir_, options_.json_filename,
                                      MetricsV1Document(snapshot)
                                          .Dump(/*pretty=*/true)));
  writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void MetricsSnapshotWriter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSnapshotWriter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  WriteOnce().ok();  // final snapshot; best effort on shutdown
}

void MetricsSnapshotWriter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, options_.interval,
                     [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    WriteOnce().ok();  // keep looping on transient I/O errors
    lock.lock();
  }
}

}  // namespace secview::obs
