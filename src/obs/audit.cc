#include "obs/audit.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/failpoint.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace secview::obs {

Json AuditEvent::ToJson() const {
  Json j = Json::Object();
  j.Set("schema", Json("secview.audit.v1"));
  j.Set("seq", seq);
  j.Set("unix_micros", unix_micros);
  j.Set("policy", policy);
  j.Set("query", query);
  j.Set("outcome", outcome);
  j.Set("status", status);
  if (!error.empty()) j.Set("error", error);
  j.Set("rewritten", rewritten);
  j.Set("evaluated", evaluated);
  j.Set("results", results);
  j.Set("cache_hit", cache_hit);
  j.Set("unfold_depth", unfold_depth);
  j.Set("ast", Json::Object()
                   .Set("rewritten", ast_size_rewritten)
                   .Set("evaluated", ast_size_evaluated));
  j.Set("micros", Json::Object()
                      .Set("parse", parse_micros)
                      .Set("rewrite", rewrite_micros)
                      .Set("optimize", optimize_micros)
                      .Set("evaluate", evaluate_micros));
  j.Set("cost", Json::Object()
                    .Set("nodes_touched", nodes_touched)
                    .Set("predicate_evals", predicate_evals));
  j.Set("dp", Json::Object()
                  .Set("rewrite_entries", rewrite_dp_entries)
                  .Set("optimize_entries", optimize_dp_entries));
  j.Set("prunes", Json::Object()
                      .Set("nonexistence", nonexistence_prunes)
                      .Set("simulation_tests", simulation_tests)
                      .Set("union", union_prunes));
  return j;
}

int64_t AuditEvent::NowUnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

JsonlAuditLog::JsonlAuditLog(std::string path, Options options)
    : path_(std::move(path)),
      options_(options),
      retry_rng_(options.retry_jitter_seed) {}

JsonlAuditLog::~JsonlAuditLog() = default;

Result<std::unique_ptr<JsonlAuditLog>> JsonlAuditLog::Open(std::string path) {
  return Open(std::move(path), Options());
}

Result<std::unique_ptr<JsonlAuditLog>> JsonlAuditLog::Open(std::string path,
                                                           Options options) {
  if (path.empty()) {
    return Status::InvalidArgument("audit log path must not be empty");
  }
  if (options.max_bytes == 0) {
    return Status::InvalidArgument("audit log max_bytes must be positive");
  }
  std::unique_ptr<JsonlAuditLog> log(
      new JsonlAuditLog(std::move(path), options));
  std::error_code ec;
  uint64_t existing = std::filesystem::file_size(log->path_, ec);
  log->bytes_ = ec ? 0 : existing;
  log->out_.open(log->path_, std::ios::binary | std::ios::app);
  if (!log->out_) {
    return Status::NotFound("cannot open audit log for appending: " +
                            log->path_);
  }
  return log;
}

void JsonlAuditLog::RotateLocked() {
  out_.close();
  std::error_code ec;
  std::string rotated = path_ + "." + std::to_string(rotations_ + 1);
  std::filesystem::rename(path_, rotated, ec);
  if (!ec) ++rotations_;
  // On rename failure we fall through and keep appending to the same
  // file — losing rotation is better than losing audit events.
  out_.open(path_, ec ? std::ios::binary | std::ios::app
                      : std::ios::binary | std::ios::trunc);
  bytes_ = ec ? bytes_ : 0;
}

bool JsonlAuditLog::TryWriteLocked(const std::string& line) {
  static FailPoint& write_fault =
      FailPointRegistry::Instance().Get(failpoints::kAuditWrite);
  if (write_fault.Fire()) return false;  // simulated ENOSPC / short write
  out_ << line;
  out_.flush();
  if (!out_.good()) {
    // Clear the stream's error latch so the next attempt (or the next
    // event) is not doomed by this one's failure.
    out_.clear();
    return false;
  }
  return true;
}

void JsonlAuditLog::Record(const AuditEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  AuditEvent stamped = event;
  // The seq is consumed even when every write attempt fails: a dropped
  // event must leave a gap the verifier can see.
  stamped.seq = ++seq_;
  std::string line = stamped.ToJson().Dump(/*pretty=*/false);
  line.push_back('\n');
  if (bytes_ > 0 && bytes_ + line.size() > options_.max_bytes) {
    RotateLocked();
  }
  uint64_t backoff = options_.retry_backoff_micros;
  for (int attempt = 0;; ++attempt) {
    if (TryWriteLocked(line)) {
      bytes_ += line.size();
      ++events_;
      return;
    }
    if (attempt >= options_.write_retries) break;
    uint64_t jitter = backoff > 1 ? retry_rng_.Below(backoff / 2 + 1) : 0;
    std::this_thread::sleep_for(std::chrono::microseconds(backoff + jitter));
    backoff = std::min(backoff * 2, options_.retry_backoff_cap_micros);
  }
  ++dropped_;
  if (Counter* counter = dropped_counter_.load(std::memory_order_relaxed)) {
    counter->Add();
  }
  if (HealthTracker* health = health_.load(std::memory_order_relaxed)) {
    health->RecordDrop();
  }
}

uint64_t JsonlAuditLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

uint64_t JsonlAuditLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void JsonlAuditLog::AttachDropCounter(Counter* counter) {
  dropped_counter_.store(counter, std::memory_order_relaxed);
}

void JsonlAuditLog::AttachHealth(HealthTracker* health) {
  health_.store(health, std::memory_order_relaxed);
}

uint64_t JsonlAuditLog::rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

namespace {

const Json* RequireMember(const Json& object, std::string_view key,
                          Json::Kind kind, Status* status) {
  const Json* member = object.Find(key);
  if (member == nullptr) {
    *status = Status::InvalidArgument("audit record is missing '" +
                                      std::string(key) + "'");
    return nullptr;
  }
  if (member->kind() != kind) {
    *status = Status::InvalidArgument("audit field '" + std::string(key) +
                                      "' has the wrong type");
    return nullptr;
  }
  return member;
}

}  // namespace

Status ValidateAuditLine(std::string_view line) {
  SECVIEW_ASSIGN_OR_RETURN(Json record, Json::Parse(line));
  if (!record.is_object()) {
    return Status::InvalidArgument("audit record is not a JSON object");
  }
  Status st = Status::OK();
  const Json* schema =
      RequireMember(record, "schema", Json::Kind::kString, &st);
  if (schema == nullptr) return st;
  if (schema->AsString() != "secview.audit.v1") {
    return Status::InvalidArgument("unexpected audit schema '" +
                                   schema->AsString() + "'");
  }
  for (std::string_view key : {"seq", "unix_micros", "results",
                               "unfold_depth"}) {
    if (RequireMember(record, key, Json::Kind::kNumber, &st) == nullptr) {
      return st;
    }
  }
  for (std::string_view key :
       {"policy", "query", "outcome", "status", "rewritten", "evaluated"}) {
    if (RequireMember(record, key, Json::Kind::kString, &st) == nullptr) {
      return st;
    }
  }
  if (RequireMember(record, "cache_hit", Json::Kind::kBool, &st) == nullptr) {
    return st;
  }
  for (std::string_view key : {"ast", "micros", "cost", "dp", "prunes"}) {
    if (RequireMember(record, key, Json::Kind::kObject, &st) == nullptr) {
      return st;
    }
  }
  const Json& seq = *record.Find("seq");
  if (seq.AsNumber() < 1) {
    return Status::InvalidArgument("audit seq must be >= 1");
  }
  const std::string& outcome = record.Find("outcome")->AsString();
  if (outcome == "ok") {
    if (record.Find("status")->AsString() != "OK") {
      return Status::InvalidArgument("ok outcome with non-OK status");
    }
    if (record.Find("error") != nullptr) {
      return Status::InvalidArgument("ok outcome carries an error message");
    }
  } else if (outcome == "error" || outcome == "denied" ||
             outcome == "timeout" || outcome == "shed") {
    // "error" is the legacy catch-all; "denied"/"timeout"/"shed" refine
    // it. All four share the failure invariants.
    if (record.Find("status")->AsString() == "OK") {
      return Status::InvalidArgument(outcome + " outcome with OK status");
    }
    if (RequireMember(record, "error", Json::Kind::kString, &st) == nullptr) {
      return st;
    }
  } else {
    return Status::InvalidArgument("unknown audit outcome '" + outcome + "'");
  }
  return Status::OK();
}

}  // namespace secview::obs
