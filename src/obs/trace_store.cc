#include "obs/trace_store.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace secview::obs {

namespace {

int64_t WallNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Process-unique, scrape-stable trace ids: a per-process salt (derived
/// from the wall clock at first use, so ids from successive runs don't
/// collide in aggregated logs) in the high half, a monotone sequence in
/// the low half.
std::string NextTraceId() {
  static const uint64_t salt =
      (static_cast<uint64_t>(WallNowMicros()) & 0xffffffffu) << 32;
  static std::atomic<uint64_t> sequence{0};
  const uint64_t id =
      salt | (sequence.fetch_add(1, std::memory_order_relaxed) & 0xffffffffu);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return std::string(buf, 16);
}

void AppendSpanText(const Json& span, int depth, std::string& out) {
  if (!span.is_object()) return;
  out.append(static_cast<size_t>(depth) * 2, ' ');
  const Json* name = span.Find("name");
  out += name != nullptr && name->is_string() ? name->AsString() : "?";
  if (const Json* dur = span.Find("duration_us");
      dur != nullptr && dur->is_number()) {
    out += ' ';
    out += std::to_string(static_cast<uint64_t>(dur->AsNumber()));
    out += "us";
  }
  if (const Json* attrs = span.Find("attrs");
      attrs != nullptr && attrs->is_object()) {
    for (const auto& [key, value] : attrs->members()) {
      out += " " + key + "=" +
             (value.is_string() ? value.AsString() : value.Dump());
    }
  }
  out.push_back('\n');
  if (const Json* children = span.Find("children");
      children != nullptr && children->is_array()) {
    for (const Json& child : children->items()) {
      AppendSpanText(child, depth + 1, out);
    }
  }
}

}  // namespace

RequestTraceStore::RequestTraceStore(Options options) : options_(options) {
  ring_.reserve(std::max<size_t>(options_.capacity, 1));
}

void RequestTraceStore::Offer(std::string_view policy, std::string_view query,
                              ServeOutcome outcome, uint64_t latency_micros,
                              Trace& trace) {
  const uint64_t seq = offered_.fetch_add(1, std::memory_order_relaxed);
  const bool sampled =
      options_.sample_every != 0 && seq % options_.sample_every == 0;
  const bool slow = latency_micros >= options_.slow_micros;
  const char* reason = nullptr;
  if (outcome != ServeOutcome::kOk) {
    reason = ServeOutcomeName(outcome);
  } else if (slow) {
    reason = "slow";
  } else if (sampled) {
    reason = "sampled";
  } else {
    return;
  }

  trace.Finish();
  Entry entry;
  entry.trace_id = NextTraceId();
  entry.unix_micros = WallNowMicros();
  entry.policy = std::string(policy);
  entry.query = std::string(query);
  entry.outcome = outcome;
  entry.reason = reason;
  entry.latency_micros = latency_micros;
  entry.spans = trace.ToJson();

  const size_t capacity = std::max<size_t>(options_.capacity, 1);
  std::lock_guard<std::mutex> lock(mu_);
  ++retained_count_;
  if (ring_.size() < capacity) {
    ring_.push_back(std::move(entry));
    next_ = ring_.size() % capacity;
  } else {
    ring_[next_] = std::move(entry);
    next_ = (next_ + 1) % capacity;
  }
}

std::vector<RequestTraceStore::Entry> RequestTraceStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(ring_.size());
  // next_ points at the oldest entry once the ring has wrapped; walk
  // backwards from the newest.
  for (size_t i = 0; i < ring_.size(); ++i) {
    size_t slot = (next_ + ring_.size() - 1 - i) % ring_.size();
    out.push_back(ring_[slot]);
  }
  return out;
}

uint64_t RequestTraceStore::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_count_;
}

namespace {

size_t StringHeapBytes(const std::string& s) {
  // Heap payload only once the string outgrew the small-string buffer.
  return s.capacity() > sizeof(std::string) ? s.capacity() + 1 : 0;
}

size_t JsonApproxBytes(const Json& value) {
  size_t bytes = sizeof(Json);
  switch (value.kind()) {
    case Json::Kind::kString:
      bytes += StringHeapBytes(value.AsString());
      break;
    case Json::Kind::kArray:
      for (const Json& item : value.items()) bytes += JsonApproxBytes(item);
      break;
    case Json::Kind::kObject:
      for (const auto& [key, member] : value.members()) {
        bytes += StringHeapBytes(key) + JsonApproxBytes(member);
      }
      break;
    default:
      break;
  }
  return bytes;
}

}  // namespace

size_t RequestTraceStore::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = ring_.capacity() * sizeof(Entry);
  for (const Entry& entry : ring_) {
    bytes += StringHeapBytes(entry.trace_id) + StringHeapBytes(entry.policy) +
             StringHeapBytes(entry.query) + StringHeapBytes(entry.reason);
    // JsonApproxBytes counts sizeof(Json) for the root too, but the root
    // is embedded in the Entry already counted above; subtract it back.
    bytes += JsonApproxBytes(entry.spans) - sizeof(Json);
  }
  return bytes;
}

Json RequestTraceStore::EntryJson(const Entry& entry) {
  Json doc = Json::Object();
  doc.Set("schema", "secview.trace.v1");
  doc.Set("trace_id", entry.trace_id);
  doc.Set("unix_micros", entry.unix_micros);
  doc.Set("policy", entry.policy);
  doc.Set("query", entry.query);
  doc.Set("outcome", ServeOutcomeName(entry.outcome));
  doc.Set("reason", entry.reason);
  doc.Set("latency_micros", entry.latency_micros);
  doc.Set("spans", entry.spans);
  return doc;
}

std::string RequestTraceStore::SnapshotJsonl() const {
  std::string out;
  for (const Entry& entry : Snapshot()) {
    out += EntryJson(entry).Dump(false);
    out.push_back('\n');
  }
  return out;
}

std::string RequestTraceStore::SnapshotText() const {
  const std::vector<Entry> entries = Snapshot();
  std::string out = "request traces: " + std::to_string(entries.size()) +
                    " retained of " + std::to_string(offered()) +
                    " offered (sample 1/" +
                    std::to_string(options_.sample_every) + ", slow >= " +
                    std::to_string(options_.slow_micros) +
                    "us, plus all non-ok outcomes; newest first)\n";
  for (const Entry& entry : entries) {
    out += "\ntrace " + entry.trace_id + " [" +
           ServeOutcomeName(entry.outcome) + "/" + entry.reason + "] " +
           std::to_string(entry.latency_micros) + "us policy=" + entry.policy +
           " query=" + entry.query + "\n";
    AppendSpanText(entry.spans, 1, out);
  }
  return out;
}

}  // namespace secview::obs
