#include "obs/heap_export.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "common/alloc_tracker.h"

namespace secview::obs {

namespace {

Json ProcessSection() {
  Json process = Json::Object();
  process.Set("resident_bytes", ProcessResidentBytes());
  process.Set("peak_resident_bytes", ProcessPeakResidentBytes());
  return process;
}

std::string HexPc(uintptr_t pc) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIxPTR, pc);
  return buf;
}

/// Frame name for the collapsed format: ';' separates frames and the
/// value follows the last space, so both must be squeezed out of
/// demangled C++ names.
std::string CollapsedFrameName(const HeapSiteSnapshot& site, size_t i) {
  std::string name = i < site.symbols.size() && !site.symbols[i].empty()
                         ? site.symbols[i]
                         : HexPc(site.frames[i]);
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == ' ') c = '_';
  }
  return name;
}

Status HeapError(const std::string& what) {
  return Status::InvalidArgument("heap.v2: " + what);
}

Status RequireNumbers(const Json& object, std::initializer_list<const char*>
                                              keys,
                      const char* where) {
  for (const char* key : keys) {
    const Json* value = object.Find(key);
    if (value == nullptr || !value->is_number() || value->AsNumber() < 0) {
      return HeapError(std::string(where) + ": missing number '" + key + "'");
    }
  }
  return Status::OK();
}

Status ValidateHeapObject(const Json& doc) {
  if (!doc.is_object()) return HeapError("document is not a JSON object");
  const Json* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "secview.heap.v2") {
    return HeapError("missing or wrong schema tag");
  }
  const Json* running = doc.Find("running");
  if (running == nullptr || !running->is_bool()) {
    return HeapError("missing bool 'running'");
  }
  SECVIEW_RETURN_IF_ERROR(
      RequireNumbers(doc, {"sample_interval_bytes"}, "document"));
  const Json* process = doc.Find("process");
  if (process == nullptr || !process->is_object()) {
    return HeapError("missing 'process' object");
  }
  SECVIEW_RETURN_IF_ERROR(RequireNumbers(
      *process, {"resident_bytes", "peak_resident_bytes"}, "process"));
  const Json* sampled = doc.Find("sampled");
  if (sampled == nullptr || !sampled->is_object()) {
    return HeapError("missing 'sampled' object");
  }
  SECVIEW_RETURN_IF_ERROR(RequireNumbers(
      *sampled,
      {"samples", "live_bytes", "live_objects", "alloc_bytes",
       "alloc_objects", "sites"},
      "sampled"));
  const Json* sites = doc.Find("sites");
  if (sites == nullptr || !sites->is_array()) {
    return HeapError("missing 'sites' array");
  }
  size_t rank = 0;
  for (const Json& site : sites->items()) {
    ++rank;
    const std::string where = "site #" + std::to_string(rank);
    if (!site.is_object()) return HeapError(where + ": not an object");
    SECVIEW_RETURN_IF_ERROR(RequireNumbers(
        site,
        {"live_bytes", "live_objects", "alloc_bytes", "alloc_objects",
         "samples"},
        where.c_str()));
    const Json* pcs = site.Find("pcs");
    const Json* frames = site.Find("frames");
    if (pcs == nullptr || !pcs->is_array() || pcs->items().empty()) {
      return HeapError(where + ": missing non-empty 'pcs' array");
    }
    if (frames == nullptr || !frames->is_array()) {
      return HeapError(where + ": missing 'frames' array");
    }
    if (frames->items().size() != pcs->items().size()) {
      return HeapError(where + ": 'frames' and 'pcs' lengths differ");
    }
    for (const Json& pc : pcs->items()) {
      if (!pc.is_string() || pc.AsString().rfind("0x", 0) != 0) {
        return HeapError(where + ": pcs entries must be hex strings");
      }
    }
    for (const Json& frame : frames->items()) {
      if (!frame.is_string() || frame.AsString().empty()) {
        return HeapError(where + ": frames entries must be strings");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Json HeapProfileJson(const HeapProfileSnapshot& snapshot, size_t top_k) {
  Json doc = Json::Object();
  doc.Set("schema", "secview.heap.v2");
  doc.Set("running", snapshot.running);
  doc.Set("sample_interval_bytes", snapshot.sample_interval_bytes);
  doc.Set("process", ProcessSection());

  Json sampled = Json::Object();
  sampled.Set("samples", snapshot.samples);
  sampled.Set("live_bytes", snapshot.live_bytes);
  sampled.Set("live_objects", snapshot.live_objects);
  sampled.Set("alloc_bytes", snapshot.alloc_bytes);
  sampled.Set("alloc_objects", snapshot.alloc_objects);
  sampled.Set("sites", static_cast<uint64_t>(snapshot.sites.size()));
  doc.Set("sampled", std::move(sampled));

  Json sites = Json::Array();
  size_t kept = 0;
  for (const HeapSiteSnapshot& site : snapshot.sites) {
    if (top_k != 0 && kept >= top_k) break;
    ++kept;
    Json entry = Json::Object();
    entry.Set("live_bytes", site.live_bytes);
    entry.Set("live_objects", site.live_objects);
    entry.Set("alloc_bytes", site.alloc_bytes);
    entry.Set("alloc_objects", site.alloc_objects);
    entry.Set("samples", site.samples);
    Json pcs = Json::Array();
    for (uintptr_t pc : site.frames) pcs.Append(HexPc(pc));
    entry.Set("pcs", std::move(pcs));
    Json frames = Json::Array();
    for (size_t i = 0; i < site.frames.size(); ++i) {
      frames.Append(i < site.symbols.size() && !site.symbols[i].empty()
                        ? site.symbols[i]
                        : HexPc(site.frames[i]));
    }
    entry.Set("frames", std::move(frames));
    sites.Append(std::move(entry));
  }
  doc.Set("sites", std::move(sites));
  return doc;
}

std::string ProcessMemoryLine() {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "process: rss %" PRIu64 "B, peak rss %" PRIu64 "B",
                ProcessResidentBytes(), ProcessPeakResidentBytes());
  return buf;
}

std::string RenderHeapProfileText(const HeapProfileSnapshot& snapshot,
                                  size_t top_k) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "heap profile: %zu sites, %" PRIu64
                " samples (interval %" PRIu64 "B, %s)\n",
                snapshot.sites.size(), snapshot.samples,
                snapshot.sample_interval_bytes,
                snapshot.running ? "running" : "stopped");
  out += buf;
  out += ProcessMemoryLine();
  out += '\n';
  std::snprintf(buf, sizeof(buf),
                "sampled: live ~%" PRIu64 "B in ~%" PRIu64
                " objects, cumulative ~%" PRIu64 "B in ~%" PRIu64
                " objects (estimates)\n",
                snapshot.live_bytes, snapshot.live_objects,
                snapshot.alloc_bytes, snapshot.alloc_objects);
  out += buf;
  if (snapshot.sites.empty()) {
    out += "no samples recorded";
    out += snapshot.running ? " yet\n" : " (profiler not running)\n";
    return out;
  }
  size_t rank = 0;
  for (const HeapSiteSnapshot& site : snapshot.sites) {
    if (top_k != 0 && rank >= top_k) {
      std::snprintf(buf, sizeof(buf), "... %zu more sites (raise k)\n",
                    snapshot.sites.size() - rank);
      out += buf;
      break;
    }
    ++rank;
    std::snprintf(buf, sizeof(buf),
                  "#%zu live ~%" PRIu64 "B (%" PRIu64 " objects), alloc ~%"
                  PRIu64 "B (%" PRIu64 " objects), %" PRIu64 " samples\n",
                  rank, site.live_bytes, site.live_objects, site.alloc_bytes,
                  site.alloc_objects, site.samples);
    out += buf;
    for (size_t i = 0; i < site.frames.size(); ++i) {
      out += "    ";
      out += i < site.symbols.size() && !site.symbols[i].empty()
                 ? site.symbols[i]
                 : HexPc(site.frames[i]);
      out += "\n";
    }
  }
  return out;
}

std::string RenderHeapProfileCollapsed(const HeapProfileSnapshot& snapshot) {
  std::string out;
  for (const HeapSiteSnapshot& site : snapshot.sites) {
    if (site.live_bytes == 0 || site.frames.empty()) continue;
    // Frames are stored leaf-first; the folded format wants root-first.
    for (size_t i = site.frames.size(); i-- > 0;) {
      out += CollapsedFrameName(site, i);
      if (i != 0) out += ';';
    }
    out += ' ';
    out += std::to_string(site.live_bytes);
    out += '\n';
  }
  return out;
}

Status ValidateHeapProfileJson(std::string_view text) {
  SECVIEW_ASSIGN_OR_RETURN(Json doc, Json::Parse(text));
  return ValidateHeapObject(doc);
}

Result<HeapProfileSnapshot> ParseHeapProfileJson(std::string_view text) {
  SECVIEW_ASSIGN_OR_RETURN(Json doc, Json::Parse(text));
  SECVIEW_RETURN_IF_ERROR(ValidateHeapObject(doc));
  HeapProfileSnapshot snapshot;
  snapshot.running = doc.Find("running")->AsBool();
  snapshot.sample_interval_bytes =
      static_cast<uint64_t>(doc.Find("sample_interval_bytes")->AsNumber());
  const Json* sampled = doc.Find("sampled");
  snapshot.samples = static_cast<uint64_t>(sampled->Find("samples")->AsNumber());
  snapshot.live_bytes =
      static_cast<uint64_t>(sampled->Find("live_bytes")->AsNumber());
  snapshot.live_objects =
      static_cast<uint64_t>(sampled->Find("live_objects")->AsNumber());
  snapshot.alloc_bytes =
      static_cast<uint64_t>(sampled->Find("alloc_bytes")->AsNumber());
  snapshot.alloc_objects =
      static_cast<uint64_t>(sampled->Find("alloc_objects")->AsNumber());
  for (const Json& site : doc.Find("sites")->items()) {
    HeapSiteSnapshot out;
    out.live_bytes = static_cast<uint64_t>(site.Find("live_bytes")->AsNumber());
    out.live_objects =
        static_cast<uint64_t>(site.Find("live_objects")->AsNumber());
    out.alloc_bytes =
        static_cast<uint64_t>(site.Find("alloc_bytes")->AsNumber());
    out.alloc_objects =
        static_cast<uint64_t>(site.Find("alloc_objects")->AsNumber());
    out.samples = static_cast<uint64_t>(site.Find("samples")->AsNumber());
    for (const Json& pc : site.Find("pcs")->items()) {
      out.frames.push_back(static_cast<uintptr_t>(
          std::strtoull(pc.AsString().c_str(), nullptr, 16)));
    }
    for (const Json& frame : site.Find("frames")->items()) {
      out.symbols.push_back(frame.AsString());
    }
    snapshot.sites.push_back(std::move(out));
  }
  return snapshot;
}

}  // namespace secview::obs
