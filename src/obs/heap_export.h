#ifndef SECVIEW_OBS_HEAP_EXPORT_H_
#define SECVIEW_OBS_HEAP_EXPORT_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "obs/heap_profile.h"
#include "obs/json.h"

namespace secview::obs {

/// Renderers and the schema validator for sampled heap profiles — the
/// exporter half of the heap_profile/heap_export split (same shape as
/// trace_store/trace_export).

/// The secview.heap.v2 document: the profiler snapshot (site table with
/// raw pcs and symbolized frames) stapled to the process's RSS and peak
/// RSS, so one artifact answers both "where is the memory" and "how much
/// is there". `top_k` = 0 keeps every site.
Json HeapProfileJson(const HeapProfileSnapshot& snapshot, size_t top_k = 0);

/// "process: rss <n>B, peak rss <n>B" — the process line that /heapz and
/// /memz both start with.
std::string ProcessMemoryLine();

/// Human-oriented top-K table: per-site estimated live/cumulative
/// bytes, then the symbolized frames, leaf first.
std::string RenderHeapProfileText(const HeapProfileSnapshot& snapshot,
                                  size_t top_k);

/// Collapsed-stack lines (the folded format flamegraph.pl and
/// speedscope load): one line per site with live bytes > 0, frames
/// root-first joined by ';', a space, then the estimated live bytes.
/// Frame names are sanitized (';' and ' ' replaced) so the format's
/// separators stay unambiguous.
std::string RenderHeapProfileCollapsed(const HeapProfileSnapshot& snapshot);

/// Validates a secview.heap.v2 document: parseable JSON object, correct
/// schema tag, required numeric process/sampled fields, and
/// well-formed site entries (numeric stats, parallel pcs/frames string
/// arrays). Returns the first violation.
Status ValidateHeapProfileJson(std::string_view text);

/// Parses + validates a secview.heap.v2 document back into a snapshot
/// (pcs from "pcs", symbols from "frames"), so `secview heap-export`
/// can re-render text or collapsed views offline. The process section
/// is validated but not carried into the snapshot.
Result<HeapProfileSnapshot> ParseHeapProfileJson(std::string_view text);

}  // namespace secview::obs

#endif  // SECVIEW_OBS_HEAP_EXPORT_H_
