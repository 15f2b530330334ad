#ifndef SECVIEW_COMMON_ALLOC_TRACKER_H_
#define SECVIEW_COMMON_ALLOC_TRACKER_H_

#include <cstddef>
#include <cstdint>

namespace secview {

/// Thread-local allocation accounting, plus the process memory readings
/// (RSS and its peak) that the telemetry surfaces report.
///
/// When the build enables SECVIEW_ALLOC_TRACKER (the cmake option of the
/// same name, ON by default), alloc_tracker.cc replaces the global
/// `operator new` / `operator delete` family with thin wrappers that
/// charge every allocation to the calling thread before forwarding to
/// std::malloc / std::free. Forwarding to malloc (rather than
/// reimplementing allocation) keeps the hooks compatible with sanitizer
/// runtimes: ASan/TSan intercept malloc itself, so redzones, leak
/// checking, and race detection keep working underneath the hooks.
///
/// The charge is one thread-local add (ThreadAllocCounts): bytes and
/// calls requested via operator new on this thread since thread start.
/// Monotone by design — deallocations are not subtracted — because
/// per-query churn is what the engine's phase breakdown and the
/// evaluate-allocation gate in scripts/check.sh measure. No hook reads
/// or writes shared state. Process-wide memory comes from the kernel
/// instead: ProcessResidentBytes and ProcessPeakResidentBytes.
///
/// The API below is always available; with the option OFF the counters
/// simply stay zero and AllocTrackingAvailable() reports false, so
/// callers never need their own #ifdefs.

struct AllocCounts {
  uint64_t bytes = 0;
  uint64_t count = 0;
};

/// True when the operator new/delete hooks are compiled in (i.e. the
/// counters actually move). Callers use this to suppress all-zero
/// readings that would otherwise look like "this query allocated
/// nothing".
bool AllocTrackingAvailable();

/// This thread's cumulative allocation totals since thread start.
/// Monotone; all-zero when tracking is compiled out.
AllocCounts ThreadAllocCounts();

/// Resident set size in bytes from /proc/self/statm; 0 where that file
/// does not exist (non-Linux) — callers treat 0 as "unavailable".
uint64_t ProcessResidentBytes();

/// High-water mark of the resident set size in bytes since process
/// start (getrusage's ru_maxrss); 0 when unavailable.
uint64_t ProcessPeakResidentBytes();

/// RAII delta counter: records the thread's allocation totals at
/// construction and on destruction adds the delta to the optional
/// outputs (+=, so repeated phases within one query sum up). Guards may
/// nest; an inner guard's allocations are charged to every enclosing
/// guard, mirroring how wall-clock phase timers overlap.
class ScopedAllocCounter {
 public:
  ScopedAllocCounter(uint64_t* bytes_out, uint64_t* count_out)
      : bytes_out_(bytes_out),
        count_out_(count_out),
        start_(ThreadAllocCounts()) {}
  ~ScopedAllocCounter() {
    const AllocCounts d = Delta();
    if (bytes_out_ != nullptr) *bytes_out_ += d.bytes;
    if (count_out_ != nullptr) *count_out_ += d.count;
  }
  ScopedAllocCounter(const ScopedAllocCounter&) = delete;
  ScopedAllocCounter& operator=(const ScopedAllocCounter&) = delete;

  /// The allocation charged on this thread since construction.
  AllocCounts Delta() const {
    const AllocCounts now = ThreadAllocCounts();
    return {now.bytes - start_.bytes, now.count - start_.count};
  }

 private:
  uint64_t* bytes_out_;
  uint64_t* count_out_;
  AllocCounts start_;
};

namespace alloc_internal {

/// Charges one allocation to the calling thread; called only by the
/// operator new replacements in alloc_tracker.cc.
void Charge(std::size_t bytes);

/// Async-signal-safe RSS: raw open/read/close of /proc/self/statm with
/// hand-rolled integer parsing. Uses the page size cached by the last
/// ProcessResidentBytes() call (callers that need this in a signal
/// handler warm the cache at install time); 0 when unavailable.
uint64_t ResidentBytesRaw();

/// Async-signal-safe peak RSS: the VmHWM line of /proc/self/status, read
/// with raw open/read/close; 0 when unavailable.
uint64_t PeakResidentBytesRaw();

}  // namespace alloc_internal

}  // namespace secview

#endif  // SECVIEW_COMMON_ALLOC_TRACKER_H_
