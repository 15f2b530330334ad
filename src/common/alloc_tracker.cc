#include "common/alloc_tracker.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

namespace secview {
namespace {

// Zero-initialized POD, so TLS access needs no guard variable and is
// safe from the very first allocation a thread makes (including during
// static initialization, before main).
thread_local AllocCounts tls_counts;

// Page size cache for the async-signal-safe RSS reader. Warmed by
// ProcessResidentBytes(); the 4096 fallback only matters if a crash
// happens before anything ever read the RSS.
std::atomic<uint64_t> g_page_size{0};

}  // namespace

namespace alloc_internal {

void Charge(std::size_t bytes) {
  tls_counts.bytes += bytes;
  ++tls_counts.count;
}

uint64_t ResidentBytesRaw() {
  int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  char buf[128];
  ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  // statm: "<total> <resident> ..." in pages; parse the second field.
  ssize_t i = 0;
  while (i < n && buf[i] != ' ') ++i;
  while (i < n && buf[i] == ' ') ++i;
  uint64_t pages = 0;
  while (i < n && buf[i] >= '0' && buf[i] <= '9') {
    pages = pages * 10 + static_cast<uint64_t>(buf[i++] - '0');
  }
  uint64_t page = g_page_size.load(std::memory_order_relaxed);
  return pages * (page != 0 ? page : 4096);
}

uint64_t PeakResidentBytesRaw() {
  int fd = ::open("/proc/self/status", O_RDONLY);
  if (fd < 0) return 0;
  char buf[4096];
  ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  // One "VmHWM:\t    1234 kB" line among the "Key:\tvalue" lines.
  constexpr char kKey[] = "VmHWM:";
  constexpr ssize_t kKeyLen = sizeof(kKey) - 1;
  for (ssize_t i = 0; i + kKeyLen <= n; ++i) {
    if ((i != 0 && buf[i - 1] != '\n') ||
        std::memcmp(buf + i, kKey, kKeyLen) != 0) {
      continue;
    }
    i += kKeyLen;
    while (i < n && (buf[i] == ' ' || buf[i] == '\t')) ++i;
    uint64_t kb = 0;
    while (i < n && buf[i] >= '0' && buf[i] <= '9') {
      kb = kb * 10 + static_cast<uint64_t>(buf[i++] - '0');
    }
    return kb * 1024;
  }
  return 0;
}

}  // namespace alloc_internal

AllocCounts ThreadAllocCounts() { return tls_counts; }

uint64_t ProcessResidentBytes() {
  if (g_page_size.load(std::memory_order_relaxed) == 0) {
    long page = ::sysconf(_SC_PAGESIZE);
    if (page > 0) {
      g_page_size.store(static_cast<uint64_t>(page),
                        std::memory_order_relaxed);
    }
  }
  return alloc_internal::ResidentBytesRaw();
}

uint64_t ProcessPeakResidentBytes() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0 || usage.ru_maxrss < 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is kB
}

bool AllocTrackingAvailable() {
#ifdef SECVIEW_ALLOC_TRACKER
  return true;
#else
  return false;
#endif
}

}  // namespace secview

#ifdef SECVIEW_ALLOC_TRACKER

// Global operator new/delete replacement ([replacement.functions]).
// These definitions live in the same translation unit as the always-used
// accessor functions above: any binary calling ThreadAllocCounts() (the
// engine does, unconditionally) pulls this archive member into the link,
// which is what makes a static-library replacement of a global operator
// reliable.
//
// The wrappers forward to std::malloc / std::free so that sanitizer
// malloc interceptors still see every allocation. Alignment above
// __STDCPP_DEFAULT_NEW_ALIGNMENT__ goes through posix_memalign, whose
// result is legal to pass to free().

namespace {

void* TrackedAlloc(std::size_t size) {
  secview::alloc_internal::Charge(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* TrackedAllocAligned(std::size_t size, std::size_t align) {
  secview::alloc_internal::Charge(size);
  if (align < alignof(void*)) align = alignof(void*);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align, size == 0 ? 1 : size) != 0) return nullptr;
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = TrackedAllocAligned(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = TrackedAllocAligned(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return TrackedAllocAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return TrackedAllocAligned(size, static_cast<std::size_t>(align));
}

// The deletes are replaced too, although they only free: a program that
// replaces operator new must replace the matching operator delete, so
// every pointer from the wrappers above goes back through std::free.
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}

#endif  // SECVIEW_ALLOC_TRACKER
