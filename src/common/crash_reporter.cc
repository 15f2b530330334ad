#include "common/crash_reporter.h"

#include <csignal>
#include <cstring>
#include <unistd.h>

#include <atomic>
#include <string>

#include "common/alloc_tracker.h"
#include "common/build_info.h"

namespace secview {
namespace {

/// Header + build line, rendered once at install time so the handler
/// only has to write() it.
char g_banner[512];
size_t g_banner_len = 0;

std::atomic<int64_t> g_active_queries{0};

/// Last slow-query line, copied in whole by writers. Readers (the
/// signal handler) may observe a torn update; the buffer always stays
/// NUL-terminated because writers never touch the final byte.
constexpr size_t kSlowBufSize = 512;
char g_last_slow[kSlowBufSize] = {0};
std::atomic<bool> g_have_slow{false};
/// Single-writer gate for g_last_slow. Writers try-lock and skip on
/// contention: dropping one candidate line is fine, racing char writes
/// are not. The signal handler only reads and never takes the gate.
std::atomic<bool> g_slow_writer{false};

std::atomic<bool> g_installed{false};

/// write(2) a NUL-terminated string, ignoring short writes/errors — in
/// a crash handler there is nothing sensible to do about either.
void WriteRaw(const char* text, size_t length) {
  ssize_t ignored = ::write(STDERR_FILENO, text, length);
  (void)ignored;
}

void WriteCString(const char* text) { WriteRaw(text, std::strlen(text)); }

/// Async-signal-safe signed decimal conversion.
void WriteInt(int64_t value) {
  char digits[24];
  size_t n = 0;
  bool negative = value < 0;
  uint64_t magnitude =
      negative ? ~static_cast<uint64_t>(value) + 1 : static_cast<uint64_t>(value);
  do {
    digits[n++] = static_cast<char>('0' + magnitude % 10);
    magnitude /= 10;
  } while (magnitude != 0 && n < sizeof(digits));
  if (negative) digits[n++] = '-';
  char out[25];
  for (size_t i = 0; i < n; ++i) out[i] = digits[n - 1 - i];
  WriteRaw(out, n);
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    default:
      return "signal";
  }
}

void CrashHandler(int sig) {
  WriteCString("\n==== secview crash reporter ====\n");
  WriteCString(SignalName(sig));
  WriteCString(" received\n");
  WriteRaw(g_banner, g_banner_len);
  WriteCString("active queries: ");
  WriteInt(g_active_queries.load(std::memory_order_relaxed));
  WriteCString("\n");
  // Memory at crash time, read with raw open/read of /proc (the RSS
  // reader uses the page size cached at install time) — every piece is
  // async-signal-safe. A leak-driven OOM crash names its own cause.
  WriteCString("rss ");
  WriteInt(static_cast<int64_t>(alloc_internal::ResidentBytesRaw()));
  WriteCString("B, peak rss ");
  WriteInt(static_cast<int64_t>(alloc_internal::PeakResidentBytesRaw()));
  WriteCString("B\n");
  if (g_have_slow.load(std::memory_order_acquire)) {
    WriteCString("last slow query: ");
    WriteRaw(g_last_slow, ::strnlen(g_last_slow, kSlowBufSize));
    WriteCString("\n");
  } else {
    WriteCString("last slow query: (none recorded)\n");
  }
  WriteCString("================================\n");
  // SA_RESETHAND restored the default disposition on entry; re-raise so
  // the process still dies with the original signal (core dump intact).
  ::raise(sig);
}

}  // namespace

void InstallCrashReporter() {
  bool expected = false;
  if (!g_installed.compare_exchange_strong(expected, true)) return;

  // Warm the page-size cache so the handler's RSS read needs no sysconf
  // (not async-signal-safe) at crash time.
  ProcessResidentBytes();

  const BuildInfo& info = GetBuildInfo();
  std::string banner = "build: secview " + info.version + " (" +
                       info.compiler + ", " + info.cxx_standard + ", " +
                       info.build_type + ", sanitizer=" + info.sanitizer +
                       ")\n";
  g_banner_len = banner.size() < sizeof(g_banner) ? banner.size()
                                                  : sizeof(g_banner) - 1;
  std::memcpy(g_banner, banner.data(), g_banner_len);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashHandler;
  sigemptyset(&action.sa_mask);
  // SA_RESETHAND: the default disposition is back in place before the
  // handler runs, so the trailing raise() terminates for real instead of
  // recursing. SA_NODEFER is implied by SA_RESETHAND on Linux.
  action.sa_flags = SA_RESETHAND;
  ::sigaction(SIGSEGV, &action, nullptr);
  ::sigaction(SIGABRT, &action, nullptr);
}

bool CrashReporterInstalled() {
  return g_installed.load(std::memory_order_relaxed);
}

void CrashReporterAddActiveQueries(int64_t delta) {
  g_active_queries.fetch_add(delta, std::memory_order_relaxed);
}

int64_t CrashReporterActiveQueries() {
  return g_active_queries.load(std::memory_order_relaxed);
}

void CrashReporterSetLastSlowQuery(const char* line, size_t length) {
  if (line == nullptr) return;
  bool expected = false;
  if (!g_slow_writer.compare_exchange_strong(expected, true,
                                             std::memory_order_acquire)) {
    return;  // another slow query is publishing right now; keep theirs
  }
  // Leave the final byte as a permanent NUL so a torn read can never run
  // off the end of the buffer.
  size_t n = length < kSlowBufSize - 1 ? length : kSlowBufSize - 1;
  for (size_t i = 0; i < n; ++i) {
    char c = line[i];
    // Keep the report single-line even if the caller's text is not.
    g_last_slow[i] = (c == '\n' || c == '\r') ? ' ' : c;
  }
  if (n < kSlowBufSize - 1) g_last_slow[n] = '\0';
  g_slow_writer.store(false, std::memory_order_release);
  g_have_slow.store(true, std::memory_order_release);
}

}  // namespace secview
