#ifndef SECVIEW_OBS_MEM_LEDGER_H_
#define SECVIEW_OBS_MEM_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace secview::obs {

/// Process-wide registry of named per-subsystem memory accounts — the
/// "whose bytes are these" companion to the process RSS that
/// common/alloc_tracker reads. Two kinds of entries:
///
///  * charged accounts: subsystems Add()/Set() exact byte deltas on an
///    Account (lock-free atomics), typically through ScopedLedgerCharge
///    so teardown always balances the books;
///  * providers: subsystems that already do their own exact byte
///    accounting (the sharded rewrite cache, the eval-scratch pools,
///    the trace and slow-query rings) register a callback that reports
///    their current footprint at snapshot time — no double bookkeeping,
///    always current.
///
/// Snapshot() merges both under one name per subsystem and backs the
/// /memz route, the /statusz memory section, and the secview_mem_*
/// Prometheus gauges. Account references are stable for the process
/// lifetime; providers must be unregistered before their captured state
/// dies (ScopedLedgerProvider does this).
class MemLedger {
 public:
  class Account {
   public:
    void Add(int64_t delta) {
      bytes_.fetch_add(delta, std::memory_order_relaxed);
      charges_.fetch_add(1, std::memory_order_relaxed);
    }
    void Set(int64_t bytes) {
      bytes_.store(bytes, std::memory_order_relaxed);
      charges_.fetch_add(1, std::memory_order_relaxed);
    }
    int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
    /// Lifetime Add/Set calls — distinguishes "zero because balanced"
    /// from "zero because never charged".
    uint64_t charges() const {
      return charges_.load(std::memory_order_relaxed);
    }

   private:
    friend class MemLedger;
    std::atomic<int64_t> bytes_{0};
    std::atomic<uint64_t> charges_{0};
  };

  struct Row {
    std::string name;
    int64_t bytes = 0;
    /// Charge count for accounts; 0 for provider rows.
    uint64_t charges = 0;
    /// True when the value came from a live provider callback.
    bool live = false;
  };

  /// The process-wide ledger (never destroyed).
  static MemLedger& Instance();

  /// Account by name, created on first use. The reference stays valid
  /// for the process lifetime.
  Account& GetAccount(std::string_view name);

  /// Registers (or replaces) a live footprint provider under `name`.
  /// The callback runs on the snapshotting thread — it must be
  /// thread-safe and must not block on the caller's locks.
  void RegisterProvider(std::string_view name,
                        std::function<int64_t()> provider);
  void UnregisterProvider(std::string_view name);

  /// All rows, name-sorted: provider rows evaluated now, account rows
  /// from their atomic counters. A name registered both ways yields the
  /// provider row (live accounting wins).
  std::vector<Row> Snapshot() const;

  /// Sum of Snapshot() bytes.
  int64_t TotalBytes() const;

  /// Test hook: drops every account and provider. Never used by
  /// production code — accounts hand out stable references — but unit
  /// tests share the process-wide instance and need isolation.
  void ResetForTesting();

 private:
  MemLedger() = default;

  mutable std::mutex mu_;
  /// Account pointers are leaked on purpose: GetAccount promises
  /// process-lifetime references even across ResetForTesting.
  std::vector<std::pair<std::string, Account*>> accounts_;
  std::vector<std::pair<std::string, std::function<int64_t()>>> providers_;
};

/// RAII charge: Add(+bytes) now, Add(-bytes) on destruction. For
/// footprints that are fixed for a scope's lifetime (a loaded document,
/// a materialized view).
class ScopedLedgerCharge {
 public:
  ScopedLedgerCharge(std::string_view name, int64_t bytes)
      : account_(&MemLedger::Instance().GetAccount(name)), bytes_(bytes) {
    account_->Add(bytes_);
  }
  ~ScopedLedgerCharge() { account_->Add(-bytes_); }
  ScopedLedgerCharge(const ScopedLedgerCharge&) = delete;
  ScopedLedgerCharge& operator=(const ScopedLedgerCharge&) = delete;

 private:
  MemLedger::Account* account_;
  int64_t bytes_;
};

/// RAII provider registration: unregisters on destruction, so a
/// provider can safely capture objects with narrower lifetime than the
/// process (the serving engine, telemetry rings).
class ScopedLedgerProvider {
 public:
  ScopedLedgerProvider(std::string_view name,
                       std::function<int64_t()> provider)
      : name_(name) {
    MemLedger::Instance().RegisterProvider(name_, std::move(provider));
  }
  ~ScopedLedgerProvider() { MemLedger::Instance().UnregisterProvider(name_); }
  ScopedLedgerProvider(const ScopedLedgerProvider&) = delete;
  ScopedLedgerProvider& operator=(const ScopedLedgerProvider&) = delete;

 private:
  std::string name_;
};

/// "process: rss <n>B, peak rss <n>B" — the process line /memz starts
/// with, above the ledger.
std::string ProcessMemoryLine();

/// /memz text rendering and the secview_mem_* Prometheus series for the
/// ledger (implemented in mem_ledger.cc; the telemetry server calls
/// both).
std::string RenderMemLedgerText(const MemLedger& ledger);
std::string RenderMemLedgerPrometheus(const MemLedger& ledger,
                                      std::string_view ns);

}  // namespace secview::obs

#endif  // SECVIEW_OBS_MEM_LEDGER_H_
