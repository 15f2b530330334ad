#include "obs/mem_ledger.h"

#include <algorithm>

#include "common/alloc_tracker.h"
#include "obs/export.h"

namespace secview::obs {

MemLedger& MemLedger::Instance() {
  // Leaked: frees during static destruction may still snapshot-charge.
  static MemLedger* instance = new MemLedger();
  return *instance;
}

MemLedger::Account& MemLedger::GetAccount(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, account] : accounts_) {
    if (existing == name) return *account;
  }
  accounts_.emplace_back(std::string(name), new Account());
  return *accounts_.back().second;
}

void MemLedger::RegisterProvider(std::string_view name,
                                 std::function<int64_t()> provider) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, fn] : providers_) {
    if (existing == name) {
      fn = std::move(provider);
      return;
    }
  }
  providers_.emplace_back(std::string(name), std::move(provider));
}

void MemLedger::UnregisterProvider(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  providers_.erase(
      std::remove_if(providers_.begin(), providers_.end(),
                     [&](const auto& entry) { return entry.first == name; }),
      providers_.end());
}

std::vector<MemLedger::Row> MemLedger::Snapshot() const {
  // Copy the registration lists under the lock, then run provider
  // callbacks outside it: a provider that (transitively) touches the
  // ledger must not deadlock a scrape.
  std::vector<std::pair<std::string, std::function<int64_t()>>> providers;
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    providers = providers_;
    for (const auto& [name, account] : accounts_) {
      bool provided = false;
      for (const auto& [pname, fn] : providers_) {
        if (pname == name) {
          provided = true;
          break;
        }
      }
      if (provided) continue;  // live accounting wins for shared names
      Row row;
      row.name = name;
      row.bytes = account->bytes();
      row.charges = account->charges();
      rows.push_back(std::move(row));
    }
  }
  for (const auto& [name, fn] : providers) {
    Row row;
    row.name = name;
    row.bytes = fn ? fn() : 0;
    row.live = true;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  return rows;
}

int64_t MemLedger::TotalBytes() const {
  int64_t total = 0;
  for (const Row& row : Snapshot()) total += row.bytes;
  return total;
}

void MemLedger::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  // Account objects must outlive the reset (GetAccount hands out stable
  // process-lifetime references), so park them on a retained list
  // instead of dropping the pointers — keeps them reachable, which also
  // keeps leak checkers quiet about the deliberate non-free.
  static std::vector<std::pair<std::string, Account*>>* retired =
      new std::vector<std::pair<std::string, Account*>>();
  retired->insert(retired->end(), accounts_.begin(), accounts_.end());
  accounts_.clear();
  providers_.clear();
}

std::string ProcessMemoryLine() {
  return "process: rss " + std::to_string(ProcessResidentBytes()) +
         "B, peak rss " + std::to_string(ProcessPeakResidentBytes()) + "B";
}

std::string RenderMemLedgerText(const MemLedger& ledger) {
  std::vector<MemLedger::Row> rows = ledger.Snapshot();
  std::string out = "memory ledger (" + std::to_string(rows.size()) +
                    " accounts)\n";
  int64_t total = 0;
  for (const MemLedger::Row& row : rows) {
    total += row.bytes;
    out += "  " + row.name + ": " + std::to_string(row.bytes) + " B";
    if (row.live) {
      out += " (live)";
    } else {
      out += " (" + std::to_string(row.charges) + " charges)";
    }
    out += "\n";
  }
  out += "  total: " + std::to_string(total) + " B\n";
  if (rows.empty()) out += "  no accounts registered\n";
  return out;
}

std::string RenderMemLedgerPrometheus(const MemLedger& ledger,
                                      std::string_view ns) {
  std::vector<MemLedger::Row> rows = ledger.Snapshot();
  const std::string bytes_name = PrometheusMetricName("mem.ledger_bytes", ns);
  const std::string total_name =
      PrometheusMetricName("mem.ledger_total_bytes", ns);
  std::string out;
  int64_t total = 0;
  if (!rows.empty()) out += "# TYPE " + bytes_name + " gauge\n";
  for (const MemLedger::Row& row : rows) {
    total += row.bytes;
    out += bytes_name + "{account=\"" +
           PrometheusEscapeLabelValue(row.name) + "\"} " +
           std::to_string(row.bytes) + "\n";
  }
  out += "# TYPE " + total_name + " gauge\n";
  out += total_name + " " + std::to_string(total) + "\n";
  return out;
}

}  // namespace secview::obs
