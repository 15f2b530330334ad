#ifndef SECVIEW_NET_HTTP_CLIENT_H_
#define SECVIEW_NET_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace secview::net {

/// A fetched HTTP response, as far as the minimal client parses it.
struct FetchedResponse {
  int status = 0;
  std::string body;
};

/// Fetch parameters, including the bounded-retry policy. Retries cover
/// transport failures (connect refused/reset, a connection closed before
/// any response byte, read timeout, injected `net.connect` faults) with
/// capped exponential backoff plus a seeded
/// deterministic jitter; InvalidArgument failures (bad host, malformed
/// response) are not retried — repeating those cannot help.
struct HttpGetOptions {
  /// Bounds connect and each read, per attempt.
  int timeout_ms = 5000;
  /// Additional attempts after the first failure.
  int retries = 0;
  /// First retry backoff; doubled per retry up to the cap, with a
  /// random jitter in [0, backoff/2] added to each sleep.
  uint64_t backoff_initial_ms = 50;
  uint64_t backoff_cap_ms = 1000;
  uint64_t jitter_seed = 42;
};

/// Minimal blocking HTTP/1.x GET against an IPv4 address — just enough
/// client to scrape the telemetry server from tests, the bench harness,
/// and `secview scrape` without any external tooling (the CI image has
/// no curl guarantee). One request, Connection: close, response read to
/// EOF; headers are skipped except the status line. `timeout_ms` bounds
/// connect and each read.
Result<FetchedResponse> HttpGet(const std::string& host, uint16_t port,
                                const std::string& target,
                                int timeout_ms = 5000);

/// As above, with the full options (bounded retry with backoff).
Result<FetchedResponse> HttpGet(const std::string& host, uint16_t port,
                                const std::string& target,
                                const HttpGetOptions& options);

}  // namespace secview::net

#endif  // SECVIEW_NET_HTTP_CLIENT_H_
