#include "net/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "common/failpoint.h"
#include "common/rng.h"

namespace secview::net {

namespace {

/// Single-shot fetch; the retrying HttpGet overload wraps this.
Result<FetchedResponse> HttpGetOnce(const std::string& host, uint16_t port,
                                    const std::string& target,
                                    int timeout_ms) {
  static FailPoint& connect_fault =
      FailPointRegistry::Instance().Get(failpoints::kNetConnect);
  if (connect_fault.Fire()) {
    return Status::Internal("connect " + host + ":" + std::to_string(port) +
                            ": injected connect failure");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("invalid IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Internal("connect " + host + ":" +
                                     std::to_string(port) + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }

  std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n\r\n";
  std::string_view out = request;
  while (!out.empty()) {
    ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status =
          Status::Internal(std::string("send: ") + std::strerror(errno));
      ::close(fd);
      return status;
    }
    out.remove_prefix(static_cast<size_t>(n));
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = (errno == EAGAIN || errno == EWOULDBLOCK)
                          ? Status::DeadlineExceeded("read timed out")
                          : Status::Internal(std::string("recv: ") +
                                             std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  // A peer that closes without a byte of response (a dropped accept, a
  // lost send) gave no answer: that is a transport failure to retry, not
  // a malformed response. Whether it shows as a reset or as this EOF
  // depends only on timing.
  if (raw.empty()) {
    return Status::Internal("connection closed before a response");
  }

  // Status line: "HTTP/1.1 NNN Reason".
  size_t sp = raw.find(' ');
  if (raw.compare(0, 5, "HTTP/") != 0 || sp == std::string::npos ||
      sp + 4 > raw.size()) {
    return Status::InvalidArgument("malformed HTTP response");
  }
  FetchedResponse response;
  response.status = std::atoi(raw.c_str() + sp + 1);
  if (response.status < 100 || response.status > 599) {
    return Status::InvalidArgument("malformed HTTP status code");
  }
  size_t body = raw.find("\r\n\r\n");
  size_t skip = 4;
  if (body == std::string::npos) {
    body = raw.find("\n\n");
    skip = 2;
  }
  if (body != std::string::npos) {
    response.body = raw.substr(body + skip);
  }
  return response;
}

}  // namespace

Result<FetchedResponse> HttpGet(const std::string& host, uint16_t port,
                                const std::string& target, int timeout_ms) {
  return HttpGetOnce(host, port, target, timeout_ms);
}

Result<FetchedResponse> HttpGet(const std::string& host, uint16_t port,
                                const std::string& target,
                                const HttpGetOptions& options) {
  Rng jitter(options.jitter_seed);
  uint64_t backoff = options.backoff_initial_ms;
  for (int attempt = 0;; ++attempt) {
    Result<FetchedResponse> fetched =
        HttpGetOnce(host, port, target, options.timeout_ms);
    if (fetched.ok() || attempt >= options.retries ||
        fetched.status().code() == StatusCode::kInvalidArgument) {
      return fetched;
    }
    uint64_t sleep_ms =
        backoff + (backoff > 1 ? jitter.Below(backoff / 2 + 1) : 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff = std::min(backoff * 2, options.backoff_cap_ms);
  }
}

}  // namespace secview::net
