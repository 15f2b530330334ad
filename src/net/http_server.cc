#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <thread>

#include "common/failpoint.h"

namespace secview::net {

namespace {

/// Writes the whole buffer, tolerating short writes and EINTR. Returns
/// false on any hard error (the peer is gone; nothing to do about it)
/// or an injected `net.send` fault.
bool WriteAll(int fd, std::string_view data) {
  static FailPoint& send_fault =
      FailPointRegistry::Instance().Get(failpoints::kNetSend);
  if (send_fault.Fire()) return false;  // simulated EPIPE mid-response
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Closes after a response was sent. A plain close() with unread bytes
/// still queued (e.g. we replied 431 without consuming the oversized
/// head) makes the kernel send RST, which can destroy the in-flight
/// response before the client reads it. Signal end-of-response with a
/// FIN first, then drain what the peer already sent — bounded, so a
/// hostile sender can't pin the worker — and only then close.
void LingeringClose(int fd) {
  ::shutdown(fd, SHUT_WR);
  char sink[1024];
  size_t drained = 0;
  while (drained < 256 * 1024) {
    ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed, or SO_RCVTIMEO expired
    }
    drained += static_cast<size_t>(n);
  }
  ::close(fd);
}

void SendError(int fd, int status, const std::string& detail) {
  HttpResponse response = HttpResponse::Text(status, detail + "\n");
  WriteAll(fd, SerializeHttpResponse(response));
}

int HttpStatusForParseError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnimplemented: return 405;
    case StatusCode::kOutOfRange: return 431;
    default: return 400;
  }
}

}  // namespace

HttpServer::HttpServer(Handler handler, Options options)
    : handler_(std::move(handler)), options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running()) return Status::FailedPrecondition("server already running");
  stopping_.store(false, std::memory_order_release);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("invalid bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Internal("bind " + options_.bind_address + ":" +
                                     std::to_string(options_.port) + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, options_.backlog) != 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    Status status =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;

  running_.store(true, std::memory_order_release);
  size_t n = std::max<size_t>(1, options_.workers);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // Any connection still pending was accepted but never served; close it
  // so the peer sees a reset instead of a hang.
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (ready == 0) continue;  // timeout tick; re-check stopping_
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Transient accept failures (EMFILE/ENFILE/ENOBUFS/...) must not
      // kill the accept thread — that silently turns a resource blip
      // into a dead server. Count, back off briefly, keep accepting.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    static FailPoint& accept_fault =
        FailPointRegistry::Instance().Get(failpoints::kNetAccept);
    if (accept_fault.Fire()) {
      // Simulated post-accept failure (e.g. EMFILE while setting up the
      // connection): drop this connection, keep the loop alive.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() >= options_.pending_cap) {
        shed = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (shed) {
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      SendError(fd, 503, "telemetry server overloaded; connection shed");
      LingeringClose(fd);
    } else {
      work_available_.notify_one();
    }
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (!pending_.empty()) {
        fd = pending_.front();
        pending_.pop_front();
      } else if (stopping_.load(std::memory_order_acquire)) {
        return;  // stopping and drained
      }
    }
    if (fd >= 0) HandleConnection(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  static FailPoint& recv_fault =
      FailPointRegistry::Instance().Get(failpoints::kNetRecv);
  std::string head;
  head.reserve(512);
  char buf[1024];
  bool complete = false;
  bool timed_out = false;
  bool overflow = false;
  // Simulated ECONNRESET mid-head: degrade to a 500-with-close for this
  // connection only. Drawn once per connection, not once per recv(), so
  // a seeded schedule does not depend on how the head was segmented.
  bool io_error = recv_fault.Fire();
  while (!complete && !io_error) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      timed_out = (errno == EAGAIN || errno == EWOULDBLOCK);
      io_error = !timed_out;
      break;
    }
    if (n == 0) break;  // peer closed before a full head
    head.append(buf, static_cast<size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos) {
      complete = true;
    } else if (head.size() > options_.limits.max_request_bytes) {
      overflow = true;
      break;
    }
  }

  if (!complete) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (io_error) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(fd, 500, "connection error while reading request");
    } else if (timed_out) {
      SendError(fd, 408, "timed out waiting for request head");
    } else if (overflow) {
      SendError(fd, 431,
                "request head exceeds " +
                    std::to_string(options_.limits.max_request_bytes) +
                    " bytes");
    } else {
      SendError(fd, 400, "connection closed before a complete request head");
    }
    LingeringClose(fd);
    return;
  }

  Result<HttpRequest> parsed = ParseHttpRequest(head, options_.limits);
  if (!parsed.ok()) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    SendError(fd, HttpStatusForParseError(parsed.status()),
              parsed.status().message());
    LingeringClose(fd);
    return;
  }

  const HttpRequest& request = *parsed;
  HttpResponse response;
  try {
    response = handler_(request);
  } catch (const std::exception& e) {
    // A throwing handler degrades this one connection to a 500-with-
    // close; it must never take down the worker thread.
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    SendError(fd, 500, std::string("internal error: ") + e.what());
    LingeringClose(fd);
    return;
  } catch (...) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    SendError(fd, 500, "internal error");
    LingeringClose(fd);
    return;
  }
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  if (!WriteAll(fd, SerializeHttpResponse(
                        response,
                        /*head_only=*/request.method == "HEAD"))) {
    // The response was lost mid-send (peer gone or injected fault); all
    // we can do is count it and clean the connection up.
    io_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  LingeringClose(fd);
}

}  // namespace secview::net
