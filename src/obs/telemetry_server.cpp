#include "obs/telemetry_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <span>
#include <thread>
#include <utility>

#include "obs/obs.hpp"

namespace tc::obs {

namespace {

/// Connections queued ahead of the handler pool; beyond it new connections
/// are shed (closed unanswered) instead of growing an unbounded backlog.
constexpr usize kMaxPendingConnections = 128;

const char* reason_phrase(i32 status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

void set_io_timeout(int fd, i32 timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// send() everything or give up (timeout / dead peer); MSG_NOSIGNAL so a
/// client that disconnected mid-response cannot SIGPIPE the process.
bool send_all(int fd, std::string_view data) {
  usize sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<usize>(n);
  }
  return true;
}

void write_response(int fd, const HttpResponse& r) {
  std::string head = "HTTP/1.1 " + std::to_string(r.status) + " " +
                     reason_phrase(r.status) + "\r\n";
  head += "Content-Type: " + r.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  if (r.status == 405) head += "Allow: GET\r\n";
  head += "Connection: close\r\n\r\n";
  if (send_all(fd, head)) (void)send_all(fd, r.body);
}

/// Integer query parameter from "?a=1&b=2" (fallback on absence/garbage).
i64 query_i64(std::string_view query, std::string_view key, i64 fallback) {
  usize pos = 0;
  while (pos < query.size()) {
    usize end = query.find('&', pos);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(pos, end - pos);
    const usize eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      const std::string value(pair.substr(eq + 1));
      char* parse_end = nullptr;
      const long long v = std::strtoll(value.c_str(), &parse_end, 10);
      if (parse_end != value.c_str()) return static_cast<i64>(v);
      return fallback;
    }
    pos = end + 1;
  }
  return fallback;
}

}  // namespace

TelemetryServer::TelemetryServer(TelemetryConfig config,
                                 StatusAggregator* status, ObsContext* obs)
    : config_(std::move(config)),
      status_(status),
      obs_(obs != nullptr ? obs : &global()) {
  config_.handler_threads = std::max(1, config_.handler_threads);
  config_.max_request_bytes = std::max<usize>(256, config_.max_request_bytes);
  config_.io_timeout_ms = std::max(50, config_.io_timeout_ms);
  config_.max_trace_ms = std::max(0, config_.max_trace_ms);
}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(std::max(0, config_.port)));
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  {
    common::MutexLock lock(queue_mutex_);
    queue_closed_ = false;
    pending_fds_.clear();
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  handlers_.reserve(static_cast<usize>(config_.handler_threads));
  for (i32 i = 0; i < config_.handler_threads; ++i) {
    handlers_.emplace_back([this] { handler_loop(); });
  }
  return true;
}

void TelemetryServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(): shutting down a listening socket makes the pending
  // accept return an error on Linux; close() finishes the job.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    common::MutexLock lock(queue_mutex_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  {
    // Shed anything still queued (handlers are gone).
    common::MutexLock lock(queue_mutex_);
    for (int fd : pending_fds_) ::close(fd);
    pending_fds_.clear();
  }
  running_.store(false, std::memory_order_release);
}

bool TelemetryServer::running() const {
  return running_.load(std::memory_order_acquire);
}

i32 TelemetryServer::port() const {
  return port_.load(std::memory_order_acquire);
}

u64 TelemetryServer::requests_served() const {
  return requests_served_.load(std::memory_order_relaxed);
}

void TelemetryServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener broken beyond repair
    }
    bool queued = false;
    {
      common::MutexLock lock(queue_mutex_);
      if (!queue_closed_ && pending_fds_.size() < kMaxPendingConnections) {
        pending_fds_.push_back(fd);
        queued = true;
      }
    }
    if (queued) {
      queue_cv_.notify_one();
    } else {
      ::close(fd);  // overload shed
    }
  }
}

void TelemetryServer::handler_loop() {
  for (;;) {
    int fd = -1;
    {
      common::MutexLock lock(queue_mutex_);
      queue_cv_.wait(queue_mutex_, [this]() TC_REQUIRES(queue_mutex_) {
        return queue_closed_ || !pending_fds_.empty();
      });
      if (pending_fds_.empty()) return;  // closed and drained
      fd = pending_fds_.front();
      pending_fds_.erase(pending_fds_.begin());
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void TelemetryServer::serve_connection(int fd) {
  set_io_timeout(fd, config_.io_timeout_ms);

  std::string request;
  bool complete = false;
  char buf[1024];
  while (request.size() < config_.max_request_bytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // disconnect or receive timeout
    request.append(buf, static_cast<usize>(n));
    if (request.find("\r\n\r\n") != std::string::npos ||
        request.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }
  if (!complete) {
    if (request.size() >= config_.max_request_bytes) {
      // Bounded request size: refuse oversized request line/headers.
      write_response(fd, HttpResponse{413, "text/plain; charset=utf-8",
                                      "request too large\n"});
      requests_served_.fetch_add(1, std::memory_order_relaxed);
    }
    // Mid-request disconnect / stalled client: close without a response.
    return;
  }

  // Request line: METHOD SP target SP HTTP-version.
  usize line_end = request.find("\r\n");
  if (line_end == std::string::npos) line_end = request.find('\n');
  const std::string_view line = std::string_view(request).substr(0, line_end);
  const usize sp1 = line.find(' ');
  const usize sp2 = sp1 == std::string_view::npos
                        ? std::string_view::npos
                        : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.substr(sp2 + 1).substr(0, 5) != "HTTP/") {
    write_response(fd, HttpResponse{400, "text/plain; charset=utf-8",
                                    "malformed request line\n"});
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);

  write_response(fd, handle(method, target));
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

HttpResponse TelemetryServer::handle(std::string_view method,
                                     std::string_view target) {
  if (method != "GET") {
    return HttpResponse{405, "text/plain; charset=utf-8",
                        "method not allowed\n"};
  }

  const usize qpos = target.find('?');
  const std::string_view path = target.substr(0, qpos);
  const std::string_view query =
      qpos == std::string_view::npos ? std::string_view{}
                                     : target.substr(qpos + 1);

  if (path == "/metrics") {
    // Same renderer as the file exporter (obs::to_prometheus), so the
    // scrape and the dump can never diverge.
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        to_prometheus(obs_->metrics)};
  }
  if (path == "/healthz") {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  }
  if (path == "/readyz") {
    const bool ready = status_ != nullptr && status_->ready();
    return ready ? HttpResponse{200, "text/plain; charset=utf-8", "ready\n"}
                 : HttpResponse{503, "text/plain; charset=utf-8",
                                "not ready\n"};
  }
  if (path == "/streams") {
    std::string body =
        status_ != nullptr
            ? status_->streams_json()
            : std::string("{\"ready\":false,\"streams\":[]}");
    return HttpResponse{200, "application/json", std::move(body)};
  }
  if (path == "/ledger") {
    const i64 recent = std::clamp<i64>(query_i64(query, "recent", 32), 0, 4096);
    const i64 worst = std::clamp<i64>(query_i64(query, "worst", 5), 0, 64);
    std::string body =
        status_ != nullptr
            ? status_->ledger_json(static_cast<usize>(recent),
                                   static_cast<usize>(worst))
            : std::string("{\"rows\":0,\"recent\":[],\"worst\":[]}");
    return HttpResponse{200, "application/json", std::move(body)};
  }
  if (path == "/flight") {
    const i64 n = std::clamp<i64>(query_i64(query, "n", 64), 1, 4096);
    const std::vector<FlightEvent> events = obs_->flight.snapshot();
    const usize count = std::min<usize>(static_cast<usize>(n), events.size());
    const std::span<const FlightEvent> tail(events.data() +
                                                (events.size() - count),
                                            count);
    std::string body = "{\"total\":" + std::to_string(events.size()) +
                       ",\"events\":" + flight_events_json(tail) + "}";
    return HttpResponse{200, "application/json", std::move(body)};
  }
  if (path == "/trace") {
    const i64 ms = std::clamp<i64>(query_i64(query, "ms", 100), 0,
                                   config_.max_trace_ms);
    // A capture window over the rings: stamp its start, sleep the window
    // out on this handler thread, export the events stamped inside it.
    const f64 from_us = obs_->flight.now_us();
    if (ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    return HttpResponse{
        200, "application/json",
        chrome_trace_json(*obs_, from_us, obs_->flight.now_us())};
  }
  return HttpResponse{404, "text/plain; charset=utf-8", "not found\n"};
}

HttpResult http_get(const std::string& host, i32 port,
                    const std::string& path, i32 timeout_ms) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  set_io_timeout(fd, std::max(50, timeout_ms));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return result;
  }

  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    return result;
  }

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<usize>(n));
  }
  ::close(fd);

  // "HTTP/1.1 200 OK" — status is the second token.
  const usize sp = response.find(' ');
  if (sp == std::string::npos) return result;
  result.status = std::atoi(response.c_str() + sp + 1);
  const usize body_at = response.find("\r\n\r\n");
  if (body_at != std::string::npos) result.body = response.substr(body_at + 4);
  const usize ct = response.find("Content-Type: ");
  if (ct != std::string::npos && ct < body_at) {
    const usize eol = response.find("\r\n", ct);
    result.content_type =
        response.substr(ct + 14, eol - ct - 14);
  }
  return result;
}

}  // namespace tc::obs
