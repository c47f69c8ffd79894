// TelemetryServer: the in-process HTTP/1.1 ops endpoint.
//
// A production prediction-driven scheduler is only operable if its
// observability state is reachable *while streams are live* — every
// exporter built so far (Prometheus text file, Chrome trace, ledger dump,
// post-mortem bundle) is dump-at-exit.  This server turns the same state
// into a live ops plane, dependency-free (raw POSIX sockets, blocking
// I/O):
//
//   GET /metrics     Prometheus text scrape of the MetricsRegistry (the
//                    exact obs::to_prometheus renderer the file exporter
//                    uses, so the two can never diverge);
//   GET /healthz     liveness (200 once the server accepts connections);
//   GET /readyz      readiness (503 until StatusAggregator::set_ready —
//                    owners flip it after their startup gates pass);
//   GET /streams     JSON fleet status (StatusAggregator streams provider);
//   GET /ledger      recent ledger rows + worst-calibrated nodes
//                    (?recent=N&worst=K);
//   GET /flight      latest flight-recorder events as JSON (?n=N);
//   GET /trace       a Chrome trace of the flight events stamped within
//                    the next N ms (?ms=N): a time window over the rings.
//
// Threading: one accept thread feeds a small handler pool through a
// bounded fd queue; each handler reads one request (bounded size, receive
// timeout so a stalled or half-closed client cannot wedge a handler),
// writes one response and closes (Connection: close).  stop() closes the
// listener, drains the queue and joins every thread; the destructor calls
// it.  Handlers touch subsystem state only through StatusAggregator
// snapshots and the thread-safe obs primitives (MetricsRegistry,
// FlightRecorder::snapshot) — never a scheduler or executor lock.
#pragma once

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "obs/status.hpp"

namespace tc::obs {

class ObsContext;

struct TelemetryConfig {
  /// Master switch read by the owning subsystem (ExecutorConfig /
  /// ServeConfig); a constructed server itself is always startable.
  bool enabled = false;
  /// Bind address; keep the default loopback unless you front it with
  /// something that authenticates.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  i32 port = 0;
  /// Handler pool size (>= 1; /trace blocks a handler for its window).
  i32 handler_threads = 2;
  /// Hard cap on one request's bytes (request line + headers); beyond it
  /// the server answers 413 and closes.
  usize max_request_bytes = 8192;
  /// Per-connection receive/send timeout.
  i32 io_timeout_ms = 2000;
  /// Ceiling on the /trace capture window.
  i32 max_trace_ms = 10000;
};

/// One routed response (handle() output; the socket layer adds the
/// status line and framing headers).
struct HttpResponse {
  i32 status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class TelemetryServer {
 public:
  /// `status` may be null (readiness then reports not-ready and /streams
  /// serves the empty document).  `obs` defaults to obs::global().
  explicit TelemetryServer(TelemetryConfig config,
                           StatusAggregator* status = nullptr,
                           ObsContext* obs = nullptr);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Bind + listen + spawn the accept/handler threads.  False when the
  /// socket cannot be bound (port taken, no permission); the server is
  /// then inert and start() may be retried with a different config.
  bool start();
  /// Graceful shutdown: stop accepting, finish queued requests, join all
  /// threads.  Idempotent.
  void stop();
  [[nodiscard]] bool running() const;

  /// Actual bound port (resolves config.port == 0), -1 before start().
  [[nodiscard]] i32 port() const;
  [[nodiscard]] u64 requests_served() const;
  [[nodiscard]] const TelemetryConfig& config() const { return config_; }

  /// Route one parsed request — the pure part of the server, exposed so
  /// tests can drive routing without sockets.  `target` is the request
  /// target including any query string ("/ledger?worst=3").
  [[nodiscard]] HttpResponse handle(std::string_view method,
                                    std::string_view target);

 private:
  void accept_loop();
  void handler_loop();
  void serve_connection(int fd);

  TelemetryConfig config_;
  StatusAggregator* status_;
  ObsContext* obs_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<i32> port_{-1};
  std::atomic<u64> requests_served_{0};
  int listen_fd_ = -1;

  std::thread accept_thread_;
  std::vector<std::thread> handlers_;

  mutable common::Mutex queue_mutex_;
  common::CondVar queue_cv_;
  std::vector<int> pending_fds_ TC_GUARDED_BY(queue_mutex_);
  bool queue_closed_ TC_GUARDED_BY(queue_mutex_) = false;
};

/// Minimal blocking HTTP GET (the client side of the protocol subset the
/// server speaks) — used by triplec_top, the concurrent-scrape tests and
/// the bench scraper.  status == -1 means the connection failed.
struct HttpResult {
  i32 status = -1;
  std::string content_type;
  std::string body;
};
[[nodiscard]] HttpResult http_get(const std::string& host, i32 port,
                                  const std::string& path,
                                  i32 timeout_ms = 2000);

}  // namespace tc::obs
