// Telemetry plane tests: StatusAggregator snapshot/provider semantics, the
// socketless handle() routing contract, and the real socket layer (bounded
// request size -> 413, malformed request line -> 400, non-GET -> 405 with
// an Allow header, mid-request disconnect -> silent close without wedging a
// handler).  Socket tests bind loopback with an ephemeral port.
#include "obs/telemetry_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/obs.hpp"
#include "obs/status.hpp"

namespace tc::obs {
namespace {

LedgerRow make_row(i32 frame, i32 node, f64 pred_ms, f64 meas_ms) {
  LedgerRow row;
  row.frame = frame;
  row.node = node;
  row.scenario = 7;
  row.pred_mask = ledger_bit(LedgerResource::CpuMs);
  row.meas_mask = ledger_bit(LedgerResource::CpuMs);
  row.pred[static_cast<usize>(LedgerResource::CpuMs)] = pred_ms;
  row.meas[static_cast<usize>(LedgerResource::CpuMs)] = meas_ms;
  return row;
}

/// Raw one-shot HTTP exchange: connect, send `request` verbatim, read the
/// whole response until the server closes.  `half_close` sends the bytes
/// and disconnects without waiting for an answer (mid-request abort).
std::string raw_request(i32 port, const std::string& request,
                        bool half_close = false) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  if (!half_close) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<usize>(n));
    }
  }
  ::close(fd);
  return response;
}

// ---------------------------------------------------------------- aggregator

TEST(StatusAggregator, ReadyFlagAndEmptyDefaults) {
  StatusAggregator agg;
  EXPECT_FALSE(agg.ready());

  const common::JsonValue doc = common::JsonValue::parse(agg.streams_json());
  EXPECT_FALSE(doc.get("ready").as_bool());
  EXPECT_TRUE(doc.get("streams").items().empty());

  agg.set_ready(true);
  EXPECT_TRUE(agg.ready());
  EXPECT_TRUE(
      common::JsonValue::parse(agg.streams_json()).get("ready").as_bool());
}

TEST(StatusAggregator, StreamsProviderOutputPassesThrough) {
  StatusAggregator agg;
  agg.set_streams_provider(
      [] { return std::string("{\"ready\":true,\"streams\":[{\"id\":9}]}"); });
  const common::JsonValue doc = common::JsonValue::parse(agg.streams_json());
  ASSERT_EQ(doc.get("streams").items().size(), 1u);
  EXPECT_EQ(doc.get("streams").items()[0].number_or("id", 0.0), 9.0);
}

TEST(StatusAggregator, LedgerJsonRendersRecentAndWorst) {
  StatusAggregator agg;
  std::vector<LedgerRow> rows;
  // node 1 well calibrated, node 2 badly (100% over-prediction).
  for (i32 f = 0; f < 4; ++f) {
    rows.push_back(make_row(f, 1, 2.0, 2.0));
    rows.push_back(make_row(f, 2, 4.0, 2.0));
  }
  agg.set_ledger_provider([rows] { return rows; },
                          [](i32 node) { return "node" + std::to_string(node); });

  const common::JsonValue doc =
      common::JsonValue::parse(agg.ledger_json(/*recent=*/3, /*worst=*/1));
  EXPECT_EQ(doc.number_or("rows", 0.0), 8.0);
  EXPECT_EQ(doc.get("recent").items().size(), 3u);
  ASSERT_EQ(doc.get("worst").items().size(), 1u);
  const common::JsonValue& worst = doc.get("worst").items()[0];
  EXPECT_EQ(worst.string_or("name", ""), "node2");
  EXPECT_NEAR(worst.number_or("cpu_bias_pct", 0.0), 100.0, 1.0);
}

TEST(StatusAggregator, LedgerJsonWithoutProviderIsEmptyDocument) {
  StatusAggregator agg;
  const common::JsonValue doc =
      common::JsonValue::parse(agg.ledger_json(8, 3));
  EXPECT_EQ(doc.number_or("rows", -1.0), 0.0);
  EXPECT_TRUE(doc.get("recent").items().empty());
  EXPECT_TRUE(doc.get("worst").items().empty());
}

// ------------------------------------------------------------------ routing

TEST(TelemetryRouting, MetricsUsesThePrometheusRendererAndContentType) {
  ObsContext ctx;
  ctx.metrics.counter("tripleC_telemetry_test_total", "route test").add(5.0);
  TelemetryServer server(TelemetryConfig{}, nullptr, &ctx);

  const HttpResponse r = server.handle("GET", "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "text/plain; version=0.0.4; charset=utf-8");
  // Exactly the file exporter's output — the two renderers cannot diverge.
  EXPECT_EQ(r.body, to_prometheus(ctx.metrics));
  EXPECT_NE(r.body.find("# HELP tripleC_telemetry_test_total route test"),
            std::string::npos);
  EXPECT_NE(r.body.find("# TYPE tripleC_telemetry_test_total counter"),
            std::string::npos);
  EXPECT_NE(r.body.find("tripleC_telemetry_test_total 5"), std::string::npos);
}

TEST(TelemetryRouting, HealthzIsAliveReadyzGatesOnAggregator) {
  ObsContext ctx;
  StatusAggregator agg;
  TelemetryServer server(TelemetryConfig{}, &agg, &ctx);

  EXPECT_EQ(server.handle("GET", "/healthz").status, 200);
  EXPECT_EQ(server.handle("GET", "/readyz").status, 503);
  agg.set_ready(true);
  EXPECT_EQ(server.handle("GET", "/readyz").status, 200);

  // A server with no aggregator at all can never be ready.
  TelemetryServer bare(TelemetryConfig{}, nullptr, &ctx);
  EXPECT_EQ(bare.handle("GET", "/readyz").status, 503);
  EXPECT_EQ(bare.handle("GET", "/healthz").status, 200);
}

TEST(TelemetryRouting, StreamsServesProviderJson) {
  ObsContext ctx;
  StatusAggregator agg;
  agg.set_streams_provider([] {
    return std::string("{\"ready\":true,\"streams\":[{\"name\":\"or_1\"}]}");
  });
  TelemetryServer server(TelemetryConfig{}, &agg, &ctx);

  const HttpResponse r = server.handle("GET", "/streams");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  const common::JsonValue doc = common::JsonValue::parse(r.body);
  EXPECT_EQ(doc.get("streams").items()[0].string_or("name", ""), "or_1");

  TelemetryServer bare(TelemetryConfig{}, nullptr, &ctx);
  const common::JsonValue empty =
      common::JsonValue::parse(bare.handle("GET", "/streams").body);
  EXPECT_FALSE(empty.get("ready").as_bool());
}

TEST(TelemetryRouting, LedgerQueryParametersClampAndDefault) {
  ObsContext ctx;
  StatusAggregator agg;
  std::vector<LedgerRow> rows;
  for (i32 f = 0; f < 64; ++f) rows.push_back(make_row(f, 1, 2.0, 2.1));
  agg.set_ledger_provider([rows] { return rows; });
  TelemetryServer server(TelemetryConfig{}, &agg, &ctx);

  // Defaults: recent=32, worst=5.
  common::JsonValue doc =
      common::JsonValue::parse(server.handle("GET", "/ledger").body);
  EXPECT_EQ(doc.get("recent").items().size(), 32u);

  doc = common::JsonValue::parse(
      server.handle("GET", "/ledger?recent=2&worst=1").body);
  EXPECT_EQ(doc.get("recent").items().size(), 2u);
  EXPECT_EQ(doc.get("worst").items().size(), 1u);

  // Negative values clamp to zero rather than exploding.
  doc = common::JsonValue::parse(
      server.handle("GET", "/ledger?recent=-4&worst=-4").body);
  EXPECT_TRUE(doc.get("recent").items().empty());
  EXPECT_TRUE(doc.get("worst").items().empty());
}

TEST(TelemetryRouting, FlightReturnsTailWithTotal) {
  ObsContext ctx;
  for (i32 f = 0; f < 5; ++f) {
    ctx.flight.record(FrEventType::FrameStart, f, -1, static_cast<f64>(f));
  }
  TelemetryServer server(TelemetryConfig{}, nullptr, &ctx);

  const HttpResponse r = server.handle("GET", "/flight?n=2");
  EXPECT_EQ(r.status, 200);
  const common::JsonValue doc = common::JsonValue::parse(r.body);
  EXPECT_EQ(doc.number_or("total", 0.0), 5.0);
  ASSERT_EQ(doc.get("events").items().size(), 2u);
  // The tail is the NEWEST events (frames 3 and 4).
  EXPECT_EQ(doc.get("events").items()[0].number_or("frame", -1.0), 3.0);
  EXPECT_EQ(doc.get("events").items()[1].number_or("frame", -1.0), 4.0);
}

TEST(TelemetryRouting, TraceWindowExcludesEventsBeforeArming) {
  ObsContext ctx;
  ctx.flight.record(FrEventType::Custom, 1);
  TelemetryServer server(TelemetryConfig{}, nullptr, &ctx);

  // ms=0: arm and export immediately — the pre-existing event is outside
  // the window, so only metadata events remain.
  const HttpResponse r = server.handle("GET", "/trace?ms=0");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  const common::JsonValue doc = common::JsonValue::parse(r.body);
  for (const common::JsonValue& e : doc.get("traceEvents").items()) {
    EXPECT_EQ(e.string_or("ph", ""), "M");
  }
}

TEST(TelemetryRouting, TraceWindowKeepsOnlyEventsStampedInside) {
  ObsContext ctx;
  ctx.flight.record(FrEventType::Custom, 1);  // before the window
  TelemetryServer server(TelemetryConfig{}, nullptr, &ctx);

  // Another thread records while the handler sleeps its window out.
  std::thread inside([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ctx.flight.record(FrEventType::Custom, 2);
  });
  const HttpResponse r = server.handle("GET", "/trace?ms=600");
  inside.join();
  ctx.flight.record(FrEventType::Custom, 3);  // after the window

  std::vector<f64> frames;
  const common::JsonValue doc = common::JsonValue::parse(r.body);
  for (const common::JsonValue& e : doc.get("traceEvents").items()) {
    if (e.string_or("ph", "") == "M") continue;
    frames.push_back(e.get("args").number_or("frame", -1.0));
  }
  EXPECT_EQ(frames, std::vector<f64>{2.0});
}

TEST(TelemetryRouting, UnknownPathIs404NonGetIs405) {
  ObsContext ctx;
  TelemetryServer server(TelemetryConfig{}, nullptr, &ctx);
  EXPECT_EQ(server.handle("GET", "/nope").status, 404);
  EXPECT_EQ(server.handle("POST", "/metrics").status, 405);
  EXPECT_EQ(server.handle("DELETE", "/streams").status, 405);
}

// ------------------------------------------------------------------ sockets

TEST(TelemetrySocket, ServesMetricsAndStreamsOverLoopback) {
  ObsContext ctx;
  ctx.metrics.counter("tripleC_socket_test_total", "socket test").add(1.0);
  StatusAggregator agg;
  agg.set_streams_provider(
      [] { return std::string("{\"ready\":true,\"streams\":[]}"); });
  agg.set_ready(true);

  TelemetryConfig config;
  config.port = 0;  // ephemeral
  TelemetryServer server(config, &agg, &ctx);
  ASSERT_TRUE(server.start());
  ASSERT_GT(server.port(), 0);

  const HttpResult health = http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpResult metrics = http_get("127.0.0.1", server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("tripleC_socket_test_total 1"),
            std::string::npos);

  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/readyz").status, 200);
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/streams").status, 200);
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/nope").status, 404);

  EXPECT_GE(server.requests_served(), 5u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(TelemetrySocket, OversizedRequestLineGets413) {
  ObsContext ctx;
  TelemetryConfig config;
  config.port = 0;
  config.max_request_bytes = 256;
  TelemetryServer server(config, nullptr, &ctx);
  ASSERT_TRUE(server.start());

  // 600 bytes with no terminating blank line blow through the 256-byte cap.
  const std::string oversized = "GET /" + std::string(600, 'a');
  const std::string response = raw_request(server.port(), oversized);
  EXPECT_NE(response.find("413 Payload Too Large"), std::string::npos);
}

TEST(TelemetrySocket, MalformedRequestLineGets400) {
  ObsContext ctx;
  TelemetryConfig config;
  config.port = 0;
  TelemetryServer server(config, nullptr, &ctx);
  ASSERT_TRUE(server.start());

  const std::string response =
      raw_request(server.port(), "GARBAGE\r\n\r\n");
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
}

TEST(TelemetrySocket, NonGetMethodGets405WithAllowHeader) {
  ObsContext ctx;
  TelemetryConfig config;
  config.port = 0;
  TelemetryServer server(config, nullptr, &ctx);
  ASSERT_TRUE(server.start());

  const std::string response = raw_request(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(response.find("Allow: GET"), std::string::npos);
}

TEST(TelemetrySocket, MidRequestDisconnectDoesNotWedgeHandlers) {
  ObsContext ctx;
  TelemetryConfig config;
  config.port = 0;
  config.handler_threads = 1;  // a wedged handler would block everything
  config.io_timeout_ms = 200;
  TelemetryServer server(config, nullptr, &ctx);
  ASSERT_TRUE(server.start());

  // Half a request line, then hang up: the handler must close silently and
  // return to the pool.
  (void)raw_request(server.port(), "GET /metr", /*half_close=*/true);

  const HttpResult after = http_get("127.0.0.1", server.port(), "/healthz",
                                    /*timeout_ms=*/2000);
  EXPECT_EQ(after.status, 200);
}

TEST(TelemetrySocket, StartOnTakenPortFailsCleanly) {
  ObsContext ctx;
  TelemetryConfig config;
  config.port = 0;
  TelemetryServer first(config, nullptr, &ctx);
  ASSERT_TRUE(first.start());

  TelemetryConfig clash;
  clash.port = first.port();
  clash.bind_address = "127.0.0.1";
  TelemetryServer second(clash, nullptr, &ctx);
  EXPECT_FALSE(second.start());
  EXPECT_FALSE(second.running());

  // The failed server can retry on a free port.
  // (stop() on an inert server is a no-op; start() rebinds from scratch.)
  first.stop();
  EXPECT_TRUE(second.start());
  second.stop();
}

}  // namespace
}  // namespace tc::obs
