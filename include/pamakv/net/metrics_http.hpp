// MetricsHttpServer: a tiny HTTP/1.0 endpoint serving the metrics registry
// in Prometheus text exposition format (version 0.0.4), plus an optional
// periodic CSV dump of the same snapshot.
//
// It reuses the EventLoop reactor on its own single thread, deliberately
// separate from the cache server's loops: a scrape must never contend with
// request traffic, and a wedged exporter must never take down the data
// path. The protocol support is the minimum Prometheus needs — one GET per
// connection, response, close. `GET /metrics` (any query string) returns
// the exposition; any other target returns 404. Requests are bounded to
// kMaxRequestBytes and a malformed or oversized request closes the socket.
//
// Snapshots are taken on the loop thread at response- or dump-time; the
// registry's collectors therefore run on this thread and take their own
// locks (CacheService's collector locks each shard once per snapshot —
// see CacheService::RegisterMetrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pamakv/net/event_loop.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv::net {

struct MetricsHttpConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 => ephemeral, see MetricsHttpServer::port()
  /// Period of the CSV dump timer; 0 disables dumping.
  std::int64_t dump_ms = 0;
  /// File the CSV rows are appended to (created with a header when absent).
  std::string dump_path = "results/metrics.csv";
  /// Clock for the dump timer and the CSV elapsed-ms column; nullptr =>
  /// the real SteadyClock. Tests inject a FakeClock and Advance() it.
  util::Clock* clock = nullptr;
};

class MetricsHttpServer {
 public:
  MetricsHttpServer(const MetricsHttpConfig& config,
                    util::MetricsRegistry& registry);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds, listens, spawns the loop thread and arms the dump timer.
  /// Throws std::system_error on socket errors.
  void Start();
  /// Stops the loop, joins the thread, closes all sockets. Safe to call
  /// twice; the destructor calls it.
  void Stop();

  /// Actual bound port (differs from config when config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Scrapes served with 200 (thread-safe; tests + ops visibility).
  [[nodiscard]] std::uint64_t scrapes() const noexcept {
    return scrapes_.load(std::memory_order_relaxed);
  }
  /// CSV dump rounds completed (thread-safe).
  [[nodiscard]] std::uint64_t dumps() const noexcept {
    return dumps_.load(std::memory_order_relaxed);
  }

  /// A request line larger than this closes the connection unanswered.
  static constexpr std::size_t kMaxRequestBytes = 4096;

 private:
  struct Conn {
    std::string rx;
    std::string tx;
    std::size_t tx_off = 0;
  };

  void Accept();
  void HandleConn(int fd, std::uint32_t events);
  /// True once rx holds a full request head; fills `target`.
  static bool ParseRequest(const std::string& rx, std::string& target);
  [[nodiscard]] std::string BuildResponse(const std::string& target);
  void CloseConn(int fd);
  void DumpCsv();

  MetricsHttpConfig config_;
  util::MetricsRegistry* registry_;
  util::Clock* clock_;
  std::unique_ptr<EventLoop> loop_;
  std::thread thread_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::int64_t start_ns_ = 0;
  std::unordered_map<int, Conn> conns_;
  std::atomic<std::uint64_t> scrapes_{0};
  std::atomic<std::uint64_t> dumps_{0};
};

}  // namespace pamakv::net
