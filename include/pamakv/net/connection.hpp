// Connection: per-client protocol state machine with reusable buffers.
//
// The byte-level core is socket-free: Ingest() accepts whatever fragment
// of the request stream just arrived (any split, any garbage), consumes
// complete commands, and appends responses to the output buffer. The
// event loop wraps it with nonblocking read/write; tests drive Ingest()
// directly, which is also how the zero-allocation harness measures the
// read→parse→respond path without socket noise.
//
// There is one execution path. Every complete command is staged as a
// BatchOp — a parse error, an oversized store or a fatal framing error as
// an op that already holds its reply — and the batch runs through the
// ShardExecutor. The barrier verbs (stats, flush_all, version, bgsave,
// quit) end the batch and run right after it is sequenced.
//
// Buffer discipline: one receive and one transmit vector per connection,
// trimmed by moving a consumed-offset and compacted by memmove — they
// grow to the connection's high-water mark once and are then reused, so
// steady-state request handling performs no heap allocation (the engine
// keeps the same rule).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "pamakv/net/batch.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/net/shard_executor.hpp"
#include "pamakv/util/clock.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv::net {

class EventLoop;

/// Shared per-server instrumentation hooks a Connection records into.
/// All pointers may be null (that series is simply not recorded); the
/// whole struct is optional — a connection without one (the default, and
/// what the zero-allocation harness drives) takes no timestamps at all.
/// Histogram::Observe is wait-free, so one struct is safely shared by
/// every connection across all loop threads.
struct ConnectionMetrics {
  util::Clock* clock = nullptr;
  /// Service time per command verb, µs: command dispatch through response
  /// bytes appended (for `set`, payload completion through STORED).
  util::Histogram* service_us[kNumVerbs] = {};
};

/// Socket-facing result of OnReadable/FlushOutput.
enum class IoStatus : std::uint8_t {
  kOk,        ///< progress made, keep the connection
  kWouldBlock,///< kernel buffer empty/full, retry on the next event
  kClosed,    ///< peer closed or protocol demands close
};

class Connection {
 public:
  /// fd < 0 builds a detached connection (tests, alloc harness).
  explicit Connection(CacheService& service, int fd = -1);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Feeds raw bytes into the state machine. Returns false when the
  /// connection must close (quit, fatal protocol violation); pending
  /// output should still be flushed first.
  bool Ingest(const char* data, std::size_t n);

  /// Unsent response bytes (test access; the loop uses FlushOutput).
  [[nodiscard]] std::string_view pending_output() const noexcept {
    return {tx_.data() + tx_head_, tx_.size() - tx_head_};
  }
  /// Drops `n` bytes of pending output (tests; FlushOutput does this
  /// after write()).
  void ConsumeOutput(std::size_t n);

  // ---- socket plumbing (fd >= 0 only) ----
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Reads until EAGAIN/EOF, ingesting as it goes. Stops early (returns
  /// kOk, bytes left in the kernel buffer) once the tx backlog reaches
  /// the pause threshold — backpressure starts inside a single read
  /// burst, not only between epoll rounds.
  IoStatus OnReadable();
  /// Writes pending output until EAGAIN or drained.
  IoStatus FlushOutput();
  [[nodiscard]] bool wants_write() const noexcept {
    return tx_head_ < tx_.size();
  }
  /// Unsent response bytes (the backpressure watermark input).
  [[nodiscard]] std::size_t tx_backlog() const noexcept {
    return tx_.size() - tx_head_;
  }
  /// True once Ingest decided the connection should close.
  [[nodiscard]] bool closing() const noexcept { return closing_; }

  // ---- execution ----
  /// Every complete command is staged into a Batch (up to `depth` ops;
  /// 0 clamps to 1) and run through `executor` — nullptr selects the
  /// connection's own — with replies re-sequenced into request order.
  /// `home` is the loop this connection is served on. With one, a batch
  /// whose shard group parks on a flash read completes asynchronously:
  /// the replies that are ready go out first, and `on_done` fires on
  /// `home` whenever more replies were appended, last once the batch has
  /// been sequenced (the server flushes output and re-arms timers there;
  /// after the last call it may destroy the connection). Without one,
  /// flash reads run synchronously and every batch completes inside
  /// Ingest.
  void set_executor(ShardExecutor* executor, std::size_t depth,
                    EventLoop* home, std::function<void()> on_done);
  /// A dispatched batch is parked on a flash read.
  [[nodiscard]] bool batch_in_flight() const noexcept {
    return batch_in_flight_;
  }

  /// Set by the serving loop when close was requested mid-flight: the fd
  /// is already torn down, the Connection object waits for the batch.
  bool close_deferred = false;

  /// The epoll interest mask the serving loop last armed for the fd
  /// (Register adds it with EPOLLIN), so an unchanged mask skips the
  /// epoll_ctl.
  std::uint32_t armed_events = 0;

  // ---- lifecycle state (owned by the serving loop; see server.cpp) ----
  /// A request is in flight: a partial command line, a store awaiting its
  /// payload, an oversized payload still being swallowed, or a batch
  /// parked on a flash read.
  [[nodiscard]] bool mid_request() const noexcept {
    return discard_remaining_ > 0 || rx_head_ < rx_.size() ||
           batch_in_flight_;
  }
  /// Records I/O activity at `now_ns` and tracks when the current
  /// in-flight request started (-1 when none is in flight; 0 is a valid
  /// timestamp under an injected clock).
  void Touch(std::int64_t now_ns) noexcept {
    last_activity_ns_ = now_ns;
    if (mid_request()) {
      if (request_start_ns_ < 0) request_start_ns_ = now_ns;
    } else {
      request_start_ns_ = -1;
    }
  }
  [[nodiscard]] std::int64_t last_activity_ns() const noexcept {
    return last_activity_ns_;
  }
  [[nodiscard]] std::int64_t request_start_ns() const noexcept {
    return request_start_ns_;
  }

  /// Backpressure: while paused the loop deregisters EPOLLIN and
  /// OnReadable refuses to ingest more, until the backlog drains below
  /// the low-water mark.
  [[nodiscard]] bool paused() const noexcept { return paused_; }
  void set_paused(bool paused) noexcept { paused_ = paused; }
  /// tx backlog at which OnReadable stops pulling bytes (0 = never).
  void set_pause_threshold(std::size_t bytes) noexcept {
    pause_threshold_ = bytes;
  }

  /// Wires the per-verb latency hooks (nullptr disables; the default).
  /// The struct must outlive the connection — the Server owns one.
  void set_metrics(const ConnectionMetrics* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Scratch slots for the serving loop's per-connection lifecycle timer
  /// (the Connection itself never touches the loop).
  std::uint64_t lifecycle_timer = 0;
  std::int64_t armed_deadline_ns = 0;

 private:
  /// What StageNextCommand did with the bytes at rx_head_.
  enum class StageStatus : std::uint8_t {
    kStaged,    ///< consumed input (an op staged, or discard progressed)
    kNeedMore,  ///< incomplete command; wait for more bytes
    kFull,      ///< a multi-key retrieval does not fit; dispatch first
    kBarrier,   ///< consumed a barrier verb; dispatch, then run it
  };
  /// Stages complete commands and dispatches batches until the input runs
  /// dry, a batch parks on a flash read, or the connection closes.
  void Process();
  /// Parses the next command and stages it (consuming its bytes) unless
  /// it is incomplete or does not fit the batch.
  StageStatus StageNextCommand();
  /// Stages an op whose reply is already known.
  BatchOp& StageAnswered(std::string_view reply);
  /// Stages an answered "CLIENT_ERROR <message>".
  void StageClientError(std::string_view message);
  /// A framing error the stream cannot recover from: the reply is staged
  /// and the connection closes once the batch ahead of it is sequenced.
  void StageFatal(std::string_view message);
  /// Appends the replies of the batch's finished prefix to tx_.
  void SequenceReady();
  /// Appends one op's reply to tx_ and observes its verb.
  void Sequence(const BatchOp& op);
  /// Appends every remaining reply in request order, resets the batch,
  /// then runs the barrier verb that ended it, if any.
  void FinishBatch();
  /// Runs on the home loop as a parked batch's reads land (wired as
  /// Batch::on_progress).
  void OnBatchProgress();
  /// Runs the pending barrier verb (stats/flush_all/version/bgsave/quit).
  void RunBarrier();
  /// Records `verb`'s service time from `start_ns` to now, when wired.
  void ObserveVerb(Verb verb, std::int64_t start_ns) noexcept;
  void ReleaseConsumed();

  CacheService* service_;
  int fd_;
  std::vector<char> rx_;
  std::size_t rx_head_ = 0;   ///< first unconsumed byte in rx_
  std::size_t rx_scan_ = 0;   ///< resume offset for the newline scan
  std::vector<char> tx_;
  std::size_t tx_head_ = 0;   ///< first unsent byte in tx_

  /// Oversized store: swallow this many raw bytes without buffering them.
  std::uint64_t discard_remaining_ = 0;
  bool closing_ = false;

  std::int64_t last_activity_ns_ = 0;
  std::int64_t request_start_ns_ = -1;  ///< -1: no request in flight
  bool paused_ = false;
  std::size_t pause_threshold_ = 0;
  const ConnectionMetrics* metrics_ = nullptr;

  ShardExecutor own_executor_;
  ShardExecutor* executor_;
  std::size_t batch_depth_ = kDefaultBatchDepth;
  EventLoop* home_loop_ = nullptr;
  Batch batch_;
  std::size_t sequenced_ = 0;  ///< ops of batch_ whose replies are in tx_
  bool batch_in_flight_ = false;
  std::function<void()> on_batch_done_;
  std::int64_t batch_start_ns_ = -1;  ///< dispatch time for verb metrics

  /// The barrier verb that ended the staged batch (consumed, not yet run).
  struct Barrier {
    bool pending = false;
    bool fatal = false;  ///< a framing error: close, run no verb
    Verb verb = Verb::kVersion;
    std::int64_t exptime = 0;  ///< flush_all delay
    bool noreply = false;
    bool detail = false;       ///< stats detail
  };
  Barrier barrier_;
};

}  // namespace pamakv::net
