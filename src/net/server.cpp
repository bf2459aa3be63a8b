#include "pamakv/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>
#include <limits>
#include <new>
#include <system_error>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/net/shard_executor.hpp"
#include "pamakv/net/syscall.hpp"

namespace pamakv::net {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void SetNonBlocking(int fd) {
  // accept4/SOCK_NONBLOCK cover the common paths; this is the fallback.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

constexpr std::int64_t kNoDeadline = std::numeric_limits<std::int64_t>::max();

constexpr std::int64_t MsToNs(std::int64_t ms) { return ms * 1'000'000; }

}  // namespace

Server::Server(const ServerConfig& config, CacheService& service)
    : config_(config),
      service_(&service),
      clock_(config.clock != nullptr ? config.clock
                                     : &util::SteadyClock::Instance()) {}

Server::~Server() { Stop(); }

void Server::EnableMetrics(util::MetricsRegistry& registry) {
  conn_metrics_.clock = clock_;
  for (std::size_t v = 0; v < kNumVerbs; ++v) {
    const std::string labels =
        "{verb=\"" + std::string(VerbName(static_cast<Verb>(v))) + "\"}";
    // 0.1µs .. 10s covers everything from an in-memory hit to a stalled
    // flush; 64 log buckets ≈ 33% relative error per bucket.
    conn_metrics_.service_us[v] = &registry.GetHistogram(
        "pamakv_service_time_us", 0.1, 1e7, 64, labels);
  }
  tx_flush_us_ =
      &registry.GetHistogram("pamakv_tx_flush_us", 0.1, 1e7, 64);
  registry.SetCollector("pamakv_server", [this](util::MetricsSnapshot& snap) {
    snap.AddGauge("pamakv_curr_connections", "",
                  static_cast<double>(curr_connections()));
    snap.AddGauge("pamakv_total_connections", "",
                  static_cast<double>(total_connections()));
  });
}

void Server::Start() {
  listen_fd_ =
      sys::Socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::invalid_argument("bad listen address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 512) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    ThrowErrno("bind/listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  // The EMFILE reserve: holding one fd we can give back means a
  // descriptor-starved acceptor can still complete one accept and shed
  // the connection with an explanation (see ShedOverflowAccept).
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  draining_.store(false, std::memory_order_release);
  drain_forced_.store(false, std::memory_order_release);
  const std::size_t n = config_.threads > 0 ? config_.threads : 1;
  loops_.clear();
  try {
    for (std::size_t i = 0; i < n; ++i) {
      loops_.push_back(std::make_unique<Loop>(*clock_));
    }
    // The acceptor lives on loop 0.
    loops_[0]->loop.Add(listen_fd_, EPOLLIN,
                        [this](std::uint32_t) { Accept(); });
    executor_ = std::make_unique<ShardExecutor>(*service_);
  } catch (...) {
    // A loop failed to build (epoll/eventfd exhaustion): release what
    // Start already took so a later retry begins from a clean slate.
    executor_.reset();
    loops_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (spare_fd_ >= 0) {
      ::close(spare_fd_);
      spare_fd_ = -1;
    }
    throw;
  }
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([l] { l->loop.Run(); });
  }
  if (config_.reap_interval_ms > 0) {
    // RunAfter is loop-thread-only; marshal the initial arming onto loop 0
    // (the re-arms then always run there).
    loops_[0]->loop.Post([this] { ArmReapTimer(); });
  }
  // Surface connection/lifecycle counters through the `stats` command.
  service_->SetExtraStats(
      [this](std::vector<char>& out) { AppendServerStats(out); });
  started_ = true;
}

void Server::Stop() {
  if (!started_) return;
  for (auto& loop : loops_) loop->loop.Stop();
  Teardown();
}

bool Server::Shutdown(std::chrono::milliseconds grace) {
  if (!started_) return true;
  // Stop accepting before anything else; the posted closures run in
  // order, so the listen fd is gone before loop 0 starts draining.
  loops_[0]->loop.Post([this] { loops_[0]->loop.Del(listen_fd_); });

  std::vector<std::future<void>> armed;
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    auto ready = std::make_shared<std::promise<void>>();
    armed.push_back(ready->get_future());
    l->loop.Post([this, l, grace, ready] {
      l->draining = true;
      // Close connections that are already quiescent; the rest close as
      // they go quiescent in HandleEvents, and CloseConnection stops the
      // loop when the last one goes.
      std::vector<int> quiescent;
      for (const auto& [fd, conn] : l->conns) {
        if (!conn->mid_request() && !conn->wants_write()) {
          quiescent.push_back(fd);
        }
      }
      for (const int fd : quiescent) CloseConnection(*l, fd);
      if (l->conns.empty()) {
        l->loop.Stop();
      } else {
        l->loop.RunAfter(grace, [this, l] {
          if (!l->conns.empty()) {
            drain_forced_.store(true, std::memory_order_release);
            std::vector<int> remaining;
            for (const auto& [fd, conn] : l->conns) remaining.push_back(fd);
            for (const int fd : remaining) CloseConnection(*l, fd);
          }
          l->loop.Stop();
        });
      }
      ready->set_value();
    });
  }
  for (auto& f : armed) f.wait();
  // Every loop is now draining with its grace deadline armed; a test may
  // Advance() a fake clock from this point on.
  draining_.store(true, std::memory_order_release);

  Teardown();
  return !drain_forced_.load(std::memory_order_acquire);
}

void Server::Teardown() {
  service_->SetExtraStats(nullptr);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (service_->flash_enabled()) {
    // Join the tier's IO thread before destroying loops/connections: a
    // straggling completion would otherwise post into a dying EventLoop.
    // Queued reads are dropped (their connections die right below); reads
    // submitted after this complete synchronously, so the tier stays
    // usable for a later Start.
    service_->flash()->StopIo();
  }
  // Loop threads are gone; tearing down connection maps is race-free now.
  for (auto& loop : loops_) loop->conns.clear();
  loops_.clear();
  executor_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
  }
  started_ = false;
}

void Server::Accept() {
  while (true) {
    const int fd = sys::Accept4(listen_fd_, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors. Returning with the backlog still pending
        // used to leave the listener readable forever — level-triggered
        // epoll then spun this loop at 100% CPU. Shed one connection via
        // the reserved fd; if even that fails, disarm and retry later.
        if (ShedOverflowAccept()) continue;
        PauseAccepting();
        return;
      }
      // ENOMEM/ENOBUFS and anything unexpected: same spin hazard, no way
      // to shed — back off and retry once the kernel recovers.
      PauseAccepting();
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    if (config_.max_conns != 0 &&
        curr_connections_.load(std::memory_order_relaxed) >=
            config_.max_conns) {
      // Shed with an explanation instead of a silent RST; best-effort,
      // the socket buffer of a fresh connection always has the room. The
      // counter bumps first so a client that saw the line sees the count.
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      static constexpr char kShed[] = "SERVER_ERROR too many connections\r\n";
      [[maybe_unused]] const ssize_t sent =
          ::send(fd, kShed, sizeof kShed - 1, MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    SetNonBlocking(fd);
    total_connections_.fetch_add(1, std::memory_order_relaxed);
    curr_connections_.fetch_add(1, std::memory_order_relaxed);
    Loop& target = *loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
                           loops_.size()];
    // Register on the owning loop's thread so conns is single-threaded.
    target.loop.Post([this, &target, fd] { Register(target, fd); });
  }
}

bool Server::ShedOverflowAccept() {
  if (spare_fd_ < 0) return false;
  ::close(spare_fd_);
  spare_fd_ = -1;
  const int fd = sys::Accept4(listen_fd_, nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) {
    emfile_sheds_.fetch_add(1, std::memory_order_relaxed);
    static constexpr char kShed[] =
        "SERVER_ERROR out of file descriptors\r\n";
    [[maybe_unused]] const ssize_t sent =
        ::send(fd, kShed, sizeof kShed - 1, MSG_NOSIGNAL);
    ::close(fd);
  }
  // Retake the reserve only after the shed fd is gone — in a true EMFILE
  // the descriptor we just released is the only one in the house.
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return fd >= 0;
}

void Server::PauseAccepting() {
  Loop& l = *loops_[0];
  l.loop.Del(listen_fd_);
  const std::int64_t retry_ms =
      config_.accept_retry_ms > 0 ? config_.accept_retry_ms : 10;
  l.loop.RunAfter(std::chrono::milliseconds(retry_ms), [this, &l] {
    if (l.draining) return;  // Shutdown already removed the listener
    l.loop.Add(listen_fd_, EPOLLIN, [this](std::uint32_t) { Accept(); });
    Accept();  // drain whatever queued while we were disarmed
  });
  // Counter last: once a test observes the bump, the retry timer is
  // armed and a FakeClock Advance cannot race past it.
  accept_pauses_.fetch_add(1, std::memory_order_release);
}

void Server::Register(Loop& loop, int fd) {
  std::unique_ptr<Connection> conn;
  try {
    conn = std::make_unique<Connection>(*service_, fd);
    conn->set_pause_threshold(config_.tx_pause_bytes);
    if (conn_metrics_.clock != nullptr) conn->set_metrics(&conn_metrics_);
    Connection* raw = conn.get();
    raw->set_executor(executor_.get(), config_.batch_depth, &loop.loop,
                      [this, &loop, raw] { OnBatchDone(loop, *raw); });
    conn->Touch(clock_->NowNanos());
    loop.conns[fd] = std::move(conn);
    loop.loop.Add(fd, EPOLLIN, [this, &loop, raw](std::uint32_t events) {
      HandleEvents(loop, *raw, events);
    });
    raw->armed_events = EPOLLIN;
    ArmLifecycleTimer(loop, *raw);
  } catch (...) {
    // Registration starved (epoll ENOMEM, allocation failure): shed the
    // socket; the loop thread must survive. Exactly one owner closes the
    // fd — the map entry, the still-local unique_ptr, or us by hand.
    error_closes_.fetch_add(1, std::memory_order_relaxed);
    loop.loop.Del(fd);  // no-op unless Add succeeded
    const auto it = loop.conns.find(fd);
    if (it != loop.conns.end()) {
      loop.conns.erase(it);  // destroys the Connection, closing the fd
    } else if (conn == nullptr) {
      ::close(fd);
    }
    curr_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::HandleEvents(Loop& loop, Connection& conn, std::uint32_t events) {
  const int fd = conn.fd();
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConnection(loop, fd);
    return;
  }
  bool open = true;
  if ((events & EPOLLIN) != 0 && !conn.paused()) {
    try {
      open = conn.OnReadable() != IoStatus::kClosed;
    } catch (const std::bad_alloc&) {
      // Request processing starved the heap outside the guarded store
      // path (e.g. growing a connection buffer). Drop this connection and
      // keep serving — bad_alloc must never escape the event loop.
      error_closes_.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(loop, fd);
      return;
    }
  }
  PostProcess(loop, conn, open);
}

void Server::PostProcess(Loop& loop, Connection& conn, bool open) {
  const int fd = conn.fd();
  // Respond (or flush backlog) regardless of which event fired.
  IoStatus wrote;
  if (tx_flush_us_ != nullptr && conn.wants_write()) {
    const std::int64_t flush_start = clock_->NowNanos();
    wrote = conn.FlushOutput();
    tx_flush_us_->Observe(
        static_cast<double>(clock_->NowNanos() - flush_start) / 1000.0);
  } else {
    wrote = conn.FlushOutput();
  }
  if (wrote == IoStatus::kClosed) {
    CloseConnection(loop, fd);
    return;
  }
  if (!open || (conn.closing() && !conn.wants_write())) {
    CloseConnection(loop, fd);
    return;
  }
  conn.Touch(clock_->NowNanos());

  const std::size_t backlog = conn.tx_backlog();
  if (config_.tx_cap_bytes != 0 && backlog > config_.tx_cap_bytes) {
    // The client is not draining its responses; cut it loose before its
    // backlog eats the heap.
    overflow_closes_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(loop, fd);
    return;
  }
  if (!conn.paused() && config_.tx_pause_bytes != 0 &&
      backlog >= config_.tx_pause_bytes) {
    conn.set_paused(true);
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
  } else if (conn.paused() && backlog <= config_.tx_resume_bytes) {
    conn.set_paused(false);
    backpressure_resumes_.fetch_add(1, std::memory_order_relaxed);
  }

  if (loop.draining && !conn.mid_request() && !conn.wants_write()) {
    CloseConnection(loop, fd);
    return;
  }

  // Interest mask: EPOLLIN unless paused, EPOLLOUT exactly while a
  // backlog exists (a paused connection always has one). Re-armed only
  // when it changes: level-triggered interest needs no refresh.
  const std::uint32_t events =
      (conn.paused() ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
      (conn.wants_write() ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (events != conn.armed_events) {
    loop.loop.Mod(fd, events);
    conn.armed_events = events;
  }
  ArmLifecycleTimer(loop, conn);
}

std::int64_t Server::NextDeadlineNs(const Connection& conn) const {
  std::int64_t next = kNoDeadline;
  if (config_.idle_timeout_ms > 0) {
    next = std::min(next,
                    conn.last_activity_ns() + MsToNs(config_.idle_timeout_ms));
  }
  if (config_.request_timeout_ms > 0 && conn.request_start_ns() >= 0) {
    next = std::min(
        next, conn.request_start_ns() + MsToNs(config_.request_timeout_ms));
  }
  return next == kNoDeadline ? 0 : next;
}

void Server::ArmLifecycleTimer(Loop& loop, Connection& conn) {
  const std::int64_t next = NextDeadlineNs(conn);
  if (next == 0) {
    if (conn.lifecycle_timer != kInvalidTimer) {
      loop.loop.Cancel(conn.lifecycle_timer);
      conn.lifecycle_timer = kInvalidTimer;
    }
    return;
  }
  // Lazy re-arm: a deadline that moved later is caught when the armed
  // timer fires and rechecks; only an earlier one needs a fresh timer.
  // Steady-state traffic therefore does no timer churn per request.
  if (conn.lifecycle_timer != kInvalidTimer && next >= conn.armed_deadline_ns) {
    return;
  }
  if (conn.lifecycle_timer != kInvalidTimer) {
    loop.loop.Cancel(conn.lifecycle_timer);
  }
  const int fd = conn.fd();
  const std::int64_t delay = next - clock_->NowNanos();
  conn.armed_deadline_ns = next;
  conn.lifecycle_timer =
      loop.loop.RunAfter(std::chrono::nanoseconds(delay > 0 ? delay : 0),
                         [this, &loop, fd] { OnLifecycleTimer(loop, fd); });
}

void Server::OnLifecycleTimer(Loop& loop, int fd) {
  const auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return;
  Connection& conn = *it->second;
  conn.lifecycle_timer = kInvalidTimer;
  const std::int64_t now = clock_->NowNanos();
  const bool request_expired =
      config_.request_timeout_ms > 0 && conn.request_start_ns() >= 0 &&
      now - conn.request_start_ns() >= MsToNs(config_.request_timeout_ms);
  const bool idle_expired =
      config_.idle_timeout_ms > 0 &&
      now - conn.last_activity_ns() >= MsToNs(config_.idle_timeout_ms);
  if (request_expired || idle_expired) {
    timed_out_connections_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(loop, fd);
    return;
  }
  ArmLifecycleTimer(loop, conn);
}

void Server::ArmReapTimer() {
  Loop& l = *loops_[0];
  l.loop.RunAfter(std::chrono::milliseconds(config_.reap_interval_ms),
                  [this, &l] {
                    if (l.draining) return;  // stop sweeping once shutting down
                    try {
                      const std::size_t n =
                          service_->ReapExpired(config_.reap_batch);
                      reaped_items_.fetch_add(n, std::memory_order_relaxed);
                      reap_sweeps_.fetch_add(1, std::memory_order_relaxed);
                    } catch (const std::bad_alloc&) {
                      // A starved sweep must not kill the loop thread; the
                      // wheel still holds the nodes, so the next period
                      // retries the same work.
                      reap_failures_.fetch_add(1, std::memory_order_relaxed);
                    }
                    ArmReapTimer();
                  });
}

void Server::CloseConnection(Loop& loop, int fd) {
  const auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return;
  Connection& conn = *it->second;
  if (conn.lifecycle_timer != kInvalidTimer) {
    loop.loop.Cancel(conn.lifecycle_timer);
    conn.lifecycle_timer = kInvalidTimer;
  }
  loop.loop.Del(fd);
  if (conn.batch_in_flight()) {
    // A flash read's completion still holds a pointer into this
    // connection's batch; destroying it now would be a use-after-free.
    // The socket is deregistered above, the object lingers untouched
    // until the batch completes and routes back here through OnBatchDone.
    conn.close_deferred = true;
    return;
  }
  loop.conns.erase(it);  // destroys the Connection, closing the fd
  curr_connections_.fetch_sub(1, std::memory_order_relaxed);
  if (loop.draining && loop.conns.empty()) loop.loop.Stop();
}

void Server::OnBatchDone(Loop& loop, Connection& conn) {
  const int fd = conn.fd();
  if (conn.close_deferred) {
    // The close already tore down the timer and epoll registration; all
    // that is left is destroying the object, which is safe now that the
    // last parked group finished.
    conn.close_deferred = false;
    const auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) return;
    loop.conns.erase(it);
    curr_connections_.fetch_sub(1, std::memory_order_relaxed);
    if (loop.draining && loop.conns.empty()) loop.loop.Stop();
    return;
  }
  PostProcess(loop, conn, true);
}

std::size_t Server::MidRequestConnections() {
  std::size_t total = 0;
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    std::promise<std::size_t> count;
    auto got = count.get_future();
    l->loop.Post([l, &count] {
      std::size_t n = 0;
      for (const auto& [fd, conn] : l->conns) {
        if (conn->mid_request()) ++n;
      }
      count.set_value(n);
    });
    total += got.get();
  }
  return total;
}

std::uint64_t Server::LoopIterations() const {
  std::uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->loop.cycles();
  return total;
}

void Server::AppendServerStats(std::vector<char>& out) const {
  AppendStat(out, "curr_connections", curr_connections());
  AppendStat(out, "total_connections", total_connections());
  AppendStat(out, "rejected_connections", rejected_connections());
  AppendStat(out, "timed_out_connections", timed_out_connections());
  AppendStat(out, "overflow_closes", overflow_closes());
  AppendStat(out, "backpressure_pauses", backpressure_pauses());
  AppendStat(out, "backpressure_resumes", backpressure_resumes());
  AppendStat(out, "emfile_sheds", emfile_sheds());
  AppendStat(out, "accept_pauses", accept_pauses());
  AppendStat(out, "error_closes", error_closes());
  AppendStat(out, "reap_sweeps", reap_sweeps());
  AppendStat(out, "reaped_items", reaped_items());
  AppendStat(out, "reap_failures", reap_failures());
  AppendStat(out, "loop_iterations", LoopIterations());
  if (executor_ != nullptr) executor_->AppendExecutorStats(out);
}

}  // namespace pamakv::net
