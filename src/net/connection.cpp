#include "pamakv/net/connection.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/event_loop.hpp"
#include "pamakv/net/shard_executor.hpp"
#include "pamakv/net/syscall.hpp"

namespace pamakv::net {

namespace {
constexpr std::size_t kReadChunk = 16 * 1024;
/// Compact rx_ when the dead prefix crosses this threshold; below it the
/// memmove costs more than the space it reclaims.
constexpr std::size_t kCompactThreshold = 4 * 1024;
}  // namespace

Connection::Connection(CacheService& service, int fd)
    : service_(&service),
      fd_(fd),
      own_executor_(service),
      executor_(&own_executor_) {
  // Bound once: asynchronous completion reuses this closure, so finishing
  // a batch allocates nothing.
  batch_.on_progress = [this] { OnBatchProgress(); };
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::ConsumeOutput(std::size_t n) {
  tx_head_ += n;
  if (tx_head_ >= tx_.size()) {
    tx_.clear();
    tx_head_ = 0;
  }
}

void Connection::ReleaseConsumed() {
  if (rx_head_ == rx_.size()) {
    rx_.clear();
    rx_head_ = 0;
    rx_scan_ = 0;
  } else if (rx_head_ >= kCompactThreshold) {
    std::memmove(rx_.data(), rx_.data() + rx_head_, rx_.size() - rx_head_);
    rx_.resize(rx_.size() - rx_head_);
    rx_scan_ -= rx_head_;
    rx_head_ = 0;
  }
}

bool Connection::Ingest(const char* data, std::size_t n) {
  if (closing_) return false;
  // Oversized-store payloads are swallowed straight from the input so a
  // hostile "set k 0 0 999999999" cannot balloon the receive buffer —
  // unless earlier bytes still wait in rx_ (a parked batch), which must
  // be consumed first.
  if (discard_remaining_ > 0 && rx_head_ == rx_.size()) {
    const std::size_t eat = static_cast<std::size_t>(
        discard_remaining_ < n ? discard_remaining_ : n);
    discard_remaining_ -= eat;
    data += eat;
    n -= eat;
    if (n == 0) return true;
  }
  rx_.insert(rx_.end(), data, data + n);
  // While a batch is parked, new bytes only accumulate; staging resumes
  // once it completes.
  if (!batch_in_flight_) {
    Process();
    if (!batch_in_flight_) ReleaseConsumed();
  }
  return !closing_;
}

void Connection::set_executor(ShardExecutor* executor, std::size_t depth,
                              EventLoop* home,
                              std::function<void()> on_done) {
  executor_ = executor != nullptr ? executor : &own_executor_;
  batch_depth_ = depth == 0 ? 1 : depth;
  home_loop_ = home;
  on_batch_done_ = std::move(on_done);
}

void Connection::Process() {
  while (!closing_) {
    StageStatus status = StageStatus::kStaged;
    while (status == StageStatus::kStaged && batch_.size() < batch_depth_) {
      status = StageNextCommand();
    }
    if (batch_.size() != 0) {
      if (metrics_ != nullptr) batch_start_ns_ = metrics_->clock->NowNanos();
      if (!executor_->Execute(batch_, home_loop_)) {
        // Send what is ready while parked groups wait for their reads;
        // OnBatchProgress picks this loop back up.
        SequenceReady();
        batch_in_flight_ = true;
        return;
      }
    }
    FinishBatch();
    if (status == StageStatus::kNeedMore) return;
  }
}

BatchOp& Connection::StageAnswered(std::string_view reply) {
  BatchOp& op = batch_.Push();
  op.answered = true;
  AppendLiteral(op.out, reply);
  return op;
}

void Connection::StageClientError(std::string_view message) {
  BatchOp& op = StageAnswered("CLIENT_ERROR ");
  AppendLiteral(op.out, message);
  AppendLiteral(op.out, "\r\n");
}

void Connection::StageFatal(std::string_view message) {
  StageClientError(message);
  barrier_.pending = true;
  barrier_.fatal = true;
}

Connection::StageStatus Connection::StageNextCommand() {
  if (discard_remaining_ > 0) {
    // Oversized payload buffered alongside its command line: drop it in
    // place; Ingest eats the rest straight from the input.
    const std::size_t avail = rx_.size() - rx_head_;
    const std::size_t eat = static_cast<std::size_t>(
        discard_remaining_ < avail ? discard_remaining_ : avail);
    rx_head_ += eat;
    rx_scan_ = rx_head_;
    discard_remaining_ -= eat;
    return discard_remaining_ > 0 ? StageStatus::kNeedMore
                                  : StageStatus::kStaged;
  }

  // Scan for the end of the next command line from where we left off.
  const char* base = rx_.data();
  const char* nl =
      rx_scan_ < rx_.size()
          ? static_cast<const char*>(
                std::memchr(base + rx_scan_, '\n', rx_.size() - rx_scan_))
          : nullptr;
  if (nl == nullptr) {
    rx_scan_ = rx_.size();
    if (rx_.size() - rx_head_ <= kMaxLineBytes) return StageStatus::kNeedMore;
    StageFatal("line too long");
    return StageStatus::kBarrier;
  }
  std::size_t line_end = static_cast<std::size_t>(nl - base);
  const std::size_t next = line_end + 1;
  // Tolerate bare \n (printf | nc without \r); strip the \r when present.
  if (line_end > rx_head_ && base[line_end - 1] == '\r') --line_end;
  const std::string_view line(base + rx_head_, line_end - rx_head_);
  if (line.size() > kMaxLineBytes) {
    StageFatal("line too long");
    return StageStatus::kBarrier;
  }

  Command cmd;
  const ParseResult parsed = ParseCommandLine(line, cmd);
  if (parsed.status != ParseStatus::kOk) {
    if (parsed.status == ParseStatus::kError) {
      StageAnswered("ERROR\r\n");
    } else {
      StageClientError(parsed.error);
    }
    rx_head_ = rx_scan_ = next;
    return StageStatus::kStaged;
  }

  switch (cmd.verb) {
    case Verb::kGet:
    case Verb::kGets:
    case Verb::kGat:
    case Verb::kGats: {
      // A multi-key retrieval stages one op per key (the last one carries
      // the END line). It never splits across batches; an empty batch
      // takes it whole even past the depth target.
      if (batch_.size() != 0 && batch_.size() + cmd.num_keys > batch_depth_) {
        return StageStatus::kFull;
      }
      for (std::size_t i = 0; i < cmd.num_keys; ++i) {
        BatchOp& op = batch_.Push();
        op.verb = cmd.verb;
        op.key.assign(cmd.keys[i].data(), cmd.keys[i].size());
        op.exptime = cmd.exptime;
        op.with_cas = cmd.verb == Verb::kGets || cmd.verb == Verb::kGats;
        op.touch = cmd.verb == Verb::kGat || cmd.verb == Verb::kGats;
        op.append_end = i + 1 == cmd.num_keys;
      }
      rx_head_ = rx_scan_ = next;
      return StageStatus::kStaged;
    }
    case Verb::kSet:
    case Verb::kAdd:
    case Verb::kReplace:
    case Verb::kAppend:
    case Verb::kPrepend:
    case Verb::kCas: {
      if (cmd.value_bytes > kMaxValueBytes) {
        // Swallow the announced payload (+CRLF) without buffering it,
        // then keep the connection usable — memcached's behavior.
        discard_remaining_ = cmd.value_bytes + 2;
        if (cmd.noreply) {
          StageAnswered({});
        } else {
          StageAnswered("SERVER_ERROR object too large for cache\r\n");
        }
        rx_head_ = rx_scan_ = next;
        return StageStatus::kStaged;
      }
      const std::size_t total =
          next + static_cast<std::size_t>(cmd.value_bytes) + 2;
      if (rx_.size() < total) {
        rx_.reserve(total);   // one growth, then wait for the payload
        rx_scan_ = rx_head_;  // re-find this line once the bytes arrive
        return StageStatus::kNeedMore;
      }
      const char* payload = base + next;
      if (payload[cmd.value_bytes] != '\r' ||
          payload[cmd.value_bytes + 1] != '\n') {
        StageFatal("bad data chunk");
        return StageStatus::kBarrier;
      }
      BatchOp& op = batch_.Push();
      op.verb = cmd.verb;
      op.key.assign(cmd.keys[0].data(), cmd.keys[0].size());
      op.value.assign(payload, static_cast<std::size_t>(cmd.value_bytes));
      op.flags = cmd.flags;
      op.exptime = cmd.exptime;
      op.cas = cmd.cas_unique;
      op.noreply = cmd.noreply;
      rx_head_ = rx_scan_ = total;
      return StageStatus::kStaged;
    }
    case Verb::kIncr:
    case Verb::kDecr:
    case Verb::kTouch:
    case Verb::kDelete: {
      BatchOp& op = batch_.Push();
      op.verb = cmd.verb;
      op.key.assign(cmd.keys[0].data(), cmd.keys[0].size());
      op.delta = cmd.delta;
      op.exptime = cmd.exptime;
      op.noreply = cmd.noreply;
      rx_head_ = rx_scan_ = next;
      return StageStatus::kStaged;
    }
    case Verb::kStats:
    case Verb::kFlushAll:
    case Verb::kVersion:
    case Verb::kBgsave:
    case Verb::kQuit:
      // Cross-shard barriers: they end the batch and run right after it.
      barrier_.pending = true;
      barrier_.fatal = false;
      barrier_.verb = cmd.verb;
      barrier_.exptime = cmd.exptime;
      barrier_.noreply = cmd.noreply;
      barrier_.detail = cmd.stats_detail;
      rx_head_ = rx_scan_ = next;
      return StageStatus::kBarrier;
  }
  return StageStatus::kNeedMore;  // unreachable: every verb is handled
}

void Connection::Sequence(const BatchOp& op) {
  tx_.insert(tx_.end(), op.out.begin(), op.out.end());
  // Answered ops and ops skipped after a mid-batch failure never touched
  // the engine; observing them would break the verb-count /
  // engine-counter reconciliation.
  if (op.executed && metrics_ != nullptr && batch_start_ns_ >= 0) {
    ObserveVerb(op.verb, batch_start_ns_);
  }
}

void Connection::SequenceReady() {
  for (; sequenced_ < batch_.size(); ++sequenced_) {
    const BatchOp& op = batch_.op(sequenced_);
    if (!op.answered && !op.executed) break;  // parked, or behind one
    Sequence(op);
  }
}

void Connection::FinishBatch() {
  for (; sequenced_ < batch_.size(); ++sequenced_) {
    Sequence(batch_.op(sequenced_));
  }
  sequenced_ = 0;
  batch_start_ns_ = -1;
  if (batch_.failed) closing_ = true;
  batch_.Reset();
  if (barrier_.pending && !closing_) RunBarrier();
  barrier_.pending = false;
}

void Connection::RunBarrier() {
  if (barrier_.fatal) {
    closing_ = true;
    return;
  }
  const std::int64_t start_ns =
      metrics_ != nullptr ? metrics_->clock->NowNanos() : -1;
  switch (barrier_.verb) {
    case Verb::kStats:
      service_->AppendStats(tx_, barrier_.detail);
      break;
    case Verb::kFlushAll:
      service_->FlushAll(barrier_.exptime);
      if (!barrier_.noreply) AppendLiteral(tx_, "OK\r\n");
      break;
    case Verb::kVersion:
      AppendLiteral(tx_, "VERSION pamakv-0.2\r\n");
      break;
    case Verb::kBgsave:
      AppendLiteral(tx_, service_->TriggerSnapshot()
                             ? "OK\r\n"
                             : "SERVER_ERROR persistence disabled\r\n");
      break;
    default:  // quit
      closing_ = true;
      break;
  }
  if (start_ns >= 0) ObserveVerb(barrier_.verb, start_ns);
}

void Connection::OnBatchProgress() {
  if (batch_.waiting != 0) {
    // Groups are still parked: send the replies that became ready. A
    // closed connection waits silently for the last read.
    if (close_deferred) return;
    SequenceReady();
    if (on_batch_done_) on_batch_done_();
    return;
  }
  batch_in_flight_ = false;
  if (close_deferred) {
    // The serving loop already tore down the socket registration; the
    // replies can never be flushed, but the ops that executed still must
    // reach the verb histograms. The barrier that ended the batch never
    // runs — its client is gone. Then hand control back so the loop can
    // finalize the close. `done` is a copy — the callback destroys this
    // connection.
    barrier_.pending = false;
    FinishBatch();
    if (on_batch_done_) {
      const std::function<void()> done = on_batch_done_;
      done();
    }
    return;
  }
  FinishBatch();
  if (!closing_) Process();
  if (!batch_in_flight_) ReleaseConsumed();
  if (on_batch_done_) {
    const std::function<void()> done = on_batch_done_;  // may destroy *this
    done();
  }
}

void Connection::ObserveVerb(Verb verb, std::int64_t start_ns) noexcept {
  util::Histogram* h =
      metrics_->service_us[static_cast<std::size_t>(verb)];
  if (h == nullptr) return;
  const std::int64_t elapsed = metrics_->clock->NowNanos() - start_ns;
  h->Observe(static_cast<double>(elapsed) / 1000.0);
}

IoStatus Connection::OnReadable() {
  while (true) {
    if (pause_threshold_ != 0 && tx_backlog() >= pause_threshold_) {
      // Slow reader: leave the rest in the kernel buffer; the loop will
      // pause EPOLLIN and resume once the backlog drains.
      return IoStatus::kOk;
    }
    char chunk[kReadChunk];
    const ssize_t n = sys::Read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      if (!Ingest(chunk, static_cast<std::size_t>(n))) return IoStatus::kClosed;
      if (static_cast<std::size_t>(n) < sizeof chunk) return IoStatus::kOk;
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    if (errno == EINTR) continue;
    return IoStatus::kClosed;
  }
}

IoStatus Connection::FlushOutput() {
  while (wants_write()) {
    // sys::Write sends with MSG_NOSIGNAL: a peer that reset mid-response
    // yields EPIPE (-> kClosed below) instead of a process-wide SIGPIPE.
    const ssize_t n =
        sys::Write(fd_, tx_.data() + tx_head_, tx_.size() - tx_head_);
    if (n > 0) {
      ConsumeOutput(static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    if (errno == EINTR) continue;
    return IoStatus::kClosed;
  }
  return IoStatus::kOk;
}

}  // namespace pamakv::net
