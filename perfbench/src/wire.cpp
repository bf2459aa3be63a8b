// perfbench-wire: drives a running pamakv-server over loopback TCP through
// one workload phase and prints one JSON line of raw measurements.
//
//   perfbench-wire --workload=etc-churn --seed=1 --keys=0 --warmup=150000
//                  --requests=600000 --port-file=run/port --server-pid=123
//                  --phase=run
//
// Phases: `load` sets every key of the population (durable-flash's
// unmeasured preload server); `setup` runs the workload's set-up (preload
// or warm-up) and reports when it finished; `run` runs set-up and then the
// measured phase. Every reply is checked: a hit must carry the key's
// self-describing payload and its penalty in `flags`; ERROR, CLIENT_ERROR,
// SERVER_ERROR, a wrong payload, or a request lost with its connection is
// a failed op. NOT_STORED is PAMA refusing a store, not a failure.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>
#include <thread>

#include "pamakv/util/arg_parser.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The connection is gone or the reply stream is out of step: the rest
/// of the round is lost.
struct Lost : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One client connection with its own receive buffer. Send never blocks
/// while the server is blocked on us: it drains replies into the buffer
/// whenever the socket is not writable.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void Connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd_ < 0) throw std::system_error(errno, std::generic_category(), "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
        errno != EINPROGRESS) {
      throw std::system_error(errno, std::generic_category(), "connect");
    }
    Wait(POLLOUT);
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) throw std::system_error(err, std::generic_category(), "connect");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  void Send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n > 0) {
        data.remove_prefix(static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        if (Wait(POLLOUT | POLLIN) & POLLIN) Fill();
      } else {
        throw Lost("send failed");
      }
    }
  }

  /// The next reply line without its CRLF. Valid until the next call.
  std::string_view Line() {
    for (;;) {
      const char* begin = buf_.data() + head_;
      const std::size_t avail = tail_ - head_;
      const auto* nl = static_cast<const char*>(
          std::memchr(begin + scanned_, '\n', avail - scanned_));
      if (nl != nullptr) {
        const std::size_t len = static_cast<std::size_t>(nl - begin);
        if (len == 0 || begin[len - 1] != '\r') throw Lost("bare LF in reply");
        head_ += len + 1;
        scanned_ = 0;
        return {begin, len - 1};
      }
      scanned_ = avail;
      if (avail > 64 * 1024) throw Lost("reply line too long");
      Fill();
    }
  }

  /// The next `n` bytes. Valid until the next call.
  std::string_view Bytes(std::size_t n) {
    while (tail_ - head_ < n) Fill();
    const char* begin = buf_.data() + head_;
    head_ += n;
    scanned_ = 0;
    return {begin, n};
  }

 private:
  short Wait(short events) {
    pollfd p{fd_, events, 0};
    for (;;) {
      const int r = ::poll(&p, 1, 30'000);
      if (r > 0) return p.revents;
      if (r == 0) throw Lost("no reply for 30 s");
      if (errno != EINTR) throw Lost("poll failed");
    }
  }

  void Fill() {
    if (head_ == tail_) {
      head_ = tail_ = 0;
    } else if (head_ > 0 && tail_ + 64 * 1024 > buf_.size()) {
      std::memmove(buf_.data(), buf_.data() + head_, tail_ - head_);
      tail_ -= head_;
      head_ = 0;
    }
    if (buf_.size() < tail_ + 64 * 1024) buf_.resize(tail_ + 64 * 1024);
    for (;;) {
      const ssize_t n = ::recv(fd_, buf_.data() + tail_, buf_.size() - tail_, 0);
      if (n > 0) {
        tail_ += static_cast<std::size_t>(n);
        return;
      }
      if (n == 0) throw Lost("connection closed");
      if (errno == EAGAIN || errno == EINTR) {
        Wait(POLLIN);
        continue;
      }
      throw Lost("recv failed");
    }
  }

  int fd_ = -1;
  std::vector<char> buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t scanned_ = 0;  ///< bytes after head_ known to hold no LF
};

bool IsErrorReply(std::string_view line) {
  return line == "ERROR" || line.starts_with("CLIENT_ERROR") ||
         line.starts_with("SERVER_ERROR");
}

enum class Outcome : std::uint8_t {
  kHit,
  kMiss,
  kStored,
  kNotStored,
  kDeleted,
  kNotFound,
  kFailed,  ///< error reply or wrong payload
};

std::uint64_t ParseU64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) throw Lost("bad number in reply");
  return v;
}

/// Reads and checks the reply to `r`, sent under key name `name`.
Outcome ReadReply(Conn& conn, const Req& r, std::string_view name) {
  std::string_view line = conn.Line();
  if (IsErrorReply(line)) return Outcome::kFailed;
  switch (r.kind) {
    case Kind::kGet: {
      if (line == "END") return Outcome::kMiss;
      // VALUE <key> <flags> <bytes>
      if (!line.starts_with("VALUE ")) throw Lost("unexpected get reply");
      line.remove_prefix(6);
      const std::size_t a = line.find(' ');
      const std::size_t b = line.find(' ', a + 1);
      if (a == std::string_view::npos || b == std::string_view::npos) {
        throw Lost("short VALUE line");
      }
      const bool header_ok = line.substr(0, a) == name &&
                             ParseU64(line.substr(a + 1, b - a - 1)) == r.penalty_us;
      const std::uint64_t len = ParseU64(line.substr(b + 1));
      if (len > 2 * kMaxValueBytes) throw Lost("oversized VALUE");
      const std::string_view data = conn.Bytes(len + 2);
      if (data.substr(len) != "\r\n") throw Lost("VALUE data not CRLF-terminated");
      const bool ok = header_ok && PayloadMatches(name, r.size, data.substr(0, len));
      if (conn.Line() != "END") throw Lost("VALUE without END");
      return ok ? Outcome::kHit : Outcome::kFailed;
    }
    case Kind::kSet:
      if (line == "STORED") return Outcome::kStored;
      if (line == "NOT_STORED") return Outcome::kNotStored;
      throw Lost("unexpected set reply");
    case Kind::kDelete:
      if (line == "DELETED") return Outcome::kDeleted;
      if (line == "NOT_FOUND") return Outcome::kNotFound;
      throw Lost("unexpected delete reply");
  }
  throw Lost("unreachable");
}

void AppendRequest(const Req& r, std::string_view name, std::string& payload,
                   std::string& tx) {
  switch (r.kind) {
    case Kind::kGet:
      tx += "get ";
      tx += name;
      tx += "\r\n";
      return;
    case Kind::kDelete:
      tx += "delete ";
      tx += name;
      tx += "\r\n";
      return;
    case Kind::kSet:
      MakePayload(name, r.size, payload);
      tx += "set ";
      tx += name;
      tx += ' ';
      tx += std::to_string(r.penalty_us);
      tx += " 0 ";
      tx += std::to_string(r.size);
      tx += "\r\n";
      tx += payload;
      tx += "\r\n";
      return;
  }
}

/// One completed round: when it ended and how many latencies of each
/// series it added.
struct Round {
  std::int64_t end_ns = 0;
  std::uint32_t gets = 0, sets = 0, hits = 0;
};

/// What one connection saw in the measured phase. Latencies are kept in
/// request order; `rounds` maps them to the time their round ended.
struct Measure {
  std::vector<std::uint32_t> get_ns, set_ns;  ///< send-to-reply latency
  std::vector<std::uint32_t> hit_ns;          ///< the GETs that hit
  std::uint64_t gets = 0, hits = 0, sets = 0, not_stored = 0, deletes = 0;
  std::uint64_t miss_penalty_us = 0;  ///< Σ penalty of every missed key
  std::vector<Round> rounds;
  std::atomic<std::uint64_t>* completed = nullptr;  ///< read by the sampler
};

/// Every request of every phase.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost = 0;  ///< of failed: lost with the connection
};

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runs closed-loop rounds until the planner's phase ends. Returns false
/// when the connection was lost (the round's unanswered ops fail).
bool RunRounds(Conn& conn, const Shape& shape, RoundPlanner& planner,
               Tally& tally, Measure* m) {
  std::vector<Req> round;
  std::vector<std::string> names;
  std::string tx, payload;
  while (planner.NextRound(round)) {
    if (names.size() < round.size()) names.resize(round.size());
    tx.clear();
    for (std::size_t i = 0; i < round.size(); ++i) {
      KeyName(shape, round[i].key, names[i]);
      AppendRequest(round[i], names[i], payload, tx);
    }
    tally.attempted += round.size();
    std::size_t answered = 0;
    Round rec;
    if (m != nullptr) {
      rec.gets = static_cast<std::uint32_t>(m->get_ns.size());
      rec.sets = static_cast<std::uint32_t>(m->set_ns.size());
      rec.hits = static_cast<std::uint32_t>(m->hit_ns.size());
    }
    try {
      const std::int64_t sent = MonoNs();
      conn.Send(tx);
      for (; answered < round.size(); ++answered) {
        const Req& r = round[answered];
        const Outcome o = ReadReply(conn, r, names[answered]);
        const std::int64_t lat = MonoNs() - sent;
        if (o == Outcome::kFailed) ++tally.failed;
        if (o == Outcome::kMiss) planner.OnMiss(r);
        if (m == nullptr) continue;
        const auto lat32 = static_cast<std::uint32_t>(
            std::min<std::int64_t>(lat, UINT32_MAX));
        if (r.kind == Kind::kGet) {
          ++m->gets;
          m->get_ns.push_back(lat32);
          if (o == Outcome::kHit) {
            ++m->hits;
            m->hit_ns.push_back(lat32);
          } else {
            m->miss_penalty_us += r.penalty_us;
          }
        } else if (r.kind == Kind::kSet) {
          ++m->sets;
          m->set_ns.push_back(lat32);
          if (o == Outcome::kNotStored) ++m->not_stored;
        } else {
          ++m->deletes;
        }
      }
      if (m != nullptr) {
        rec.end_ns = MonoNs();
        rec.gets = static_cast<std::uint32_t>(m->get_ns.size()) - rec.gets;
        rec.sets = static_cast<std::uint32_t>(m->set_ns.size()) - rec.sets;
        rec.hits = static_cast<std::uint32_t>(m->hit_ns.size()) - rec.hits;
        m->rounds.push_back(rec);
        m->completed->fetch_add(round.size(), std::memory_order_relaxed);
      }
    } catch (const Lost& e) {
      std::cerr << "perfbench-wire: " << e.what() << "\n";
      tally.failed += round.size() - answered;
      tally.lost += round.size() - answered;
      return false;
    }
  }
  return true;
}

/// Sets keys [0, keys), kPreloadDepth per round.
bool Preload(Conn& conn, Workload w, std::uint64_t keys, Tally& tally) {
  const Shape& shape = ShapeOf(w);
  std::uint64_t next = 0;
  std::vector<Req> round;
  std::vector<std::string> names(kPreloadDepth);
  std::string tx, payload;
  while (next < keys) {
    round.clear();
    tx.clear();
    for (; next < keys && round.size() < kPreloadDepth; ++next) {
      round.push_back(PopulationReq(w, Kind::kSet, next));
      KeyName(shape, next, names[round.size() - 1]);
      AppendRequest(round.back(), names[round.size() - 1], payload, tx);
    }
    tally.attempted += round.size();
    std::size_t answered = 0;
    try {
      conn.Send(tx);
      for (; answered < round.size(); ++answered) {
        if (ReadReply(conn, round[answered], names[answered]) == Outcome::kFailed) {
          ++tally.failed;
        }
      }
    } catch (const Lost& e) {
      std::cerr << "perfbench-wire: preload: " << e.what() << "\n";
      tally.failed += round.size() - answered;
      tally.lost += round.size() - answered;
      return false;
    }
  }
  return true;
}

std::map<std::string, std::uint64_t> Stats(Conn& conn) {
  std::map<std::string, std::uint64_t> stats;
  conn.Send("stats\r\n");
  for (;;) {
    const std::string_view line = conn.Line();
    if (line == "END") return stats;
    if (!line.starts_with("STAT ")) throw Lost("unexpected stats line");
    const std::size_t sp = line.rfind(' ');
    stats[std::string(line.substr(5, sp - 5))] = ParseU64(line.substr(sp + 1));
  }
}

/// Server CPU seconds (utime + stime over all threads) from /proc.
double ServerCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)), {});
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, the 12th and 13th after it.
  std::istringstream rest(all.substr(all.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// A /proc/<pid>/status field in KiB (VmHWM, VmRSS).
double ServerStatusKiB(int pid, std::string_view field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with(field) && line.size() > field.size() &&
        line[field.size()] == ':') {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  return 0.0;
}

std::uint16_t WaitForPort(const std::string& port_file, int server_pid) {
  const std::int64_t deadline = MonoNs() + 120'000'000'000LL;
  while (MonoNs() < deadline) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0 && port < 65536) return static_cast<std::uint16_t>(port);
    if (server_pid > 0 && ::kill(server_pid, 0) != 0) {
      throw std::runtime_error("server exited before listening");
    }
    ::usleep(200);
  }
  throw std::runtime_error("server did not listen within 120 s");
}

/// Moves every thread of the processes `pids` onto CPU `cpu`. A thread
/// that exits meanwhile is skipped.
void MoveThreads(const std::vector<int>& pids, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  for (const int pid : pids) {
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid) + "/task", ec)) {
      const int tid = std::atoi(task.path().filename().c_str());
      ::sched_setaffinity(tid, sizeof set, &set);
    }
  }
}

/// Cuts the measured phase into intervals of kIntervalMs. At each
/// boundary it samples completed requests and the server's CPU time, so
/// every timing can be reported per interval. Every kIntervalsPerCpu
/// intervals it moves the client and the server, all threads, onto the
/// next CPU of `cpus`: how fast one CPU of a shared host runs shifts in
/// steps of up to ~20% that last seconds and differ between CPUs, so a run
/// that visits every CPU does not hang on the luck of one.
class IntervalSampler {
 public:
  static constexpr int kIntervalMs = 500;
  static constexpr std::size_t kIntervalsPerCpu = 4;

  IntervalSampler(int pid, const std::atomic<std::uint64_t>& completed,
                  std::vector<int> cpus)
      : pid_(pid), completed_(completed), cpus_(std::move(cpus)),
        thread_([this] { Loop(); }) {}
  ~IntervalSampler() { Stop(); }
  IntervalSampler(const IntervalSampler&) = delete;
  IntervalSampler& operator=(const IntervalSampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::vector<std::int64_t> Bounds() const {
    std::vector<std::int64_t> t;
    for (const Sample& s : samples_) t.push_back(s.t_ns);
    return t;
  }

  /// Per interval: kops/s, server CPU µs per request, the CPU it ran on.
  void Report(JsonObject& out) const {
    std::vector<double> kops, cpu, on;
    for (std::size_t i = 1; i < samples_.size(); ++i) {
      const Sample& a = samples_[i - 1];
      const Sample& b = samples_[i];
      const auto ops = static_cast<double>(b.ops - a.ops);
      kops.push_back(ops / (static_cast<double>(b.t_ns - a.t_ns) * 1e-9) / 1e3);
      cpu.push_back(ops > 0 ? (b.cpu_s - a.cpu_s) * 1e6 / ops : NAN);
      on.push_back(a.on_cpu);
    }
    out.Array("interval_kops", kops)
        .Array("interval_server_cpu_us_per_op", cpu)
        .Array("interval_on_cpu", on);
  }

 private:
  struct Sample {
    std::int64_t t_ns;
    double cpu_s;
    std::uint64_t ops;
    int on_cpu;  ///< where the interval starting here runs; -1 unmoved
  };
  void Take() {
    const std::size_t i = samples_.size();
    int on = samples_.empty() ? -1 : samples_.back().on_cpu;
    if (!cpus_.empty() && i % kIntervalsPerCpu == 0) {
      on = cpus_[(i / kIntervalsPerCpu) % cpus_.size()];
      MoveThreads({static_cast<int>(::getpid()), pid_}, on);
    }
    samples_.push_back(Sample{MonoNs(), ServerCpuSeconds(pid_), completed_.load(), on});
  }
  void Loop() {
    Take();
    while (!stop_.load()) {
      for (int i = 0; i < kIntervalMs / 10 && !stop_.load(); ++i) ::usleep(10'000);
      Take();
    }
  }

  int pid_;
  const std::atomic<std::uint64_t>& completed_;
  std::vector<int> cpus_;
  std::atomic<bool> stop_{false};
  std::vector<Sample> samples_;
  std::thread thread_;  ///< last: starts after the members it reads
};

/// Latency statistics per sampler interval, over the rounds that ended in
/// it; NaN where an interval has no sample.
void ReportIntervalLatency(const Measure& m, const std::vector<std::int64_t>& bounds,
                           JsonObject& out) {
  const std::size_t n = bounds.size() > 1 ? bounds.size() - 1 : 1;
  std::vector<std::vector<std::uint32_t>> get(n), set(n), hit(n);
  std::size_t g = 0, s = 0, h = 0, i = 0;
  for (const Round& r : m.rounds) {
    while (i + 1 < n && r.end_ns >= bounds[i + 1]) ++i;
    get[i].insert(get[i].end(), m.get_ns.begin() + g, m.get_ns.begin() + g + r.gets);
    set[i].insert(set[i].end(), m.set_ns.begin() + s, m.set_ns.begin() + s + r.sets);
    hit[i].insert(hit[i].end(), m.hit_ns.begin() + h, m.hit_ns.begin() + h + r.hits);
    g += r.gets;
    s += r.sets;
    h += r.hits;
  }
  const auto us = [](std::vector<std::uint32_t>& v, double q) {
    return v.empty() ? NAN : Quantile(v, q) / 1e3;
  };
  std::vector<double> get50, get90, set50, set90, hit_mean;
  for (std::size_t k = 0; k < n; ++k) {
    get50.push_back(us(get[k], 0.5));
    get90.push_back(us(get[k], 0.9));
    set50.push_back(us(set[k], 0.5));
    set90.push_back(us(set[k], 0.9));
    double sum = 0.0;
    for (const std::uint32_t v : hit[k]) sum += v;
    hit_mean.push_back(hit[k].empty() ? NAN : sum / static_cast<double>(hit[k].size()) / 1e3);
  }
  out.Array("interval_get_p50_us", get50)
      .Array("interval_get_p90_us", get90)
      .Array("interval_set_p50_us", set50)
      .Array("interval_set_p90_us", set90)
      .Array("interval_hit_mean_us", hit_mean);
}

int Main(int argc, char** argv) {
  pamakv::ArgParser args(argc, argv);
  args.Describe("workload", "hot-pipelined | etc-churn | durable-flash")
      .Describe("seed", "workload seed")
      .Describe("keys", "preloaded population (hot, flash)")
      .Describe("warmup", "etc-churn stream requests run before measuring")
      .Describe("requests", "measured stream requests")
      .Describe("port-file", "file the server writes its port to")
      .Describe("server-pid", "server process, for /proc CPU and memory")
      .Describe("cpus", "comma-separated CPUs the measured phase rotates over")
      .Describe("phase", "load | setup | run")
      .Describe("plant-bad-value",
                "self-test: after set-up, store one wrong byte under the "
                "hottest key, which the measured phase must catch");
  if (args.HelpRequested()) {
    args.PrintHelp(std::cout, "perfbench-wire", "benchmark TCP client");
    return 0;
  }
  args.RejectUnknown();
  const Workload w = ParseWorkload(args.GetString("workload", ""));
  const Shape& shape = ShapeOf(w);
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  const auto keys = static_cast<std::uint64_t>(args.GetInt("keys", 0));
  const auto warmup = static_cast<std::uint64_t>(args.GetInt("warmup", 0));
  const auto requests = static_cast<std::uint64_t>(args.GetInt("requests", 0));
  const int pid = static_cast<int>(args.GetInt("server-pid", 0));
  const std::string phase = args.GetString("phase", "run");
  std::vector<int> cpus;
  for (std::istringstream list(args.GetString("cpus", "")); list.good();) {
    std::string cpu;
    std::getline(list, cpu, ',');
    if (!cpu.empty()) cpus.push_back(std::stoi(cpu));
  }

  const std::uint16_t port = WaitForPort(args.GetString("port-file", ""), pid);
  Conn conn;
  conn.Connect(port);
  Tally tally;
  bool alive = true;

  JsonObject out;
  if (phase == "load") {
    alive = Preload(conn, w, keys, tally);
    out.Int("attempted", tally.attempted)
        .Int("failed", tally.failed)
        .Bool("alive", alive);
    std::cout << out.str() << "\n";
    return 0;
  }

  // ---- set-up ----
  RequestStream stream(w, seed, keys);
  RoundPlanner planner(stream, shape.depth, shape.write_allocate);
  if (w == Workload::kHotPipelined) {
    alive = Preload(conn, w, keys, tally);
  } else if (w == Workload::kEtcChurn) {
    planner.StartPhase(warmup);
    alive = RunRounds(conn, shape, planner, tally, nullptr);
  }
  if (phase == "setup" || !alive) {
    out.Int("t_setup_done_ns", static_cast<std::uint64_t>(MonoNs()))
        .Int("attempted", tally.attempted)
        .Int("failed", tally.failed)
        .Bool("alive", alive);
    std::cout << out.str() << "\n";
    return 0;
  }
  if (args.GetBool("plant-bad-value", false)) {
    Req r = PopulationReq(w, Kind::kSet, 0);
    std::string name, payload, tx;
    KeyName(shape, 0, name);
    AppendRequest(r, name, payload, tx);
    tx[tx.size() - 3] ^= 1;  // the payload's last byte
    conn.Send(tx);
    if (conn.Line() != "STORED") throw std::runtime_error("plant failed");
  }

  // ---- measured phase ----
  Conn control;
  control.Connect(port);
  const auto stats_before = Stats(control);
  Measure m;
  planner.StartPhase(requests);
  m.get_ns.reserve(requests + 1);
  std::atomic<std::uint64_t> completed{0};
  m.completed = &completed;
  const double cpu0 = ThreadCpuSeconds();
  const std::int64_t first_ns = MonoNs();
  IntervalSampler sampler(pid, completed, cpus);
  try {
    alive = RunRounds(conn, shape, planner, tally, &m);
  } catch (const std::exception& e) {
    std::cerr << "perfbench-wire: " << e.what() << "\n";
    alive = false;
  }
  const std::int64_t end_ns = MonoNs();
  sampler.Stop();
  const double cpu_s = ThreadCpuSeconds() - cpu0;
  const auto stats_after = Stats(control);

  // ---- report ----
  const std::uint64_t ops = m.gets + m.sets + m.deletes;
  const double wall_s = static_cast<double>(end_ns - first_ns) * 1e-9;
  out.Int("t_setup_done_ns", static_cast<std::uint64_t>(first_ns))
      .Bool("alive", alive)
      .Int("attempted", tally.attempted)
      .Int("failed", tally.failed)
      .Int("lost", tally.lost)
      .Int("ops", ops)
      .Int("gets", m.gets)
      .Int("hits", m.hits)
      .Int("sets", m.sets)
      .Int("not_stored", m.not_stored)
      .Int("deletes", m.deletes)
      .Num("wall_s", wall_s)
      .Num("whole_run_kops", static_cast<double>(ops) / wall_s / 1e3)
      .Int("get_samples", m.gets)
      .Int("set_samples", m.sets)
      .Int("miss_penalty_us_sum", m.miss_penalty_us)
      .Num("server_hwm_kib", ServerStatusKiB(pid, "VmHWM"))
      .Num("server_rss_kib", ServerStatusKiB(pid, "VmRSS"))
      .Num("client_cpu_util", wall_s > 0 ? cpu_s / wall_s : 0.0)
      .Str("stream_digest", std::to_string(planner.digest()))
      .Int("interval_ms", IntervalSampler::kIntervalMs);
  sampler.Report(out);
  ReportIntervalLatency(m, sampler.Bounds(), out);
  out.Counters("stats_before", stats_before)
      .Counters("stats_after", stats_after);
  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench-wire: " << e.what() << "\n";
    return 1;
  }
}
