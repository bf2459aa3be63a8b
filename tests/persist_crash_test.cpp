// The kill-anywhere crash matrix: a real pamakv-server process with a
// failpoint-scheduled `kill -9` at every persistence seam (persist.open /
// write / fsync / rename / dirfsync), a real TCP client tracking which
// writes were acknowledged, then recovery of the same data directory
// in-process and reconciliation:
//
//   * --persist-fsync=always  => zero acknowledged writes lost, exact
//     value for every acked key;
//   * every mode              => recovery succeeds (full or tail-
//     truncated) and nothing recovered is garbage.
//
// The matrix tests need a failpoints build (cmake --preset chaos); they
// skip cleanly elsewhere. The SIGTERM-drain and clean-startup-error
// tests only need the server binary, so they run in the default build
// too. PAMAKV_CRASH_SEED varies the kill schedule and workload — CI runs
// three seeds.

#include <gtest/gtest.h>

#include <csignal>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/client.hpp"
#include "pamakv/persist/format.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/sim/experiment.hpp"

#ifndef PAMAKV_SERVER_BINARY
#define PAMAKV_SERVER_BINARY ""
#endif
#ifndef PAMAKV_LOADGEN_BINARY
#define PAMAKV_LOADGEN_BINARY ""
#endif

namespace pamakv::persist {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pamakv-crash-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// One pamakv-server child process. Stderr goes to a file so startup
/// errors can be asserted on; the bound port arrives via --port-file.
class ServerProc {
 public:
  ~ServerProc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// Spawns the server. `failpoints_cfg` (may be empty) lands in
  /// PAMAKV_FAILPOINTS_CFG. Does not wait for the port.
  void Spawn(const std::string& work_dir,
             const std::vector<std::string>& extra_args,
             const std::string& failpoints_cfg) {
    port_file_ = work_dir + "/.port";
    err_file_ = work_dir + "/.stderr";
    ::unlink(port_file_.c_str());
    std::vector<std::string> args = {
        PAMAKV_SERVER_BINARY, "--port=0",     "--port-file=" + port_file_,
        "--shards=2",         "--threads=1",  "--capacity-mb=8",
        "--drain-ms=3000",
    };
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    pid_ = ::fork();
    ASSERT_GE(pid_, 0) << "fork failed";
    if (pid_ == 0) {
      if (!failpoints_cfg.empty()) {
        ::setenv("PAMAKV_FAILPOINTS_CFG", failpoints_cfg.c_str(), 1);
      }
      const int err_fd =
          ::open(err_file_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err_fd >= 0) {
        ::dup2(err_fd, STDERR_FILENO);
        ::close(err_fd);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  /// Waits for the port file (true) or early process death (false).
  bool WaitForPort() {
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream f(port_file_);
      int port = 0;
      if (f >> port && port > 0) {
        port_ = static_cast<std::uint16_t>(port);
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        status_ = status;
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(2ms);
    }
    return false;
  }

  /// Blocks until the child exits; returns the raw wait status.
  int Wait() {
    if (pid_ < 0) return status_;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    status_ = status;
    pid_ = -1;
    return status;
  }

  /// Waits up to `limit` for the child to exit on its own. True (and the
  /// status is saved) when it did; false when it is still running.
  bool WaitForExit(std::chrono::milliseconds limit) {
    if (pid_ < 0) return true;
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        status_ = status;
        pid_ = -1;
        return true;
      }
      std::this_thread::sleep_for(5ms);
    }
    return false;
  }

  void Signal(int sig) const { ::kill(pid_, sig); }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::string Stderr() const {
    std::ifstream f(err_file_);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  std::uint16_t port_ = 0;
  std::string port_file_;
  std::string err_file_;
};

/// In-process recovery of a crashed server's data dir with the same
/// topology the server ran (2 shards, 8 MiB, pama).
struct Recovered {
  std::unique_ptr<net::CacheService> service;
  std::unique_ptr<Persister> persister;
  RecoveryReport report;
};

Recovered RecoverDir(const std::string& dir) {
  Recovered r;
  net::CacheServiceConfig cfg;
  cfg.shards = 2;
  cfg.capacity_bytes = 8ULL * 1024 * 1024;
  r.service = std::make_unique<net::CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  PersistConfig pcfg;
  pcfg.data_dir = dir;
  r.persister = std::make_unique<Persister>(*r.service, pcfg);
  r.report = r.persister->Recover();
  return r;
}

/// Wire-block lookup: "" on miss, the full VALUE block on hit.
std::string GetBlock(net::CacheService& service, const std::string& key) {
  std::vector<char> out;
  if (!service.Get(key, out, /*with_cas=*/false)) return "";
  return std::string(out.data(), out.size());
}

TEST(CrashMatrixEnvTest, ServerBinaryIsWired) {
  ASSERT_STRNE(PAMAKV_SERVER_BINARY, "");
  ASSERT_TRUE(fs::exists(PAMAKV_SERVER_BINARY))
      << PAMAKV_SERVER_BINARY << " not built";
}

#if PAMAKV_FAILPOINTS

std::uint64_t CrashSeed() {
  if (const char* env = std::getenv("PAMAKV_CRASH_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 1;
}

bool IsKilledBySigkill(int status) {
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

struct MatrixEntry {
  const char* seam;    ///< failpoint name
  std::uint64_t nth;   ///< kill on every nth evaluation
  const char* fsync;   ///< --persist-fsync value
  bool via_bgsave;     ///< seam only fires on the snapshot path
};

/// Runs one matrix entry: spawn, write until the kill lands, reconcile.
void RunEntry(const MatrixEntry& entry, std::uint64_t seed) {
  SCOPED_TRACE(std::string("seam=") + entry.seam +
               " nth=" + std::to_string(entry.nth) + " fsync=" + entry.fsync +
               " seed=" + std::to_string(seed));
  TempDir dir;
  ServerProc server;
  const std::string cfg =
      std::string(entry.seam) + "=kill@nth:" + std::to_string(entry.nth);
  server.Spawn(dir.path(),
               {"--data-dir=" + dir.path(),
                std::string("--persist-fsync=") + entry.fsync},
               cfg);

  std::map<std::string, std::string> acked;
  if (server.WaitForPort()) {
    net::BlockingClient client;
    try {
      client.Connect("127.0.0.1", server.port());
      for (int i = 0; i < 600; ++i) {
        const std::string key =
            "crash:" + std::to_string(seed) + ":" + std::to_string(i);
        const std::string value =
            "payload-" + std::to_string(seed * 1'000 + i) + "-" +
            std::string(20 + (i * 7) % 80, 'p');
        if (entry.via_bgsave && i > 0 && i % 25 == 0) {
          client.SendRaw("bgsave\r\n");
          (void)client.ReadLine();
        }
        if (client.Set(key, 1'000 + (i % 5) * 500, value)) {
          acked[key] = value;
        }
      }
    } catch (const std::exception&) {
      // The kill landed mid-conversation; that is the point.
    }
  }
  // The server must die, and die by SIGKILL from inside the seam — not by
  // a crash of its own (SIGSEGV/SIGABRT would fail here). Under
  // interval-mode group commit the kill lands on the background flusher a
  // beat after the last op, hence the bounded wait.
  ASSERT_TRUE(server.WaitForExit(15s))
      << "the scheduled kill never fired; is the seam dead?";
  const int status = server.Wait();
  ASSERT_TRUE(IsKilledBySigkill(status))
      << "server did not die by the scheduled SIGKILL; status=" << status
      << " stderr:\n"
      << server.Stderr();

  // Restart-and-reconcile. Recovery must succeed for every mode (full or
  // tail-truncated — never a crash, never refusal for a mere torn tail).
  Recovered r;
  ASSERT_NO_THROW(r = RecoverDir(dir.path()));

  const bool zero_loss = std::string(entry.fsync) == "always";
  for (const auto& [key, value] : acked) {
    const std::string block = GetBlock(*r.service, key);
    if (zero_loss) {
      // fsync=always: the reply was only sent after fdatasync returned,
      // so every acknowledged write must have survived the kill.
      ASSERT_NE(block, "") << "acked write lost under fsync=always: " << key;
    }
    if (!block.empty()) {
      // Whatever mode: a recovered key must carry the exact acked value.
      EXPECT_NE(block.find(value), std::string::npos)
          << "recovered garbage for " << key;
    }
  }
  // And the recovered cache serves.
  std::vector<char> out;
  EXPECT_TRUE(r.service->Set("post-recovery", 0, "works"));
}

TEST(CrashMatrixTest, KillAtEverySeamUnderFsyncAlways) {
  const std::uint64_t seed = CrashSeed();
  // nth offsets shift with the seed so three CI seeds kill at different
  // points of the conversation (startup, early, mid-stream).
  const std::vector<MatrixEntry> matrix = {
      // WAL data path: every op commits, so write/fsync evaluate per set.
      {"persist.write", 3 + seed % 7, "always", false},
      {"persist.fsync", 4 + seed % 9, "always", false},
      // Snapshot path: open fires at WAL-roll + tmp-file open (the first
      // two evaluations are the startup WAL opens), rename/dirfsync only
      // during snapshot publication.
      {"persist.open", 3 + seed % 3, "always", true},
      {"persist.rename", 1 + seed % 2, "always", true},
      {"persist.dirfsync", 1 + seed % 2, "always", true},
  };
  for (const MatrixEntry& entry : matrix) RunEntry(entry, CrashSeed());
}

TEST(CrashMatrixTest, KillDuringStartupRecovery) {
  // nth:1 kills the very first persist.open — the shard-0 WAL open inside
  // Recover(), before the server ever listens. The next start must cope
  // with whatever half-born state that leaves.
  RunEntry({"persist.open", 1, "always", false}, CrashSeed());
}

TEST(CrashMatrixTest, GroupCommitModesRecoverAfterKill) {
  const std::uint64_t seed = CrashSeed();
  RunEntry({"persist.write", 5 + seed % 11, "interval:25", false}, seed);
  RunEntry({"persist.write", 5 + seed % 11, "never", false}, seed);
  RunEntry({"persist.fsync", 2 + seed % 3, "interval:25", true}, seed);
}

#endif  // PAMAKV_FAILPOINTS

// ---- SIGTERM drain: the farewell snapshot (default build too) ----

TEST(ServerLifecycleTest, SigtermDrainTakesFinalSnapshot) {
  TempDir dir;
  ServerProc server;
  server.Spawn(dir.path(),
               {"--data-dir=" + dir.path(), "--persist-fsync=interval:100"},
               "");
  ASSERT_TRUE(server.WaitForPort()) << server.Stderr();

  net::BlockingClient client;
  client.Connect("127.0.0.1", server.port());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Set("drain:" + std::to_string(i), 0,
                           "value-" + std::to_string(i)));
  }
  server.Signal(SIGTERM);
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status)) << server.Stderr();
  EXPECT_EQ(WEXITSTATUS(status), 0) << server.Stderr();

  // The drain wrote a snapshot, so the warm start replays no log tail.
  bool snapshot_seen = false;
  for (const auto& ent : fs::directory_iterator(dir.path())) {
    DataFileName parsed;
    if (ParseDataFileName(ent.path().filename().string(), &parsed) &&
        parsed.kind == DataFileName::Kind::kSnapshot) {
      snapshot_seen = true;
    }
  }
  EXPECT_TRUE(snapshot_seen) << server.Stderr();

  Recovered r = RecoverDir(dir.path());
  EXPECT_GT(r.report.snapshots_loaded, 0u);
  EXPECT_EQ(r.report.wal_records_replayed, 0u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(GetBlock(*r.service, "drain:" + std::to_string(i)), "");
  }
}

// ---- clean startup errors from the real binaries ----

TEST(ServerLifecycleTest, MissingDataDirExitsNonzeroWithOneLine) {
  TempDir dir;
  ServerProc server;
  server.Spawn(dir.path(), {"--data-dir=" + dir.path() + "/does-not-exist"},
               "");
  EXPECT_FALSE(server.WaitForPort());
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string err = server.Stderr();
  EXPECT_NE(err.find("pamakv-server: --data-dir"), std::string::npos) << err;
}

TEST(ServerLifecycleTest, DataDirThatIsAFileExitsNonzero) {
  TempDir dir;
  const std::string file_path = dir.path() + "/plain-file";
  { std::ofstream(file_path) << "x"; }
  ServerProc server;
  server.Spawn(dir.path(), {"--data-dir=" + file_path}, "");
  EXPECT_FALSE(server.WaitForPort());
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_NE(server.Stderr().find("not a directory"), std::string::npos);
}

TEST(ServerLifecycleTest, FlagTypoExitsNonzeroWithOneLine) {
  TempDir dir;
  ServerProc server;
  server.Spawn(dir.path(), {"--persist-fsnc=always"}, "");
  EXPECT_FALSE(server.WaitForPort());
  const int status = server.Wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  const std::string err = server.Stderr();
  EXPECT_NE(err.find("unknown flag --persist-fsnc"), std::string::npos) << err;
}

TEST(ServerLifecycleTest, LoadgenFlagTypoIsACleanError) {
  if (std::string(PAMAKV_LOADGEN_BINARY).empty() ||
      !fs::exists(PAMAKV_LOADGEN_BINARY)) {
    GTEST_SKIP() << "loadgen binary not built";
  }
  TempDir dir;
  const std::string err_file = dir.path() + "/err";
  const std::string cmd = std::string(PAMAKV_LOADGEN_BINARY) +
                          " --conections=4 2>" + err_file;
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_NE(WEXITSTATUS(rc), 0);
  std::ifstream f(err_file);
  const std::string err((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(err.find("unknown flag --conections"), std::string::npos) << err;
}

// ---- warm restart end-to-end over the real binary ----

TEST(ServerLifecycleTest, WarmRestartServesYesterdaysKeys) {
  TempDir dir;
  {
    ServerProc server;
    server.Spawn(dir.path(),
                 {"--data-dir=" + dir.path(), "--persist-fsync=always"}, "");
    ASSERT_TRUE(server.WaitForPort()) << server.Stderr();
    net::BlockingClient client;
    client.Connect("127.0.0.1", server.port());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(client.Set("warm:" + std::to_string(i), 2'000,
                             "persisted-" + std::to_string(i)));
    }
    server.Signal(SIGTERM);
    const int status = server.Wait();
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << server.Stderr();
  }

  ServerProc reborn;
  reborn.Spawn(dir.path(),
               {"--data-dir=" + dir.path(), "--persist-fsync=always"}, "");
  ASSERT_TRUE(reborn.WaitForPort()) << reborn.Stderr();
  net::BlockingClient client;
  client.Connect("127.0.0.1", reborn.port());
  for (int i = 0; i < 30; ++i) {
    std::string value;
    ASSERT_TRUE(client.Get("warm:" + std::to_string(i), value))
        << "warm:" << i << " lost across restart";
    EXPECT_EQ(value, "persisted-" + std::to_string(i));
  }
  const auto stats = client.Stats();
  bool recovered_stat = false;
  for (const auto& [name, value] : stats) {
    if (name == "persist_recovered_items" && value == 30) {
      recovered_stat = true;
    }
  }
  EXPECT_TRUE(recovered_stat);
  reborn.Signal(SIGTERM);
  reborn.Wait();
}

}  // namespace
}  // namespace pamakv::persist
