// Persister: the process-wide persistence driver.
//
// Owns one WalWriter per shard and implements the service's MutationSink
// — every acknowledged mutation lands in the owning shard's log under
// that shard's lock, and the service calls Commit(shard) after releasing
// it, which is where --persist-fsync=always makes the record durable
// before the client sees the reply.
//
// Snapshots (background via TriggerSnapshot/bgsave, foreground via
// SnapshotNow for SIGTERM drain and tests) follow the classic protocol:
// roll the shard's WAL generation under the shard lock (exact covered-
// sequence boundary), stream the capture into shard<i>.snap.tmp in
// bounded batches, fsync, rename to shard<i>-<seq>.snap, fsync the
// directory, then delete the files the new snapshot supersedes.
//
// Degradation: a WAL write/fsync error disables persistence process-wide
// (one stderr line + the persist_enabled stat flips to 0) while the
// cache keeps serving. A failed snapshot only counts persist_snapshots_
// failed — the log is still intact, so durability is not lost.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pamakv/persist/records.hpp"
#include "pamakv/persist/recovery.hpp"
#include "pamakv/persist/wal.hpp"

namespace pamakv::net {
class CacheService;
}

namespace pamakv::persist {

enum class FsyncMode : std::uint8_t {
  kAlways,    ///< fdatasync before every reply (zero acked-write loss)
  kInterval,  ///< group commit: a background fsync every N ms
  kNever,     ///< flush to the kernel per op, never fsync
};

/// Parses a --persist-fsync spec: "always" | "never" | "interval:<ms>".
/// Throws std::runtime_error with a clean one-line message otherwise.
[[nodiscard]] FsyncMode ParseFsyncSpec(std::string_view spec,
                                       std::int64_t* interval_ms);

struct PersistConfig {
  std::string data_dir;
  FsyncMode fsync_mode = FsyncMode::kInterval;
  std::int64_t fsync_interval_ms = 100;
  /// Keys serialized per shard-lock hold while snapshotting.
  std::size_t snapshot_batch = 512;
};

class Persister : public MutationSink {
 public:
  /// Does not touch the filesystem; call Recover() next.
  Persister(net::CacheService& service, PersistConfig config);
  ~Persister() override;

  Persister(const Persister&) = delete;
  Persister& operator=(const Persister&) = delete;

  /// Validates the data directory (must exist, be a directory, and be
  /// writable), then, one shard after another, opens the shard's next WAL
  /// generation and restores it into the service (RestoreShard, which
  /// also replays the shard's flash segments when a tier is attached).
  /// Throws CorruptionError for damaged files (clean refusal) and
  /// std::runtime_error for a bad directory — both carry a one-line
  /// message the server prints before exiting nonzero. On success
  /// persistence is enabled; call Start() to run the background
  /// committer.
  RecoveryReport Recover();

  /// Starts the background thread (interval group-commit + async
  /// snapshot requests). Idempotent.
  void Start();

  /// Final durable commit + thread join. Safe to call more than once.
  void Stop();

  /// Takes a full snapshot on the calling thread (all shards), serialized
  /// against concurrent snapshots. `deadline_mono_ns` != 0 bounds the
  /// work (SIGTERM's --drain-ms budget): a shard that cannot finish in
  /// time is abandoned — its rolled WAL still covers everything, so
  /// nothing is lost. Returns true when every shard snapshotted.
  bool SnapshotNow(std::int64_t deadline_mono_ns = 0);

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const RecoveryReport& recovery_report() const noexcept {
    return recovery_;
  }

  // MutationSink (On* under the owning shard's lock).
  void OnStore(std::size_t shard, const WalStore& rec) override;
  void OnDelete(std::size_t shard, std::string_view key) override;
  void OnTouch(std::size_t shard, std::string_view key,
               std::int64_t expire_unix_ns,
               std::int64_t stored_unix_ns) override;
  void OnFlush(std::size_t shard, std::int64_t cutover_unix_ns) override;
  void Commit(std::size_t shard) override;
  bool TriggerSnapshot() override;
  void AppendStats(std::vector<char>& out) const override;

 private:
  void BgLoop();
  bool SnapshotShard(std::size_t shard, std::int64_t deadline_mono_ns);
  /// Deletes snapshots/generations the snapshot just written supersedes.
  void CleanupShardFiles(std::size_t shard, std::uint64_t covered_seq,
                         std::uint64_t current_gen);
  /// Latches the WAL failure process-wide: persistence off, one stderr
  /// line, persist_errors bumped. The cache keeps serving.
  void Disable(const char* what, int err);
  /// After any WAL call: disable if the writer latched a failure.
  void CheckWal(std::size_t shard);

  net::CacheService& service_;
  const PersistConfig config_;
  std::vector<std::unique_ptr<WalWriter>> wals_;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> snapshot_requested_{false};
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  std::thread bg_;
  std::mutex snapshot_mu_;  ///< serializes whole-process snapshots

  RecoveryReport recovery_;
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<std::uint64_t> snapshots_failed_{0};
  std::atomic<std::uint64_t> persist_errors_{0};
};

}  // namespace pamakv::persist
