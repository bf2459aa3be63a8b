#include "pamakv/persist/persister.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/persist/format.hpp"
#include "pamakv/persist/io.hpp"

namespace pamakv::persist {

namespace {
/// Snapshot frames are streamed to the fd once the buffer crosses this.
constexpr std::size_t kSnapFlushThreshold = 256 * 1024;
}  // namespace

FsyncMode ParseFsyncSpec(std::string_view spec, std::int64_t* interval_ms) {
  if (spec == "always") return FsyncMode::kAlways;
  if (spec == "never") return FsyncMode::kNever;
  constexpr std::string_view kPrefix = "interval:";
  if (spec.substr(0, kPrefix.size()) == kPrefix) {
    const std::string ms(spec.substr(kPrefix.size()));
    char* end = nullptr;
    const long long v = std::strtoll(ms.c_str(), &end, 10);
    if (!ms.empty() && end != nullptr && *end == '\0' && v >= 1 &&
        v <= 3'600'000) {
      *interval_ms = v;
      return FsyncMode::kInterval;
    }
  }
  throw std::runtime_error(
      "--persist-fsync: expected always, never, or interval:<ms> (1..3600000), "
      "got '" +
      std::string(spec) + "'");
}

Persister::Persister(net::CacheService& service, PersistConfig config)
    : service_(service), config_(std::move(config)) {}

Persister::~Persister() { Stop(); }

RecoveryReport Persister::Recover() {
  const std::string& dir = config_.data_dir;
  struct stat sb;
  if (::stat(dir.c_str(), &sb) != 0) {
    throw std::runtime_error("--data-dir " + dir + ": " +
                             std::strerror(errno));
  }
  if (!S_ISDIR(sb.st_mode)) {
    throw std::runtime_error("--data-dir " + dir + ": not a directory");
  }
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    throw std::runtime_error("--data-dir " + dir + ": not writable");
  }
  const std::size_t shards = service_.shard_count();
  const int max_shard = MaxShardInDir(dir);
  if (max_shard >= 0 && static_cast<std::size_t>(max_shard) >= shards) {
    throw CorruptionError(
        dir + ": holds data for shard " + std::to_string(max_shard) +
        " but the server runs " + std::to_string(shards) +
        " shards (key routing would change; refusing)");
  }

  const std::int64_t now_unix_ns = service_.NowNs();
  RecoveryReport report;
  wals_.clear();
  wals_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    ShardRestoreState st =
        RecoverShardState(dir, i, shards, now_unix_ns, &report);
    auto wal = std::make_unique<WalWriter>(dir, i);
    if (!wal->Open(st.next_gen, st.next_seq)) {
      throw std::runtime_error(dir + "/" + WalFileName(i, st.next_gen) +
                               ": cannot open write-ahead log: " +
                               std::strerror(wal->last_errno()));
    }
    wals_.push_back(std::move(wal));
    service_.RestoreShard(i, std::move(st));
  }
  recovery_ = report;
  enabled_.store(true, std::memory_order_release);
  return report;
}

void Persister::Start() {
  std::lock_guard<std::mutex> lock(bg_mu_);
  if (bg_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  bg_ = std::thread([this] { BgLoop(); });
}

void Persister::Stop() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  bg_cv_.notify_all();
  if (bg_.joinable()) bg_.join();
  // Clean shutdown is durable in every mode: commit + fsync what the
  // group-commit policy had not yet pushed out.
  if (enabled()) {
    for (std::size_t i = 0; i < wals_.size(); ++i) {
      wals_[i]->Commit(/*sync=*/true);
      CheckWal(i);
    }
  }
}

void Persister::BgLoop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  for (;;) {
    const auto wait =
        config_.fsync_mode == FsyncMode::kInterval
            ? std::chrono::milliseconds(config_.fsync_interval_ms)
            : std::chrono::milliseconds(500);
    bg_cv_.wait_for(lock, wait, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             snapshot_requested_.load(std::memory_order_relaxed);
    });
    if (stop_.load(std::memory_order_relaxed)) return;
    const bool snapshot = snapshot_requested_.exchange(false);
    lock.unlock();
    if (config_.fsync_mode == FsyncMode::kInterval && enabled()) {
      for (std::size_t i = 0; i < wals_.size(); ++i) {
        wals_[i]->Sync();
        CheckWal(i);
      }
    }
    if (snapshot && enabled()) SnapshotNow();
    lock.lock();
  }
}

void Persister::OnStore(std::size_t shard, const WalStore& rec) {
  if (!enabled()) return;
  if (wals_[shard]->AppendStore(rec) == 0) CheckWal(shard);
}

void Persister::OnDelete(std::size_t shard, std::string_view key) {
  if (!enabled()) return;
  if (wals_[shard]->AppendDelete(key) == 0) CheckWal(shard);
}

void Persister::OnTouch(std::size_t shard, std::string_view key,
                        std::int64_t expire_unix_ns,
                        std::int64_t stored_unix_ns) {
  if (!enabled()) return;
  if (wals_[shard]->AppendTouch(key, expire_unix_ns, stored_unix_ns) == 0) {
    CheckWal(shard);
  }
}

void Persister::OnFlush(std::size_t shard, std::int64_t cutover_unix_ns) {
  if (!enabled()) return;
  if (wals_[shard]->AppendFlush(cutover_unix_ns) == 0) CheckWal(shard);
}

void Persister::Commit(std::size_t shard) {
  if (!enabled()) return;
  wals_[shard]->Commit(config_.fsync_mode == FsyncMode::kAlways);
  CheckWal(shard);
}

bool Persister::TriggerSnapshot() {
  if (!enabled()) return false;
  snapshot_requested_.store(true, std::memory_order_relaxed);
  bg_cv_.notify_all();
  return true;
}

void Persister::CheckWal(std::size_t shard) {
  WalWriter& wal = *wals_[shard];
  if (wal.failed()) Disable(wal.failed_op().c_str(), wal.last_errno());
}

void Persister::Disable(const char* what, int err) {
  bool expected = true;
  if (!enabled_.compare_exchange_strong(expected, false)) return;
  persist_errors_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "pamakv: persistence disabled after %s error (%s); the cache "
               "keeps serving without durability\n",
               what, std::strerror(err));
}

bool Persister::SnapshotNow(std::int64_t deadline_ns) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (!enabled()) return false;
  bool all_ok = true;
  for (std::size_t i = 0; i < wals_.size(); ++i) {
    if (!enabled()) return false;
    if (!SnapshotShard(i, deadline_ns)) all_ok = false;
  }
  return all_ok;
}

bool Persister::SnapshotShard(std::size_t shard,
                              std::int64_t deadline_ns) {
  // Roll the WAL generation under the shard lock: everything at or below
  // covered_seq is in now-closed (and fsynced) generations; everything
  // after lands in the fresh one and will replay over this snapshot.
  std::uint64_t covered_seq = 0;
  bool rolled = false;
  const ShardCaptureMeta meta = service_.CapturePersistMeta(
      shard, [&] { rolled = wals_[shard]->RollForSnapshot(&covered_seq); });
  if (!rolled) {
    CheckWal(shard);
    snapshots_failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const std::string tmp_path =
      config_.data_dir + "/shard" + std::to_string(shard) + ".snap.tmp";
  const int fd = io::Open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    snapshots_failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::vector<char> buf;
  std::vector<char> payload;
  const auto frame = [&](const std::vector<char>& p) {
    AppendFrame(buf, std::string_view(p.data(), p.size()));
  };

  SnapHeader header;
  header.shard = static_cast<std::uint32_t>(shard);
  header.shard_count = static_cast<std::uint32_t>(service_.shard_count());
  header.num_classes = meta.num_classes;
  header.num_bands = meta.num_bands;
  header.wal_seq = covered_seq;
  header.cas_counter = meta.cas_counter;
  header.flush_at_unix_ns = meta.flush_at_unix_ns;
  header.flush_seq = meta.flush_seq;
  header.captured_unix_ns = service_.NowNs();
  payload.clear();
  EncodeSnapHeader(payload, header);
  frame(payload);
  payload.clear();
  EncodeSnapLayout(payload, meta.slab_counts);
  frame(payload);
  for (std::size_t i = 0; i < meta.ghosts.size(); ++i) {
    if (meta.ghosts[i].empty()) continue;
    payload.clear();
    EncodeSnapGhosts(payload, static_cast<std::uint32_t>(i), meta.ghosts[i]);
    frame(payload);
  }

  bool failed = false;
  std::uint64_t item_count = 0;
  std::vector<SnapItem> items;
  std::size_t start = 0;
  for (;;) {
    if (deadline_ns != 0 && service_.NowNs() > deadline_ns) {
      // Drain budget exhausted: abandon this snapshot. The rolled WAL
      // generations still hold everything, so no data is at risk.
      failed = true;
      break;
    }
    items.clear();
    const std::size_t consumed = service_.CaptureItems(
        shard, meta.keys, start, config_.snapshot_batch, items);
    if (consumed == 0) break;
    start += consumed;
    for (const SnapItem& item : items) {
      payload.clear();
      EncodeSnapItem(payload, item);
      frame(payload);
      ++item_count;
    }
    if (buf.size() >= kSnapFlushThreshold) {
      if (!io::WriteAll(fd, buf.data(), buf.size())) {
        failed = true;
        break;
      }
      buf.clear();
    }
  }
  if (!failed) {
    payload.clear();
    EncodeSnapFooter(payload, SnapFooter{item_count});
    frame(payload);
    if (!io::WriteAll(fd, buf.data(), buf.size()) || io::Fdatasync(fd) != 0) {
      failed = true;
    }
  }
  ::close(fd);
  if (failed) {
    ::unlink(tmp_path.c_str());
    snapshots_failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const std::string final_path =
      config_.data_dir + "/" + SnapshotFileName(shard, covered_seq);
  if (io::Rename(tmp_path.c_str(), final_path.c_str()) != 0 ||
      io::DirFsync(config_.data_dir.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    snapshots_failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  CleanupShardFiles(shard, covered_seq, wals_[shard]->gen());
  return true;
}

void Persister::CleanupShardFiles(std::size_t shard,
                                  std::uint64_t covered_seq,
                                  std::uint64_t current_gen) {
  // Only now — with the new snapshot durable and linked — do the files
  // it supersedes go away: older snapshots, and every closed generation
  // (all of whose records are <= covered_seq by construction of the roll).
  DIR* d = ::opendir(config_.data_dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (dirent* ent = ::readdir(d)) {
    DataFileName parsed;
    if (!ParseDataFileName(ent->d_name, &parsed)) continue;
    if (parsed.shard != shard) continue;
    const bool old_snap = parsed.kind == DataFileName::Kind::kSnapshot &&
                          parsed.number < covered_seq;
    const bool old_gen =
        parsed.kind == DataFileName::Kind::kWal && parsed.number < current_gen;
    if (old_snap || old_gen) doomed.emplace_back(ent->d_name);
  }
  ::closedir(d);
  for (const std::string& name : doomed) {
    ::unlink((config_.data_dir + "/" + name).c_str());
  }
  if (!doomed.empty()) io::DirFsync(config_.data_dir.c_str());
}

void Persister::AppendStats(std::vector<char>& out) const {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fsyncs = 0;
  for (const auto& wal : wals_) {
    records += wal->records();
    bytes += wal->bytes();
    fsyncs += wal->fsyncs();
  }
  net::AppendStat(out, "persist_enabled", enabled() ? 1 : 0);
  net::AppendStat(out, "persist_wal_records", records);
  net::AppendStat(out, "persist_wal_bytes", bytes);
  net::AppendStat(out, "persist_fsyncs", fsyncs);
  net::AppendStat(out, "persist_snapshots",
                  snapshots_.load(std::memory_order_relaxed));
  net::AppendStat(out, "persist_snapshots_failed",
                  snapshots_failed_.load(std::memory_order_relaxed));
  net::AppendStat(out, "persist_errors",
                  persist_errors_.load(std::memory_order_relaxed));
  net::AppendStat(out, "persist_recovered_items", recovery_.items_recovered);
  net::AppendStat(out, "persist_replayed_records",
                  recovery_.wal_records_replayed);
  net::AppendStat(out, "persist_tail_truncations",
                  recovery_.wal_tails_truncated);
  net::AppendStat(out, "persist_snapshots_skipped",
                  recovery_.snapshots_skipped);
}

}  // namespace pamakv::persist
