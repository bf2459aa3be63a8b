#include "pamakv/persist/recovery.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "pamakv/cache/hash_index.hpp"
#include "pamakv/cache/string_keys.hpp"
#include "pamakv/persist/format.hpp"

namespace pamakv::persist {

namespace {

/// Replayed mutations order themselves far above any snapshot item's
/// engine access clock, so one sort key covers both populations.
constexpr std::uint64_t kReplayOrderBase = 1ULL << 62;

[[noreturn]] void ThrowCorrupt(const std::string& path, std::size_t offset,
                               const char* what) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s: %s at byte %zu", path.c_str(), what,
                offset);
  throw CorruptionError(buf);
}

/// The whole file, mapped once. Replay checks and parses it in place.
FileBytes LoadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error(path + ": cannot open for recovery");
  FileBytes bytes;
  const bool ok = MapWholeFile(fd, &bytes);
  ::close(fd);
  if (!ok) throw std::runtime_error(path + ": read error during recovery");
  return bytes;
}

struct ShardFiles {
  std::vector<std::uint64_t> snapshot_seqs;  ///< sorted descending
  std::vector<std::uint64_t> wal_gens;       ///< sorted ascending
};

ShardFiles ListShardFiles(const std::string& dir, std::size_t shard) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw std::runtime_error(dir + ": cannot list data directory");
  }
  ShardFiles files;
  while (dirent* ent = ::readdir(d)) {
    DataFileName parsed;
    if (!ParseDataFileName(ent->d_name, &parsed)) continue;
    if (parsed.shard != shard) continue;
    if (parsed.kind == DataFileName::Kind::kSnapshot) {
      files.snapshot_seqs.push_back(parsed.number);
    } else {
      files.wal_gens.push_back(parsed.number);
    }
  }
  ::closedir(d);
  std::sort(files.snapshot_seqs.rbegin(), files.snapshot_seqs.rend());
  std::sort(files.wal_gens.begin(), files.wal_gens.end());
  return files;
}

enum class SnapOutcome {
  kComplete,
  kTorn,  ///< unfinished write: no valid footer, nothing valid after
          ///< the break — unusable but not refusal-worthy
};

/// Parses one snapshot file into `st`, which keeps its bytes. Throws
/// CorruptionError for mid-file damage; returns kTorn for a file that
/// simply stops early.
SnapOutcome LoadSnapshot(const std::string& path, std::size_t shard,
                         std::size_t shard_count, ShardRestoreState* st,
                         SnapHeader* header) {
  st->files.push_back(LoadFile(path));
  FrameScanner scanner(st->files.back().view());
  bool have_header = false;
  bool have_footer = false;
  std::uint64_t item_count = 0;
  std::string_view payload;
  while (true) {
    const FrameScanner::Status status = scanner.Next(&payload);
    if (status == FrameScanner::Status::kEnd) break;
    if (status == FrameScanner::Status::kBad) {
      if (scanner.ValidFrameAfterBad()) {
        ThrowCorrupt(path, scanner.offset(), "corrupt snapshot frame");
      }
      return SnapOutcome::kTorn;
    }
    if (have_footer) {
      ThrowCorrupt(path, scanner.offset(), "records after snapshot footer");
    }
    const auto type = static_cast<RecordType>(
        static_cast<std::uint8_t>(payload[0]));
    switch (type) {
      case RecordType::kSnapHeader: {
        if (have_header || !DecodeSnapHeader(payload, header)) {
          ThrowCorrupt(path, scanner.offset(), "bad snapshot header");
        }
        if (header->shard != shard) {
          ThrowCorrupt(path, scanner.offset(), "snapshot names another shard");
        }
        if (header->shard_count != shard_count) {
          throw CorruptionError(
              path + ": snapshot was written with " +
              std::to_string(header->shard_count) + " shards, server runs " +
              std::to_string(shard_count) +
              " (key routing would change; refusing)");
        }
        have_header = true;
        break;
      }
      case RecordType::kSnapLayout:
        if (!have_header || !DecodeSnapLayout(payload, &st->slab_counts)) {
          ThrowCorrupt(path, scanner.offset(), "bad snapshot layout record");
        }
        break;
      case RecordType::kSnapGhosts: {
        std::uint32_t stack_index = 0;
        std::vector<GhostEntry> entries;
        if (!have_header || !DecodeSnapGhosts(payload, &stack_index, &entries)) {
          ThrowCorrupt(path, scanner.offset(), "bad snapshot ghost record");
        }
        const std::size_t stacks =
            static_cast<std::size_t>(header->num_classes) * header->num_bands;
        if (stack_index >= stacks) {
          ThrowCorrupt(path, scanner.offset(), "ghost record out of range");
        }
        st->ghosts.resize(stacks);
        st->ghosts[stack_index] = std::move(entries);
        break;
      }
      case RecordType::kSnapItem: {
        RestoredItem item;
        if (!have_header || !DecodeSnapItem(payload, &item)) {
          ThrowCorrupt(path, scanner.offset(), "bad snapshot item record");
        }
        item.id = HashStringKey(item.key);
        st->items.push_back(item);
        ++item_count;
        break;
      }
      case RecordType::kSnapFooter: {
        SnapFooter footer;
        if (!have_header || !DecodeSnapFooter(payload, &footer)) {
          ThrowCorrupt(path, scanner.offset(), "bad snapshot footer");
        }
        if (footer.item_count != item_count) {
          ThrowCorrupt(path, scanner.offset(), "snapshot item count mismatch");
        }
        have_footer = true;
        break;
      }
      default:
        ThrowCorrupt(path, scanner.offset(), "WAL record inside a snapshot");
    }
  }
  if (!have_header || !have_footer) return SnapOutcome::kTorn;
  st->have_snapshot = true;
  st->num_classes = header->num_classes;
  st->num_bands = header->num_bands;
  st->ghosts.resize(static_cast<std::size_t>(header->num_classes) *
                    header->num_bands);
  return SnapOutcome::kComplete;
}

/// A flush epoch replayed from the WAL (or carried by the snapshot).
struct FlushEpoch {
  std::int64_t cutover_unix_ns = 0;
  std::uint64_t order = 0;  ///< kReplayOrderBase + wal seq; 0 = snapshot's
};

/// A key's newest state during replay: its item, or a delete.
struct ReplayEntry {
  RestoredItem item;
  bool deleted = false;
};

}  // namespace

int MaxShardInDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw std::runtime_error(dir + ": cannot list data directory");
  }
  int max_shard = -1;
  while (dirent* ent = ::readdir(d)) {
    DataFileName parsed;
    if (!ParseDataFileName(ent->d_name, &parsed)) continue;
    if (static_cast<int>(parsed.shard) > max_shard) {
      max_shard = static_cast<int>(parsed.shard);
    }
  }
  ::closedir(d);
  return max_shard;
}

ShardRestoreState RecoverShardState(const std::string& dir, std::size_t shard,
                                    std::size_t shard_count,
                                    std::int64_t now_unix_ns,
                                    RecoveryReport* report) {
  const ShardFiles files = ListShardFiles(dir, shard);

  // 1. Newest snapshot with a valid footer wins; a torn one is skipped
  //    (its covered WAL generations were never deleted). Corruption in
  //    any candidate is a refusal — better a clean error than guessing.
  ShardRestoreState st;
  SnapHeader header;
  for (const std::uint64_t seq : files.snapshot_seqs) {
    ShardRestoreState candidate;
    SnapHeader candidate_header;
    const std::string path = dir + "/" + SnapshotFileName(shard, seq);
    if (LoadSnapshot(path, shard, shard_count, &candidate, &candidate_header) ==
        SnapOutcome::kComplete) {
      st = std::move(candidate);
      header = candidate_header;
      ++report->snapshots_loaded;
      break;
    }
    ++report->snapshots_skipped;
  }
  const std::uint64_t snapshot_seq = st.have_snapshot ? header.wal_seq : 0;
  st.cas_counter = st.have_snapshot ? header.cas_counter : 0;

  // 2. One replay entry per key the snapshot or the log names, in
  //    first-seen order, found by key id through a HashIndex. Entries view
  //    the loaded bytes; nothing is copied. Snapshot items enter with their
  //    engine access-clock order; replayed stores with kReplayOrderBase +
  //    seq — one final sort reproduces coldest-to-hottest across both.
  std::vector<ReplayEntry> entries;
  entries.reserve(st.items.size());
  HashIndex index;
  index.Reserve(st.items.size());
  const auto entry_of = [&entries, &index](KeyId id) -> ReplayEntry& {
    ItemHandle at = index.Find(id);
    if (at == kInvalidHandle) {
      at = static_cast<ItemHandle>(entries.size());
      index.Upsert(id, at);
      entries.emplace_back().item.id = id;
    }
    return entries[at];
  };
  for (const RestoredItem& item : st.items) entry_of(item.id).item = item;
  st.items.clear();

  std::vector<FlushEpoch> flushes;
  std::uint64_t flush_count = st.have_snapshot ? header.flush_seq : 0;
  if (st.have_snapshot && header.flush_seq != 0) {
    flushes.push_back({header.flush_at_unix_ns, 0});
  }

  // 3. Replay generations in order, applying records past the snapshot
  //    boundary. Sequences must be strictly increasing across the whole
  //    log — any step backwards means the files do not belong together.
  std::uint64_t last_seq = 0;
  std::uint64_t max_gen = 0;
  for (const std::uint64_t gen : files.wal_gens) {
    if (gen > max_gen) max_gen = gen;
    const std::string path = dir + "/" + WalFileName(shard, gen);
    st.files.push_back(LoadFile(path));
    FrameScanner scanner(st.files.back().view());
    std::string_view payload;
    bool first = true;
    while (true) {
      const FrameScanner::Status status = scanner.Next(&payload);
      if (status == FrameScanner::Status::kEnd) break;
      if (status == FrameScanner::Status::kBad) {
        if (scanner.ValidFrameAfterBad()) {
          ThrowCorrupt(path, scanner.offset(), "corrupt log frame");
        }
        // Torn tail: a crash mid-append. Everything before it was CRC-
        // whole; drop the tail and keep what we have.
        ++report->wal_tails_truncated;
        break;
      }
      if (first) {
        WalHeader wal_header;
        if (!DecodeWalHeader(payload, &wal_header)) {
          ThrowCorrupt(path, scanner.offset(), "bad log header");
        }
        if (wal_header.shard != shard || wal_header.gen != gen) {
          ThrowCorrupt(path, scanner.offset(), "log header names another file");
        }
        first = false;
        continue;
      }
      WalRecord rec;
      if (!DecodeWalRecord(payload, &rec)) {
        ThrowCorrupt(path, scanner.offset(), "bad log record");
      }
      if (rec.seq <= last_seq) {
        ThrowCorrupt(path, scanner.offset(), "log sequence went backwards");
      }
      last_seq = rec.seq;
      if (rec.seq <= snapshot_seq) continue;  // snapshot already covers it
      ++report->wal_records_replayed;
      const std::uint64_t order = kReplayOrderBase + rec.seq;
      switch (rec.type) {
        case RecordType::kWalStore: {
          const KeyId id = HashStringKey(rec.key);
          ReplayEntry& entry = entry_of(id);
          entry.item = RestoredItem{rec.header(), id, rec.key, rec.value,
                                    order};
          entry.deleted = false;
          if (rec.cas > st.cas_counter) st.cas_counter = rec.cas;
          break;
        }
        case RecordType::kWalDelete:
          entry_of(HashStringKey(rec.key)).deleted = true;
          break;
        case RecordType::kWalTouch: {
          const ItemHandle at = index.Find(HashStringKey(rec.key));
          if (at != kInvalidHandle && !entries[at].deleted) {
            RestoredItem& item = entries[at].item;
            item.expire_at_ns = rec.expire_at_ns;
            item.stored_at_ns = rec.stored_at_ns;
            item.order = order;
          }
          break;
        }
        case RecordType::kWalFlush:
          flushes.push_back({rec.cutover_unix_ns, order});
          ++flush_count;
          break;
        default:
          ThrowCorrupt(path, scanner.offset(), "unexpected record in log");
      }
    }
  }

  // 4. Materialize: drop deleted keys and items whose TTL or an elapsed
  //    flush epoch killed during downtime, then order coldest-to-hottest.
  st.items.reserve(entries.size());
  for (const ReplayEntry& entry : entries) {
    const RestoredItem& item = entry.item;
    if (entry.deleted) {
      st.dropped.emplace_back(item.id,
                              std::numeric_limits<std::uint64_t>::max());
      continue;
    }
    bool dead = false;
    if (item.expire_at_ns != 0 &&
        (item.expire_at_ns < 0 || item.expire_at_ns <= now_unix_ns)) {
      dead = true;
    }
    for (const FlushEpoch& f : flushes) {
      if (dead) break;
      // Only epochs whose moment has arrived kill; a still-pending one
      // is re-armed below. Anything stored before the cutover moment
      // dies; exact-cutover ties survive, matching the service's
      // flush_seq disambiguation for post-command stores.
      if (f.cutover_unix_ns <= now_unix_ns &&
          item.stored_at_ns < f.cutover_unix_ns) {
        dead = true;
      }
    }
    if (dead) {
      ++report->items_expired_on_boot;
      st.dropped.emplace_back(item.id, item.cas);
      continue;
    }
    st.items.push_back(item);
  }
  std::sort(st.items.begin(), st.items.end(),
            [](const RestoredItem& a, const RestoredItem& b) {
              return a.order < b.order;
            });
  report->items_recovered += st.items.size();

  // 5. Flush state handed to the service: the latest epoch (pending or
  //    past) and the total flush count, so flush_seq disambiguation
  //    keeps working across the restart.
  st.flush_seq = flush_count;
  if (!flushes.empty()) {
    st.flush_at_unix_ns = flushes.back().cutover_unix_ns;
  }

  st.next_seq = std::max(snapshot_seq, last_seq) + 1;
  st.next_gen = max_gen + 1;
  return st;
}

}  // namespace pamakv::persist
