// Startup recovery: newest valid snapshot + WAL tail replay.
//
// Outcome contract (the corruption corpus pins this): recovery of a
// shard ends in exactly one of
//   * full recovery            — snapshot + every log record applied;
//   * tail-truncated recovery  — a torn trailing region (crash mid-
//                                append) dropped at the first bad CRC
//                                with nothing valid after it;
//   * clean refusal            — CorruptionError for damage replay
//                                cannot safely skip (a bad frame with
//                                valid frames after it, a structurally
//                                invalid record, non-monotonic
//                                sequences, shard/generation mismatch).
// It never crashes and never silently serves reconstructed garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "pamakv/persist/records.hpp"

namespace pamakv::persist {

struct RecoveryReport {
  std::size_t snapshots_loaded = 0;
  /// Newest-first snapshots passed over because they were torn
  /// (unfinished write — no valid footer).
  std::size_t snapshots_skipped = 0;
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t wal_tails_truncated = 0;
  std::uint64_t items_recovered = 0;        ///< into restore states
  std::uint64_t items_expired_on_boot = 0;  ///< TTL/flush passed downtime

  RecoveryReport& operator+=(const RecoveryReport& o) noexcept {
    snapshots_loaded += o.snapshots_loaded;
    snapshots_skipped += o.snapshots_skipped;
    wal_records_replayed += o.wal_records_replayed;
    wal_tails_truncated += o.wal_tails_truncated;
    items_recovered += o.items_recovered;
    items_expired_on_boot += o.items_expired_on_boot;
    return *this;
  }
};

/// Recovers one shard's state from `dir`. `now_unix_ns` filters items
/// whose TTL or flush epoch passed during downtime; `shard_count` is
/// validated against snapshot headers (key->shard routing depends on
/// it, so a changed topology is a clean refusal, not silent misrouting).
/// Each file is mapped once; the returned state owns those bytes and its
/// items view into them. Throws CorruptionError per the contract above
/// and std::runtime_error for plain I/O failures reading the directory.
[[nodiscard]] ShardRestoreState RecoverShardState(const std::string& dir,
                                                  std::size_t shard,
                                                  std::size_t shard_count,
                                                  std::int64_t now_unix_ns,
                                                  RecoveryReport* report);

/// Largest shard index any persistence file in `dir` names, or -1 when
/// none exist. Lets the caller refuse a data dir written with more
/// shards than the server now runs.
[[nodiscard]] int MaxShardInDir(const std::string& dir);

}  // namespace pamakv::persist
