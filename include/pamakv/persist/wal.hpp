// Per-shard append-only mutation log.
//
// One WalWriter owns one shard's log. The log is a sequence of
// generation files (shard<i>-<G>.wal); a snapshot rolls the writer to a
// fresh generation *under the shard lock*, fsync-closing the old one, so
// the snapshot's covered-sequence boundary is exact and every earlier
// generation is durable before it becomes deletable.
//
// Locking: Append* are called under the owning shard's lock (mutations
// are already serialized there); Commit and the interval-fsync thread
// run outside it. An internal mutex makes the writer itself safe for
// that overlap — lock order is always shard.mu -> WalWriter::mu_. The
// interval thread's fdatasync (Sync) runs outside that mutex too.
//
// Failure: any write/fsync error latches failed(); subsequent appends
// no-op. The Persister reacts by disabling persistence process-wide
// while the cache keeps serving.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "pamakv/persist/records.hpp"

namespace pamakv::persist {

class WalWriter {
 public:
  WalWriter(std::string dir, std::size_t shard);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates generation `gen` (O_EXCL — recovery guarantees the name is
  /// fresh) and writes its header frame. `next_seq` is the sequence the
  /// first appended record will get. False on I/O failure (latched).
  bool Open(std::uint64_t gen, std::uint64_t next_seq);

  // Append one record (buffered; flushed at Commit or the buffer cap).
  // Returns the assigned sequence number, 0 after a latched failure.
  std::uint64_t AppendStore(const WalStore& rec);
  std::uint64_t AppendDelete(std::string_view key);
  std::uint64_t AppendTouch(std::string_view key, std::int64_t expire_unix_ns,
                            std::int64_t stored_unix_ns);
  std::uint64_t AppendFlush(std::int64_t cutover_unix_ns);

  /// Flushes buffered frames to the fd; fdatasyncs when `sync`. Cheap
  /// no-op when nothing is pending. False on I/O failure (latched).
  bool Commit(bool sync);

  /// Commit(true) for the interval thread: flushes under the mutex, then
  /// fdatasyncs a dup of the fd without it, so appends (made under the
  /// shard lock) never wait for the disk. False on I/O failure (latched).
  bool Sync();

  /// Snapshot boundary: commits + fsyncs the open generation, closes it,
  /// opens the next one. Returns the last sequence number the closed
  /// generation covers via *covered_seq. Called under the shard lock.
  bool RollForSnapshot(std::uint64_t* covered_seq);

  [[nodiscard]] bool failed() const;
  [[nodiscard]] int last_errno() const;
  /// The syscall seam that latched the failure ("write", "fsync", ...).
  [[nodiscard]] std::string failed_op() const;
  [[nodiscard]] std::uint64_t gen() const;
  [[nodiscard]] std::uint64_t last_seq() const;

  // Stats (cumulative since construction).
  [[nodiscard]] std::uint64_t records() const;
  [[nodiscard]] std::uint64_t bytes() const;
  [[nodiscard]] std::uint64_t fsyncs() const;

 private:
  std::uint64_t AppendFrameLocked();  ///< frames scratch_, assigns a seq
  bool FlushLocked();
  bool CommitLocked(bool sync);
  void FailLocked(const char* op);

  const std::string dir_;
  const std::size_t shard_;

  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint64_t gen_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<char> buf_;      ///< frames not yet written to the fd
  std::vector<char> scratch_;  ///< payload under construction
  bool dirty_fd_ = false;      ///< bytes written since the last fsync
  bool failed_ = false;
  int last_errno_ = 0;
  std::string failed_op_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fsyncs_ = 0;
};

}  // namespace pamakv::persist
