// ShardExecutor: runs a connection's staged Batch, one shard group at a
// time, on the connection's own thread.
//
// Execute() groups the ops by shard and runs each group inline through
// CacheService::ExecuteOps: one shard-lock acquisition, one clock read and
// one WAL commit per group instead of per op. Groups are independent (a
// key routes to exactly one shard), so their relative order does not
// matter; within a group, request order is execution order.
//
// Flash reads park a group instead of blocking the batch. When an op's key
// lives on the flash tier, ExecuteOps stops at that op with an armed
// FlashPending. With a home loop the tier's IO thread reads the record and
// posts the completion back to that loop; without one (tests and benches
// driving the executor directly) the read runs synchronously right here.
// Either way CacheService::CompleteFlashOp promotes the record through the
// set path and re-runs the op, and then the group resumes at its next op:
// per-shard order and the miss / promote-set / hit accounting are exactly
// those of running the commands one by one.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "pamakv/net/batch.hpp"

namespace pamakv::net {

class CacheService;
class EventLoop;

class ShardExecutor {
 public:
  explicit ShardExecutor(CacheService& service);

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Routes and runs `batch` on the calling thread, which must be `home`'s
  /// loop thread when `home` is set. Returns true when every group
  /// finished; false when a group is parked on an asynchronous flash read
  /// — `batch.on_progress` then runs on `home` as parked reads land,
  /// until `batch.waiting` is 0. With `home` null every read is
  /// synchronous and this always returns true.
  bool Execute(Batch& batch, EventLoop* home);

  // ---- counters (relaxed; exported via server stats) ----
  [[nodiscard]] std::uint64_t Batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t BatchedOps() const noexcept {
    return batched_ops_.load(std::memory_order_relaxed);
  }

  /// "STAT executor_*" lines for the server's stats surface.
  void AppendExecutorStats(std::vector<char>& out) const;

 private:
  /// Runs `shard`'s group from position `pos` until it finishes or parks.
  void RunGroup(Batch& batch, std::uint32_t shard, std::size_t pos);
  /// Completes every landed read and resumes its group.
  void ResumeLanded(Batch& batch);

  CacheService* service_;
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_ops_{0};
};

}  // namespace pamakv::net
