#include "pamakv/net/shard_executor.hpp"

#include <string>
#include <utility>

#include "pamakv/cache/string_keys.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/event_loop.hpp"
#include "pamakv/net/protocol.hpp"

namespace pamakv::net {

ShardExecutor::ShardExecutor(CacheService& service) : service_(&service) {}

bool ShardExecutor::Execute(Batch& batch, EventLoop* home) {
  const std::size_t shards = service_->shard_count();
  if (batch.groups.size() < shards) {
    batch.groups.resize(shards);
    batch.parked.resize(shards);
  }
  for (const std::uint32_t s : batch.active_shards) batch.groups[s].clear();
  batch.active_shards.clear();
  std::size_t routed = 0;
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    BatchOp& op = batch.op(i);
    if (op.answered) continue;
    op.id = HashStringKey(op.key);
    op.shard = static_cast<std::uint32_t>(service_->ShardIndexForId(op.id));
    if (batch.groups[op.shard].empty()) batch.active_shards.push_back(op.shard);
    batch.groups[op.shard].push_back(i);
    ++routed;
  }
  batch.failed = false;
  // A batch of answered ops only (parse errors and the like) has nothing
  // to run.
  if (routed == 0) return true;
  batch.home = home;
  batch.waiting = 0;
  batch.landed.clear();
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_ops_.fetch_add(routed, std::memory_order_relaxed);

  batch.dispatching = true;
  for (const std::uint32_t s : batch.active_shards) RunGroup(batch, s, 0);
  ResumeLanded(batch);
  batch.dispatching = false;
  return batch.waiting == 0;
}

void ShardExecutor::RunGroup(Batch& batch, std::uint32_t shard,
                             std::size_t pos) {
  const std::vector<std::uint32_t>& idx = batch.groups[shard];
  ParkedRead& parked = batch.parked[shard];
  pos += service_->ExecuteOps(shard, batch, idx.data() + pos, idx.size() - pos,
                              &parked.pending);
  if (pos == idx.size()) return;
  // The op at `pos` waits for its flash record.
  parked.pos = pos;
  ++batch.waiting;
  if (batch.home == nullptr) {
    parked.ok = service_->ReadFlashNow(parked.pending, &parked.payload);
    batch.landed.push_back(shard);
    return;
  }
  EventLoop* home = batch.home;
  service_->SubmitFlashRead(
      parked.pending,
      [home](std::function<void()> fn) { home->Post(std::move(fn)); },
      [this, &batch, shard](bool ok, std::string payload) {
        // Runs on the home loop: inline when the read completed inside
        // SubmitFlashRead (no IO thread), posted otherwise.
        ParkedRead& landed = batch.parked[shard];
        landed.ok = ok;
        landed.payload = std::move(payload);
        batch.landed.push_back(shard);
        if (batch.dispatching) return;  // the frame below us resumes it
        batch.dispatching = true;
        ResumeLanded(batch);
        batch.dispatching = false;
        // A copy: the last progress call may destroy the connection that
        // owns `batch`.
        const std::function<void()> progress = batch.on_progress;
        progress();
      });
}

void ShardExecutor::ResumeLanded(Batch& batch) {
  while (!batch.landed.empty()) {
    const std::uint32_t shard = batch.landed.back();
    batch.landed.pop_back();
    ParkedRead& parked = batch.parked[shard];
    service_->CompleteFlashOp(batch, batch.op(batch.groups[shard][parked.pos]),
                              parked.pending, parked.ok, parked.payload);
    --batch.waiting;
    RunGroup(batch, shard, parked.pos + 1);
  }
}

void ShardExecutor::AppendExecutorStats(std::vector<char>& out) const {
  AppendStat(out, "executor_batches", Batches());
  AppendStat(out, "executor_batched_ops", BatchedOps());
}

}  // namespace pamakv::net
