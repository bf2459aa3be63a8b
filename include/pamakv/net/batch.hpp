// Batch: a connection's staged pipeline of parsed requests, grouped by
// shard for shard-affine execution.
//
// The connection stages up to --batch-depth complete commands into one
// Batch (keys and payloads copied out of the receive buffer, so the rx
// vector may grow or compact while the batch is in flight), the
// ShardExecutor runs the ops shard group by shard group, and each op
// writes its wire reply into its own `out` buffer. When every group has
// finished, the connection concatenates the per-op buffers back in
// request order — the re-sequencing step that keeps the response stream
// byte-identical to executing the commands one by one, whichever group
// finished first.
//
// Every input the connection consumes becomes an op. A parse error, an
// oversized store or a fatal framing error is staged `answered`: its
// reply is written at staging time and no shard ever sees it, so error
// replies keep their place in the stream without a second execution path.
//
// Allocation discipline matches the rest of the request path: BatchOp
// slots, their key/value strings, the per-op output buffers and the
// per-shard index groups all keep their capacity across batches (Push and
// Reset move a size watermark, nothing is freed), so a warm connection
// runs the staged path without touching the heap.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/util/types.hpp"

namespace pamakv::net {

class EventLoop;

/// Ops staged per batch unless configured otherwise (--batch-depth).
inline constexpr std::size_t kDefaultBatchDepth = 64;

/// One staged command (one key of a multi-key retrieval becomes one op).
struct BatchOp {
  Verb verb = Verb::kGet;
  KeyId id = 0;              ///< HashStringKey(key), stamped by the executor
  std::uint32_t shard = 0;   ///< destination shard, stamped by the executor
  std::string key;
  std::string value;         ///< storage payload
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;
  std::uint64_t delta = 0;   ///< incr/decr amount
  std::uint64_t cas = 0;     ///< cas unique
  bool noreply = false;
  bool with_cas = false;     ///< gets/gats: emit the CAS stamp
  bool touch = false;        ///< gat/gats: refresh the deadline
  bool append_end = false;   ///< last key of a retrieval: append "END\r\n"
  /// The reply was written at staging (parse error, oversized store,
  /// fatal framing error); the executor skips the op.
  bool answered = false;
  /// The engine served the op (its reply may be an in-band SERVER_ERROR).
  /// Answered ops and ops skipped after a mid-batch failure stay false,
  /// so the connection's verb metrics only observe what the engine did.
  bool executed = false;
  std::vector<char> out;     ///< this op's wire reply bytes
};

/// A shard group parked on a flash read: the op at `pos` waits for the
/// record, every later op of the group waits behind it.
struct ParkedRead {
  std::size_t pos = 0;                 ///< parked op's position in its group
  CacheService::FlashPending pending;  ///< armed by CacheService::ExecuteOps
  bool ok = false;                     ///< the read's outcome, once landed
  std::string payload;                 ///< the record bytes, once landed
};

/// A reusable batch of staged ops plus the executor's per-batch state.
/// Owned by the Connection; referenced by flash-read completions while in
/// flight, so it must outlive the flight (the server defers connection
/// teardown until the batch completes).
class Batch {
 public:
  /// Next op slot, field-reset but with key/value/out capacity intact.
  BatchOp& Push() {
    if (size_ == ops_.size()) ops_.emplace_back();
    BatchOp& op = ops_[size_++];
    op.verb = Verb::kGet;
    op.id = 0;
    op.shard = 0;
    op.key.clear();
    op.value.clear();
    op.flags = 0;
    op.exptime = 0;
    op.delta = 0;
    op.cas = 0;
    op.noreply = false;
    op.with_cas = false;
    op.touch = false;
    op.append_end = false;
    op.answered = false;
    op.executed = false;
    op.out.clear();
    return op;
  }
  void Reset() noexcept { size_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] BatchOp& op(std::size_t i) noexcept { return ops_[i]; }
  [[nodiscard]] const BatchOp& op(std::size_t i) const noexcept {
    return ops_[i];
  }

  // ---- executor state (set up by ShardExecutor::Execute) ----
  // Touched only on the thread that runs the connection: flash-read
  // completions are posted back to it before they reach the batch.
  /// Per-shard op indices (inner vectors keep capacity across batches).
  std::vector<std::vector<std::uint32_t>> groups;
  /// Shards with a non-empty group this batch, in first-op order.
  std::vector<std::uint32_t> active_shards;
  /// Per-shard parked read (meaningful while that group waits).
  std::vector<ParkedRead> parked;
  /// Shards whose parked read landed and still needs completing.
  std::vector<std::uint32_t> landed;
  /// Groups parked on a read that has not landed or not been completed.
  std::size_t waiting = 0;
  /// The executor is on the stack; a read landing now is picked up there.
  bool dispatching = false;
  /// A non-storage op hit bad_alloc mid-batch: the connection must close.
  bool failed = false;
  /// The connection's serving loop; flash completions are posted here.
  EventLoop* home = nullptr;
  /// Invoked on the home loop each time parked reads have landed and
  /// their groups resumed; the batch is done once `waiting` is 0. Bound
  /// once by the Connection.
  std::function<void()> on_progress;

 private:
  std::vector<BatchOp> ops_;
  std::size_t size_ = 0;  ///< staged ops; slots beyond keep their capacity
};

}  // namespace pamakv::net
