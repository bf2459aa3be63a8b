// Spans for the traced replay, recorded from the benchmark's own code
// around its calls into the library: the request-path entry points it
// calls directly, plus timing decorators of the two public extension
// points the library offers — AllocationPolicy (installed through the
// engine factory) and persist::MutationSink (installed through
// SetPersistence).
//
// Each span carries its name, start, end, parent span and request id.
// Every span updates its layer's totals when it ends (so the per-layer
// numbers cover the whole replay); the first `keep` spans are also kept
// in memory and written out when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pamakv/cache/cache_engine.hpp"
#include "pamakv/persist/records.hpp"
#include "pamakv/policy/policy.hpp"
#include "report.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kParse,          ///< ParseCommandLine over a round's request lines
  kServiceGet,     ///< CacheService entry for a GET (or a batch of GETs)
  kServiceStore,   ///< CacheService entry for a SET (or a batch of SETs)
  kServiceDelete,  ///< CacheService::Del
  kPolicyTick,
  kPolicyHit,
  kPolicyMiss,
  kPolicyInsert,
  kPolicyEvict,
  kPolicyMakeRoom,
  kPersistStore,   ///< MutationSink::OnStore: the WAL append
  kPersistDelete,  ///< MutationSink::OnDelete
  kPersistCommit,  ///< MutationSink::Commit
  kFlashRead,      ///< FlashTier::ReadNow for a deferred GET
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(SpanName::kCount)>
    kSpanNames = {"net.parse",      "service.get",     "service.store",
                  "service.delete", "policy.tick",     "policy.hit",
                  "policy.miss",    "policy.insert",   "policy.evict",
                  "policy.make_room", "persist.append", "persist.delete",
                  "persist.commit", "flash.read"};

class Tracer {
 public:
  /// Totals of one span name.
  struct Layer {
    std::uint64_t spans = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  ///< total minus time inside child spans
    std::vector<std::uint32_t> durations_ns;
  };

  explicit Tracer(std::size_t keep) : keep_(keep) {}

  /// Records only while on, and only on the thread that turned it on
  /// (the persister's background thread never reaches a decorator, but a
  /// span from another thread would corrupt the open-span stack).
  void Enable(bool on) {
    on_ = on;
    owner_ = std::this_thread::get_id();
  }
  [[nodiscard]] bool on() const {
    return on_ && std::this_thread::get_id() == owner_;
  }
  void SetRequest(std::uint64_t id) { request_ = id; }

  void Begin(SpanName name) {
    open_.push_back(Open{name, ++next_id_, MonoNs(), 0});
  }

  void End() {
    const std::int64_t end = MonoNs();
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t dur = end - o.start_ns;
    Layer& l = layers_[static_cast<std::size_t>(o.name)];
    ++l.spans;
    l.total_ns += dur;
    l.self_ns += dur - o.child_ns;
    l.durations_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(dur, UINT32_MAX)));
    const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (kept_.size() < keep_) {
      kept_.push_back(Kept{request_, o.id, parent, o.name, o.start_ns, end});
    }
  }

  [[nodiscard]] Layer& layer(SpanName name) {
    return layers_[static_cast<std::size_t>(name)];
  }

  [[nodiscard]] std::uint64_t spans_recorded() const { return next_id_; }

  /// One CSV row per kept span.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "request,span,parent,name,start_ns,end_ns\n";
    for (const Kept& k : kept_) {
      out << k.request << ',' << k.id << ',' << k.parent << ','
          << kSpanNames[static_cast<std::size_t>(k.name)] << ',' << k.start_ns
          << ',' << k.end_ns << '\n';
    }
  }

 private:
  struct Open {
    SpanName name;
    std::uint32_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Kept {
    std::uint64_t request;
    std::uint32_t id;
    std::uint32_t parent;
    SpanName name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::size_t keep_;
  bool on_ = false;
  std::thread::id owner_;
  std::uint64_t request_ = 0;
  std::uint32_t next_id_ = 0;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  std::array<Layer, static_cast<std::size_t>(SpanName::kCount)> layers_;
};

/// A span over the enclosing scope; a no-op when `tracer` is null or off.
class Scoped {
 public:
  Scoped(Tracer* tracer, SpanName name)
      : tracer_(tracer != nullptr && tracer->on() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
};

/// Times every policy callback; decisions stay the wrapped policy's.
class TimedPolicy final : public pamakv::AllocationPolicy {
 public:
  TimedPolicy(std::unique_ptr<pamakv::AllocationPolicy> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  void Attach(pamakv::CacheEngine& engine) override {
    AllocationPolicy::Attach(engine);
    inner_->Attach(engine);
  }
  void OnTick(pamakv::AccessClock now) override {
    Scoped s(tracer_, SpanName::kPolicyTick);
    inner_->OnTick(now);
  }
  void OnHit(const pamakv::Item& item) override {
    Scoped s(tracer_, SpanName::kPolicyHit);
    inner_->OnHit(item);
  }
  void OnMiss(pamakv::KeyId key, pamakv::Bytes size, pamakv::MicroSecs penalty,
              pamakv::ClassId cls, pamakv::SubclassId sub) override {
    Scoped s(tracer_, SpanName::kPolicyMiss);
    inner_->OnMiss(key, size, penalty, cls, sub);
  }
  void OnInsert(const pamakv::Item& item) override {
    Scoped s(tracer_, SpanName::kPolicyInsert);
    inner_->OnInsert(item);
  }
  void OnEvict(const pamakv::Item& item) override {
    Scoped s(tracer_, SpanName::kPolicyEvict);
    inner_->OnEvict(item);
  }
  [[nodiscard]] bool MakeRoom(pamakv::ClassId cls,
                              pamakv::SubclassId sub) override {
    Scoped s(tracer_, SpanName::kPolicyMakeRoom);
    return inner_->MakeRoom(cls, sub);
  }
  [[nodiscard]] double IncomingSlabValue(pamakv::ClassId cls,
                                         pamakv::SubclassId sub) const override {
    return inner_->IncomingSlabValue(cls, sub);
  }

 private:
  std::unique_ptr<pamakv::AllocationPolicy> inner_;
  Tracer* tracer_;
};

/// Times the persister's request-path hooks.
class TimedSink final : public pamakv::persist::MutationSink {
 public:
  TimedSink(pamakv::persist::MutationSink& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  void OnStore(std::size_t shard, const pamakv::persist::WalStore& rec) override {
    Scoped s(tracer_, SpanName::kPersistStore);
    inner_->OnStore(shard, rec);
  }
  void OnDelete(std::size_t shard, std::string_view key) override {
    Scoped s(tracer_, SpanName::kPersistDelete);
    inner_->OnDelete(shard, key);
  }
  void OnTouch(std::size_t shard, std::string_view key,
               std::int64_t expire_unix_ns, std::int64_t stored_unix_ns) override {
    inner_->OnTouch(shard, key, expire_unix_ns, stored_unix_ns);
  }
  void OnFlush(std::size_t shard, std::int64_t cutover_unix_ns) override {
    inner_->OnFlush(shard, cutover_unix_ns);
  }
  void Commit(std::size_t shard) override {
    Scoped s(tracer_, SpanName::kPersistCommit);
    inner_->Commit(shard);
  }
  bool TriggerSnapshot() override { return inner_->TriggerSnapshot(); }
  void AppendStats(std::vector<char>& out) const override {
    inner_->AppendStats(out);
  }

 private:
  pamakv::persist::MutationSink* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench
