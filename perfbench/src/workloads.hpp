// The three benchmark workloads, shared by the TCP client (wire.cpp) and
// the in-process traced replay (trace.cpp), so both run exactly the same
// request streams: key names, value sizes, penalties, self-describing
// payloads, op mixes and the closed-loop round structure.
//
// A cache-aside caller waits for every reply, so the client runs
// closed-loop rounds over one connection: it sends `depth` requests, reads
// every reply, then sends the next round. With write-allocate on, each GET
// miss becomes a `set` of that key at the head of the next round (the
// caller fetched the value from its backend; the miss penalty is charged
// analytically, never slept).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pamakv/trace/generators.hpp"
#include "pamakv/util/rng.hpp"
#include "pamakv/util/zipf.hpp"

namespace perfbench {

using pamakv::Mix64;

enum class Kind : std::uint8_t { kGet, kSet, kDelete };

/// One request of a stream. `size` and `penalty_us` are the key's value
/// length and miss penalty, carried on every op so a GET knows the reply
/// it expects and a miss knows the penalty it costs.
struct Req {
  Kind kind = Kind::kGet;
  std::uint64_t key = 0;
  std::uint32_t size = 0;
  std::uint32_t penalty_us = 0;
};

enum class Workload : std::uint8_t { kHotPipelined, kEtcChurn, kDurableFlash };

/// The traffic shape of a workload. Populations, request budgets and
/// server flags are run parameters (perfbench/run.py passes them).
struct Shape {
  std::string_view name;
  std::string_view key_prefix;
  std::size_t depth;        ///< requests per pipelined round
  double set_share;         ///< hot/flash: share of sets (etc: the ETC mix)
  double zipf_alpha;        ///< hot/flash popularity skew
  bool write_allocate;      ///< a GET miss is followed by a set of the key
};

inline constexpr std::array<Shape, 3> kShapes = {{
    {"hot-pipelined", "h", 32, 0.05, 0.99, false},
    {"etc-churn", "e", 8, 0.0, 1.0, true},
    {"durable-flash", "f", 8, 0.30, 0.99, true},
}};

/// Preloads send this many sets per round.
inline constexpr std::size_t kPreloadDepth = 32;

inline Workload ParseWorkload(std::string_view name) {
  for (std::size_t i = 0; i < kShapes.size(); ++i) {
    if (kShapes[i].name == name) return static_cast<Workload>(i);
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

inline const Shape& ShapeOf(Workload w) {
  return kShapes[static_cast<std::size_t>(w)];
}

/// loadgen's penalty: log-uniform over [500 µs, ~4.6 s], every paper band.
inline std::uint32_t LogUniformPenalty(std::uint64_t key) {
  const std::uint64_t h = Mix64(key ^ 0x9e3779b97f4a7c15ULL);
  const double unit = static_cast<double>(h >> 11) / 9007199254740992.0;
  return static_cast<std::uint32_t>(500.0 * std::pow(9210.0, unit));
}

/// Value length of a preloaded key: hot 16–143 B, flash 64–2,111 B
/// (loadgen's sizes). ETC keys take theirs from the generator.
inline std::uint32_t PopulationSize(Workload w, std::uint64_t key) {
  if (w == Workload::kHotPipelined) {
    return 16 + static_cast<std::uint32_t>(Mix64(key ^ 0x6b6579ULL) % 128);
  }
  return 64 + static_cast<std::uint32_t>(Mix64(key) & 2047);
}

inline Req PopulationReq(Workload w, Kind kind, std::uint64_t key) {
  return Req{kind, key, PopulationSize(w, key), LogUniformPenalty(key)};
}

/// "<prefix>:<id>", written into `out` (capacity reused).
inline void KeyName(const Shape& shape, std::uint64_t key, std::string& out) {
  out.assign(shape.key_prefix);
  out.push_back(':');
  out.append(std::to_string(key));
}

// ---- self-describing payloads ----

/// Largest value any workload stores (ETC's largest size class).
inline constexpr std::uint32_t kMaxValueBytes = 32 * 1024;

inline std::uint64_t KeyHash(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// Letters from a fixed seed; payload filler is a keyed slice of it.
inline const std::array<char, 2 * kMaxValueBytes>& FillerTable() {
  static const auto table = [] {
    std::array<char, 2 * kMaxValueBytes> t{};
    pamakv::Rng rng(0xf111e7ULL);
    for (char& c : t) c = static_cast<char>('a' + rng.NextBounded(26));
    return t;
  }();
  return table;
}

/// The value stored under `key` with `size` bytes, written into `out`:
/// an 8-letter tag hashed from (key, size), then "<key>:<size>:", then
/// filler from a keyed offset, all cut at `size`. A byte from another
/// key, a wrong length or a flipped byte all fail PayloadMatches.
inline void MakePayload(std::string_view key, std::uint32_t size,
                        std::string& out) {
  if (size > kMaxValueBytes) throw std::length_error("value too large");
  const std::uint64_t h = Mix64(KeyHash(key) ^ size);
  out.clear();
  std::uint64_t tag = h;
  for (int i = 0; i < 8; ++i, tag /= 26) {
    out.push_back(static_cast<char>('A' + tag % 26));
  }
  out.append(key);
  out.push_back(':');
  out.append(std::to_string(size));
  out.push_back(':');
  if (out.size() >= size) {
    out.resize(size);
    return;
  }
  const std::size_t fill = size - out.size();
  out.append(FillerTable().data() + (h >> 8) % kMaxValueBytes, fill);
}

inline bool PayloadMatches(std::string_view key, std::uint32_t size,
                           std::string_view data) {
  thread_local std::string expected;
  if (data.size() != size) return false;
  MakePayload(key, size, expected);
  return std::memcmp(expected.data(), data.data(), size) == 0;
}

// ---- request streams ----

/// Seed of the ETC key catalog: every key's size class, size and penalty.
/// The workload seed picks the request sequence only, so seeds differ in
/// which keys are asked for when, not in what the keys are — a catalog
/// drawn per seed would let a few multi-second keys swing the penalty sum.
inline constexpr std::uint64_t kEtcCatalogSeed = 1;

/// The request stream of a workload. hot/flash draw Zipf keys over
/// the preloaded population with a fixed set share; etc replays the
/// paper's ETC model (EtcWorkload: Zipf 1.0 over 150k recurring keys, 12
/// size classes, lognormal penalties, 2% one-shot keys, diurnal drift).
/// Each stream is a pure function of (workload, seed).
class RequestStream {
 public:
  RequestStream(Workload w, std::uint64_t seed, std::uint64_t keys)
      : w_(w),
        rng_(Mix64(seed) ^ Mix64(1)),
        zipf_(keys > 0 ? keys : 1, ShapeOf(w).zipf_alpha) {
    if (w == Workload::kEtcChurn) {
      etc_ = std::make_unique<pamakv::SyntheticTrace>(
          pamakv::EtcWorkload(std::uint64_t{1} << 62, seed));
      catalog_ = std::make_unique<pamakv::SyntheticTrace>(
          pamakv::EtcWorkload(std::uint64_t{1} << 62, kEtcCatalogSeed));
    }
  }

  Req Next() {
    if (etc_ != nullptr) {
      pamakv::Request r;
      etc_->Next(r);
      const Kind kind = r.op == pamakv::Op::kGet   ? Kind::kGet
                        : r.op == pamakv::Op::kSet ? Kind::kSet
                                                   : Kind::kDelete;
      return Req{kind, r.key, static_cast<std::uint32_t>(catalog_->SizeOfKey(r.key)),
                 static_cast<std::uint32_t>(catalog_->PenaltyOfKey(r.key))};
    }
    const std::uint64_t key = zipf_.Sample(rng_);
    const bool set = rng_.NextDouble() < ShapeOf(w_).set_share;
    return PopulationReq(w_, set ? Kind::kSet : Kind::kGet, key);
  }

 private:
  Workload w_;
  pamakv::Rng rng_;
  pamakv::ZipfSampler zipf_;
  std::unique_ptr<pamakv::SyntheticTrace> etc_;
  std::unique_ptr<pamakv::SyntheticTrace> catalog_;
};

/// Cuts a stream into closed-loop rounds: the write-allocate sets owed
/// by the previous round's misses, then up to `depth` stream requests.
/// A phase ends once `budget` stream requests were taken and every owed
/// set was sent. `digest` fingerprints the stream (seed checks).
class RoundPlanner {
 public:
  RoundPlanner(RequestStream& stream, std::size_t depth, bool write_allocate)
      : stream_(&stream), depth_(depth), write_allocate_(write_allocate) {}

  void StartPhase(std::uint64_t budget) { budget_ = budget; }

  bool NextRound(std::vector<Req>& round) {
    round.swap(owed_);
    owed_.clear();
    for (std::size_t i = 0; i < depth_ && budget_ > 0; ++i, --budget_) {
      const Req r = stream_->Next();
      digest_ = Mix64(digest_ ^ (r.key * 4 + static_cast<std::uint64_t>(r.kind)));
      round.push_back(r);
    }
    return !round.empty();
  }

  /// A GET of this round missed: its key is set at the head of the next.
  void OnMiss(const Req& get) {
    if (write_allocate_) owed_.push_back(Req{Kind::kSet, get.key, get.size, get.penalty_us});
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  RequestStream* stream_;
  std::size_t depth_;
  bool write_allocate_;
  std::uint64_t budget_ = 0;
  std::vector<Req> owed_;
  std::uint64_t digest_ = 0;
};

}  // namespace perfbench
