// Microbenchmarks (google-benchmark) for the per-request building blocks:
// LRU stack (bare list and with its rank index on), ghost list, Bloom
// filters, hash index, Zipf sampling, the full engine GET/SET path, and a
// pipelined round of GETs through the service under its shard locks. These
// bound the simulator's cost per operation and document the O(log n) /
// O(1) claims. The durable byte path has one bench per layer: the frame
// CRC, a WAL store append, and a flash frame read (inline from the page
// cache against ReadNow), and one shard's warm restart from its log, with
// and without its flash segments. Two more benches time the service under
// key churn (stores that evict, and misses routed by ghosts), and one
// times a metrics scrape of the service. One more times a PAMA window
// rotation, which rebuilds the Bloom filters from the stack bottoms.
// BENCH_layers.json holds the run of
//
//   build/bench/micro_components --benchmark_filter='Crc32|WalAppend|FlashRead|LruStack|EngineGetSet|ServiceGetBatch|ServiceSetEvicting|ServiceGetMiss|RecoverShard|PamaRotateWindow'
#include <benchmark/benchmark.h>

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pamakv/bloom/bloom_filter.hpp"
#include "pamakv/cache/hash_index.hpp"
#include "pamakv/cache/string_keys.hpp"
#include "pamakv/ds/ghost_list.hpp"
#include "pamakv/ds/lru_stack.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/batch.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/persist/format.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/persist/recovery.hpp"
#include "pamakv/persist/wal.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/trace/generators.hpp"
#include "pamakv/util/crc32.hpp"
#include "pamakv/util/metrics.hpp"
#include "pamakv/util/rng.hpp"
#include "pamakv/util/zipf.hpp"

namespace pamakv {
namespace {

// One LRU touch. A second argument of 1 turns the stack's rank index on
// first (one rank query): what each touch costs under exact attribution.
void BM_LruStackMoveToTop(benchmark::State& state) {
  LruStack stack;
  std::vector<LruStack::Node*> nodes;
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool ranked = state.range(1) == 1;
  for (ItemHandle i = 0; i < n; ++i) nodes.push_back(stack.PushTop(i));
  if (ranked) benchmark::DoNotOptimize(stack.RankFromBottom(nodes[0]));
  Rng rng(1);
  for (auto _ : state) {
    const std::size_t i = rng.NextBounded(nodes.size());
    stack.MoveToTop(nodes[i]);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(ranked ? "ranked" : "list");
}
BENCHMARK(BM_LruStackMoveToTop)
    ->ArgsProduct({{1'000, 100'000, 1'000'000}, {0, 1}});

void BM_LruStackRank(benchmark::State& state) {
  LruStack stack;
  std::vector<LruStack::Node*> nodes;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (ItemHandle i = 0; i < n; ++i) nodes.push_back(stack.PushTop(i));
  Rng rng(2);
  std::size_t sum = 0;
  for (auto _ : state) {
    sum += stack.RankFromBottom(nodes[rng.NextBounded(nodes.size())]);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStackRank)->Arg(1'000)->Arg(100'000)->Arg(1'000'000);

// A ghost push and a ghost lookup by key, with the key index the engine
// keeps beside the lists: the push drops the key's older ghost, forgets
// the key a wrapping ring overwrites and maps the key to its new position.
void BM_GhostListPushLookup(benchmark::State& state) {
  GhostLists ghost({static_cast<std::size_t>(state.range(0))});
  HashIndex index;
  index.Reserve(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    const KeyId key = rng.NextBounded(1 << 20);
    const ItemHandle old = index.Find(key);
    if (old != kInvalidHandle) ghost.Remove(old);
    const GhostLists::Pushed pushed = ghost.Push(0, key, 1000);
    if (pushed.displaced) index.Erase(*pushed.displaced);
    index.Upsert(key, static_cast<ItemHandle>(pushed.pos));
    const ItemHandle at = index.Find(rng.NextBounded(1 << 20));
    if (at != kInvalidHandle) benchmark::DoNotOptimize(ghost.Lookup(0, at));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GhostListPushLookup)->Arg(1'024)->Arg(16'384);

void BM_BloomAddQuery(benchmark::State& state) {
  BloomFilter filter(static_cast<std::size_t>(state.range(0)), 0.01);
  Rng rng(4);
  bool hit = false;
  for (auto _ : state) {
    const KeyId key = rng.NextBounded(1 << 22);
    filter.Add(key);
    hit ^= filter.MayContain(key + 1);
  }
  benchmark::DoNotOptimize(hit);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomAddQuery)->Arg(4'096)->Arg(65'536);

void BM_HashIndexChurn(benchmark::State& state) {
  HashIndex index;
  Rng rng(5);
  for (auto _ : state) {
    const KeyId key = rng.NextBounded(1 << 20);
    index.Upsert(key, 1);
    benchmark::DoNotOptimize(index.Find(key ^ 1));
    if ((key & 7) == 0) index.Erase(key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexChurn);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1'000'000, 1.0);
  Rng rng(6);
  std::uint64_t sum = 0;
  for (auto _ : state) sum += zipf.Sample(rng);
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

// One ETC request through the engine: Arg 0 = memcached, 1 = pama (Bloom
// attribution, no rank queries), 2 = pama-exact (a rank query per hit).
void BM_EngineGetSet(benchmark::State& state) {
  const char* const kSchemes[] = {"memcached", "pama", "pama-exact"};
  const std::string scheme = kSchemes[state.range(0)];
  auto engine = MakeEngine(scheme, 64ULL * 1024 * 1024, SizeClassConfig{});
  auto cfg = EtcWorkload(1'000'000);
  SyntheticTrace trace(cfg);
  Request request;
  for (auto _ : state) {
    if (!trace.Next(request)) {
      trace.Reset();
      trace.Next(request);
    }
    if (request.op == Op::kGet) {
      const auto r = engine->Get(request.key, request.size, request.penalty_us);
      if (!r.hit) engine->Set(request.key, request.size, request.penalty_us);
    } else if (request.op == Op::kSet) {
      engine->Set(request.key, request.size, request.penalty_us);
    } else {
      engine->Del(request.key);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(scheme);
}
BENCHMARK(BM_EngineGetSet)->Arg(0)->Arg(1)->Arg(2);

// The service op under the shard lock: a pipelined round of 32 GETs,
// staged and grouped by shard the way ShardExecutor::Execute does it, each
// group run by one CacheService::ExecuteOps call (lock, clock read, engine
// hit, reply bytes). The population is hot-pipelined's: 200k keys with
// 16-143 B values and log-uniform penalties, 4 shards, 64 MiB, Zipf(0.99)
// popularity, so every GET hits. Items are GETs.
/// Key k's penalty (µs) in the service benches: log-uniform over
/// 500 µs..4.6 s, so every band holds keys.
std::uint32_t ChurnPenalty(std::uint64_t k) {
  const double unit =
      static_cast<double>(Mix64(k ^ 0x9e3779b97f4a7c15ULL) >> 11) /
      9007199254740992.0;
  return static_cast<std::uint32_t>(500.0 * std::pow(9210.0, unit));
}

void BM_ServiceGetBatch(benchmark::State& state) {
  constexpr std::uint64_t kKeys = 200'000;
  constexpr std::size_t kDepth = 32;
  net::CacheServiceConfig cfg;
  cfg.shards = 4;
  cfg.capacity_bytes = 64ULL << 20;
  net::CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  std::vector<std::string> names(kKeys);
  std::string value;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    names[k] = "h:" + std::to_string(k);
    value.assign(16 + Mix64(k ^ 0x6b6579ULL) % 128, 'v');
    const double unit =
        static_cast<double>(Mix64(k ^ 0x9e3779b97f4a7c15ULL) >> 11) /
        9007199254740992.0;
    const auto penalty_us =
        static_cast<std::uint32_t>(500.0 * std::pow(9210.0, unit));
    service.Store(net::StoreVerb::kSet, names[k], penalty_us, 0, value);
  }
  // Key draws are made up front so the loop times the service only.
  const ZipfSampler zipf(kKeys, 0.99);
  Rng rng(8);
  std::vector<std::uint32_t> draws(1 << 16);
  for (auto& d : draws) {
    d = static_cast<std::uint32_t>(zipf.Sample(rng) % kKeys);
  }

  net::Batch batch;
  std::vector<std::vector<std::uint32_t>> groups(cfg.shards);
  net::CacheService::FlashPending park;
  std::size_t next = 0;
  std::uint64_t misses = 0;
  for (auto _ : state) {
    batch.Reset();
    for (auto& g : groups) g.clear();
    for (std::uint32_t i = 0; i < kDepth; ++i) {
      net::BatchOp& op = batch.Push();
      op.key.assign(names[draws[next++ & (draws.size() - 1)]]);
      op.append_end = true;
      op.id = HashStringKey(op.key);
      op.shard = static_cast<std::uint32_t>(service.ShardIndexForId(op.id));
      groups[op.shard].push_back(i);
    }
    for (std::uint32_t s = 0; s < groups.size(); ++s) {
      if (groups[s].empty()) continue;
      service.ExecuteOps(s, batch, groups[s].data(), groups[s].size(), &park);
    }
    for (std::uint32_t i = 0; i < kDepth; ++i) {
      misses += batch.op(i).out.size() == 5;  // a bare "END\r\n"
    }
  }
  if (misses != 0) state.SkipWithError("a GET missed");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDepth));
}
BENCHMARK(BM_ServiceGetBatch);

/// Evicts the cache line holding `p` from every cache level (a no-op off
/// x86), so a bench can time a walk that starts cold.
void FlushLine(const void* p) {
#if defined(__x86_64__) || defined(__i386__)
  _mm_clflush(p);
#else
  (void)p;
#endif
}

// One Bloom-mode PAMA window rotation: decay every subclass's values and
// rebuild its segment filters from the bottom m+1 slabs of its stack. The
// engine is one shard of hot-pipelined: a 16 MiB `pama` engine holding 50k
// keys with 16-143 B values and log-uniform penalties, every key read once
// in a shuffled order after the load, so the walk follows LRU links that
// jump around memory as they do after any run of traffic. Each iteration
// forces one rotation. In a server a window's requests evict the items and
// stack nodes from the caches before the next rotation walks them, so each
// iteration first flushes every item and node (untimed). ns_per_item is
// the time per walked item.
void BM_PamaRotateWindow(benchmark::State& state) {
  constexpr KeyId kKeys = 50'000;
  auto engine = MakeEngine("pama", 16ULL << 20, SizeClassConfig{});
  for (KeyId k = 0; k < kKeys; ++k) {
    engine->Set(k, 16 + Mix64(k ^ 0x6b6579ULL) % 128,
                static_cast<MicroSecs>(ChurnPenalty(k)));
  }
  std::vector<KeyId> order(kKeys);
  for (KeyId k = 0; k < kKeys; ++k) order[k] = k;
  Rng rng(11);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (const KeyId k : order) {
    if (!engine->Get(k, 0, 0).hit) state.SkipWithError("a loaded key missed");
  }
  const PamaConfig pama;
  std::uint64_t walked = 0;
  for (ClassId c = 0; c < engine->classes().num_classes(); ++c) {
    const std::size_t region =
        (pama.reference_segments + 1) * engine->classes().SlotsPerSlab(c);
    for (SubclassId s = 0; s < engine->num_subclasses(); ++s) {
      walked += std::min(engine->SubclassItemCount(c, s), region);
    }
  }
  AccessClock t = engine->clock();
  for (auto _ : state) {
    state.PauseTiming();
    engine->ForEachItem([](const Item& item) {
      FlushLine(&item);
      FlushLine(item.node);
    });
    std::atomic_thread_fence(std::memory_order_seq_cst);
    state.ResumeTiming();
    engine->policy().OnTick(t += pama.window_accesses);
  }
  state.counters["walked"] = static_cast<double>(walked);
  state.counters["ns_per_item"] = benchmark::Counter(
      static_cast<double>(walked) * static_cast<double>(state.iterations()) *
          1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PamaRotateWindow)->Unit(benchmark::kMicrosecond);

constexpr std::uint64_t kChurnKeys = 1 << 18;

/// A full cache under key churn: 4 shards, 16 MiB, 200 B values with
/// log-uniform penalties, filled by storing the first 200k of kChurnKeys
/// names, about three capacities' worth.
std::unique_ptr<net::CacheService> ChurnedCache(
    std::vector<std::string>& names) {
  net::CacheServiceConfig cfg;
  cfg.shards = 4;
  cfg.capacity_bytes = 16ULL << 20;
  auto service = std::make_unique<net::CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  names.resize(kChurnKeys);
  for (std::uint64_t k = 0; k < kChurnKeys; ++k) {
    names[k] = "c:" + std::to_string(k);
  }
  const std::string value(200, 'v');
  for (std::uint64_t k = 0; k < 200'000; ++k) {
    service->Store(net::StoreVerb::kSet, names[k], ChurnPenalty(k), 0, value);
  }
  return service;
}

/// Runs the staged batch the way ShardExecutor::Execute does: grouped by
/// shard, one CacheService::ExecuteOps call per group.
void ExecuteByShard(net::CacheService& service, net::Batch& batch,
                    std::vector<std::vector<std::uint32_t>>& groups) {
  for (auto& g : groups) g.clear();
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    net::BatchOp& op = batch.op(i);
    op.id = HashStringKey(op.key);
    op.shard = static_cast<std::uint32_t>(service.ShardIndexForId(op.id));
    groups[op.shard].push_back(i);
  }
  net::CacheService::FlashPending park;
  for (std::uint32_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    service.ExecuteOps(s, batch, groups[s].data(), groups[s].size(), &park);
  }
}

// Stores into a full cache: a round of 32 SETs of keys long evicted (the
// stream cycles through kChurnKeys names, ~4x what the cache holds), each
// making room — MakeRoom, the eviction and its ghost, and the reuse of the
// victim's item and record. Items are SETs.
void ServiceSetEvicting(benchmark::State& state, std::int64_t exptime_s) {
  constexpr std::size_t kDepth = 32;
  std::vector<std::string> names;
  auto service = ChurnedCache(names);
  net::Batch batch;
  std::vector<std::vector<std::uint32_t>> groups(service->shard_count());
  const std::string value(200, 'v');
  std::uint64_t next = 200'000;
  std::uint64_t stored = 0;
  for (auto _ : state) {
    batch.Reset();
    for (std::uint32_t i = 0; i < kDepth; ++i, ++next) {
      net::BatchOp& op = batch.Push();
      op.verb = net::Verb::kSet;
      op.key.assign(names[next % kChurnKeys]);
      op.value.assign(value);
      op.flags = ChurnPenalty(next % kChurnKeys);
      op.exptime = exptime_s;
    }
    ExecuteByShard(*service, batch, groups);
    for (std::uint32_t i = 0; i < kDepth; ++i) {
      stored += batch.op(i).out.size() == 8;  // "STORED\r\n"
    }
  }
  if (stored == 0) state.SkipWithError("no SET was stored");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDepth));
}
void BM_ServiceSetEvicting(benchmark::State& state) {
  ServiceSetEvicting(state, 0);
}
BENCHMARK(BM_ServiceSetEvicting);

// The same SETs, each stored with an hour's TTL: every store also files
// its item's deadline for the background reaper.
void BM_ServiceSetEvictingTtl(benchmark::State& state) {
  ServiceSetEvicting(state, 3'600);
}
BENCHMARK(BM_ServiceSetEvictingTtl);

// GETs of evicted keys: a round of 32 GET misses over the 2,048 most
// recently evicted keys of the churned cache, each routed to the ghost
// list of the (class, band) it left and charged its penalty. Items are
// GETs.
void BM_ServiceGetMiss(benchmark::State& state) {
  constexpr std::size_t kDepth = 32;
  std::vector<std::string> names;
  auto service = ChurnedCache(names);
  std::vector<std::string> evicted;
  for (std::uint64_t k = 200'000; k-- > 0 && evicted.size() < 2048;) {
    const KeyId id = HashStringKey(names[k]);
    if (!service->shard_engine(service->ShardIndexForId(id)).Contains(id)) {
      evicted.push_back(names[k]);
    }
  }
  net::Batch batch;
  std::vector<std::vector<std::uint32_t>> groups(service->shard_count());
  std::size_t next = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    batch.Reset();
    for (std::uint32_t i = 0; i < kDepth; ++i) {
      net::BatchOp& op = batch.Push();
      op.key.assign(evicted[next++ % evicted.size()]);
      op.append_end = true;
    }
    ExecuteByShard(*service, batch, groups);
    for (std::uint32_t i = 0; i < kDepth; ++i) {
      hits += batch.op(i).out.size() != 5;  // more than a bare "END\r\n"
    }
  }
  if (hits != 0) state.SkipWithError("a GET of an evicted key hit");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDepth));
}
BENCHMARK(BM_ServiceGetMiss);

/// A mkdtemp directory under /tmp, removed with everything in it.
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/pamakv-micro-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = made;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextU64());
  return bytes;
}

// Every persistence and flash frame is checksummed on write and on read.
void BM_Crc32(benchmark::State& state) {
  const std::string data =
      RandomBytes(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    std::uint32_t crc = util::Crc32(data);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(64 * 1024);

// One store's WAL record: encode, frame + CRC, buffer (written to the fd
// every 64 KiB), no fsync — what a set pays under the shard lock.
void BM_WalAppendStore(benchmark::State& state) {
  constexpr std::int64_t kAppendsPerFile = 16'384;  // ~17 MiB per file
  const ScratchDir dir;
  const std::string value = RandomBytes(1024, 11);
  persist::WalStore rec;
  rec.key = "user:0000012345";
  rec.value = value;
  rec.flags = 2'500;
  rec.cas = 1;
  std::uint64_t gen = 1;
  auto wal = std::make_unique<persist::WalWriter>(dir.path(), 0);
  wal->Open(gen, 1);
  std::int64_t in_file = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->AppendStore(rec));
    if (++in_file == kAppendsPerFile) {
      state.PauseTiming();
      wal.reset();
      std::filesystem::remove(dir.path() + "/" + persist::WalFileName(0, gen));
      wal = std::make_unique<persist::WalWriter>(dir.path(), 0);
      wal->Open(++gen, 1);
      in_file = 0;
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(value.size()));
}
BENCHMARK(BM_WalAppendStore);

// One 1 KiB flash frame read back and CRC-checked: Arg(0) is the inline
// page-cache read a flash hit tries under the shard lock, Arg(1) the
// IO-thread read (ReadNow on a dup'd ticket, as SubmitRead runs it).
void BM_FlashRead(benchmark::State& state) {
  const bool via_ticket = state.range(0) == 1;
  const ScratchDir dir;
  flash::FlashConfig cfg;
  cfg.dir = dir.path();
  cfg.io_thread = false;
  flash::FlashTier tier(cfg);
  const std::string key = "user:0000012345";
  const std::string value = RandomBytes(1024, 13);
  flash::FlashTier::DemoteMeta meta;
  meta.key = key;
  meta.value = value;
  meta.flags = 2'500;
  meta.cas = 1;
  const KeyId id = 12345;
  if (!tier.AppendItem(0, id, meta)) {
    state.SkipWithError("demote failed");
    return;
  }
  const flash::Slot slot = *tier.Find(0, id);
  std::string payload;
  for (auto _ : state) {
    bool ok;
    if (via_ticket) {
      ok = tier.ReadNow(0, tier.MakeTicket(0, slot), &payload);
    } else {
      std::string_view view;
      ok = tier.ReadCached(0, slot, &view);
      benchmark::DoNotOptimize(view.data());
    }
    if (!ok) {
      state.SkipWithError("flash read failed");
      break;
    }
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetLabel(via_ticket ? "ReadNow" : "ReadCached");
}
BENCHMARK(BM_FlashRead)->Arg(0)->Arg(1);

// One shard's warm restart after a crash: RecoverShardState reads and
// replays a WAL of 30k stores of distinct keys (64-2,111 B values,
// log-uniform penalties — one durable-flash shard's log, ~33 MB), then
// RestoreShard seats the items into an 8 MiB shard, coldest first. The log
// sits in the page cache, as after perfbench's copy. Items are recovered
// items; bytes are log bytes.
void BM_RecoverShard(benchmark::State& state) {
  constexpr std::uint64_t kStores = 30'000;
  const ScratchDir dir;
  const std::int64_t unix_now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  {
    persist::WalWriter wal(dir.path(), 0);
    if (!wal.Open(1, 1)) {
      state.SkipWithError("cannot write the log");
      return;
    }
    std::string key;
    for (std::uint64_t k = 0; k < kStores; ++k) {
      key = "f:" + std::to_string(k);
      const std::string value = RandomBytes(64 + (Mix64(k) & 2047), k);
      persist::WalStore rec;
      rec.key = key;
      rec.value = value;
      rec.flags = ChurnPenalty(k);
      rec.stored_at_ns = unix_now_ns;
      rec.cas = k + 1;
      (void)wal.AppendStore(rec);
    }
    if (!wal.Commit(/*sync=*/false)) {
      state.SkipWithError("cannot write the log");
      return;
    }
  }
  const auto log_bytes = static_cast<std::int64_t>(std::filesystem::file_size(
      dir.path() + "/" + persist::WalFileName(0, 1)));
  net::CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = 8ULL << 20;
  std::uint64_t recovered = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto service = std::make_unique<net::CacheService>(cfg, [](Bytes bytes) {
      return MakeEngine("pama", bytes, SizeClassConfig{});
    });
    state.ResumeTiming();
    persist::RecoveryReport report;
    service->RestoreShard(
        0, persist::RecoverShardState(dir.path(), 0, 1,
                                      service->NowNs(),
                                      &report));
    recovered = report.items_recovered;
    state.PauseTiming();
    service.reset();
    state.ResumeTiming();
  }
  if (recovered != kStores) state.SkipWithError("a store was not recovered");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kStores));
  state.SetBytesProcessed(state.iterations() * log_bytes);
}
BENCHMARK(BM_RecoverShard)->Unit(benchmark::kMillisecond)->UseRealTime();

// The whole shard pass, flash included: the same 30k stores went through a
// 1-shard 8 MiB service with a log and a flash tier, which was dropped
// without a snapshot, so its evictions left ~25 MB of segments beside the
// log. The timed region replays the log, restores DRAM and replays the
// segments. Items are recovered items, bytes are log and segment bytes,
// and flash_items counts the records the tier kept.
void BM_RecoverShardWithFlash(benchmark::State& state) {
  constexpr std::uint64_t kStores = 30'000;
  const ScratchDir data;
  const ScratchDir segments;
  net::CacheServiceConfig cfg;
  cfg.shards = 1;
  cfg.capacity_bytes = 8ULL << 20;
  const auto make_service = [&cfg] {
    return std::make_unique<net::CacheService>(cfg, [](Bytes bytes) {
      return MakeEngine("pama", bytes, SizeClassConfig{});
    });
  };
  flash::FlashConfig fcfg;
  fcfg.dir = segments.path();
  fcfg.io_thread = false;
  std::uint64_t stored = 0;
  {
    flash::FlashTier tier(fcfg);
    const auto service = make_service();
    persist::PersistConfig pcfg;
    pcfg.data_dir = data.path();
    pcfg.fsync_mode = persist::FsyncMode::kNever;
    service->AttachFlash(&tier);
    persist::Persister persister(*service, pcfg);
    (void)persister.Recover();
    service->SetPersistence(&persister);
    service->RecoverFlash();
    for (std::uint64_t k = 0; k < kStores; ++k) {
      stored += service->Store(net::StoreVerb::kSet, "f:" + std::to_string(k),
                               ChurnPenalty(k), 0,
                               RandomBytes(64 + (Mix64(k) & 2047), k)) ==
                net::StoreStatus::kStored;
    }
  }
  std::int64_t file_bytes = 0;
  for (const std::string& dir : {data.path(), segments.path()}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      file_bytes += static_cast<std::int64_t>(entry.file_size());
    }
  }
  std::uint64_t recovered = 0;
  std::size_t flash_items = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto tier = std::make_unique<flash::FlashTier>(fcfg);
    auto service = make_service();
    service->AttachFlash(tier.get());
    state.ResumeTiming();
    persist::RecoveryReport report;
    service->RestoreShard(
        0, persist::RecoverShardState(data.path(), 0, 1,
                                      service->NowNs(),
                                      &report));
    recovered = report.items_recovered;
    flash_items = tier->ItemCount(0);
    state.PauseTiming();
    service.reset();
    tier.reset();
    state.ResumeTiming();
  }
  if (recovered != stored) state.SkipWithError("a store was not recovered");
  if (flash_items == 0) state.SkipWithError("nothing was kept on flash");
  state.counters["flash_items"] = static_cast<double>(flash_items);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stored));
  state.SetBytesProcessed(state.iterations() * file_bytes);
}
BENCHMARK(BM_RecoverShardWithFlash)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One metrics scrape: registry.Snapshot() of hot-pipelined's population
// (BM_ServiceGetBatch: 4 pama shards, 64 MiB, 200k keys) with a flash tier
// attached, so every service series is in it. Nothing runs alongside, so
// this is the snapshot's own cost, not its wait for shard locks.
void BM_MetricsSnapshot(benchmark::State& state) {
  constexpr std::uint64_t kKeys = 200'000;
  const ScratchDir dir;
  flash::FlashConfig fcfg;
  fcfg.dir = dir.path();
  fcfg.shards = 4;
  fcfg.io_thread = false;
  flash::FlashTier tier(fcfg);
  net::CacheServiceConfig cfg;
  cfg.shards = 4;
  cfg.capacity_bytes = 64ULL << 20;
  net::CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  service.AttachFlash(&tier);
  service.RecoverFlash();
  std::string value;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    value.assign(16 + Mix64(k ^ 0x6b6579ULL) % 128, 'v');
    service.Store(net::StoreVerb::kSet, "h:" + std::to_string(k),
                  ChurnPenalty(k), 0, value);
  }
  util::MetricsRegistry registry;
  service.RegisterMetrics(registry);
  std::size_t series = 0;
  for (auto _ : state) {
    const util::MetricsSnapshot snap = registry.Snapshot();
    series = snap.samples.size();
    benchmark::DoNotOptimize(snap.samples.data());
  }
  state.counters["series"] = static_cast<double>(series);
}
BENCHMARK(BM_MetricsSnapshot)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pamakv

BENCHMARK_MAIN();
