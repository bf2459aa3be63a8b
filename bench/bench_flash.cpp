// Flash victim tier: hit ratio and penalty saved, with and without the
// tier, at DRAM = 25/50/75% of the working set.
//
// One seeded cache-aside workload (power-law keys, key-derived sizes and
// penalties — the same stream shape as bench_restart) runs twice per DRAM
// point over byte-identical request streams: once with DRAM alone, once
// with the flash tier attached (evictions demote, DRAM misses consult the
// flash index and promote through the deferred-read path). Every miss
// costs its key's penalty; a flash hit avoids that penalty, and the
// service's flash_penalty_saved_us counter records exactly the penalty
// microseconds the tier bought back. The JSON rows make the acceptance
// check direct: at each DRAM point the flash run must show a strictly
// lower total miss penalty and a nonzero penalty_saved.
//
// Writes BENCH_flash.json and results/bench_flash.csv at the repo root
// (override with --out-root=DIR).

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::bench {
namespace {

struct BenchParams {
  std::size_t shards = 2;
  std::uint64_t keys = 60'000;
  std::uint64_t requests = 400'000;
  /// Flash budget relative to the working set — generous, so the tier's
  /// reach (not its GC) is what the DRAM sweep measures.
  double flash_factor = 2.0;
  std::uint64_t seed = 42;
};

/// Key-derived request, as in bench_restart: one key always has one size
/// and one penalty, so reruns over the same stream are comparable.
struct Request {
  std::string key;
  std::uint32_t penalty_us;
  std::string value;
};

Request MakeRequest(std::uint64_t keys, Rng& rng) {
  const double u = rng.NextDouble();
  const auto rank =
      static_cast<std::uint64_t>(u * u * static_cast<double>(keys));
  Request req;
  req.key = "k:" + std::to_string(rank);
  const std::uint64_t h = rank * 0x9E3779B97F4A7C15ULL;
  req.penalty_us = 500 + static_cast<std::uint32_t>((h >> 7) % 7) * 1500;
  req.value.assign(64 + (h >> 13) % 960, 'v');
  return req;
}

/// Mean value bytes over the rank space — the working set this sweep
/// sizes DRAM against (key/metadata overhead deliberately excluded; the
/// fractions are nominal labels, not exact occupancies).
std::uint64_t WorkingSetBytes(std::uint64_t keys) {
  std::uint64_t total = 0;
  for (std::uint64_t rank = 0; rank < keys; ++rank) {
    const std::uint64_t h = rank * 0x9E3779B97F4A7C15ULL;
    total += 64 + (h >> 13) % 960;
  }
  return total;
}

class TempFlashDir {
 public:
  TempFlashDir() {
    char tmpl[] = "/tmp/pamakv-bench-flash-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      throw std::runtime_error("mkdtemp failed for the bench flash dir");
    }
    path_ = tmpl;
  }
  ~TempFlashDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

struct RunRow {
  double dram_fraction = 0.0;
  std::uint64_t dram_mb = 0;
  bool flash = false;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;        ///< DRAM + flash
  std::uint64_t flash_hits = 0;  ///< subset served by promotion
  std::uint64_t misses = 0;
  std::uint64_t miss_penalty_total_us = 0;
  std::uint64_t flash_penalty_saved_us = 0;
  std::uint64_t demotes = 0;
  std::vector<std::uint64_t> demotes_by_band;

  [[nodiscard]] double hit_ratio() const {
    return static_cast<double>(hits) / static_cast<double>(requests);
  }
};

/// One full cache-aside replay. `tier` may be null (DRAM-only run); the
/// deferred-read round trip runs inline (no IO thread) — this bench
/// measures what the tier serves, not how fast the disk is.
RunRow Replay(const BenchParams& p, Bytes capacity, double fraction,
              flash::FlashTier* tier) {
  net::CacheServiceConfig cfg;
  cfg.shards = p.shards;
  cfg.capacity_bytes = capacity;
  net::CacheService service(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
  if (tier != nullptr) {
    service.AttachFlash(tier);
    service.RecoverFlash();
  }

  RunRow row;
  row.dram_fraction = fraction;
  row.dram_mb = capacity / kMB;
  row.flash = tier != nullptr;
  row.requests = p.requests;

  Rng rng(p.seed);
  std::vector<char> out;
  for (std::uint64_t i = 0; i < p.requests; ++i) {
    Request req = MakeRequest(p.keys, rng);
    out.clear();
    bool hit = false;
    net::CacheService::FlashPending pending;
    const auto outcome = service.GetFlashAware(
        req.key, out, /*with_cas=*/false, /*touch=*/false, 0, &hit, &pending);
    if (outcome == net::CacheService::FlashOutcome::kDeferred) {
      bool ok = false;
      std::string payload;
      service.SubmitFlashRead(pending, nullptr,
                              [&](bool read_ok, std::string bytes) {
                                ok = read_ok;
                                payload = std::move(bytes);
                              });
      hit = service.CompleteFlashGet(pending, ok, payload, req.key, out,
                                     /*with_cas=*/false, /*touch=*/false, 0);
    }
    if (hit) {
      ++row.hits;
    } else {
      ++row.misses;
      row.miss_penalty_total_us += req.penalty_us;
      service.Set(req.key, req.penalty_us, req.value);
    }
  }

  const net::ServiceCounters counters = service.Totals().counters;
  row.flash_hits = counters.flash_hits;
  row.flash_penalty_saved_us = counters.flash_penalty_saved_us;
  if (tier != nullptr) {
    SubclassId max_band = 0;
    for (std::size_t s = 0; s < tier->shard_count(); ++s) {
      row.demotes += tier->shard_stats(s).demotes;
      max_band = std::max(max_band, tier->MaxBandSeen(s));
    }
    row.demotes_by_band.assign(max_band, 0);
    for (std::size_t s = 0; s < tier->shard_count(); ++s) {
      for (SubclassId b = 0; b < tier->MaxBandSeen(s); ++b) {
        row.demotes_by_band[b] += tier->DemotesForBand(s, b);
      }
    }
  }
  return row;
}

void WriteCsv(std::ostream& out, const std::vector<RunRow>& rows) {
  out << "dram_fraction,dram_mb,flash,requests,hits,flash_hits,misses,"
         "hit_ratio,miss_penalty_total_us,flash_penalty_saved_us,demotes\n";
  for (const RunRow& r : rows) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%.2f,%llu,%d,%llu,%llu,%llu,%llu,%.4f,%llu,%llu,%llu\n",
                  r.dram_fraction, static_cast<unsigned long long>(r.dram_mb),
                  r.flash ? 1 : 0,
                  static_cast<unsigned long long>(r.requests),
                  static_cast<unsigned long long>(r.hits),
                  static_cast<unsigned long long>(r.flash_hits),
                  static_cast<unsigned long long>(r.misses), r.hit_ratio(),
                  static_cast<unsigned long long>(r.miss_penalty_total_us),
                  static_cast<unsigned long long>(r.flash_penalty_saved_us),
                  static_cast<unsigned long long>(r.demotes));
    out << line;
  }
}

void WriteJson(std::ostream& out, const BenchParams& p,
               std::uint64_t working_set_bytes,
               const std::vector<RunRow>& rows) {
  char buf[512];
  out << "{\n";
  std::snprintf(buf, sizeof buf,
                "  \"bench\": \"bench_flash\",\n"
                "  \"scheme\": \"pama\",\n"
                "  \"shards\": %zu,\n"
                "  \"keys\": %llu,\n"
                "  \"requests_per_run\": %llu,\n"
                "  \"working_set_mb\": %llu,\n"
                "  \"flash_factor\": %.1f,\n"
                "  \"runs\": [\n",
                p.shards, static_cast<unsigned long long>(p.keys),
                static_cast<unsigned long long>(p.requests),
                static_cast<unsigned long long>(working_set_bytes / kMB),
                p.flash_factor);
  out << buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& r = rows[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"dram_fraction\": %.2f, \"dram_mb\": %llu, \"flash\": %s, "
        "\"hit_ratio\": %.4f, \"flash_hits\": %llu, "
        "\"miss_penalty_total_us\": %llu, \"flash_penalty_saved_us\": %llu, "
        "\"demotes\": %llu, \"demotes_by_band\": [",
        r.dram_fraction, static_cast<unsigned long long>(r.dram_mb),
        r.flash ? "true" : "false", r.hit_ratio(),
        static_cast<unsigned long long>(r.flash_hits),
        static_cast<unsigned long long>(r.miss_penalty_total_us),
        static_cast<unsigned long long>(r.flash_penalty_saved_us),
        static_cast<unsigned long long>(r.demotes));
    out << buf;
    for (std::size_t b = 0; b < r.demotes_by_band.size(); ++b) {
      out << (b ? ", " : "")
          << static_cast<unsigned long long>(r.demotes_by_band[b]);
    }
    out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double scale = BenchScaleFromEnv(0.5);
  BenchParams p;
  p.requests = Scaled(800'000, scale);
  p.keys = static_cast<std::uint64_t>(args.GetInt("keys", 60'000));
  p.flash_factor = args.GetDouble("flash-factor", p.flash_factor);
  p.seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  const std::string root = args.GetString("out-root", PAMAKV_REPO_ROOT);

  const std::uint64_t working_set = WorkingSetBytes(p.keys);
  std::fprintf(stderr, "# working set: %llu keys, %llu MB\n",
               static_cast<unsigned long long>(p.keys),
               static_cast<unsigned long long>(working_set / kMB));

  std::vector<RunRow> rows;
  for (const double fraction : {0.25, 0.50, 0.75}) {
    const Bytes dram = static_cast<Bytes>(
        static_cast<double>(working_set) * fraction);
    rows.push_back(Replay(p, dram, fraction, nullptr));
    {
      TempFlashDir dir;
      flash::FlashConfig fcfg;
      fcfg.dir = dir.path();
      fcfg.shards = p.shards;
      fcfg.segment_bytes = 4 * kMB;
      fcfg.cap_bytes = static_cast<std::size_t>(
          static_cast<double>(working_set) * p.flash_factor);
      flash::FlashTier tier(fcfg);
      rows.push_back(Replay(p, dram, fraction, &tier));
    }
    const RunRow& dram_only = rows[rows.size() - 2];
    const RunRow& with_flash = rows.back();
    std::fprintf(
        stderr,
        "# dram=%.0f%% (%lluMB): hit %.3f -> %.3f, miss-penalty %llums -> "
        "%llums (saved %llums via %llu flash hits)\n",
        fraction * 100, static_cast<unsigned long long>(dram / kMB),
        dram_only.hit_ratio(), with_flash.hit_ratio(),
        static_cast<unsigned long long>(dram_only.miss_penalty_total_us /
                                        1000),
        static_cast<unsigned long long>(with_flash.miss_penalty_total_us /
                                        1000),
        static_cast<unsigned long long>(with_flash.flash_penalty_saved_us /
                                        1000),
        static_cast<unsigned long long>(with_flash.flash_hits));
  }

  const auto json_path = std::filesystem::path(root) / "BENCH_flash.json";
  const auto csv_path =
      std::filesystem::path(root) / "results" / "bench_flash.csv";
  std::filesystem::create_directories(csv_path.parent_path());
  std::ofstream json(json_path);
  WriteJson(json, p, working_set, rows);
  std::ofstream csv(csv_path);
  WriteCsv(csv, rows);
  WriteCsv(std::cout, rows);
  std::fprintf(stderr, "# wrote %s and %s\n", json_path.string().c_str(),
               csv_path.string().c_str());
  return 0;
}

}  // namespace
}  // namespace pamakv::bench

int main(int argc, char** argv) {
  try {
    return pamakv::bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_flash: %s\n", e.what());
    return 1;
  }
}
