// Warm vs. cold restart: time-to-baseline hit ratio after a server
// bounce, in requests and wall-clock seconds.
//
// One seeded cache-aside workload (Zipf-skewed keys, key-derived sizes
// and penalties, demand-fill on miss) runs three times over the same
// request stream:
//
//   1. seed run   — converges to the steady-state ("baseline") hit ratio
//                   with persistence attached, then takes a snapshot;
//   2. cold run   — a fresh empty cache serves the *continuation* of the
//                   stream (a bounced server sees ongoing traffic, not a
//                   replay of its history);
//   3. warm run   — a fresh cache first recovers the snapshot+WAL
//                   (penalty bands, ghost lists, items), then serves the
//                   byte-identical continuation.
//
// Time-to-baseline is the first measurement window that starts a run of
// three consecutive windows at --threshold (default 90%) of baseline —
// the one-window fill-time overshoot a cold cache shows while evictions
// are still free does not count as recovered. Writes BENCH_restart.json
// and results/bench_restart.csv at the repo root (override with
// --out-root=DIR).

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/util/rng.hpp"

namespace pamakv::bench {
namespace {

struct WindowRow {
  std::string mode;  // "seed", "cold" or "warm"
  std::size_t window = 0;
  std::uint64_t requests_so_far = 0;
  double window_hit_ratio = 0.0;
  double cum_hit_ratio = 0.0;
  double wall_seconds = 0.0;  // cumulative within the run
};

struct RunSummary {
  std::string mode;
  std::uint64_t time_to_baseline_requests = 0;  // 0 = never reached
  double time_to_baseline_seconds = 0.0;
  double final_cum_hit_ratio = 0.0;
  double first_window_hit_ratio = 0.0;
};

struct BenchParams {
  std::size_t shards = 2;
  Bytes capacity = 32 * kMB;
  std::uint64_t keys = 120'000;
  std::uint64_t requests = 600'000;
  std::uint64_t window = 10'000;
  /// Fraction of the baseline that counts as "recovered". 0.90 sits
  /// between a filling cold cache (first windows well below it) and the
  /// steady band of both runs; a recovered cache restores the layout of
  /// a long-aged one but not its full age, so 0.95 would demand more
  /// warmth than a bounce can carry.
  double threshold = 0.90;
  std::uint64_t seed = 42;
};

std::unique_ptr<net::CacheService> MakeService(const BenchParams& p) {
  net::CacheServiceConfig cfg;
  cfg.shards = p.shards;
  cfg.capacity_bytes = p.capacity;
  return std::make_unique<net::CacheService>(cfg, [](Bytes bytes) {
    return MakeEngine("pama", bytes, SizeClassConfig{});
  });
}

/// Key-derived request: the same key always has the same size and
/// penalty, so the PAMA layout the warm restart restores is the layout
/// this stream wants.
struct Request {
  std::string key;
  std::uint32_t penalty_us;
  std::string value;
};

Request MakeRequest(std::uint64_t keys, Rng& rng) {
  // Power-law key popularity: u^2 concentrates mass on low ranks, a
  // cheap stand-in for Zipf. Deliberately mild — a large hot set is what
  // makes a cold cache slow to refill and a warm restart worth having.
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

/// Serves `p.requests` from the stream `rng` continues, cache-aside
/// (get; on miss, set), recording one row per window. Callers hand cold
/// and warm byte-identical streams by copying the post-seed Rng.
std::vector<WindowRow> Replay(const std::string& mode,
                              net::CacheService& service,
                              const BenchParams& p, Rng& rng,
                              std::vector<WindowRow>& all_rows) {
  std::vector<WindowRow> rows;
  std::vector<char> out;
  std::uint64_t hits = 0, cum_hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 1; i <= p.requests; ++i) {
    Request req = MakeRequest(p.keys, rng);
    out.clear();
    if (service.Get(req.key, out, /*with_cas=*/false)) {
      ++hits;
      ++cum_hits;
    } else {
      service.Set(req.key, req.penalty_us, req.value);
    }
    if (i % p.window == 0) {
      WindowRow row;
      row.mode = mode;
      row.window = rows.size() + 1;
      row.requests_so_far = i;
      row.window_hit_ratio =
          static_cast<double>(hits) / static_cast<double>(p.window);
      row.cum_hit_ratio =
          static_cast<double>(cum_hits) / static_cast<double>(i);
      row.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      rows.push_back(row);
      all_rows.push_back(row);
      hits = 0;
    }
  }
  return rows;
}

RunSummary Summarize(const std::string& mode,
                     const std::vector<WindowRow>& rows, double baseline,
                     double threshold) {
  RunSummary s;
  s.mode = mode;
  s.final_cum_hit_ratio = rows.back().cum_hit_ratio;
  s.first_window_hit_ratio = rows.front().window_hit_ratio;
  const double target = baseline * threshold;
  // Sustained crossing: three consecutive windows at target, so the
  // transient overshoot while a cold cache is still filling (no
  // evictions yet) does not read as "recovered".
  constexpr std::size_t kSustain = 3;
  for (std::size_t i = 0; i + kSustain <= rows.size(); ++i) {
    bool held = true;
    for (std::size_t j = i; j < i + kSustain; ++j) {
      if (rows[j].window_hit_ratio < target) {
        held = false;
        break;
      }
    }
    if (held) {
      s.time_to_baseline_requests = rows[i].requests_so_far;
      s.time_to_baseline_seconds = rows[i].wall_seconds;
      break;
    }
  }
  return s;
}

class TempDataDir {
 public:
  TempDataDir() {
    char tmpl[] = "/tmp/pamakv-bench-restart-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      throw std::runtime_error("mkdtemp failed for the bench data dir");
    }
    path_ = tmpl;
  }
  ~TempDataDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

void WriteCsv(std::ostream& out, const std::vector<WindowRow>& rows) {
  out << "mode,window,requests_so_far,window_hit_ratio,cum_hit_ratio,"
         "wall_seconds\n";
  for (const WindowRow& r : rows) {
    char line[192];
    std::snprintf(line, sizeof line, "%s,%zu,%llu,%.4f,%.4f,%.4f\n",
                  r.mode.c_str(), r.window,
                  static_cast<unsigned long long>(r.requests_so_far),
                  r.window_hit_ratio, r.cum_hit_ratio, r.wall_seconds);
    out << line;
  }
}

void WriteJson(std::ostream& out, const BenchParams& p, double baseline,
               std::uint64_t recovered_items,
               const std::vector<RunSummary>& runs) {
  char buf[512];
  out << "{\n";
  std::snprintf(buf, sizeof buf,
                "  \"bench\": \"bench_restart\",\n"
                "  \"scheme\": \"pama\",\n"
                "  \"shards\": %zu,\n"
                "  \"capacity_mb\": %llu,\n"
                "  \"keys\": %llu,\n"
                "  \"requests_per_run\": %llu,\n"
                "  \"window\": %llu,\n"
                "  \"baseline_hit_ratio\": %.4f,\n"
                "  \"threshold\": %.2f,\n"
                "  \"recovered_items\": %llu,\n"
                "  \"runs\": [\n",
                p.shards,
                static_cast<unsigned long long>(p.capacity / kMB),
                static_cast<unsigned long long>(p.keys),
                static_cast<unsigned long long>(p.requests),
                static_cast<unsigned long long>(p.window), baseline,
                p.threshold,
                static_cast<unsigned long long>(recovered_items));
  out << buf;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunSummary& r = runs[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"mode\": \"%s\", \"time_to_baseline_requests\": %llu, "
        "\"time_to_baseline_seconds\": %.4f, "
        "\"first_window_hit_ratio\": %.4f, "
        "\"final_cum_hit_ratio\": %.4f}%s\n",
        r.mode.c_str(),
        static_cast<unsigned long long>(r.time_to_baseline_requests),
        r.time_to_baseline_seconds, r.first_window_hit_ratio,
        r.final_cum_hit_ratio, i + 1 < runs.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double scale = BenchScaleFromEnv(0.5);
  BenchParams p;
  p.requests = Scaled(1'200'000, scale);
  p.keys = static_cast<std::uint64_t>(args.GetInt("keys", 120'000));
  p.window = static_cast<std::uint64_t>(args.GetInt("window", 10'000));
  p.threshold = args.GetDouble("threshold", p.threshold);
  p.seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  const std::string root = args.GetString("out-root", PAMAKV_REPO_ROOT);

  std::vector<WindowRow> all_rows;
  TempDataDir data_dir;
  Rng stream(p.seed);

  // ---- seed run: converge, then persist ----
  std::uint64_t recovered_items = 0;
  {
    auto service = MakeService(p);
    persist::PersistConfig pcfg;
    pcfg.data_dir = data_dir.path();
    pcfg.fsync_mode = persist::FsyncMode::kNever;  // bench I/O, not fsync
    persist::Persister persister(*service, pcfg);
    persister.Recover();
    service->SetPersistence(&persister);
    Replay("seed", *service, p, stream, all_rows);
    service->SetPersistence(nullptr);
    if (!persister.SnapshotNow()) {
      throw std::runtime_error("seed-run snapshot failed");
    }
    persister.Stop();
  }

  // Baseline = converged tail of the seed run (last quarter of windows).
  double baseline = 0.0;
  {
    std::size_t n = 0;
    for (const WindowRow& r : all_rows) {
      if (r.requests_so_far > p.requests * 3 / 4) {
        baseline += r.window_hit_ratio;
        ++n;
      }
    }
    baseline /= static_cast<double>(n);
  }

  // Both measurement runs serve the byte-identical continuation of the
  // stream the seed run ended on — a bounce, not a replay of history.
  std::vector<RunSummary> runs;

  // ---- cold run: empty cache, continued traffic ----
  {
    auto service = MakeService(p);
    Rng continued = stream;
    const auto rows = Replay("cold", *service, p, continued, all_rows);
    runs.push_back(Summarize("cold", rows, baseline, p.threshold));
  }

  // ---- warm run: recover the snapshot first, continued traffic ----
  {
    auto service = MakeService(p);
    persist::PersistConfig pcfg;
    pcfg.data_dir = data_dir.path();
    persist::Persister persister(*service, pcfg);
    recovered_items = persister.Recover().items_recovered;
    Rng continued = stream;
    const auto rows = Replay("warm", *service, p, continued, all_rows);
    runs.push_back(Summarize("warm", rows, baseline, p.threshold));
  }

  for (const RunSummary& r : runs) {
    std::fprintf(stderr,
                 "# %-4s first-window=%.3f baseline(%.0f%%)=%.3f "
                 "reached at %llu reqs / %.2fs\n",
                 r.mode.c_str(), r.first_window_hit_ratio, p.threshold * 100,
                 baseline * p.threshold,
                 static_cast<unsigned long long>(r.time_to_baseline_requests),
                 r.time_to_baseline_seconds);
  }

  const auto json_path = std::filesystem::path(root) / "BENCH_restart.json";
  const auto csv_path =
      std::filesystem::path(root) / "results" / "bench_restart.csv";
  std::filesystem::create_directories(csv_path.parent_path());
  std::ofstream json(json_path);
  WriteJson(json, p, baseline, recovered_items, runs);
  std::ofstream csv(csv_path);
  WriteCsv(csv, all_rows);
  WriteCsv(std::cout, all_rows);
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
    std::fprintf(stderr, "bench_restart: %s\n", e.what());
    return 1;
  }
}
