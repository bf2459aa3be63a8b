// loadgen: closed-loop memcached-protocol load generator for pamakv-server.
//
// N worker threads, one blocking connection each, drive a Zipf key stream:
// every op is a GET; a miss is followed by a SET of the same key
// (write-allocate, matching the simulator's discipline), and --set-ratio
// adds blind writes. Sizes and penalties are pure functions of the key
// (the penalty rides the flags field), so PAMA's bands see a stable
// penalty distribution. Per-op latency is sampled with the steady clock;
// results go to BENCH_server.json + results/bench_server.csv at the repo
// root, in the BENCH_throughput.json style (machine-readable trajectory
// for subsequent PRs).
//
// The server is external by default (measure real sockets, not an
// in-process shortcut):
//   build/server/pamakv-server --policy=pama --port=11311 &
//   build/bench/loadgen --port=11311 --connections=1,4 --ops=200000
//
// Matrix mode (--loop-threads=1,2 [--shards=2,4]) instead spawns a fresh
// in-process server per (loop-threads, shards) combination on an
// ephemeral port — still real sockets — and sweeps the connection list
// against each, emitting the connections × loop-threads × shards matrix
// into BENCH_server.json; each spawned server also serves its metrics on
// an ephemeral port, scraped for the server_p* columns. --pipeline=N
// drives N-deep pipelined GET rounds per connection so the shard-affine
// batching path (DESIGN.md §12) actually sees multi-op batches.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/client.hpp"
#include "pamakv/net/metrics_http.hpp"
#include "pamakv/net/server.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/types.hpp"
#include "pamakv/util/arg_parser.hpp"
#include "pamakv/util/histogram.hpp"
#include "pamakv/util/metrics.hpp"
#include "pamakv/util/rng.hpp"
#include "pamakv/util/zipf.hpp"

namespace pamakv::bench {
namespace {

struct RunResult {
  std::size_t connections = 0;
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t sets = 0;
  std::uint64_t cas_ops = 0;      ///< gets→cas round trips driven
  std::uint64_t cas_badval = 0;   ///< EXISTS: another writer won the race
  std::uint64_t cas_misses = 0;   ///< NOT_FOUND: key expired/evicted mid-cas
  std::uint64_t incr_ops = 0;
  std::uint64_t incr_misses = 0;  ///< NOT_FOUND incr (counter expired)
  // Server-side expiry deltas for the phase, from diffing `stats` output
  // around the run (0 when the stats fetch failed).
  std::uint64_t expired = 0;
  std::uint64_t expired_unfetched = 0;
  std::uint64_t reclaimed = 0;
  double wall_seconds = 0.0;
  double kops = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t errors = 0;  ///< connection-level ClientErrors survived
  // Server-side service-time quantiles for this phase, from diffing the
  // Prometheus endpoint's cumulative pamakv_service_time_us buckets
  // before/after the run. 0 when --metrics-port was not given.
  bool have_server_latency = false;
  double server_p50_us = 0.0;
  double server_p99_us = 0.0;
  double server_p999_us = 0.0;
  // Matrix-mode dimensions (0 = external server, configuration unknown).
  std::size_t loop_threads = 0;
  std::size_t shards = 0;
  std::size_t batch_depth = 0;
  std::size_t pipeline = 1;
};

enum class TtlDist : std::uint8_t {
  kNone,     ///< no expiry (exptime 0), the pre-expiry behavior
  kFixed,    ///< every set uses --ttl seconds
  kUniform,  ///< uniform [1, --ttl] seconds
  kZipf,     ///< Zipf-rank lifetimes over [1, --ttl]: short TTLs dominate
};

struct WorkerConfig {
  std::string host;
  std::uint16_t port = 0;
  std::uint64_t warmup_ops = 0;
  std::uint64_t measured_ops = 0;
  std::uint64_t key_space = 0;
  double set_ratio = 0.0;
  double cas_ratio = 0.0;
  double incr_ratio = 0.0;
  TtlDist ttl_dist = TtlDist::kNone;
  std::int64_t ttl_s = 60;
  const ZipfSampler* ttl_zipf = nullptr;  ///< set iff ttl_dist == kZipf
  std::size_t pipeline = 1;  ///< >1: N-deep pipelined GET rounds
};

/// Size (bytes) and penalty (µs, carried via flags) as pure functions of
/// the key, spanning several size classes and all five penalty bands.
Bytes SizeOf(std::uint64_t key) { return 64 + (Mix64(key) & 2047); }
std::uint32_t PenaltyOf(std::uint64_t key) {
  // Log-uniform-ish over [500µs, ~4.6s]: covers every paper band.
  const std::uint64_t h = Mix64(key ^ 0x9e3779b97f4a7c15ULL);
  const double unit = static_cast<double>(h >> 11) / 9007199254740992.0;
  return static_cast<std::uint32_t>(500.0 * std::pow(9210.0, unit));
}

void MakeValue(std::string& value, std::uint64_t key) {
  value.assign(SizeOf(key), static_cast<char>('a' + (key % 26)));
}

/// Reconnects with exponential backoff + jitter. A server shedding load
/// (fd exhaustion, max-conns, drain) recovers fastest when clients ease
/// off instead of hammering the listen queue in lockstep.
void ReconnectWithBackoff(net::BlockingClient& client,
                          const WorkerConfig& cfg, Rng& rng) {
  constexpr int kMaxAttempts = 10;
  for (int attempt = 0;; ++attempt) {
    try {
      client.Connect(cfg.host, cfg.port);
      return;
    } catch (const std::exception&) {
      if (attempt + 1 >= kMaxAttempts) throw;
      const double jitter = 0.5 + rng.NextDouble();  // 0.5x .. 1.5x
      const double delay_ms =
          static_cast<double>(1U << (attempt < 7 ? attempt : 7)) * jitter;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
  }
}

void Worker(const WorkerConfig& cfg, const ZipfSampler& zipf,
            std::uint64_t seed, std::vector<double>& latencies_us,
            RunResult& out) {
  net::BlockingClient client;
  client.Connect(cfg.host, cfg.port);
  Rng rng(seed);
  std::string key, value, fetched;
  latencies_us.reserve(cfg.measured_ops);

  const auto ttl_of = [&]() -> std::int64_t {
    switch (cfg.ttl_dist) {
      case TtlDist::kNone: return 0;
      case TtlDist::kFixed: return cfg.ttl_s;
      case TtlDist::kUniform:
        return 1 + static_cast<std::int64_t>(
                       rng.NextDouble() * static_cast<double>(cfg.ttl_s));
      case TtlDist::kZipf:
        // Rank 0 (most likely) = 1s, highest rank = ttl_s seconds: the
        // lifetime distribution memcached deployments actually see —
        // mostly short, a heavy tail of long. +1 keeps the sample off 0,
        // which the protocol would read as "never expires".
        return 1 + static_cast<std::int64_t>(cfg.ttl_zipf->Sample(rng));
    }
    return 0;
  };

  const auto run_ops = [&](std::uint64_t n, bool measure) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t k = zipf.Sample(rng);
      key.assign("key:");
      key.append(std::to_string(k));
      const double op_draw = rng.NextDouble();
      const bool blind_set = op_draw < cfg.set_ratio;
      const bool cas_op = !blind_set && op_draw < cfg.set_ratio + cfg.cas_ratio;
      const bool incr_op =
          !blind_set && !cas_op &&
          op_draw < cfg.set_ratio + cfg.cas_ratio + cfg.incr_ratio;
      const auto start = std::chrono::steady_clock::now();
      try {
        if (blind_set) {
          MakeValue(value, k);
          client.Set(key, PenaltyOf(k), value, ttl_of());
          if (measure) ++out.sets;
        } else if (cas_op) {
          // Optimistic read-modify-write: gets for the unique, cas back.
          // Under concurrency another worker can win the race (EXISTS) or
          // the item can expire/evict mid-flight (NOT_FOUND) — both are
          // the interesting columns, not errors.
          if (measure) ++out.cas_ops;
          std::uint64_t unique = 0;
          if (client.Gets(key, fetched, unique)) {
            MakeValue(value, k);
            const auto outcome =
                client.Cas(key, PenaltyOf(k), value, unique, ttl_of());
            if (measure) {
              if (outcome == net::BlockingClient::StoreOutcome::kExists) {
                ++out.cas_badval;
              } else if (outcome ==
                         net::BlockingClient::StoreOutcome::kNotFound) {
                ++out.cas_misses;
              }
            }
          } else {
            if (measure) ++out.cas_misses;
            MakeValue(value, k);
            client.Set(key, PenaltyOf(k), value, ttl_of());
          }
        } else if (incr_op) {
          // Counters live in their own small key space so they stay
          // numeric; a NOT_FOUND (expired/evicted counter) re-seeds it.
          if (measure) ++out.incr_ops;
          key.assign("ctr:");
          key.append(std::to_string(k % 1024));
          if (!client.Incr(key, 1).has_value()) {
            if (measure) ++out.incr_misses;
            client.Set(key, PenaltyOf(k), "0", ttl_of());
          }
        } else {
          if (measure) ++out.gets;
          const bool hit = client.Get(key, fetched);
          if (hit) {
            if (measure) ++out.get_hits;
          } else {
            // Write-allocate: a miss is immediately followed by a SET of
            // the same key, as the paper assumes.
            MakeValue(value, k);
            client.Set(key, PenaltyOf(k), value, ttl_of());
            if (measure) ++out.sets;
          }
        }
      } catch (const net::ClientError& e) {
        // Connection-level errors (idle reap, max-conns shed, drain,
        // reset) are a survivable part of measuring a server with
        // lifecycle limits on: reconnect and keep driving. A protocol
        // error means one end has a bug — that must surface.
        if (e.kind() == net::ClientError::Kind::kProtocol) throw;
        if (measure) ++out.errors;
        client.Close();
        ReconnectWithBackoff(client, cfg, rng);
        continue;
      }
      if (measure) {
        const auto end = std::chrono::steady_clock::now();
        latencies_us.push_back(
            std::chrono::duration<double, std::micro>(end - start).count());
        ++out.ops;
      }
    }
  };
  // Pipelined mode: rounds of --pipeline GETs written as one block, the
  // responses drained in order, then one write-allocate SET block for the
  // misses. Each round is one latency sample (the whole block's round
  // trip); the cas/incr mix is a closed-loop-only feature. This is the
  // workload the shard-affine batch path exists for: a connection's
  // staged batch only exceeds one op when the client actually pipelines.
  std::vector<std::uint64_t> round_keys;
  std::vector<std::uint64_t> missed_keys;
  std::string block;
  const auto run_pipelined = [&](std::uint64_t n, bool measure) {
    for (std::uint64_t done = 0; done < n;) {
      const std::size_t depth = static_cast<std::size_t>(
          std::min<std::uint64_t>(cfg.pipeline, n - done));
      round_keys.clear();
      block.clear();
      for (std::size_t i = 0; i < depth; ++i) {
        const std::uint64_t k = zipf.Sample(rng);
        round_keys.push_back(k);
        block.append("get key:");
        block.append(std::to_string(k));
        block.append("\r\n");
      }
      const auto start = std::chrono::steady_clock::now();
      try {
        client.SendRaw(block);
        missed_keys.clear();
        for (const std::uint64_t k : round_keys) {
          std::string line = client.ReadLine();
          if (line == "END") {
            missed_keys.push_back(k);
            continue;
          }
          if (line.compare(0, 6, "VALUE ") != 0) {
            throw net::ClientError(net::ClientError::Kind::kProtocol,
                                   "pipelined get: unexpected " + line);
          }
          const auto sp = line.rfind(' ');
          const std::size_t bytes =
              std::strtoull(line.c_str() + sp + 1, nullptr, 10);
          client.ReadExact(fetched, bytes + 2);  // payload + CRLF
          if (client.ReadLine() != "END") {
            throw net::ClientError(net::ClientError::Kind::kProtocol,
                                   "pipelined get: missing END");
          }
        }
        if (!missed_keys.empty()) {
          block.clear();
          for (const std::uint64_t k : missed_keys) {
            MakeValue(value, k);
            block.append("set key:");
            block.append(std::to_string(k));
            block.append(" ");
            block.append(std::to_string(PenaltyOf(k)));
            block.append(" ");
            block.append(std::to_string(ttl_of()));
            block.append(" ");
            block.append(std::to_string(value.size()));
            block.append("\r\n");
            block.append(value);
            block.append("\r\n");
          }
          client.SendRaw(block);
          for (std::size_t i = 0; i < missed_keys.size(); ++i) {
            if (client.ReadLine() != "STORED" && measure) ++out.errors;
          }
        }
        if (measure) {
          const auto end = std::chrono::steady_clock::now();
          latencies_us.push_back(
              std::chrono::duration<double, std::micro>(end - start).count());
          out.ops += depth;
          out.gets += depth;
          out.get_hits += depth - missed_keys.size();
          out.sets += missed_keys.size();
        }
      } catch (const net::ClientError& e) {
        if (e.kind() == net::ClientError::Kind::kProtocol) throw;
        if (measure) ++out.errors;
        client.Close();
        ReconnectWithBackoff(client, cfg, rng);
      }
      done += depth;
    }
  };

  if (cfg.pipeline > 1) {
    run_pipelined(cfg.warmup_ops, false);
    run_pipelined(cfg.measured_ops, true);
  } else {
    run_ops(cfg.warmup_ops, false);
    run_ops(cfg.measured_ops, true);
  }
}

RunResult Measure(const WorkerConfig& base, std::size_t connections,
                  const ZipfSampler& zipf, std::uint64_t total_ops) {
  WorkerConfig cfg = base;
  cfg.measured_ops = total_ops / connections;
  cfg.warmup_ops = base.warmup_ops / connections;

  std::vector<std::vector<double>> latencies(connections);
  std::vector<RunResult> partial(connections);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back(Worker, cfg, std::cref(zipf), 1000 + 7 * c,
                         std::ref(latencies[c]), std::ref(partial[c]));
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.connections = connections;
  std::vector<double> all;
  for (std::size_t c = 0; c < connections; ++c) {
    result.ops += partial[c].ops;
    result.gets += partial[c].gets;
    result.get_hits += partial[c].get_hits;
    result.sets += partial[c].sets;
    result.cas_ops += partial[c].cas_ops;
    result.cas_badval += partial[c].cas_badval;
    result.cas_misses += partial[c].cas_misses;
    result.incr_ops += partial[c].incr_ops;
    result.incr_misses += partial[c].incr_misses;
    result.errors += partial[c].errors;
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.kops = static_cast<double>(result.ops) / result.wall_seconds / 1e3;
  result.hit_ratio = result.gets > 0
                         ? static_cast<double>(result.get_hits) /
                               static_cast<double>(result.gets)
                         : 0.0;
  if (!all.empty()) {
    result.max_us = *std::max_element(all.begin(), all.end());
    result.p50_us = ExactQuantile(all, 0.5);
    result.p99_us = ExactQuantile(std::move(all), 0.99);
  }
  return result;
}

/// Expiry counters pulled from the `stats` command (all zero when the
/// fetch fails — the bench then reports no expiry delta for the phase).
struct ExpiryStats {
  std::uint64_t expired = 0;
  std::uint64_t expired_unfetched = 0;
  std::uint64_t reclaimed = 0;
};

ExpiryStats FetchExpiryStats(const std::string& host, std::uint16_t port) {
  ExpiryStats out;
  try {
    net::BlockingClient client;
    client.Connect(host, port);
    for (const auto& [name, value] : client.Stats()) {
      if (name == "expired") out.expired = value;
      if (name == "expired_unfetched") out.expired_unfetched = value;
      if (name == "reclaimed") out.reclaimed = value;
    }
  } catch (const std::exception&) {
    // best-effort: a shedding/draining server just means no delta
  }
  return out;
}

// ---- Prometheus endpoint scraping (server-side latency) ----

/// One HTTP/1.0 GET; returns the response body ("" on any failure — the
/// bench then simply reports no server-side quantiles for the phase).
std::string HttpGetBody(const std::string& host, std::uint16_t port,
                        const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto split = response.find("\r\n\r\n");
  if (split == std::string::npos || response.compare(0, 9, "HTTP/1.0 ") != 0 ||
      response.compare(9, 3, "200") != 0) {
    return "";
  }
  return response.substr(split + 4);
}

/// Cumulative service-time buckets per verb: verb -> le -> cumulative
/// count (le = +inf included, as infinity()).
using VerbBuckets = std::map<std::string, std::map<double, std::uint64_t>>;

VerbBuckets ScrapeServiceBuckets(const std::string& host,
                                 std::uint16_t port) {
  VerbBuckets out;
  const std::string body = HttpGetBody(host, port, "/metrics");
  constexpr std::string_view kPrefix = "pamakv_service_time_us_bucket{";
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kPrefix.size()) != kPrefix) continue;
    const auto GrabLabel = [&](std::string_view name) -> std::string_view {
      const std::string pat = std::string(name) + "=\"";
      const auto at = line.find(pat);
      if (at == std::string_view::npos) return {};
      const auto begin = at + pat.size();
      const auto end = line.find('"', begin);
      return line.substr(begin, end - begin);
    };
    const std::string_view verb = GrabLabel("verb");
    const std::string_view le = GrabLabel("le");
    const auto sp = line.rfind(' ');
    if (verb.empty() || le.empty() || sp == std::string_view::npos) continue;
    const double bound =
        le == "+Inf" ? std::numeric_limits<double>::infinity()
                     : std::strtod(std::string(le).c_str(), nullptr);
    const std::uint64_t cum =
        std::strtoull(std::string(line.substr(sp + 1)).c_str(), nullptr, 10);
    out[std::string(verb)][bound] = cum;
  }
  return out;
}

/// Diffs two scrapes and folds every verb into one merged snapshot, so the
/// reported quantiles cover the phase's full request mix.
util::HistogramSnapshot DiffServiceBuckets(const VerbBuckets& before,
                                           const VerbBuckets& after) {
  util::HistogramSnapshot merged;
  for (const auto& [verb, cum_after] : after) {
    util::HistogramSnapshot one;
    const auto it = before.find(verb);
    std::uint64_t prev_cum = 0;
    std::uint64_t prev_before = 0;
    for (const auto& [bound, cum] : cum_after) {
      std::uint64_t before_cum = 0;
      if (it != before.end()) {
        const auto bit = it->second.find(bound);
        if (bit != it->second.end()) before_cum = bit->second;
      }
      const std::uint64_t delta = (cum - prev_cum) - (before_cum - prev_before);
      prev_cum = cum;
      prev_before = before_cum;
      if (std::isinf(bound)) {
        one.total += delta;  // +Inf overflow bucket: counts, no bound
        continue;
      }
      one.bounds.push_back(bound);
      one.counts.push_back(delta);
      one.total += delta;
    }
    merged.Merge(one);
  }
  return merged;
}

void WriteCsv(std::ostream& out, const std::vector<RunResult>& rows) {
  // The first 21 columns are frozen for downstream diffing; the matrix
  // dimensions append after them (0 = external server, unknown config).
  out << "connections,ops,wall_seconds,kops,p50_us,p99_us,max_us,"
         "hit_ratio,sets,errors,cas_ops,cas_badval,cas_misses,"
         "incr_ops,incr_misses,expired,expired_unfetched,reclaimed,"
         "server_p50_us,server_p99_us,server_p999_us,"
         "loop_threads,shards,batch_depth,pipeline\n";
  for (const auto& r : rows) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "%zu,%llu,%.4f,%.2f,%.1f,%.1f,%.1f,%.4f,%llu,%llu,"
                  "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                  "%.2f,%.2f,%.2f,%zu,%zu,%zu,%zu\n",
                  r.connections, static_cast<unsigned long long>(r.ops),
                  r.wall_seconds, r.kops, r.p50_us, r.p99_us, r.max_us,
                  r.hit_ratio, static_cast<unsigned long long>(r.sets),
                  static_cast<unsigned long long>(r.errors),
                  static_cast<unsigned long long>(r.cas_ops),
                  static_cast<unsigned long long>(r.cas_badval),
                  static_cast<unsigned long long>(r.cas_misses),
                  static_cast<unsigned long long>(r.incr_ops),
                  static_cast<unsigned long long>(r.incr_misses),
                  static_cast<unsigned long long>(r.expired),
                  static_cast<unsigned long long>(r.expired_unfetched),
                  static_cast<unsigned long long>(r.reclaimed),
                  r.server_p50_us, r.server_p99_us, r.server_p999_us,
                  r.loop_threads, r.shards, r.batch_depth, r.pipeline);
    out << line;
  }
}

void WriteJson(std::ostream& out, const std::string& host, std::uint16_t port,
               std::uint64_t keys, double alpha,
               const std::vector<RunResult>& rows) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"loadgen\",\n"
                "  \"target\": \"%s:%u\",\n"
                "  \"key_space\": %llu,\n"
                "  \"zipf_alpha\": %.3f,\n"
                "  \"hardware_threads\": %u,\n"
                "  \"runs\": [\n",
                host.c_str(), port, static_cast<unsigned long long>(keys),
                alpha, std::thread::hardware_concurrency());
  out << buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"connections\": %zu, \"ops\": %llu, "
                  "\"wall_seconds\": %.4f, \"kops\": %.2f, "
                  "\"p50_us\": %.1f, \"p99_us\": %.1f, \"max_us\": %.1f, "
                  "\"hit_ratio\": %.4f, \"errors\": %llu, "
                  "\"cas_ops\": %llu, \"cas_badval\": %llu, "
                  "\"cas_misses\": %llu, \"incr_ops\": %llu, "
                  "\"incr_misses\": %llu, \"expired\": %llu, "
                  "\"expired_unfetched\": %llu, \"reclaimed\": %llu, "
                  "\"server_p50_us\": %.2f, \"server_p99_us\": %.2f, "
                  "\"server_p999_us\": %.2f, \"loop_threads\": %zu, "
                  "\"shards\": %zu, \"batch_depth\": %zu, "
                  "\"pipeline\": %zu}%s\n",
                  r.connections, static_cast<unsigned long long>(r.ops),
                  r.wall_seconds, r.kops, r.p50_us, r.p99_us, r.max_us,
                  r.hit_ratio, static_cast<unsigned long long>(r.errors),
                  static_cast<unsigned long long>(r.cas_ops),
                  static_cast<unsigned long long>(r.cas_badval),
                  static_cast<unsigned long long>(r.cas_misses),
                  static_cast<unsigned long long>(r.incr_ops),
                  static_cast<unsigned long long>(r.incr_misses),
                  static_cast<unsigned long long>(r.expired),
                  static_cast<unsigned long long>(r.expired_unfetched),
                  static_cast<unsigned long long>(r.reclaimed),
                  r.server_p50_us, r.server_p99_us, r.server_p999_us,
                  r.loop_threads, r.shards, r.batch_depth, r.pipeline,
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

std::vector<std::size_t> ParseConnectionsList(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const long v = std::stol(tok);
    if (v <= 0) throw std::runtime_error("--connections: must be positive");
    out.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) throw std::runtime_error("--connections: empty list");
  return out;
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.Describe("host", "server address (default 127.0.0.1)")
      .Describe("port", "server port (default 11211)")
      .Describe("connections", "comma list of connection counts, e.g. 1,4")
      .Describe("ops", "measured ops per run, split across connections")
      .Describe("warmup-ops", "unmeasured warmup ops per run")
      .Describe("keys", "distinct keys (default 100000)")
      .Describe("alpha", "Zipf skew (default 1.0)")
      .Describe("set-ratio", "fraction of blind SETs (default 0.1)")
      .Describe("cas-ratio",
                "fraction of ops that are gets->cas read-modify-writes "
                "(default 0)")
      .Describe("incr-ratio",
                "fraction of ops that are incr on a counter key space "
                "(default 0)")
      .Describe("ttl-dist",
                "TTL distribution for stored values: none, fixed, uniform "
                "or zipf (default none)")
      .Describe("ttl", "TTL scale in seconds for --ttl-dist (default 60)")
      .Describe("out-root", "directory for BENCH_server.json + results/")
      .Describe("metrics-port",
                "server's --metrics-port; scraped between phases so each "
                "run reports server-side p50/p99/p999 (off unless given)")
      .Describe("pipeline",
                "GETs pipelined per round per connection (default 1 = "
                "closed loop); >1 exercises the shard-affine batch path")
      .Describe("loop-threads",
                "matrix mode: comma list of event-loop thread counts; "
                "spawns an in-process server per (loop-threads, shards) "
                "combo instead of targeting --host/--port")
      .Describe("shards",
                "matrix mode: comma list of shard counts (default 4)")
      .Describe("batch-depth",
                "matrix mode: staged batch depth for spawned servers "
                "(default 64; 0 counts as 1)")
      .Describe("capacity-mb",
                "matrix mode: spawned server cache capacity (default 256)");
  if (args.HelpRequested()) {
    args.PrintHelp(std::cout, "loadgen",
                   "closed-loop memcached-protocol load generator");
    return 0;
  }
  // Same contract as the server: a misspelled flag is a clean one-line
  // error, never a silently applied default.
  args.RejectUnknown();

  const double scale = BenchScaleFromEnv(0.5);
  const std::string host = args.GetString("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.GetInt("port", 11211));
  const auto conn_list =
      ParseConnectionsList(args.GetString("connections", "1,4"));
  const auto ops = static_cast<std::uint64_t>(static_cast<double>(args.GetInt(
                       "ops", 200'000)) * scale);
  const auto warmup =
      static_cast<std::uint64_t>(args.GetInt("warmup-ops", 50'000));
  const auto keys = static_cast<std::uint64_t>(args.GetInt("keys", 100'000));
  const double alpha = args.GetDouble("alpha", 1.0);
  const double set_ratio = args.GetDouble("set-ratio", 0.1);
  const double cas_ratio = args.GetDouble("cas-ratio", 0.0);
  const double incr_ratio = args.GetDouble("incr-ratio", 0.0);
  const std::string ttl_dist_name = args.GetString("ttl-dist", "none");
  const auto ttl_s = static_cast<std::int64_t>(args.GetInt("ttl", 60));
  const std::string root = args.GetString("out-root", PAMAKV_REPO_ROOT);

  TtlDist ttl_dist = TtlDist::kNone;
  if (ttl_dist_name == "fixed") {
    ttl_dist = TtlDist::kFixed;
  } else if (ttl_dist_name == "uniform") {
    ttl_dist = TtlDist::kUniform;
  } else if (ttl_dist_name == "zipf") {
    ttl_dist = TtlDist::kZipf;
  } else if (ttl_dist_name != "none") {
    throw std::runtime_error("--ttl-dist: none, fixed, uniform or zipf");
  }
  if (ttl_s <= 0) throw std::runtime_error("--ttl: must be positive");

  const ZipfSampler zipf(keys, alpha);
  // Lifetime sampler for --ttl-dist=zipf: ranks 1..ttl map straight to
  // seconds, so the common case is a 1s TTL with a heavy long tail.
  std::unique_ptr<ZipfSampler> ttl_zipf;
  if (ttl_dist == TtlDist::kZipf) {
    ttl_zipf = std::make_unique<ZipfSampler>(
        static_cast<std::uint64_t>(ttl_s), 1.0);
  }
  WorkerConfig base;
  base.host = host;
  base.port = port;
  base.warmup_ops = warmup;
  base.key_space = keys;
  base.set_ratio = set_ratio;
  base.cas_ratio = cas_ratio;
  base.incr_ratio = incr_ratio;
  base.ttl_dist = ttl_dist;
  base.ttl_s = ttl_s;
  base.ttl_zipf = ttl_zipf.get();
  base.pipeline =
      static_cast<std::size_t>(std::max(1L, args.GetInt("pipeline", 1)));

  const auto metrics_port =
      static_cast<std::uint16_t>(args.GetInt("metrics-port", 0));

  std::vector<RunResult> rows;
  const auto sweep = [&](const std::string& t_host, std::uint16_t t_port,
                         std::uint16_t t_metrics, std::size_t loops,
                         std::size_t nshards, std::size_t depth) {
    WorkerConfig wcfg = base;
    wcfg.host = t_host;
    wcfg.port = t_port;
    for (const std::size_t connections : conn_list) {
    // Scrape the endpoint around the phase: the cumulative bucket diff is
    // exactly this phase's server-side latency distribution (warmup ops
    // land in the 'before' scrape only for earlier phases; the first
    // phase's warmup is included — acceptable for a closed-loop bench).
    VerbBuckets before;
    if (t_metrics != 0) before = ScrapeServiceBuckets(t_host, t_metrics);
    const ExpiryStats expiry_before = FetchExpiryStats(t_host, t_port);
    rows.push_back(Measure(wcfg, connections, zipf, ops));
    RunResult& r = rows.back();
    r.loop_threads = loops;
    r.shards = nshards;
    r.batch_depth = depth;
    r.pipeline = wcfg.pipeline;
    const ExpiryStats expiry_after = FetchExpiryStats(t_host, t_port);
    r.expired = expiry_after.expired - expiry_before.expired;
    r.expired_unfetched =
        expiry_after.expired_unfetched - expiry_before.expired_unfetched;
    r.reclaimed = expiry_after.reclaimed - expiry_before.reclaimed;
    if (t_metrics != 0) {
      const VerbBuckets after = ScrapeServiceBuckets(t_host, t_metrics);
      const util::HistogramSnapshot phase =
          DiffServiceBuckets(before, after);
      if (phase.total > 0) {
        r.have_server_latency = true;
        r.server_p50_us = phase.Quantile(0.50);
        r.server_p99_us = phase.Quantile(0.99);
        r.server_p999_us = phase.Quantile(0.999);
      }
    }
    std::fprintf(stderr,
                 "# conns=%zu loops=%zu shards=%zu %8.1f kops/s "
                 "p50=%.0fus p99=%.0fus hit=%.3f wall=%.2fs errors=%llu\n",
                 r.connections, r.loop_threads, r.shards, r.kops, r.p50_us,
                 r.p99_us, r.hit_ratio, r.wall_seconds,
                 static_cast<unsigned long long>(r.errors));
    if (r.have_server_latency) {
      std::fprintf(stderr,
                   "#          server-side p50=%.1fus p99=%.1fus "
                   "p999=%.1fus\n",
                   r.server_p50_us, r.server_p99_us, r.server_p999_us);
    }
    if (r.cas_ops + r.incr_ops + r.expired > 0) {
      std::fprintf(
          stderr,
          "#          cas=%llu (badval=%llu miss=%llu) incr=%llu "
          "(miss=%llu) expired=%llu reclaimed=%llu\n",
          static_cast<unsigned long long>(r.cas_ops),
          static_cast<unsigned long long>(r.cas_badval),
          static_cast<unsigned long long>(r.cas_misses),
          static_cast<unsigned long long>(r.incr_ops),
          static_cast<unsigned long long>(r.incr_misses),
          static_cast<unsigned long long>(r.expired),
          static_cast<unsigned long long>(r.reclaimed));
      }
    }
  };

  if (args.Has("loop-threads")) {
    // Matrix mode: one fresh in-process server (and cache) per
    // (loop-threads, shards) combination so the phases are comparable —
    // still real sockets, on an ephemeral loopback port. Each server gets
    // its own metrics registry and endpoint (also ephemeral), which the
    // sweep scrapes for the server-side quantiles.
    const auto loops_list = ParseConnectionsList(args.GetString(
        "loop-threads", "1"));
    const auto shards_list =
        ParseConnectionsList(args.GetString("shards", "4"));
    const auto depth = static_cast<std::size_t>(
        std::max(0L, args.GetInt("batch-depth", 64)));
    const auto capacity_mb = static_cast<std::uint64_t>(
        std::max(1L, args.GetInt("capacity-mb", 256)));
    for (const std::size_t loops : loops_list) {
      for (const std::size_t nshards : shards_list) {
        net::CacheServiceConfig cache_cfg;
        cache_cfg.shards = nshards;
        cache_cfg.capacity_bytes = capacity_mb * 1024 * 1024;
        net::CacheService service(cache_cfg, [](Bytes bytes) {
          return MakeEngine("pama", bytes, SizeClassConfig{});
        });
        net::ServerConfig server_cfg;
        server_cfg.port = 0;  // ephemeral
        server_cfg.threads = loops;
        server_cfg.batch_depth = depth;
        util::MetricsRegistry registry;
        service.RegisterMetrics(registry);
        net::Server server(server_cfg, service);
        server.EnableMetrics(registry);
        net::MetricsHttpServer metrics_http(net::MetricsHttpConfig{}, registry);
        server.Start();
        metrics_http.Start();
        sweep("127.0.0.1", server.port(), metrics_http.port(), loops, nshards,
              depth);
        metrics_http.Stop();
        if (!server.Shutdown(std::chrono::milliseconds(10'000))) {
          throw std::runtime_error("matrix server failed to shut down");
        }
      }
    }
  } else {
    sweep(host, port, metrics_port, 0, 0, 0);
  }

  const auto json_path = std::filesystem::path(root) / "BENCH_server.json";
  const auto csv_path =
      std::filesystem::path(root) / "results" / "bench_server.csv";
  std::filesystem::create_directories(csv_path.parent_path());
  std::ofstream json(json_path);
  WriteJson(json, args.Has("loop-threads") ? "in-process-matrix" : host,
            args.Has("loop-threads") ? 0 : port, keys, alpha, rows);
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
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 1;
  }
}
