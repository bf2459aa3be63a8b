// pamakv-server: memcached-ASCII TCP server over the PAMA cache library.
//
//   pamakv-server --policy=pama --shards=4 --capacity-mb=256 --port=11211
//
// Any scheme from the experiment registry (memcached, psa, twemcache,
// facebook-age, pre-pama, pama, pama-exact, lama-hr, lama-st) can back the
// server; each shard gets its own engine + policy instance. The `flags`
// field of `set` carries the key's miss penalty in microseconds, which is
// what makes penalty bands work over the wire (see DESIGN.md §8).
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include <memory>

#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/metrics_http.hpp"
#include "pamakv/net/server.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/arg_parser.hpp"
#include "pamakv/util/failpoint.hpp"
#include "pamakv/util/metrics.hpp"

namespace pamakv {
namespace {

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.Describe("host", "listen address (default 127.0.0.1)")
      .Describe("port", "TCP port; 0 picks an ephemeral one (default 11211)")
      .Describe("policy", "allocation scheme per shard (default pama)")
      .Describe("shards", "independent engines, keys hash-routed (default 4)")
      .Describe("threads", "event-loop threads (default 1)")
      .Describe("loop-threads", "alias for --threads (DESIGN.md §12)")
      .Describe("batch-depth",
                "max pipelined commands a connection runs as one batch, "
                "one shard lock and WAL commit per shard group; 0 counts "
                "as 1 (default 64)")
      .Describe("capacity-mb", "total cache capacity in MiB (default 256)")
      .Describe("default-penalty-us",
                "miss penalty for keys stored with flags=0 (default 1000)")
      .Describe("max-conns",
                "shed accepts with SERVER_ERROR above this many open "
                "connections; 0 = unlimited (default 0)")
      .Describe("idle-timeout-ms",
                "close a connection after this long without I/O; "
                "0 = never (default 0)")
      .Describe("request-timeout-ms",
                "close a connection whose in-flight request stalls this "
                "long; 0 = never (default 0)")
      .Describe("tx-pause-kb",
                "stop reading a client whose unsent responses exceed this "
                "(resumes at a quarter of it); 0 = off (default 256)")
      .Describe("tx-cap-mb",
                "hard-close a client whose unsent responses exceed this; "
                "0 = unlimited (default 0)")
      .Describe("drain-ms",
                "graceful-shutdown grace period on SIGTERM/SIGINT before "
                "in-flight connections are force-closed (default 5000)")
      .Describe("accept-retry-ms",
                "how long to pause accepting after fd exhaustion before "
                "re-arming the listener (default 10)")
      .Describe("reap-interval-ms",
                "background expiry sweep period; 0 disables the sweep "
                "(lazy on-access expiry still runs) (default 1000)")
      .Describe("reap-batch",
                "max expired items collected per shard per sweep "
                "(default 1024)")
      .Describe("metrics-port",
                "serve Prometheus text exposition on this port at /metrics "
                "(0 picks an ephemeral one); off unless given")
      .Describe("metrics-dump-ms",
                "append every metric series to --metrics-dump-file this "
                "often; 0 = off (default 0; implies the metrics endpoint)")
      .Describe("metrics-dump-file",
                "CSV file the periodic dump appends to "
                "(default results/metrics.csv)")
      .Describe("data-dir",
                "enable crash-safe persistence: snapshots + append-only "
                "logs live in this existing writable directory (DESIGN.md "
                "§13); off unless given")
      .Describe("persist-fsync",
                "WAL durability: always | never | interval:<ms> "
                "(default interval:100)")
      .Describe("snapshot-batch",
                "keys serialized per shard-lock hold while snapshotting "
                "(default 512)")
      .Describe("flash-dir",
                "enable the flash victim tier: DRAM evictions demote into "
                "append-only segment logs in this existing writable "
                "directory (DESIGN.md §14); off unless given")
      .Describe("flash-segment-mb",
                "flash segment file size in MiB (default 4)")
      .Describe("flash-cap-mb",
                "total flash tier capacity in MiB across shards "
                "(default 1024)")
      .Describe("flash-admit-min-value",
                "demotion admission floor: only victims whose (class,band) "
                "incoming slab value is at least this reach flash; 0 admits "
                "everything (default 0)")
      .Describe("port-file",
                "write the bound data port to this file once listening "
                "(for harnesses using --port=0)");
  if (args.HelpRequested()) {
    args.PrintHelp(std::cout, "pamakv-server",
                   "memcached-ASCII server over the PAMA cache");
    return 0;
  }
  // A typo like --persist-fsnc must be a startup error, not a silently
  // ignored default — especially for flags that gate durability.
  args.RejectUnknown();

  const std::string scheme = args.GetString("policy", "pama");
  if (!IsKnownScheme(scheme)) {
    std::fprintf(stderr, "unknown --policy=%s; known:", scheme.c_str());
    for (const auto& name : AllSchemeNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  net::CacheServiceConfig cache_cfg;
  cache_cfg.shards = static_cast<std::size_t>(args.GetInt("shards", 4));
  cache_cfg.capacity_bytes =
      static_cast<Bytes>(args.GetInt("capacity-mb", 256)) * 1024 * 1024;
  cache_cfg.default_penalty_us = args.GetInt("default-penalty-us", 1'000);

  net::ServerConfig server_cfg;
  server_cfg.host = args.GetString("host", "127.0.0.1");
  server_cfg.port = static_cast<std::uint16_t>(args.GetInt("port", 11211));
  server_cfg.threads = static_cast<std::size_t>(
      args.Has("loop-threads") ? args.GetInt("loop-threads", 1)
                               : args.GetInt("threads", 1));
  server_cfg.batch_depth = static_cast<std::size_t>(args.GetInt(
      "batch-depth", static_cast<std::int64_t>(net::kDefaultBatchDepth)));
  server_cfg.max_conns =
      static_cast<std::size_t>(args.GetInt("max-conns", 0));
  server_cfg.idle_timeout_ms = args.GetInt("idle-timeout-ms", 0);
  server_cfg.request_timeout_ms = args.GetInt("request-timeout-ms", 0);
  server_cfg.tx_pause_bytes =
      static_cast<std::size_t>(args.GetInt("tx-pause-kb", 256)) * 1024;
  server_cfg.tx_resume_bytes = server_cfg.tx_pause_bytes / 4;
  server_cfg.tx_cap_bytes =
      static_cast<std::size_t>(args.GetInt("tx-cap-mb", 0)) * 1024 * 1024;
  server_cfg.accept_retry_ms = args.GetInt("accept-retry-ms", 10);
  server_cfg.reap_interval_ms = args.GetInt("reap-interval-ms", 1'000);
  server_cfg.reap_batch =
      static_cast<std::size_t>(args.GetInt("reap-batch", 1'024));
  const std::int64_t drain_ms = args.GetInt("drain-ms", 5'000);

#if PAMAKV_FAILPOINTS
  // Chaos builds can arm injection points from the environment, e.g.
  //   PAMAKV_FAILPOINTS_CFG="net.accept4=EMFILE@p:0.1;net.writev=short:1"
  if (const std::size_t armed = util::FailPoints::ConfigureFromEnv();
      armed > 0) {
    std::fprintf(stderr, "# failpoints: %zu armed from env\n", armed);
  }
#endif

  net::CacheService service(cache_cfg, [&](Bytes bytes) {
    return MakeEngine(scheme, bytes, SizeClassConfig{});
  });

  // Flash victim tier (off unless --flash-dir is given), attached before
  // persistence recovery: restoring a shard replays that shard's segments
  // right after its snapshot and log, so one pass per shard decides which
  // copy of a key survives, and the shard demotes only once its segments
  // are replayed. The tier is declared before the server so read
  // completions can never outlive it; Server::Teardown joins its IO
  // thread before destroying loops.
  std::unique_ptr<flash::FlashTier> flash_tier;
  flash::FlashConfig flash_cfg;
  if (args.Has("flash-dir")) {
    flash_cfg.dir = args.GetString("flash-dir", "");
    flash_cfg.shards = cache_cfg.shards;
    flash_cfg.segment_bytes =
        static_cast<std::size_t>(args.GetInt("flash-segment-mb", 4)) * 1024 *
        1024;
    flash_cfg.cap_bytes =
        static_cast<std::size_t>(args.GetInt("flash-cap-mb", 1'024)) * 1024 *
        1024;
    flash_cfg.admit_min_value = args.GetDouble("flash-admit-min-value", 0.0);
    flash_tier = std::make_unique<flash::FlashTier>(flash_cfg);
    service.AttachFlash(flash_tier.get());
  }

  // Persistence (off unless --data-dir is given): recover yesterday's
  // snapshot + log tail into the shards, then log every acknowledged
  // mutation from here on. Recovery failures — bad directory, mid-file
  // corruption — are clean one-line exits before we ever listen.
  std::unique_ptr<persist::Persister> persister;
  if (args.Has("data-dir")) {
    persist::PersistConfig persist_cfg;
    persist_cfg.data_dir = args.GetString("data-dir", "");
    persist_cfg.fsync_mode = persist::ParseFsyncSpec(
        args.GetString("persist-fsync", "interval:100"),
        &persist_cfg.fsync_interval_ms);
    persist_cfg.snapshot_batch =
        static_cast<std::size_t>(args.GetInt("snapshot-batch", 512));
    persister = std::make_unique<persist::Persister>(service, persist_cfg);
    const persist::RecoveryReport report = persister->Recover();
    // Recovery can take long enough for the startup wall/mono anchor to
    // drift; re-capture it so absolute exptimes land on fresh bases.
    service.ReanchorNow();
    service.SetPersistence(persister.get());
    persister->Start();
    std::fprintf(stderr,
                 "# persistence: dir=%s fsync=%s recovered %llu items "
                 "(%llu snapshots, %llu log records, %llu torn tails "
                 "truncated)\n",
                 persist_cfg.data_dir.c_str(),
                 args.GetString("persist-fsync", "interval:100").c_str(),
                 static_cast<unsigned long long>(report.items_recovered),
                 static_cast<unsigned long long>(report.snapshots_loaded),
                 static_cast<unsigned long long>(report.wal_records_replayed),
                 static_cast<unsigned long long>(report.wal_tails_truncated));
  }

  if (flash_tier != nullptr) {
    // Without --data-dir no restore replayed the segments: the tier
    // recovers against DRAM alone.
    service.RecoverFlash();
    flash_tier->StartIo();
    std::uint64_t recovered = 0;
    std::uint64_t corrupt = 0;
    for (std::size_t s = 0; s < flash_tier->shard_count(); ++s) {
      recovered += flash_tier->shard_stats(s).recovered_items;
      corrupt += flash_tier->shard_stats(s).corrupt_segments_dropped;
    }
    std::fprintf(stderr,
                 "# flash: dir=%s cap=%lluMiB segment=%lluMiB admit-min=%.3f "
                 "recovered %llu items (%llu corrupt segments dropped)\n",
                 flash_cfg.dir.c_str(),
                 static_cast<unsigned long long>(flash_cfg.cap_bytes >> 20),
                 static_cast<unsigned long long>(flash_cfg.segment_bytes >> 20),
                 flash_cfg.admit_min_value,
                 static_cast<unsigned long long>(recovered),
                 static_cast<unsigned long long>(corrupt));
  }

  // Block the shutdown signals before the loop threads spawn so they
  // inherit the mask and only main's sigwait sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  net::Server server(server_cfg, service);

  // Observability: one registry feeds the `stats detail` command, the
  // Prometheus endpoint and the periodic CSV dump (DESIGN.md §10).
  util::MetricsRegistry registry;
  std::unique_ptr<net::MetricsHttpServer> metrics_http;
  const std::int64_t dump_ms = args.GetInt("metrics-dump-ms", 0);
  if (args.Has("metrics-port") || dump_ms > 0) {
    service.RegisterMetrics(registry);
    server.EnableMetrics(registry);
    net::MetricsHttpConfig metrics_cfg;
    metrics_cfg.host = server_cfg.host;
    metrics_cfg.port =
        static_cast<std::uint16_t>(args.GetInt("metrics-port", 0));
    metrics_cfg.dump_ms = dump_ms;
    metrics_cfg.dump_path =
        args.GetString("metrics-dump-file", "results/metrics.csv");
    metrics_http =
        std::make_unique<net::MetricsHttpServer>(metrics_cfg, registry);
  }

  server.Start();
  if (args.Has("port-file")) {
    // Crash/restart harnesses start us with --port=0 and poll this file;
    // write + rename so a reader never sees a half-written port.
    const std::string port_file = args.GetString("port-file", "");
    const std::string tmp = port_file + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
      std::rename(tmp.c_str(), port_file.c_str());
    } else {
      std::fprintf(stderr, "pamakv-server: cannot write --port-file=%s\n",
                   port_file.c_str());
      return 1;
    }
  }
  if (metrics_http != nullptr) {
    metrics_http->Start();
    std::fprintf(stderr, "# metrics: http://%s:%u/metrics%s\n",
                 server_cfg.host.c_str(), metrics_http->port(),
                 dump_ms > 0 ? " (+ periodic CSV dump)" : "");
  }
  std::fprintf(stderr,
               "# pamakv-server: policy=%s shards=%zu capacity=%lluMiB "
               "threads=%zu batch-depth=%zu listening on %s:%u\n",
               scheme.c_str(), cache_cfg.shards,
               static_cast<unsigned long long>(cache_cfg.capacity_bytes >> 20),
               server_cfg.threads, server_cfg.batch_depth,
               server_cfg.host.c_str(), server.port());

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "# signal %d: draining (up to %lldms)\n", sig,
               static_cast<long long>(drain_ms));
  // Graceful drain: stop accepting, let in-flight requests complete and
  // tx buffers flush, then tear down — so a loadgen run that SIGTERMs the
  // server still gets responses for everything it sent. The whole drain —
  // connections AND the farewell snapshot below — shares one --drain-ms
  // budget.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(drain_ms);
  if (metrics_http != nullptr) metrics_http->Stop();
  const bool clean = server.Shutdown(std::chrono::milliseconds(drain_ms));
  std::fprintf(stderr, "# drain %s\n",
               clean ? "complete" : "expired (connections force-closed)");

  if (persister != nullptr) {
    // Farewell snapshot so the next start replays no log tail; bounded by
    // whatever drain budget remains (an abandoned shard's rolled WAL
    // still covers everything — slower restart, nothing lost).
    const bool full = persister->SnapshotNow(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            drain_deadline.time_since_epoch())
            .count());
    persister->Stop();
    std::fprintf(stderr, "# final snapshot %s\n",
                 full ? "complete" : "partial (drain budget expired)");
  }

  const CacheStats stats = service.Totals().stats;
  std::fprintf(stderr,
               "# served %llu gets (%.1f%% hits), %llu sets, %llu conns "
               "(%llu rejected, %llu timed out)\n",
               static_cast<unsigned long long>(stats.gets),
               100.0 * stats.HitRatio(),
               static_cast<unsigned long long>(stats.sets),
               static_cast<unsigned long long>(server.total_connections()),
               static_cast<unsigned long long>(server.rejected_connections()),
               static_cast<unsigned long long>(server.timed_out_connections()));
  return 0;
}

}  // namespace
}  // namespace pamakv

int main(int argc, char** argv) {
  try {
    return pamakv::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pamakv-server: %s\n", e.what());
    return 1;
  }
}
