// perfbench-trace: replays one workload's request streams in-process, on
// this thread, through the library's public entry points, and prints one
// JSON line of per-layer numbers. End-to-end metrics never come from here.
//
//   perfbench-trace --workload=etc-churn --seed=1 --warmup=150000
//                   --requests=600000 --work-dir=run/trace --spans=run/spans.csv
//
// Each request line goes through ParseCommandLine. hot-pipelined then runs
// its rounds through ShardExecutor::Execute on an unbound executor (the
// batched CacheService::ExecuteOps entry the server uses); the others call
// the CacheService verbs, the flash-aware ones on durable-flash, with
// FlashTier::ReadNow serving deferred reads. durable-flash recovers from a
// copy of the crash state the TCP run left (--crash-data, --crash-flash),
// timing Persister::Recover and CacheService::RecoverFlash.
//
// The replay runs twice: once plain, once with the timing decorators and
// spans on. Both must see the same hits, misses and refused stores; the
// rate difference is the tracing overhead. A bounded flash GC probe
// follows (see RunGcProbe).
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "pamakv/flash/flash_tier.hpp"
#include "pamakv/net/batch.hpp"
#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/protocol.hpp"
#include "pamakv/net/shard_executor.hpp"
#include "pamakv/persist/persister.hpp"
#include "pamakv/policy/pama.hpp"
#include "pamakv/sim/experiment.hpp"
#include "pamakv/util/arg_parser.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = pamakv::net;
using pamakv::Bytes;

/// Spans kept in memory and written to the CSV (every span still counts
/// toward its layer's totals).
constexpr std::size_t kKeptSpans = 200'000;

/// Server flags the replay mirrors (run.py starts the server with these).
constexpr std::size_t kShards = 4;
Bytes CapacityOf(Workload w) {
  return (w == Workload::kHotPipelined ? 64ULL : 32ULL) << 20;
}

/// MakeEngine("pama", ...) with the policy wrapped in TimedPolicy.
std::unique_ptr<pamakv::CacheEngine> TimedPamaEngine(Bytes bytes,
                                                     Tracer& tracer) {
  const pamakv::SchemeOptions options;
  pamakv::EngineConfig cfg;
  cfg.size_classes = pamakv::SizeClassConfig{};
  cfg.capacity_bytes = bytes;
  cfg.hit_time_us = options.hit_time_us;
  cfg.seed = options.engine_seed;
  cfg.penalty_band_bounds = options.pama_bands.empty()
                                ? pamakv::PenaltyBandTable::PaperDefault().bounds()
                                : options.pama_bands;
  cfg.ghost_segments = static_cast<std::uint32_t>(
      std::max<std::size_t>(options.pama.reference_segments + 1, 2));
  return std::make_unique<pamakv::CacheEngine>(
      cfg, std::make_unique<TimedPolicy>(
               std::make_unique<pamakv::PamaPolicy>(options.pama), tracer));
}

struct Counts {
  std::uint64_t ops = 0, lines = 0, gets = 0, hits = 0, sets = 0,
                not_stored = 0, deletes = 0, failed = 0;
  std::uint64_t miss_penalty_us = 0;  ///< Σ penalty of every missed key
  std::uint64_t fsyncs = 0;  ///< WAL fsyncs during the measured replay loop
  double seconds = 0.0;  ///< the measured replay loop
};

/// "VALUE <key> <flags> <bytes>\r\n<data>\r\n", the block a hit appends.
void ExpectedBlock(std::string_view name, const Req& r, std::string& payload,
                   std::string& out) {
  MakePayload(name, r.size, payload);
  out = "VALUE ";
  out += name;
  out += ' ';
  out += std::to_string(r.penalty_us);
  out += ' ';
  out += std::to_string(r.size);
  out += "\r\n";
  out += payload;
  out += "\r\n";
}

/// One in-process replica of the server's data path for a workload.
class Replay {
 public:
  Replay(Workload w, Tracer* tracer, const fs::path& dir,
         const fs::path& crash_data, const fs::path& crash_flash,
         JsonObject& report)
      : w_(w), shape_(ShapeOf(w)), tracer_(tracer) {
    net::CacheServiceConfig cfg;
    cfg.shards = kShards;
    cfg.capacity_bytes = CapacityOf(w);
    service_ = std::make_unique<net::CacheService>(cfg, [tracer](Bytes bytes) {
      return tracer != nullptr
                 ? TimedPamaEngine(bytes, *tracer)
                 : pamakv::MakeEngine("pama", bytes, pamakv::SizeClassConfig{});
    });
    executor_ = std::make_unique<net::ShardExecutor>(*service_);
    if (w != Workload::kDurableFlash) return;

    // The server's start-up order (server/main.cpp): persistence recovery,
    // then the flash tier and its segment replay.
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::copy(crash_data, dir / "data", fs::copy_options::recursive);
    fs::copy(crash_flash, dir / "flash", fs::copy_options::recursive);
    pamakv::persist::PersistConfig pcfg;
    pcfg.data_dir = (dir / "data").string();
    persister_ = std::make_unique<pamakv::persist::Persister>(*service_, pcfg);
    // Recovery replays the WAL through the engines, so it is timed
    // directly rather than traced: its policy work is not request work.
    std::int64_t t0 = MonoNs();
    persister_->Recover();
    report.Num("persist.recover_s", static_cast<double>(MonoNs() - t0) * 1e-9);
    service_->ReanchorNow();
    if (tracer_ != nullptr) {
      sink_ = std::make_unique<TimedSink>(*persister_, *tracer_);
      service_->SetPersistence(sink_.get());
    } else {
      service_->SetPersistence(persister_.get());
    }
    persister_->Start();
    pamakv::flash::FlashConfig fcfg;
    fcfg.dir = (dir / "flash").string();
    fcfg.shards = kShards;
    fcfg.cap_bytes = 1024ULL << 20;
    fcfg.io_thread = false;
    tier_ = std::make_unique<pamakv::flash::FlashTier>(fcfg);
    service_->AttachFlash(tier_.get());
    t0 = MonoNs();
    service_->RecoverFlash();
    report.Num("flash.recover_s", static_cast<double>(MonoNs() - t0) * 1e-9);
  }

  ~Replay() {
    if (persister_ != nullptr) persister_->Stop();
  }

  void Preload(std::uint64_t keys) {
    std::string name, payload;
    for (std::uint64_t k = 0; k < keys; ++k) {
      const Req r = PopulationReq(w_, Kind::kSet, k);
      KeyName(shape_, k, name);
      MakePayload(name, r.size, payload);
      service_->Store(net::StoreVerb::kSet, name, r.penalty_us, 0, payload);
    }
  }

  /// Runs rounds until the planner's phase ends.
  void Run(RoundPlanner& planner, Counts& c) {
    const std::uint64_t fsyncs0 = Fsyncs();
    const std::int64_t t0 = MonoNs();
    std::vector<Req> round;
    while (planner.NextRound(round)) RunRound(planner, round, c);
    c.seconds = static_cast<double>(MonoNs() - t0) * 1e-9;
    c.fsyncs = Fsyncs() - fsyncs0;
  }

 private:
  /// The persister's `persist_fsyncs` stat; 0 without persistence.
  [[nodiscard]] std::uint64_t Fsyncs() const {
    if (persister_ == nullptr) return 0;
    std::vector<char> stats;
    persister_->AppendStats(stats);
    const std::string_view text(stats.data(), stats.size());
    constexpr std::string_view kName = "STAT persist_fsyncs ";
    const std::size_t at = text.find(kName);
    return at == std::string_view::npos
               ? 0
               : std::strtoull(text.data() + at + kName.size(), nullptr, 10);
  }

  void RunRound(RoundPlanner& planner, const std::vector<Req>& round, Counts& c) {
    const std::size_t n = round.size();
    if (lines_.size() < n) {
      lines_.resize(n);
      names_.resize(n);
      payloads_.resize(n);
      cmds_.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Req& r = round[i];
      KeyName(shape_, r.key, names_[i]);
      std::string& line = lines_[i];
      line = r.kind == Kind::kGet ? "get " : r.kind == Kind::kSet ? "set " : "delete ";
      line += names_[i];
      if (r.kind == Kind::kSet) {
        line += ' ' + std::to_string(r.penalty_us) + " 0 " + std::to_string(r.size);
        MakePayload(names_[i], r.size, payloads_[i]);
      }
    }
    // The round's parse span carries the id of the round's first request.
    if (tracer_ != nullptr) tracer_->SetRequest(request_ + 1);
    {
      Scoped s(tracer_, SpanName::kParse);
      for (std::size_t i = 0; i < n; ++i) {
        if (net::ParseCommandLine(lines_[i], cmds_[i]).status !=
            net::ParseStatus::kOk) {
          ++c.failed;
        }
      }
    }
    c.lines += n;
    c.ops += n;
    if (w_ == Workload::kHotPipelined) {
      RunBatched(round, c);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (tracer_ != nullptr) tracer_->SetRequest(++request_);
      const Req& r = round[i];
      const net::Command& cmd = cmds_[i];
      const std::string_view key = cmd.keys[0];
      if (r.kind == Kind::kGet) {
        ++c.gets;
        out_.clear();
        const bool hit = Get(key);
        if (hit) {
          ++c.hits;
          ExpectedBlock(names_[i], r, scratch_, expected_);
          if (std::string_view(out_.data(), out_.size()) != expected_) ++c.failed;
        } else {
          c.miss_penalty_us += r.penalty_us;
          planner.OnMiss(r);
        }
      } else if (r.kind == Kind::kSet) {
        ++c.sets;
        if (Set(key, cmd.flags, payloads_[i]) != net::StoreStatus::kStored) {
          ++c.not_stored;
        }
      } else {
        ++c.deletes;
        Scoped s(tracer_, SpanName::kServiceDelete);
        service_->Del(key);
      }
    }
  }

  bool Get(std::string_view key) {
    if (tier_ == nullptr) {
      Scoped s(tracer_, SpanName::kServiceGet);
      return service_->Get(key, out_, false);
    }
    bool hit = false;
    net::CacheService::FlashPending pending;
    net::CacheService::FlashOutcome outcome;
    {
      Scoped s(tracer_, SpanName::kServiceGet);
      outcome = service_->GetFlashAware(key, out_, false, false, 0, &hit, &pending);
    }
    if (outcome == net::CacheService::FlashOutcome::kDone) return hit;
    bool ok = false;
    {
      Scoped s(tracer_, SpanName::kFlashRead);
      ok = tier_->ReadNow(pending.shard, pending.ticket, &read_buf_);
    }
    Scoped s(tracer_, SpanName::kServiceGet);
    return service_->CompleteFlashGet(pending, ok, read_buf_, key, out_, false,
                                      false, 0);
  }

  net::StoreStatus Set(std::string_view key, std::uint32_t flags,
                       std::string_view value) {
    Scoped s(tracer_, SpanName::kServiceStore);
    if (tier_ == nullptr) {
      return service_->Store(net::StoreVerb::kSet, key, flags, 0, value);
    }
    net::StoreStatus status = net::StoreStatus::kNotStored;
    net::CacheService::FlashPending pending;
    if (service_->StoreFlashAware(net::StoreVerb::kSet, key, flags, 0, value, 0,
                                  &status, &pending) !=
        net::CacheService::FlashOutcome::kDone) {
      throw std::logic_error("a set deferred on a flash read");
    }
    return status;
  }

  /// Gets and sets of a round as two batches through the executor.
  void RunBatched(const std::vector<Req>& round, Counts& c) {
    for (const Kind kind : {Kind::kGet, Kind::kSet}) {
      batch_.Reset();
      for (std::size_t i = 0; i < round.size(); ++i) {
        if (round[i].kind != kind) continue;
        const net::Command& cmd = cmds_[i];
        net::BatchOp& op = batch_.Push();
        op.verb = cmd.verb;
        op.key.assign(cmd.keys[0]);
        op.flags = cmd.flags;
        op.append_end = kind == Kind::kGet;
        if (kind == Kind::kSet) op.value = payloads_[i];
      }
      if (batch_.size() == 0) continue;
      if (tracer_ != nullptr) tracer_->SetRequest(++request_);
      {
        Scoped s(tracer_, kind == Kind::kGet ? SpanName::kServiceGet
                                             : SpanName::kServiceStore);
        if (!executor_->Execute(batch_, nullptr)) ++c.failed;
      }
      std::size_t b = 0;
      for (std::size_t i = 0; i < round.size(); ++i) {
        if (round[i].kind != kind) continue;
        const std::vector<char>& out = batch_.op(b++).out;
        const std::string_view got(out.data(), out.size());
        if (kind == Kind::kSet) {
          ++c.sets;
          if (got != "STORED\r\n") ++c.not_stored;
          continue;
        }
        ++c.gets;
        ExpectedBlock(names_[i], round[i], scratch_, expected_);
        expected_ += "END\r\n";
        if (got == expected_) {
          ++c.hits;
        } else {
          ++c.failed;
        }
      }
    }
  }

  Workload w_;
  const Shape& shape_;
  Tracer* tracer_;
  std::unique_ptr<net::CacheService> service_;
  std::unique_ptr<net::ShardExecutor> executor_;
  std::unique_ptr<pamakv::persist::Persister> persister_;
  std::unique_ptr<TimedSink> sink_;
  std::unique_ptr<pamakv::flash::FlashTier> tier_;
  std::uint64_t request_ = 0;
  std::vector<std::string> lines_, names_, payloads_;
  std::vector<net::Command> cmds_;
  net::Batch batch_;
  std::vector<char> out_;
  std::string expected_, scratch_, read_buf_;
};

struct Params {
  Workload w;
  std::uint64_t seed, keys, warmup, requests;
  fs::path work_dir, crash_data, crash_flash;
};

/// One replay: set-up untraced, then the measured stream with the tracer
/// (when given) on.
Counts ReplayOnce(const Params& p, Tracer* tracer, JsonObject& report) {
  const Shape& shape = ShapeOf(p.w);
  Replay replay(p.w, tracer, p.work_dir / (tracer ? "traced" : "plain"),
                p.crash_data, p.crash_flash, report);
  RequestStream stream(p.w, p.seed, p.keys);
  RoundPlanner planner(stream, shape.depth, shape.write_allocate);
  Counts warm;
  if (p.w == Workload::kHotPipelined) replay.Preload(p.keys);
  if (p.w == Workload::kEtcChurn) {
    planner.StartPhase(p.warmup);
    replay.Run(planner, warm);
  }
  planner.StartPhase(p.requests);
  Counts c;
  c.failed = warm.failed;
  if (tracer != nullptr) tracer->Enable(true);
  replay.Run(planner, c);
  if (tracer != nullptr) tracer->Enable(false);
  return c;
}

/// Drives one FlashTier past its cap through AppendItem/MaybeGc with the
/// default admission floor (0): every live record is kept, so past the
/// cap each GC pass rewrites a whole segment and frees nothing.
void RunGcProbe(const fs::path& dir, JsonObject& report) {
  constexpr std::size_t kSegment = 128 * 1024;
  constexpr std::size_t kCap = 1024 * 1024;
  constexpr std::uint64_t kDemotes = 2048;
  constexpr std::uint32_t kValueBytes = 1000;
  fs::remove_all(dir);
  fs::create_directories(dir);
  pamakv::flash::FlashConfig cfg;
  cfg.dir = dir.string();
  cfg.shards = 1;
  cfg.segment_bytes = kSegment;
  cfg.cap_bytes = kCap;
  cfg.io_thread = false;
  pamakv::flash::FlashTier tier(cfg);
  std::string name, value;
  std::uint64_t frame_bytes = 0;
  const auto value_of = [](pamakv::ClassId, pamakv::SubclassId) { return 1.0; };
  for (std::uint64_t k = 0; k < kDemotes; ++k) {
    name = "gc:" + std::to_string(100000 + k);  // equal-length keys
    MakePayload(name, kValueBytes, value);
    pamakv::flash::FlashTier::DemoteMeta meta;
    meta.key = name;
    meta.value = value;
    meta.penalty = 1000;
    const std::uint64_t before = tier.TotalBytes(0);
    if (!tier.AppendItem(0, k + 1, meta)) throw std::runtime_error("gc probe append failed");
    if (k == 1) frame_bytes = tier.TotalBytes(0) - before;
    tier.MaybeGc(0, MonoNs(), value_of, {});
  }
  const auto& st = tier.shard_stats(0);
  report.Num("flash.gc_bytes_rewritten_per_demote",
             static_cast<double>(st.gc_rewrites * frame_bytes) / kDemotes)
      .Int("flash.gc_drops", st.gc_drops)
      .Int("gc_probe.demotes", kDemotes)
      .Int("gc_probe.gc_runs", st.gc_runs)
      .Int("gc_probe.records_rewritten", st.gc_rewrites)
      .Num("gc_probe.tier_mb", static_cast<double>(tier.TotalBytes(0)) / (1 << 20))
      .Num("gc_probe.cap_mb", static_cast<double>(kCap) / (1 << 20));
  fs::remove_all(dir);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double P50Us(Tracer& t, SpanName n) {
  return Quantile(t.layer(n).durations_ns, 0.5) / 1e3;
}

int Main(int argc, char** argv) {
  pamakv::ArgParser args(argc, argv);
  args.Describe("workload", "hot-pipelined | etc-churn | durable-flash")
      .Describe("seed", "workload seed")
      .Describe("keys", "preloaded population (hot, flash)")
      .Describe("warmup", "etc-churn stream requests replayed before tracing")
      .Describe("requests", "stream requests replayed with tracing on")
      .Describe("crash-data", "durable-flash: crashed --data-dir to recover")
      .Describe("crash-flash", "durable-flash: crashed --flash-dir to recover")
      .Describe("work-dir", "scratch directory for copies and the GC probe")
      .Describe("spans", "CSV file the first spans are written to");
  if (args.HelpRequested()) {
    args.PrintHelp(std::cout, "perfbench-trace", "traced in-process replay");
    return 0;
  }
  args.RejectUnknown();
  Params p;
  p.w = ParseWorkload(args.GetString("workload", ""));
  p.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  p.keys = static_cast<std::uint64_t>(args.GetInt("keys", 0));
  p.warmup = static_cast<std::uint64_t>(args.GetInt("warmup", 0));
  p.requests = static_cast<std::uint64_t>(args.GetInt("requests", 0));
  p.work_dir = args.GetString("work-dir", "");
  p.crash_data = args.GetString("crash-data", "");
  p.crash_flash = args.GetString("crash-flash", "");
  if (p.work_dir.empty()) throw std::invalid_argument("--work-dir is required");

  JsonObject report;
  JsonObject ignored;  // the plain run's recovery times
  const Counts plain = ReplayOnce(p, nullptr, ignored);
  Tracer tracer(kKeptSpans);
  const Counts traced = ReplayOnce(p, &tracer, report);
  tracer.Write(args.GetString("spans", (p.work_dir / "spans.csv").string()));
  RunGcProbe(p.work_dir / "gc-probe", report);

  using S = SpanName;
  const auto total = [&](S n) { return static_cast<double>(tracer.layer(n).total_ns); };
  const double service_ns =
      total(S::kServiceGet) + total(S::kServiceStore) + total(S::kServiceDelete);
  const double service_self =
      static_cast<double>(tracer.layer(S::kServiceGet).self_ns +
                          tracer.layer(S::kServiceStore).self_ns +
                          tracer.layer(S::kServiceDelete).self_ns);
  const double sets = static_cast<double>(traced.sets);
  std::uint64_t stalls = 0;
  for (const std::uint32_t d : tracer.layer(S::kPersistStore).durations_ns) {
    if (d > 100'000) ++stalls;
  }
  const double plain_rate = Ratio(static_cast<double>(plain.ops), plain.seconds);
  const double traced_rate = Ratio(static_cast<double>(traced.ops), traced.seconds);
  report.Num("net.parse_ns", Ratio(total(S::kParse), static_cast<double>(traced.lines)))
      .Num("service.get_ns", Ratio(total(S::kServiceGet), static_cast<double>(traced.gets)))
      .Num("service.store_ns", Ratio(total(S::kServiceStore), sets))
      .Num("service.ns_per_op", Ratio(service_ns, static_cast<double>(traced.ops)))
      .Num("service.self_share", Ratio(service_self, service_ns))
      .Num("policy.make_room_per_kset",
           Ratio(1e3 * static_cast<double>(tracer.layer(S::kPolicyMakeRoom).spans), sets))
      .Num("policy.make_room_us_p50", P50Us(tracer, S::kPolicyMakeRoom))
      .Num("policy.on_miss_ns",
           Ratio(total(S::kPolicyMiss),
                 static_cast<double>(tracer.layer(S::kPolicyMiss).spans)))
      .Num("persist.append_us_p50", P50Us(tracer, S::kPersistStore))
      .Num("persist.append_stalls_per_kset", Ratio(1e3 * static_cast<double>(stalls), sets))
      .Num("persist.commit_us_p50", P50Us(tracer, S::kPersistCommit))
      .Num("persist.fsyncs_per_s", Ratio(static_cast<double>(traced.fsyncs), traced.seconds))
      .Num("flash.read_us_p50", P50Us(tracer, S::kFlashRead))
      .Num("trace.overhead", Ratio(traced_rate, plain_rate) - 1.0)
      .Num("replay.plain_kops", plain_rate / 1e3)
      .Num("replay.traced_kops", traced_rate / 1e3)
      .Int("replay.spans", tracer.spans_recorded());
  for (const auto& [tag, c] : {std::pair{"plain", plain}, std::pair{"traced", traced}}) {
    JsonObject o;
    o.Int("ops", c.ops).Int("gets", c.gets).Int("hits", c.hits).Int("sets", c.sets)
        .Int("not_stored", c.not_stored).Int("deletes", c.deletes).Int("failed", c.failed)
        .Int("miss_penalty_us", c.miss_penalty_us);
    report.Object(std::string("replay.") + tag, o);
  }
  std::cout << report.str() << "\n";
  fs::remove_all(p.work_dir / "plain");
  fs::remove_all(p.work_dir / "traced");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench-trace: " << e.what() << "\n";
    return 1;
  }
}
