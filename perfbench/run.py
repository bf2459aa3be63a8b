#!/usr/bin/env python3
"""pamakv benchmark: the real server over loopback TCP, plus a traced replay.

    python3 perfbench/run.py --workload etc-churn --seed 1 --seconds 10 --trace 0

Builds the repository and the benchmark's two programs into .bench_build/,
then for the workload: starts build/server/pamakv-server with fresh
directories, drives it from one client process (perfbench-wire), checks
every reply and reconciles the client's counts with the server's `stats`
deltas. --trace 0 prints the end-to-end metrics; --trace 1 also replays
the same request streams in-process with spans on (perfbench-trace) and
prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_DEADLINE_S = 170  # the whole run, build excluded
SETUPS = 4  # set-ups per untraced run; setup_s is their median

# Sizes are per --seconds second of measurement: a run is bounded by its
# request count, never by time, so each seed's cache state repeats exactly.
WORKLOADS = {
    "hot-pipelined": {
        "server": ["--loop-threads=2", "--shards=4", "--capacity-mb=64"],
        "keys": 200_000,
        "warmup": 0,
        "requests_per_s": 280_000,
        "traced_requests": 1_000_000,
    },
    "etc-churn": {
        "server": ["--loop-threads=2", "--shards=4", "--capacity-mb=32"],
        "keys": 0,
        "warmup": 150_000,
        "requests_per_s": 150_000,
        "traced_requests": None,  # the whole measured stream
    },
    "durable-flash": {
        # No fdatasync on the TCP run: it waits on a disk shared with other
        # tenants, and alternating runs spread 0.29 in throughput with the
        # default interval:100 against 0.15 without. The traced replay keeps
        # the default, so the fsync and the stall it causes are measured there.
        "server": ["--loop-threads=2", "--shards=4", "--capacity-mb=32",
                   "--persist-fsync=never"],
        "durable": True,
        "keys": 120_000,
        "warmup": 0,
        "requests_per_s": 50_000,
        "traced_requests": None,
    },
}

# name -> unit, in print order. failed_op_ratio is 0 on a correct run, so
# BENCHMARK.json gates on the JSON's "failed" count instead of a bound.
END_TO_END = {
    "throughput_kops": "kops/s",
    "get_p50_us": "us",
    "get_p90_us": "us",
    "set_p50_us": "us",
    "set_p90_us": "us",
    "hit_ratio": "ratio",
    "avg_service_us": "us",
    "server_cpu_us_per_op": "us",
    "server_rss_mb": "MiB",
    "failed_op_ratio": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "net.parse_ns": "ns",
    "net.loop_iterations_per_op": "1/op",
    "net.cpu_share": "ratio",
    "executor.ops_per_batch": "ops/batch",
    "executor.owner_posts_per_batch": "1/batch",
    "executor.striped_read_share": "ratio",
    "service.get_ns": "ns",
    "service.store_ns": "ns",
    "service.self_share": "ratio",
    "service.rss_per_cached_byte": "B/B",
    "cache.dram_hit_ratio": "ratio",
    "cache.evictions_per_kop": "1/kop",
    "cache.ghost_hits_per_kmiss": "1/kmiss",
    "cache.set_refused_ratio": "ratio",
    "policy.make_room_per_kset": "1/kset",
    "policy.make_room_us_p50": "us",
    "policy.on_miss_ns": "ns",
    "policy.slab_migrations_per_kop": "1/kop",
    "persist.wal_bytes_per_set": "B/set",
    "persist.fsyncs_per_s": "1/s",
    "persist.append_us_p50": "us",
    "persist.append_stalls_per_kset": "1/kset",
    "persist.commit_us_p50": "us",
    "persist.recover_s": "s",
    "persist.replayed_records": "count",
    "flash.hit_share": "ratio",
    "flash.demotes_per_kset": "1/kset",
    "flash.bytes_end_mb": "MiB",
    "flash.read_us_p50": "us",
    "flash.recover_s": "s",
    "flash.gc_bytes_rewritten_per_demote": "B/demote",
    "flash.gc_drops": "count",
    "trace.overhead": "ratio",
    "client.cpu_util": "ratio",
}


def pin_to_one_cpu():
    """Confines this process, and so every server and client it starts, to
    one CPU; returns the CPUs it was allowed before. Each request crosses
    client, server loops and kernel several times; on one CPU those hand-offs
    are local thread switches and the CPU never idles while a run measures.
    Spread over CPUs, every hand-off wakes an idle virtual CPU, which a busy
    host makes wait for a physical one. The measured phase still visits
    every CPU in turn (perfbench-wire --cpus)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def build():
    """Configures and builds into .bench_build/cmake; returns the binaries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no pamakv sources under {ROOT}")
    cmake_dir = BUILD / "cmake"
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                     + (["-G", "Ninja"] if shutil.which("ninja") else []))
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(os.cpu_count() or 2),
                  "--target", "pamakv-server", "perfbench-wire", "perfbench-trace"])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return {
        "server": cmake_dir / "server" / "pamakv-server",
        "wire": cmake_dir / "perfbench" / "perfbench-wire",
        "trace": cmake_dir / "perfbench" / "perfbench-trace",
    }


class Run:
    """One workload run: its directory, sizes, deadline and processes."""

    def __init__(self, bins, cpus, workload, seed, seconds, out_dir, scale):
        self.bins = bins
        self.cpus = cpus
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.dir = out_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.keys = max(1, int(self.spec["keys"] * scale)) if self.spec["keys"] else 0
        self.warmup = int(self.spec["warmup"] * scale)
        self.requests = max(1, int(self.spec["requests_per_s"] * seconds * scale))
        traced = self.spec["traced_requests"]
        self.traced = self.requests if traced is None else min(self.requests, int(traced * scale))
        self.attempted = 0
        self.failed = 0

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    def sizes(self):
        return [f"--workload={self.name}", f"--seed={self.seed}", f"--keys={self.keys}",
                f"--warmup={self.warmup}"]

    def tool(self, cmd):
        """Runs a benchmark program; returns its last stdout line as JSON."""
        p = subprocess.run([str(c) for c in cmd], cwd=self.dir, capture_output=True,
                           text=True, timeout=self.remaining())
        if p.returncode != 0 or not p.stdout.strip():
            raise BenchError(f"{Path(str(cmd[0])).name} failed: {p.stderr.strip()[-2000:]}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    def wire(self, server, phase, extra=()):
        r = self.tool([self.bins["wire"], *self.sizes(), f"--requests={self.requests}",
                       f"--port-file={server.port_file}", f"--server-pid={server.proc.pid}",
                       f"--phase={phase}", *extra]
                      + ([f"--cpus={','.join(map(str, self.cpus))}"] if phase == "run" else []))
        self.attempted += r["attempted"]
        self.failed += r["failed"]
        return r


class Server:
    """A pamakv-server child; always killed and reaped on exit."""

    def __init__(self, run, tag, flags):
        self.port_file = run.dir / f"{tag}.port"
        self.log = open(run.dir / f"{tag}.server.log", "w")
        self.spawn_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [str(run.bins["server"]), "--port=0", f"--port-file={self.port_file}", *flags],
            cwd=run.dir, stdout=self.log, stderr=subprocess.STDOUT)

    def __enter__(self):
        return self

    def stop(self, sig=signal.SIGTERM):
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()

    def __exit__(self, *exc):
        self.stop(signal.SIGKILL)
        self.log.close()


def run_tcp(run, setups, plant):
    """Set-ups and the measured phase.

    Returns the measured run's wire result, every set-up's seconds, and the
    durable-flash crash directories (None for the other workloads)."""
    flags = run.spec["server"]
    crash = None
    if run.spec.get("durable"):
        # An unmeasured server loads every key into fresh directories and
        # is SIGKILLed once every store is acknowledged; each set-up then
        # recovers from its own copy of those bytes.
        crash = (run.dir / "crash-data", run.dir / "crash-flash")
        for d in crash:
            d.mkdir()
        with Server(run, "load", [*flags, f"--data-dir={crash[0]}",
                                  f"--flash-dir={crash[1]}"]) as load:
            loaded = run.wire(load, "load")
            if not loaded["alive"]:
                raise BenchError("preload lost its connection")
            load.stop(signal.SIGKILL)
    times, result = [], None
    for i in range(setups):
        last = i == setups - 1
        # Each set-up runs on the next CPU (its server and client inherit
        # this process's CPU), so setup_s does not hang on one CPU's speed.
        os.sched_setaffinity(0, {run.cpus[i % len(run.cpus)]})
        dirs = []
        if crash:
            dirs = [run.dir / f"data-{i}", run.dir / f"flash-{i}"]
            for src, dst in zip(crash, dirs):
                shutil.copytree(src, dst)
            # Flush the preload's and the copies' dirty pages now, so their
            # writeback does not compete with the server's own fsyncs.
            os.sync()
        with Server(run, f"setup-{i}", [*flags, *(f"--{k}-dir={d}" for k, d in
                                                  zip(("data", "flash"), dirs))]) as srv:
            r = run.wire(srv, "run" if last else "setup",
                         ["--plant-bad-value"] if plant and last else [])
            times.append((r["t_setup_done_ns"] - srv.spawn_ns) / 1e9)
            if last:
                result = r
                srv.stop(signal.SIGTERM)
        for d in dirs:
            shutil.rmtree(d)
    return result, times, crash


def reconcile(name, r):
    """Client counts against `stats` deltas; returns the identities that fail."""
    d = {k: r["stats_after"].get(k, 0) - r["stats_before"].get(k, 0)
         for k in r["stats_after"]}
    promotes, direct = d.get("flash_promotes", 0), d.get("flash_direct_serves", 0)
    checks = {
        # A flash hit is an engine miss, a promote set and a hit.
        "cmd_get": (d["cmd_get"], r["gets"] + promotes),
        "get_hits": (d["get_hits"], r["hits"] - direct),
        "cmd_set": (d["cmd_set"], r["sets"] + promotes + direct),
        "set_failures": (d["set_failures"], r["not_stored"] + direct),
        "cmd_delete": (d["cmd_delete"], r["deletes"]),
        "flash_read_failures": (d.get("flash_read_failures", 0), 0),
    }
    if name == "hot-pipelined":
        checks["every get hits"] = (r["hits"], r["gets"])
        checks["evictions"] = (d["evictions"], 0)
    return {k: v for k, v in checks.items() if v[0] != v[1]}, d


def ratio(num, den):
    return num / den if den else 0.0


def interval_median(r, key):
    """The median of a per-interval series of the measured phase."""
    values = [v for v in r[key] if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(r, setup_times, failed, attempted):
    gets = r["gets"]
    return {
        "throughput_kops": interval_median(r, "interval_kops"),
        "get_p50_us": interval_median(r, "interval_get_p50_us"),
        "get_p90_us": interval_median(r, "interval_get_p90_us"),
        "set_p50_us": interval_median(r, "interval_set_p50_us"),
        "set_p90_us": interval_median(r, "interval_set_p90_us"),
        "hit_ratio": ratio(r["hits"], gets),
        # Σ hit latency (as hits x the typical mean hit latency) plus the
        # exact Σ penalty of every missed key, per GET.
        "avg_service_us": ratio(r["hits"] * interval_median(r, "interval_hit_mean_us")
                                + r["miss_penalty_us_sum"], gets),
        "server_cpu_us_per_op": interval_median(r, "interval_server_cpu_us_per_op"),
        "server_rss_mb": r["server_hwm_kib"] / 1024,
        "failed_op_ratio": ratio(failed, attempted),
        "setup_s": statistics.median(setup_times),
    }


def per_layer(r, d, t, e2e):
    ops, sets, hits = r["ops"], r["sets"], r["hits"]
    batches = d.get("executor_batches", 0)
    posts, striped = d.get("executor_owner_posts", 0), d.get("executor_striped_reads", 0)
    server_cpu_us = e2e["server_cpu_us_per_op"]
    return {
        "net.parse_ns": t["net.parse_ns"],
        "net.loop_iterations_per_op": ratio(d["loop_iterations"], ops),
        "net.cpu_share": 1 - ratio(t["service.ns_per_op"] / 1e3, server_cpu_us),
        "executor.ops_per_batch": ratio(d.get("executor_batched_ops", 0), batches),
        "executor.owner_posts_per_batch": ratio(posts, batches),
        "executor.striped_read_share": ratio(striped, striped + posts),
        "service.get_ns": t["service.get_ns"],
        "service.store_ns": t["service.store_ns"],
        "service.self_share": t["service.self_share"],
        "service.rss_per_cached_byte": ratio(r["server_rss_kib"] * 1024, r["stats_after"]["bytes"]),
        "cache.dram_hit_ratio": ratio(hits - d.get("flash_hits", 0), r["gets"]),
        "cache.evictions_per_kop": ratio(1e3 * d["evictions"], ops),
        "cache.ghost_hits_per_kmiss": ratio(1e3 * d["ghost_hits"], d["get_misses"]),
        "cache.set_refused_ratio": ratio(d["set_failures"], d["cmd_set"]),
        "policy.make_room_per_kset": t["policy.make_room_per_kset"],
        "policy.make_room_us_p50": t["policy.make_room_us_p50"],
        "policy.on_miss_ns": t["policy.on_miss_ns"],
        "policy.slab_migrations_per_kop": ratio(1e3 * d["slab_migrations"], ops),
        "persist.wal_bytes_per_set": ratio(d.get("persist_wal_bytes", 0), sets),
        "persist.fsyncs_per_s": t["persist.fsyncs_per_s"],
        "persist.append_us_p50": t["persist.append_us_p50"],
        "persist.append_stalls_per_kset": t["persist.append_stalls_per_kset"],
        "persist.commit_us_p50": t["persist.commit_us_p50"],
        "persist.recover_s": t.get("persist.recover_s", 0.0),
        "persist.replayed_records": r["stats_before"].get("persist_replayed_records", 0),
        "flash.hit_share": ratio(d.get("flash_hits", 0), hits),
        "flash.demotes_per_kset": ratio(1e3 * d.get("flash_demotes", 0), sets),
        "flash.bytes_end_mb": r["stats_after"].get("flash_bytes", 0) / 2**20,
        "flash.read_us_p50": t["flash.read_us_p50"],
        "flash.recover_s": t.get("flash.recover_s", 0.0),
        "flash.gc_bytes_rewritten_per_demote": t["flash.gc_bytes_rewritten_per_demote"],
        "flash.gc_drops": t["flash.gc_drops"],
        "trace.overhead": t["trace.overhead"],
        "client.cpu_util": r["client_cpu_util"],
    }


def run_workload(bins, cpus, workload, seed, seconds, trace, out_dir, scale, plant):
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    run = Run(bins, cpus, workload, seed, seconds, out_dir, scale)
    r, setup_times, crash = run_tcp(run, 1 if trace else SETUPS, plant)
    (out_dir / "wire.json").write_text(json.dumps(r))
    problems, d = reconcile(workload, r)
    failed = run.failed + sum(abs(a - b) for a, b in problems.values())
    e2e = end_to_end(r, setup_times, failed, run.attempted)
    correct = failed == 0 and r["alive"]

    print(f"# {workload} seed={seed}: {r['ops']} requests measured over "
          f"{r['wall_s']:.2f} s after {len(setup_times)} set-up(s) "
          f"{', '.join(f'{t:.3f} s' for t in setup_times)}; "
          f"stream {r['stream_digest']}")
    print(f"# timings: median of {len(r['interval_kops'])} {r['interval_ms']} ms "
          f"intervals, {len(set(r['interval_on_cpu']))} CPU(s) visited in turn")
    for name, unit in END_TO_END.items():
        extra = ""
        if name.startswith(("get_p", "set_p")):
            extra = f"  (n={r[name[:3] + '_samples']})"
        elif name == "throughput_kops":
            extra = f"  (whole run {r['whole_run_kops']:.1f})"
        elif name == "avg_service_us":
            extra = f"  (penalty sum {r['miss_penalty_us_sum']} us over {r['gets'] - r['hits']} misses)"
        print(f"{name:<24} {e2e[name]:>14.6g} {unit}{extra}")
    print(f"# reconciliation {'ok' if not problems else 'FAILED: ' + str(problems)}; "
          f"{run.failed} failed of {run.attempted} attempted; "
          f"{r['not_stored']} NOT_STORED")

    metrics = {k: e2e[k] for k in END_TO_END if k != "failed_op_ratio"}
    units = END_TO_END
    if trace:
        t = run.tool([run.bins["trace"], *run.sizes(), f"--requests={run.traced}",
                      f"--work-dir={out_dir / 'trace'}", f"--spans={out_dir / 'spans.csv'}",
                      *(f"--crash-{k}={p}" for k, p in zip(("data", "flash"), crash or ()))])
        plain, traced = t["replay.plain"], t["replay.traced"]
        # The decorators must not change a decision; and a replay of the
        # whole stream must match the server reply for reply.
        same = {k: traced[k] == plain[k] for k in ("hits", "sets", "not_stored")}
        if run.traced == run.requests:
            same.update({f"wire {k}": traced[k] == r[w] for k, w in (
                ("gets", "gets"), ("hits", "hits"), ("sets", "sets"),
                ("not_stored", "not_stored"), ("miss_penalty_us", "miss_penalty_us_sum"))})
        disagree = [k for k, ok in same.items() if not ok]
        if disagree or traced["failed"] or plain["failed"]:
            correct = False
            failed += plain["failed"] + traced["failed"] + len(disagree)
            print(f"# traced replay disagrees on {disagree}: plain {plain} traced {traced}")
        run.attempted += plain["ops"] + traced["ops"]
        metrics = per_layer(r, d, t, e2e)
        units = PER_LAYER
        print(f"# traced replay: {traced['ops']} requests, {t['replay.spans']} spans "
              f"(spans.csv), {traced['hits']} hits; GC probe: {t['gc_probe.demotes']} demotes, "
              f"{t['gc_probe.gc_runs']} GC passes rewrote {t['gc_probe.records_rewritten']} "
              f"records, tier {t['gc_probe.tier_mb']:.2f} MiB vs cap {t['gc_probe.cap_mb']:.2f} MiB")
        for name, unit in PER_LAYER.items():
            print(f"{name:<36} {metrics[name]:>14.6g} {unit}")
    for d_ in crash or ():
        shutil.rmtree(d_)
    shutil.rmtree(out_dir / "trace", ignore_errors=True)
    return {
        "correct": bool(correct),
        "attempted": int(run.attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10,
                    help="sets the request budget: seconds x the workload's nominal rate")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, help="run outputs (default .bench_build/runs)")
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--plant-bad-value", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    out_root = (args.out_dir or BUILD / "runs").resolve()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        bins = build()
        cpus = pin_to_one_cpu()
        results = [run_workload(bins, cpus, w, args.seed, args.seconds, args.trace,
                                out_root / w, args.scale, args.plant_bad_value)
                   for w in names]
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
