#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that:
  * every metric BENCHMARK.json names is printed, in the human-readable
    lines and in the last-line JSON, with its unit, for every workload in
    both modes (and all eleven end-to-end metrics, failed_op_ratio too);
  * a payload planted wrong through a raw `set` is caught as a failed op;
  * a second seed changes etc-churn's stream, and one seed repeats its
    stream and its cache outcomes exactly;
  * every output lands in the directory given by --out-dir: no file of
    the repository outside .bench_build/ is created or modified.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "selftest"
TINY = ["--scale", "0.01", "--seconds", "2"]
ELEVEN = ["throughput_kops", "get_p50_us", "get_p90_us", "set_p50_us", "set_p90_us",
          "hit_ratio", "avg_service_us", "server_cpu_us_per_op", "server_rss_mb",
          "failed_op_ratio", "setup_s"]

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed=1, trace=0, extra=()):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out-dir", str(OUT), *TINY, *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise SystemExit(f"benchmark failed: {' '.join(cmd)}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def tree_state():
    """(path -> (size, mtime)) of every repository file outside .bench_build."""
    state = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if rel.parts[0] in (".bench_build", ".git") or not path.is_file():
            continue
        st = path.stat()
        state[str(rel)] = (st.st_size, st.st_mtime_ns)
    return state


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench("etc-churn")  # builds first, so the tree snapshot excludes the build
    before = tree_state()

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = bench(workload, trace=trace)
            text = "\n".join(lines[:-1])
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: correct, nothing failed")
            for m in spec[key]:
                got = result["metrics"].get(m["name"], {})
                check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                      f"{workload} trace={trace}: JSON has {m['name']} in {m['unit']}")
            names = ELEVEN if trace == 0 else [m["name"] for m in spec[key]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
            for name in names:
                unit = units.get(name, "ratio")
                check(re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}\b", text, re.M),
                      f"{workload} trace={trace}: prints {name} with unit {unit}")
            check(set(result["metrics"]) == {m["name"] for m in spec[key]},
                  f"{workload} trace={trace}: JSON metrics are exactly BENCHMARK.json's {key}")

    lines, result = bench("hot-pipelined", extra=["--plant-bad-value"])
    check(not result["correct"] and result["failed"] > 0,
          f"a planted wrong payload is caught (failed={result['failed']})")

    runs = {seed: bench("etc-churn", seed=seed)[0] for seed in (1, 2)}
    repeat = bench("etc-churn", seed=1)[0]

    def digest(lines):
        return re.search(r"stream (\d+)", lines[0]).group(1)

    def outcome(lines):
        return [l for l in lines if l.startswith(("hit_ratio", "# reconciliation"))] + \
            [re.search(r"penalty sum \d+ us over \d+ misses", "\n".join(lines)).group(0)]

    check(digest(runs[1]) != digest(runs[2]), "a second seed changes etc-churn's stream")
    check(digest(runs[1]) == digest(repeat) and outcome(runs[1]) == outcome(repeat),
          "one seed repeats etc-churn's stream, hit ratio, penalty sum and NOT_STORED count")

    after = tree_state()
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    check(not changed, f"no repository file outside .bench_build changed {changed[:5]}")
    check(any(OUT.rglob("*.server.log")) and any(OUT.rglob("spans.csv")),
          "server logs and spans land under --out-dir")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
