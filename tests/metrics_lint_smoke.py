#!/usr/bin/env python3
"""Live-scrape lint of the metrics endpoint, under a pipelined load.

Starts pamakv-server (8 MiB, 4 shards) with the metrics endpoint and
optionally a flash tier, runs a pipelined set/delete/get load over more
keys than it holds on one connection, and scrapes /metrics repeatedly
while the load runs. Every scrape must be valid Prometheus text
exposition:

  * every line is blank, a `# TYPE <family> <kind>` line, or
    `name[{labels}] <number>`;
  * no family has two `# TYPE` lines;
  * `pamakv_total_slabs` is present (and, with --flash-dir,
    `pamakv_flash_items`).

Each scrape reads every shard once, under its lock, so within it

  * sum(pamakv_slabs) + pamakv_free_slabs == pamakv_total_slabs, and
  * sum(pamakv_subclass_items) == pamakv_curr_items.

Usage:
    python3 tests/metrics_lint_smoke.py --server build/server/pamakv-server
    python3 tests/metrics_lint_smoke.py --server build/server/pamakv-server \\
        --flash-dir "$(mktemp -d)"
"""

import argparse
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.request

SCRAPES = 20
KEYS = 50_000  # ~39 MB of values: more than either capacity below holds
SERIES = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9][0-9eE+.-]*)$")
TYPE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (gauge|histogram)$")


def wait_for(url):
    for _ in range(100):
        try:
            return urllib.request.urlopen(url, timeout=10).read().decode()
        except OSError:
            time.sleep(0.1)
    raise RuntimeError("metrics endpoint did not come up")


def load(port, stop, errors):
    """Pipelines rounds of 64 sets, 16 deletes (both noreply) and 64 gets
    over KEYS keys until `stop`: stores evict, slabs move and the item
    counts change between any two moments."""
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        n = 0
        while not stop.is_set():
            req = []
            for i in range(64):
                k = (n + i) % KEYS
                size = 50 + (k * 37) % 1_450
                flags = 100 * (1 + k % 5) ** 5  # several penalty bands
                req.append(b"set k%d %d 0 %d noreply\r\n%s\r\n" %
                           (k, flags, size, b"v" * size))
            for i in range(16):
                req.append(b"delete k%d noreply\r\n" % ((n * 3 + i) % KEYS))
            for i in range(64):
                req.append(b"get k%d\r\n" % ((n + i * 7) % KEYS))
            sock.sendall(b"".join(req))
            data = b""
            while data.count(b"END\r\n") < 64:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise RuntimeError("connection closed")
                data += chunk
            n += 64
        sock.close()
    except Exception as e:  # reported by the main thread
        errors.append(e)


def lint(text, flash):
    """Returns a list of problems with one scrape."""
    problems = []
    typed = set()
    values = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            m = TYPE.match(line)
            if m is None:
                problems.append("bad comment line: " + line)
            elif m.group(1) in typed:
                problems.append("duplicate # TYPE for " + m.group(1))
            else:
                typed.add(m.group(1))
            continue
        m = SERIES.match(line)
        if m is None:
            problems.append("malformed exposition line: " + line)
            continue
        values[(m.group(1), m.group(2) or "")] = float(m.group(3))

    def total(name):
        return sum(v for (n, _), v in values.items() if n == name)

    for name in ["pamakv_total_slabs", "pamakv_free_slabs",
                 "pamakv_curr_items"]:
        if (name, "") not in values:
            problems.append(name + " missing")
    if flash and ("pamakv_flash_items", "") not in values:
        problems.append("pamakv_flash_items missing")
    if problems:
        return problems
    slabs = total("pamakv_slabs") + values[("pamakv_free_slabs", "")]
    if slabs != values[("pamakv_total_slabs", "")]:
        problems.append("sum(pamakv_slabs) + pamakv_free_slabs = %g, "
                        "pamakv_total_slabs = %g" %
                        (slabs, values[("pamakv_total_slabs", "")]))
    items = total("pamakv_subclass_items")
    if items != values[("pamakv_curr_items", "")]:
        problems.append("sum(pamakv_subclass_items) = %g, "
                        "pamakv_curr_items = %g" %
                        (items, values[("pamakv_curr_items", "")]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--server", required=True)
    parser.add_argument("--port", type=int, default=11238)
    parser.add_argument("--metrics-port", type=int, default=9464)
    parser.add_argument("--flash-dir", help="run with a flash tier here")
    args = parser.parse_args()

    cmd = [args.server, f"--port={args.port}",
           f"--metrics-port={args.metrics_port}", "--policy=pama",
           "--shards=4", "--capacity-mb=8"]
    if args.flash_dir:
        cmd += [f"--flash-dir={args.flash_dir}"]
    url = f"http://127.0.0.1:{args.metrics_port}/metrics"
    server = subprocess.Popen(cmd, stderr=subprocess.DEVNULL)
    stop = threading.Event()
    errors = []
    worker = threading.Thread(target=load, args=(args.port, stop, errors))
    try:
        wait_for(url)
        worker.start()
        bad = 0
        text = ""
        for i in range(SCRAPES):
            time.sleep(0.05)
            text = urllib.request.urlopen(url, timeout=10).read().decode()
            for problem in lint(text, bool(args.flash_dir)):
                print(f"scrape {i}: {problem}")
                bad += 1
        stop.set()
        worker.join(timeout=60)
    finally:
        stop.set()
        server.terminate()
        server.wait(timeout=30)
    if errors:
        print(f"FAIL: load stopped: {errors[0]}")
        return 1
    sets = re.search(r"^pamakv_cmd_set (\S+)$", text, re.M)
    print(f"{SCRAPES} scrapes, {len(text.splitlines())} lines in the last, "
          f"pamakv_cmd_set {sets.group(1) if sets else 'missing'}")
    if bad:
        print(f"FAIL: {bad} problems")
        return 1
    if sets is None or float(sets.group(1)) == 0:
        print("FAIL: no load reached the server")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
