#!/usr/bin/env python3
"""Crash-restart smoke on the real server binary, with a flash tier.

Starts pamakv-server with 1 MiB of DRAM over 2 shards, a data dir and a
flash dir (`--persist-fsync=never`), pipelines 5,000 sets of distinct
1,000-byte values and waits for every reply, so most values demote to
flash. Then SIGKILLs it, restarts it on the same directories and checks:

  * 200 keys sampled from those answered STORED come back byte-exact;
  * `persist_recovered_items` is 5000 (every store replayed from the log,
    no snapshot) and `flash_recovered_items` is above 0.

This drives the no-snapshot WAL + flash recovery path end to end.

Usage:
    python3 tests/crash_restart_smoke.py --server build/server/pamakv-server
"""

import argparse
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

KEYS = 5_000
SAMPLE = 200
VALUE_BYTES = 1_000


def value(i):
    return b"%07d:" % i * (VALUE_BYTES // 8)  # distinct per key


def connect(port):
    for _ in range(100):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=60)
        except OSError:
            time.sleep(0.1)
    raise RuntimeError("server did not start listening")


def read_until(sock, count, marker):
    data = b""
    while data.count(marker) < count:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise RuntimeError("connection closed early")
        data += chunk
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--server", required=True)
    parser.add_argument("--port", type=int, default=11237)
    args = parser.parse_args()

    data_dir = tempfile.mkdtemp(prefix="pamakv-crash-data-")
    flash_dir = tempfile.mkdtemp(prefix="pamakv-crash-flash-")
    cmd = [args.server, f"--port={args.port}", "--policy=pama",
           "--capacity-mb=1", "--shards=2", f"--data-dir={data_dir}",
           f"--flash-dir={flash_dir}", "--persist-fsync=never"]
    try:
        server = subprocess.Popen(cmd, stderr=subprocess.DEVNULL)
        try:
            sock = connect(args.port)
            sock.sendall(b"".join(
                b"set k%d 0 0 %d\r\n%s\r\n" % (i, VALUE_BYTES, value(i))
                for i in range(KEYS)))
            replies = read_until(sock, KEYS, b"\r\n").split(b"\r\n")[:KEYS]
            stored = [i for i, r in enumerate(replies) if r == b"STORED"]
            print(f"{len(stored)} of {KEYS} STORED")
        finally:
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)
        if len(stored) < SAMPLE:
            print("FAIL: too few keys were stored to sample")
            return 1

        server = subprocess.Popen(cmd, stderr=subprocess.DEVNULL)
        try:
            sock = connect(args.port)
            sample = random.Random(7).sample(stored, SAMPLE)
            sock.sendall(b"".join(b"get k%d\r\n" % i for i in sample) +
                         b"stats\r\n")
            data = read_until(sock, SAMPLE + 1, b"END\r\n")
        finally:
            server.terminate()
            server.wait(timeout=30)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(flash_dir, ignore_errors=True)

    for i in sample:
        want = b"VALUE k%d 0 %d\r\n%s\r\nEND\r\n" % (i, VALUE_BYTES, value(i))
        if not data.startswith(want):
            print(f"FAIL: k{i} did not come back byte-exact: {data[:60]!r}")
            return 1
        data = data[len(want):]
    stats = {}
    for line in data.decode().splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "STAT":
            stats[parts[1]] = parts[2]
    recovered = int(stats.get("persist_recovered_items", 0))
    flash = int(stats.get("flash_recovered_items", 0))
    print(f"{SAMPLE} sampled keys byte-exact; persist_recovered_items "
          f"{recovered}, flash_recovered_items {flash}")
    if recovered != KEYS:
        print("FAIL: not every store was recovered from the log")
        return 1
    if flash <= 0:
        print("FAIL: nothing was recovered from flash")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
