#!/usr/bin/env python3
"""Crash-restart smoke on the real server binary, with a flash tier.

Starts pamakv-server with 1 MiB of DRAM over 2 shards, a data dir and a
flash dir (`--persist-fsync=never`), pipelines 5,000 sets of distinct
1,000-byte values and waits for every reply, so most values demote to
flash. Then it re-sets keys 0-99 with new bytes, notes every segment
file's size, and deletes keys 100-199. It SIGKILLs the server, cuts each
segment back to its noted size and removes any segment created after that
point, so the deletes' flash tombstones never landed (a crash before their
appends reached the page cache). Then it restarts the server on the same
directories and checks:

  * no deleted key is served, and no re-set key serves its old bytes;
  * 200 keys sampled from keys 200-4,999 answered STORED come back
    byte-exact;
  * `persist_recovered_items` is 4,900 (every store and delete replayed
    from the log, no snapshot) and `flash_recovered_items` is above 0;
  * at least one segment grew during the deletes, so the cut really
    removed tombstones.

This drives the no-snapshot WAL + flash recovery path end to end.

Usage:
    python3 tests/crash_restart_smoke.py --server build/server/pamakv-server
"""

import argparse
import os
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
RESET = range(0, 100)     # re-set with new bytes before the sizes are noted
DELETED = range(100, 200)  # deleted after; their tombstones are cut away


def value(i, mark=b":"):
    return b"%07d%s" % (i, mark) * (VALUE_BYTES // 8)  # distinct per key


def new_value(i):
    return value(i, b";")


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


def request(sock, payload, count, marker=b"\r\n"):
    """Sends `payload` and returns the first `count` reply lines."""
    sock.sendall(payload)
    return read_until(sock, count, marker).split(marker)[:count]


def segment_sizes(flash_dir):
    return {name: os.path.getsize(os.path.join(flash_dir, name))
            for name in os.listdir(flash_dir) if name.endswith(".flog")}


def cut_segments(flash_dir, sizes):
    """Puts every segment back to its noted size; removes newer ones."""
    for name in segment_sizes(flash_dir):
        path = os.path.join(flash_dir, name)
        if name in sizes:
            os.truncate(path, sizes[name])
        else:
            os.remove(path)


def parse_get(data, pos):
    """One `get` reply at `pos`: (value or None, position after it)."""
    if data.startswith(b"END\r\n", pos):
        return None, pos + 5
    eol = data.index(b"\r\n", pos)
    length = int(data[pos:eol].split()[3])
    start = eol + 2
    end = start + length
    if not data.startswith(b"\r\nEND\r\n", end):
        raise RuntimeError(f"malformed get reply: {data[pos:pos + 60]!r}")
    return data[start:end], end + 7


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
            replies = request(sock, b"".join(
                b"set k%d 0 0 %d\r\n%s\r\n" % (i, VALUE_BYTES, value(i))
                for i in range(KEYS)), KEYS)
            stored = [i for i, r in enumerate(replies) if r == b"STORED"]
            print(f"{len(stored)} of {KEYS} STORED")
            replies = request(sock, b"".join(
                b"set k%d 0 0 %d\r\n%s\r\n" % (i, VALUE_BYTES, new_value(i))
                for i in RESET), len(RESET))
            reset = [i for i, r in zip(RESET, replies) if r == b"STORED"]
            sizes = segment_sizes(flash_dir)
            replies = request(sock, b"".join(b"delete k%d\r\n" % i
                                             for i in DELETED), len(DELETED))
            deleted = sum(r == b"DELETED" for r in replies)
            after = segment_sizes(flash_dir)
            grew = [name for name, size in after.items()
                    if size > sizes.get(name, 0)]
            print(f"{len(reset)} of {len(RESET)} re-sets STORED, {deleted} "
                  f"of {len(DELETED)} deletes DELETED, {len(grew)} segments "
                  f"grew during the deletes")
        finally:
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)
        if len(reset) != len(RESET):
            print("FAIL: a re-set was not stored")
            return 1
        if not grew:
            print("FAIL: no segment grew during the deletes, so the cut "
                  "removes no tombstone")
            return 1
        cut_segments(flash_dir, sizes)
        survivors = [i for i in stored if i >= DELETED.stop]
        if len(survivors) < SAMPLE:
            print("FAIL: too few keys were stored to sample")
            return 1

        server = subprocess.Popen(cmd, stderr=subprocess.DEVNULL)
        try:
            sock = connect(args.port)
            sample = random.Random(7).sample(survivors, SAMPLE)
            asked = list(DELETED) + list(RESET) + sample
            sock.sendall(b"".join(b"get k%d\r\n" % i for i in asked) +
                         b"stats\r\n")
            data = read_until(sock, len(asked) + 1, b"END\r\n")
        finally:
            server.terminate()
            server.wait(timeout=30)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(flash_dir, ignore_errors=True)

    pos = 0
    served_new = 0
    for i in asked:
        got, pos = parse_get(data, pos)
        if i in DELETED:
            if got is not None:
                print(f"FAIL: deleted k{i} was served: {got[:24]!r}")
                return 1
        elif i in RESET:
            if got is not None and got != new_value(i):
                print(f"FAIL: re-set k{i} did not serve its new bytes: "
                      f"{got[:24]!r}")
                return 1
            served_new += got is not None
        elif got != value(i):
            print(f"FAIL: k{i} did not come back byte-exact: "
                  f"{(got or b'')[:24]!r}")
            return 1
    stats = {}
    for line in data[pos:].decode().splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "STAT":
            stats[parts[1]] = parts[2]
    recovered = int(stats.get("persist_recovered_items", 0))
    flash = int(stats.get("flash_recovered_items", 0))
    print(f"no deleted key served; {served_new} of {len(RESET)} re-set keys "
          f"served their new bytes, none the old; {SAMPLE} sampled keys "
          f"byte-exact; persist_recovered_items {recovered}, "
          f"flash_recovered_items {flash}")
    if recovered != KEYS - len(DELETED):
        print("FAIL: the log did not replay to every store and delete")
        return 1
    if flash <= 0:
        print("FAIL: nothing was recovered from flash")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
