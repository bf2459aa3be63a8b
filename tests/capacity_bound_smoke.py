#!/usr/bin/env python3
"""Capacity-bound smoke on the real server binary.

Starts pamakv-server with a 16 MiB cache over 4 shards and records its
idle VmRSS, after the first `stats` and before any load: an idle server
holds only structure, which must cost less than the capacity it caches.
Then it pushes 1M distinct 200 B keys as `set ... noreply` over one
connection, each with --exptime (default 0: no TTL), and checks the
server's peak memory against its capacity:

    idle < capacity
    VmHWM - idle <= capacity + 384 B x curr_items [+ 160 B x flash_items]

(the flash term only with --flash-dir). An evicted key may keep only its
ghost, and a TTL only its item handle's one expiry entry, so the peak
must follow the capacity and not the number of keys ever stored.

Usage:
    python3 tests/capacity_bound_smoke.py --server build/server/pamakv-server
    python3 tests/capacity_bound_smoke.py --server ... --flash-dir "$(mktemp -d)"
    python3 tests/capacity_bound_smoke.py --server ... --exptime 3600
"""

import argparse
import socket
import subprocess
import sys
import time

CAPACITY_MB = 16
KEYS = 1_000_000
VALUE_BYTES = 200
CHUNK = 10_000


def status_kib(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def connect(port):
    for _ in range(100):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=60)
        except OSError:
            time.sleep(0.1)
    raise RuntimeError("server did not start listening")


def stats(sock):
    sock.sendall(b"stats\r\n")
    data = b""
    while not data.endswith(b"END\r\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise RuntimeError("connection closed before END")
        data += chunk
    out = {}
    for line in data.decode().splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "STAT":
            out[parts[1]] = parts[2]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--server", required=True)
    parser.add_argument("--port", type=int, default=11239)
    parser.add_argument("--flash-dir", default="")
    parser.add_argument("--exptime", type=int, default=0,
                        help="exptime of every set (default 0: no TTL)")
    args = parser.parse_args()

    cmd = [args.server, f"--port={args.port}", "--policy=pama",
           f"--capacity-mb={CAPACITY_MB}", "--shards=4"]
    if args.flash_dir:
        cmd.append(f"--flash-dir={args.flash_dir}")
    server = subprocess.Popen(cmd, stderr=subprocess.DEVNULL)
    try:
        sock = connect(args.port)
        stats(sock)  # listening and serving
        idle_kib = status_kib(server.pid, "VmRSS")
        value = b"v" * VALUE_BYTES
        for base in range(0, KEYS, CHUNK):
            sock.sendall(b"".join(
                b"set k%07d 0 %d %d noreply\r\n%s\r\n"
                % (i, args.exptime, VALUE_BYTES, value)
                for i in range(base, base + CHUNK)))
        st = stats(sock)  # answered once every set ahead of it ran
        peak_kib = status_kib(server.pid, "VmHWM")
    finally:
        server.terminate()
        server.wait(timeout=30)

    items = int(st["curr_items"])
    flash_items = int(st.get("flash_items", 0))
    growth = (peak_kib - idle_kib) * 1024
    bound = CAPACITY_MB * 2**20 + 384 * items + 160 * flash_items
    print(f"idle {idle_kib / 1024:.1f} MiB, peak {peak_kib / 1024:.1f} MiB, "
          f"growth {growth / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB "
          f"(curr_items {items}, flash_items {flash_items})")
    if items == 0:
        print("FAIL: nothing is cached")
        return 1
    if idle_kib * 1024 >= CAPACITY_MB * 2**20:
        print("FAIL: the idle server holds more than its capacity")
        return 1
    if growth > bound:
        print("FAIL: peak memory grew past the capacity bound")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
