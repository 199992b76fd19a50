#!/usr/bin/env python3
"""Huge-mesh smoke: sketch accounting must hold a fixed memory budget.

Runs `oblv_route --stream` on a mesh whose exact accounting arrays
could not be allocated on the runner (default: 1024x1024x1024, ~3.2e9
edges, ~25.8 GB exact) with sketch accounting, and fails unless

  * the run exits 0 and routes every packet,
  * the reported sketch memory stays inside --sketch-bytes, and
  * the PROCESS peak RSS stays under --max-rss-mb -- the end-to-end
    proof that no hidden O(E) allocation rode along (the wrapper
    measures the whole process, not just the accountant's own count).

Peak RSS comes from resource.getrusage(RUSAGE_CHILDREN) after the child
exits (ru_maxrss, kbytes on Linux), so the check needs no /usr/bin/time.

Usage:
  huge_mesh_smoke.py --binary build/tools/oblv_route
      [--mesh 1024x1024x1024] [--packets 100000]
      [--sketch-bytes 8388608] [--max-rss-mb 512]

Exit status: 0 on success, 1 on any violated check, 2 on usage error.
"""

from __future__ import annotations

import argparse
import re
import resource
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True,
                        help="path to the oblv_route binary")
    parser.add_argument("--mesh", default="1024x1024x1024")
    parser.add_argument("--packets", type=int, default=100000)
    parser.add_argument("--sketch-bytes", type=int, default=8 * 1024 * 1024)
    parser.add_argument("--max-rss-mb", type=int, default=512)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    cmd = [
        args.binary,
        "--mesh", args.mesh,
        "--stream", str(args.packets),
        "--account", "sketch",
        "--sketch-bytes", str(args.sketch_bytes),
        "--threads", str(args.threads),
    ]
    print("+", " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"FAIL: exit status {proc.returncode}")
        return 1

    failures = []

    routed = re.search(r"routed\s*:\s*(\d+) packets", proc.stdout)
    if not routed or int(routed.group(1)) != args.packets:
        failures.append(f"expected {args.packets} routed packets, got "
                        f"{routed.group(1) if routed else 'nothing'}")

    memory = re.search(r"memory\s*:\s*(\d+) bytes", proc.stdout)
    if not memory:
        failures.append("no sketch memory report in output")
    elif int(memory.group(1)) > args.sketch_bytes:
        failures.append(f"sketch memory {memory.group(1)} bytes exceeds the "
                        f"{args.sketch_bytes}-byte budget")

    # ru_maxrss is the max over all waited-for children; the oblv_route
    # run above dominates anything else this process spawned (nothing).
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_mb = rss_kb / 1024.0
    print(f"peak RSS: {rss_mb:.1f} MB (cap {args.max_rss_mb} MB)")
    if rss_mb > args.max_rss_mb:
        failures.append(f"peak RSS {rss_mb:.1f} MB exceeds the "
                        f"{args.max_rss_mb} MB cap -- an O(E) allocation "
                        "leaked into the streaming path")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("huge-mesh smoke: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
