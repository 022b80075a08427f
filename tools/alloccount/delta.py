#!/usr/bin/env python3
"""Steady-state allocations of one sweep point, with set-up cancelled.

Runs `SWEEP --bench BENCH --designs DESIGN --no-cache -j 1` at --scale 1
and --scale 2 under the alloc.so preload, and divides the difference in
allocations (malloc + calloc + realloc) by the difference in simulated
cycles and in affine instructions of the two runs' artifacts.

    python3 tools/alloccount/delta.py SO SWEEP BENCH DESIGN [DESIGN...]
"""
import glob
import json
import os
import subprocess
import sys
import tempfile


def run(so, sweep, bench, design, scale, tmp):
    out = os.path.join(tmp, f"{design}-s{scale}")
    counts = os.path.join(tmp, f"{design}-s{scale}.count")
    env = dict(os.environ, LD_PRELOAD=so, ALLOCCOUNT_OUT=counts)
    subprocess.run(
        [sweep, "--bench", bench, "--designs", design, "--scale", str(scale),
         "--no-cache", "-j", "1", "-q", "--out", out],
        env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(counts) as f:
        allocs = sum(int(kv.split("=")[1]) for kv in f.read().split())
    [path] = glob.glob(os.path.join(out, "*.jsonl"))
    with open(path) as f:
        [rec] = [json.loads(line) for line in f]
    return allocs, rec["stats"]["cycles"], rec["stats"]["affine_instructions"]


def main():
    if len(sys.argv) < 5:
        sys.exit(__doc__)
    so, sweep, bench = os.path.abspath(sys.argv[1]), sys.argv[2], sys.argv[3]
    with tempfile.TemporaryDirectory() as tmp:
        for design in sys.argv[4:]:
            a1, c1, i1 = run(so, sweep, bench, design, 1, tmp)
            a2, c2, i2 = run(so, sweep, bench, design, 2, tmp)
            line = (f"{bench}/{design}: allocations {a1} -> {a2} (+{a2 - a1}) "
                    f"over +{c2 - c1} cycles = {(a2 - a1) / (c2 - c1):.4f} per cycle")
            if i2 > i1:
                line += (f", +{i2 - i1} affine instructions = "
                         f"{(a2 - a1) / (i2 - i1):.4f} per affine instruction")
            print(line)


if __name__ == "__main__":
    main()
