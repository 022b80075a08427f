#!/usr/bin/env python3
"""Symbolise a pcs.so sample file: sym.py SAMPLES BINARY [TOP]

BINARY must be the sampled executable, built with line tables
(CARGO_PROFILE_RELEASE_DEBUG=1). Prints the TOP (default 30) entries by
outermost function, by inline chain and by source line, as shares of all
samples; samples outside BINARY are grouped by mapped object.
"""
import collections
import os
import subprocess
import sys


def main():
    samples, binary = sys.argv[1], os.path.realpath(sys.argv[2])
    top = int(sys.argv[3]) if len(sys.argv) > 3 else 30
    text, maps = open(samples).read().split("--maps--\n")
    pcs = [int(line, 16) for line in text.split()]
    # (start, end, file offset, path) of every mapping that has a path.
    regions = []
    for line in maps.splitlines():
        f = line.split()
        if len(f) >= 6:
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            regions.append((lo, hi, int(f[2], 16), f[5]))
    # A PIE is mapped at one base: the start of its offset-0 mapping.
    base = min(lo for lo, _, off, path in regions if path == binary and off == 0)

    def where(pc):
        for lo, hi, _, path in regions:
            if lo <= pc < hi:
                return path
        return "[unmapped]"

    inside = sorted({pc - base for pc in pcs if where(pc) == binary})
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary] + [hex(a) for a in inside],
        capture_output=True, text=True, check=True).stdout.splitlines()
    # Per address: "0x..." (-a), then function / file:line pairs, innermost first.
    frames, lines = {}, iter(out)
    for line in lines:
        if line.startswith("0x"):
            chain = frames.setdefault(int(line, 16), [])
        else:
            chain.append((line, next(lines).split(" (discriminator")[0]))
    by_func, by_chain, by_line = (collections.Counter() for _ in range(3))
    for pc in pcs:
        obj = where(pc)
        if obj != binary:
            for table in (by_func, by_chain, by_line):
                table[f"[{os.path.basename(obj)}]"] += 1
            continue
        chain = frames[pc - base]
        by_func[chain[-1][0]] += 1
        by_chain[" < ".join(fn for fn, _ in chain)] += 1
        by_line[f"{chain[0][1]}  ({chain[-1][0]})"] += 1
    for title, table in (("outermost function", by_func), ("inline chain", by_chain),
                         ("source line", by_line)):
        print(f"\n== {len(pcs)} samples by {title} ==")
        for name, count in table.most_common(top):
            print(f"{100 * count / len(pcs):6.2f}%  {count:7d}  {name}")


if __name__ == "__main__":
    main()
