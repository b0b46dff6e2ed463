"""Derive the strata of the `oracle` sample and write oracle_blocks.json.

    python3 perfbench/oracle_blocks.py

For each oracle size (n=4 with 64 pairs, the benchmark; n=3 with 8 pairs,
the smoke test), times one symbolic-plus-numeric check of every ordered
pair of subsets of [1;n] on aw, from empty caches, takes the median of
REPEATS (three) passes, and cuts the pairs, sorted by that cost, into as many
blocks as the sample has pairs.  A block holds between half and one and a
half times the mean block size of consecutive pairs, and the cuts make the
summed squared spread of log-cost inside the blocks smallest.  The oracle
workload draws one pair from each block, so every seed's sample has nearly
the same cost at every rank, and its median and tail latencies do not jump
between seeds where the costs have a gap.  The file maps n to its blocks.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPEATS = 3
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SIZES, subsets  # noqa: E402


def measure(n):
    from awbi import numoracle, relations
    backend = relations.get_backend("aw")
    pairs = [(A, B) for A in subsets(n) for B in subsets(n)]
    times = {p: [] for p in pairs}
    for _ in range(REPEATS):
        for A, B in pairs:
            relations.clear_caches()
            t0 = time.perf_counter()
            lhs, rhs = relations.star_sides(A, B, n, backend)
            (lhs - rhs).is_zero()
            numoracle.crosscheck_points(lhs, rhs, (2,) * n)
            times[(A, B)].append(time.perf_counter() - t0)
    return {p: statistics.median(t) for p, t in times.items()}


def partition(costs, k):
    """Cut sorted costs into k blocks of half to one and a half times the
    mean block size with the least summed squared log-range; returns the
    cut indices."""
    logs = [math.log(c) for c in costs]
    n = len(logs)
    min_block, max_block = n // k // 2, n // k * 3 // 2
    inf = float("inf")
    best = [[inf] * (n + 1) for _ in range(k + 1)]
    cut = [[0] * (n + 1) for _ in range(k + 1)]
    best[0][0] = 0.0
    for b in range(1, k + 1):
        for j in range(1, n + 1):
            for size in range(min_block, max_block + 1):
                i = j - size
                if i < 0 or best[b - 1][i] == inf:
                    continue
                v = best[b - 1][i] + (logs[j - 1] - logs[i]) ** 2
                if v < best[b][j]:
                    best[b][j], cut[b][j] = v, i
    bounds, j = [n], n
    for b in range(k, 0, -1):
        j = cut[b][j]
        bounds.append(j)
    return bounds[::-1]


def main():
    strata = {}
    for size in (SIZES["oracle"]["tiny"], SIZES["oracle"]["full"]):
        n = size["n"]
        cost = measure(n)
        ranked = sorted(cost, key=lambda p: (cost[p], p))
        bounds = partition([cost[p] for p in ranked], size["pairs"])
        strata[n] = [[[list(A), list(B), round(cost[(A, B)] * 1000, 1)]
                      for A, B in ranked[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]
    with (HERE / "oracle_blocks.json").open("w") as f:
        f.write("{" + ",\n".join(
            '"%d": [\n' % n + ",\n".join(json.dumps(b) for b in blocks) + "\n]"
            for n, blocks in strata.items()) + "}\n")

if __name__ == "__main__":
    raise SystemExit(main())
