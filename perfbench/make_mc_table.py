"""Regenerate mc_reference.json, the Monte Carlo reference table for the
shapes that have no closed form.

    python3 perfbench/make_mc_table.py

It draws SAMPLES samples per shape from one generator seeded with SEED,
the values the committed table was made with, so a rerun rewrites the
same table (12-18 min on one core).

The draws come from numpy's PCG64 generator and the partition functions
from the DP below, written apart from grsklab.sampling: 1/w_ij ~ Gamma(gamma)
on every cell of the staircase, Z_ij = w_ij (Z_{i-1,j} + Z_{i,j-1}).  Each
row gives the mean of exp(-sum_l u_l Z_{m_l,n_l}) and its standard error.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refs  # noqa: E402
import workloads as wl  # noqa: E402

SAMPLES = 320_000_000
SEED = 20150911
CHUNK = 200_000


def needed() -> dict:
    """{points tuple: set of u tuples} for every table lookup the checks make."""
    out = {}

    def add(points, us):
        out.setdefault(tuple(points), set()).add(tuple(float(u) for u in us))

    for points, base, scales in wl.MC_SHAPES:
        if points != [(1, 1)]:
            for c in scales:
                add(points, [c * b for b in base])
    for points in wl.LAPLACE_POINTS:
        for u in wl.CONTOUR_U:
            if points != [(1, 1)]:
                add(points, [u] * len(points))
            if len(points) == 2:
                # one-point marginals, in the m >= n orientation
                for (m, n) in points:
                    add([(max(m, n), min(m, n))], [u])
    return out


def partition_functions(w: np.ndarray, cells, points) -> np.ndarray:
    """w: (S, ncells) weights in the order of `cells`; returns (S, len(points))."""
    index = {c: k for k, c in enumerate(cells)}
    Z = {}
    for (i, j) in cells:
        prev = Z.get((i - 1, j), 0.0) + Z.get((i, j - 1), 0.0)
        if (i, j) == (1, 1):
            prev = 1.0
        Z[(i, j)] = w[:, index[(i, j)]] * prev
    return np.stack([Z[p] for p in points], axis=1)


def staircase_cells(points):
    return sorted({(i, j) for (m, n) in points
                   for i in range(1, m + 1) for j in range(1, n + 1)})


def estimate(points, u_list, samples, rng):
    cells = staircase_cells(points)
    us = np.array(u_list)                      # (K, L)
    s1 = np.zeros(len(u_list))
    s2 = np.zeros(len(u_list))
    done = 0
    while done < samples:
        s = min(CHUNK, samples - done)
        w = 1.0 / rng.standard_gamma(wl.GAMMA, size=(s, len(cells)))
        Z = partition_functions(w, cells, points)
        x = np.exp(-Z @ us.T)                  # (s, K)
        s1 += x.sum(axis=0)
        s2 += (x * x).sum(axis=0)
        done += s
    mean = s1 / samples
    var = (s2 - samples * mean**2) / (samples - 1)
    return mean, np.sqrt(var / samples)


def main():
    rng = np.random.default_rng(SEED)
    rows = []
    for points, u_set in sorted(needed().items()):
        t = time.perf_counter()
        u_list = sorted(u_set)
        mean, sigma = estimate(list(points), u_list, SAMPLES, rng)
        for us, m, s in zip(u_list, mean, sigma):
            rows.append({"key": refs.table_key(points, us), "mean": float(m),
                         "sigma": float(s)})
        print(f"{points}: {len(u_list)} u, {time.perf_counter() - t:.1f} s",
              file=sys.stderr)
    doc = {"samples": SAMPLES, "seed": SEED, "gamma": wl.GAMMA,
           "generator": "numpy PCG64 standard_gamma", "rows": rows}
    with open(refs.MC_TABLE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
