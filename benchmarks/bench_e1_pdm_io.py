"""E1 — Theorem 1 (I/O optimality on the parallel disk model).

Paper claim: Balance Sort sorts N records with
``Θ((N/DB)·log(N/B)/log(M/B))`` parallel I/Os, deterministically, matching
the [AgV] lower bound.  Reproduction: sweep N over decades and D over the
grid; the measured-I/O / bound ratio must sit in a constant band (flat in
N), for every D.
"""

import pytest

from repro.analysis.optimality import loglog_slope
from repro.analysis.reporting import Table

from _harness import parallel_sweep, report, run_once

N_SWEEP = [4_000, 16_000, 64_000]
D_SWEEP = [4, 8, 16]
M, B = 512, 4

#: The E1 grid as exec-task cells (one ``sort_pdm`` run per cell).
GRID = [
    {"n": n, "memory": M, "block": B, "disks": d, "workload": "uniform", "seed": 1}
    for d in D_SWEEP
    for n in N_SWEEP
]


def sweep(jobs=None, cache_dir=None):
    results = parallel_sweep("sort_pdm", GRID, jobs=jobs, cache_dir=cache_dir)
    rows = []
    for cell, res in zip(GRID, results):
        rows.append(
            {
                "N": cell["n"],
                "D": cell["disks"],
                "ios": res["parallel_ios"],
                "bound": res["theorem1_bound"],
                "ratio": round(res["ratio"], 2),
                "depth": res["recursion_depth"],
                "balance": round(res["balance_factor"], 2),
            }
        )
    return rows


@pytest.mark.benchmark(group="e1")
def test_e1_io_vs_theorem1_bound(benchmark):
    rows = run_once(benchmark, sweep)

    t = Table(["N", "D", "ios", "bound", "ratio", "depth", "balance"],
              title="E1  Balance Sort parallel I/Os vs Theorem 1 bound")
    for r in rows:
        t.add_dict(r)
    report("e1_pdm_io", t,
           notes="Claim: ratio stays in a constant band as N grows (per D); "
                 "balance factor ≈ Theorem 4's 2.")

    for d in D_SWEEP:
        ratios = [r["ratio"] for r in rows if r["D"] == d]
        assert max(ratios) / min(ratios) < 2.0, f"ratio drifts for D={d}"
        assert max(ratios) < 9.0
    # measured I/Os grow with the same exponent as the bound (log-log fit)
    for d in D_SWEEP:
        sub = [r for r in rows if r["D"] == d]
        slope_m = loglog_slope([r["N"] for r in sub], [r["ios"] for r in sub])
        slope_b = loglog_slope([r["N"] for r in sub], [r["bound"] for r in sub])
        assert abs(slope_m - slope_b) < 0.25
    # every run balanced within the deterministic guarantee
    assert max(r["balance"] for r in rows) <= 2.5
