"""E1 — Theorem 1 (I/O optimality on the parallel disk model).

Paper claim: Balance Sort sorts N records with
``Θ((N/DB)·log(N/B)/log(M/B))`` parallel I/Os, deterministically, matching
the [AgV] lower bound.  Reproduction: sweep N over decades and D over the
grid; the measured-I/O / bound ratio must sit in a constant band (flat in
N), for every D.
"""

import pytest

from repro.analysis.bounds import cpu_work_bound
from repro.analysis.optimality import loglog_slope
from repro.analysis.reporting import Table
from repro.core.sort_pdm import _memoryload, default_bucket_count
from repro.exceptions import ParameterError
from repro.pdm import ParallelDiskMachine, VirtualDisks

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
        assert max(ratios) < 5.5
    # measured I/Os grow with the same exponent as the bound (log-log fit)
    for d in D_SWEEP:
        sub = [r for r in rows if r["D"] == d]
        slope_m = loglog_slope([r["N"] for r in sub], [r["ios"] for r in sub])
        slope_b = loglog_slope([r["N"] for r in sub], [r["bound"] for r in sub])
        assert abs(slope_m - slope_b) < 0.25
    # every run balanced within the deterministic guarantee
    assert max(r["balance"] for r in rows) <= 2.5


#: The depth table's cell: the 64k / D=4 cell of the grid above.
DEPTH_CELL = {"n": 64_000, "memory": M, "block": B, "disks": 4,
              "workload": "uniform", "seed": 1}


def depth_buckets() -> list[int]:
    """S from 3 up to the largest the sort's memoryload rule admits."""
    machine = ParallelDiskMachine(memory=M, block=B, disks=DEPTH_CELL["disks"])
    storage = VirtualDisks(machine, 2)
    out, s = [], 3
    while True:
        try:
            _memoryload(machine, storage, s)
        except ParameterError:
            return out
        out.append(s)
        s += 1


def depth_sweep(jobs=None, cache_dir=None):
    """One row per fixed S, then the planned row (``buckets`` unset)."""
    cells = [dict(DEPTH_CELL, buckets=s) for s in depth_buckets()] + [DEPTH_CELL]
    results = parallel_sweep("sort_pdm", cells, jobs=jobs, cache_dir=cache_dir)
    bound = cpu_work_bound(DEPTH_CELL["n"], 1)
    return [
        {
            "S": cell.get("buckets", "planned"),
            "ios": res["parallel_ios"],
            "ratio": round(res["ratio"], 2),
            "depth": res["recursion_depth"],
            "cpu ratio": round(res["cpu_work"] / bound, 2),
        }
        for cell, res in zip(cells, results)
    ]


@pytest.mark.benchmark(group="e1")
def test_e1_constant_against_depth(benchmark):
    """The Theorem-1 constant against a fixed S on one cell, and the
    default (planned fan-out, histogram splitters) beside the best of
    them."""
    rows = run_once(benchmark, depth_sweep)
    t = Table(["S", "ios", "ratio", "depth", "cpu ratio"],
              title="E1b  the 64k / D=4 cell against S (M=512, B=4, D'=2)")
    for r in rows:
        t.add_dict(r)
    paper = default_bucket_count(M, B)
    *fixed, planned = rows
    best = min(fixed, key=lambda r: r["ios"])
    report("e1b_depth", t,
           notes=f"S fixed at every level from the paper's (M/B)^(1/4) = {paper} "
                 f"to the largest the memoryload rule admits, every pass "
                 f"reading for its splitters; the last row is the default, S "
                 f"planned per subproblem and the root's children split on "
                 f"its exact counts without that read "
                 f"({planned['ios']:,} I/Os against {best['ios']:,} at the best "
                 f"fixed S = {best['S']}).")
    assert fixed[0]["S"] == paper == 3
    assert [r["S"] for r in fixed] == list(range(3, 3 + len(fixed)))
    # Fewer levels as S grows: depth never rises with S.
    depths = [r["depth"] for r in fixed]
    assert depths == sorted(depths, reverse=True)
    # The plan beats every fixed S: its children skip their sampling read.
    assert planned["ios"] < best["ios"]
