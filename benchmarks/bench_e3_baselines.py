"""E3 — the Section 1 comparison: Balance Sort vs the prior art.

Paper claims reproduced here:

* **striped merge sort** is deterministic but suboptimal "by a
  multiplicative factor of log(M/B)": as ``DB`` approaches ``M`` its
  ratio-to-bound grows, while the independent-disk algorithms stay flat —
  the crossover the benchmark locates;
* **randomized [ViSa]** and **Greed Sort [NoV]** match Balance Sort's I/O
  order (all three are optimal on the PDM);
* Balance Sort achieves this *deterministically* (same I/O count on every
  run, no expectation).
"""

import pytest

from repro import ParallelDiskMachine, balance_sort_pdm, workloads
from repro.analysis.reporting import Table
from repro.baselines import randomized_distribution_sort

from _harness import parallel_sweep, report, run_once

# Sweep the striping width DB toward M (=512): fan-in collapses for the
# striped baseline only.  The third element is Balance Sort's D' (partial
# striping): with DB near M the S partial blocks of DB/D' records need
# D' ≥ 2·S·DB/M to fit in memory, so wide configs get more virtual disks.
CONFIGS = [
    # (D, B, D')  -> DB:   8     32    64    128
    (2, 4, None),
    (8, 4, None),
    (32, 2, 8),
    (64, 2, 32),
]
N = 48_000
M = 512
# Bucket count for both distribution sorts in this head-to-head: S =
# sqrt(M/B), the [ViSa] practical choice.  The paper's S = (M/B)^(1/4) is
# what the simultaneous-CPU-optimality proof wants; both are Θ-optimal in
# I/Os, differing only in the constant (4 vs 2 recursion levels here).
# Fixing S for both (no planned fan-out, no histogram splitters) makes
# the comparison one of block placement only.
S_E3 = 16

ALG_NAMES = ["balance", "greed", "randomized", "striped"]

#: The E3 grid as exec-task cells (one ``compare_pdm`` run per cell).
GRID = []
for _d, _b, _vd in CONFIGS:
    for _alg in ALG_NAMES:
        cell = {
            "algorithm": _alg, "n": N, "memory": M, "block": _b, "disks": _d,
            "workload": "uniform", "seed": 3,
        }
        if _alg in ("balance", "randomized"):
            cell["buckets"] = S_E3
        if _alg == "balance" and _vd is not None:
            cell["virtual_disks"] = _vd
        GRID.append(cell)


def sweep(jobs=None, cache_dir=None):
    results = parallel_sweep("compare_pdm", GRID, jobs=jobs, cache_dir=cache_dir)
    rows = []
    for cell, res in zip(GRID, results):
        rows.append(
            {
                "alg": res["algorithm"],
                "D": cell["disks"],
                "B": cell["block"],
                "DB": cell["disks"] * cell["block"],
                "ios": res["parallel_ios"],
                "ratio": round(res["ratio"], 2),
            }
        )
    return rows


@pytest.mark.benchmark(group="e3")
def test_e3_baseline_comparison(benchmark):
    rows = run_once(benchmark, sweep)

    t = Table(["alg", "D", "B", "DB", "ios", "ratio"],
              title=f"E3  I/O ratio to the Theorem 1 bound, N={N}, M={M}")
    for r in sorted(rows, key=lambda r: (r["alg"], r["DB"])):
        t.add_dict(r)

    def ratios(alg):
        return [r["ratio"] for r in rows if r["alg"] == alg]

    striped = ratios("striped")
    balance = ratios("balance")
    greed = ratios("greed")
    rand = ratios("randomized")

    crossover = next(
        (
            f"DB={d * b}"
            for (d, b, _), rs, rb in zip(CONFIGS, striped, balance)
            if rs > rb
        ),
        "none in sweep",
    )
    report(
        "e3_baselines", t,
        notes=(
            "Claims: striped ratio grows as DB→M (the log(M/B)-factor gap); "
            "balance/greed/randomized stay in constant bands.  "
            f"Striped-vs-balance crossover at {crossover}."
        ),
    )

    # striped merge sort's ratio grows across the DB sweep...
    assert striped[-1] > 2.5 * striped[0]
    # ...while the distribution sorts stay within constant bands
    for rs in (balance, rand):
        assert max(rs) / min(rs) < 2.5
    # greed is optimal-order too, though its constant moves with D
    # (fan-in vs disk-count interplay); it must stay bounded
    assert max(greed) < 16
    # at the widest striping the deterministic distribution sort wins
    assert striped[-1] > balance[-1]


@pytest.mark.benchmark(group="e3")
def test_e3_determinism_vs_randomized_variance(benchmark):
    """Balance Sort's I/O count is a constant; the randomized baseline's varies."""

    def run():
        import numpy as np

        data = workloads.uniform(8_000, seed=4)
        det = []
        ran = []
        for trial in range(3):
            m1 = ParallelDiskMachine(memory=M, block=4, disks=8)
            det.append(balance_sort_pdm(m1, data, check_invariants=False).total_ios)
            m2 = ParallelDiskMachine(memory=M, block=4, disks=8)
            ran.append(
                randomized_distribution_sort(
                    m2, data, rng=np.random.default_rng(trial)
                ).total_ios
            )
        return det, ran

    det, ran = run_once(benchmark, run)
    t = Table(["trial", "balance (deterministic)", "randomized [ViSa]"],
              title="E3b  run-to-run I/O counts")
    for i, (a, b) in enumerate(zip(det, ran)):
        t.add(i, a, b)
    report("e3b_determinism", t,
           notes="Claim: the deterministic algorithm's count never varies.")
    assert len(set(det)) == 1
    assert len(set(ran)) > 1
