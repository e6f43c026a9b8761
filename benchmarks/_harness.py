"""Shared helpers for the experiment benchmarks (E1-E10).

Each bench file reproduces one entry of DESIGN.md §5's experiment index:
it sweeps the workload/parameters, prints an aligned table of
measured-vs-bound rows (run pytest with ``-s`` to see it live), writes the
same table under ``benchmarks/results/``, and asserts the paper's
qualitative claim (who wins, bounded ratio, factor ≈ 2, ...).  The
``benchmark`` fixture wraps the sweep so ``pytest benchmarks/
--benchmark-only`` also reports wall-clock for the simulation itself.
"""

from __future__ import annotations

import json
import os

from repro.analysis.reporting import Table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report(name: str, table: Table, notes: str = "") -> str:
    """Print a result table and persist it under benchmarks/results/.

    Writes two files per experiment: the aligned-text table
    (``results/{name}.txt``, unchanged format) and a machine-readable
    sidecar (``results/{name}.json``) carrying the same rows plus the
    notes and the normalized host metadata
    (:func:`repro.util.capture_host`), so downstream tooling never has to
    parse the text table and diff gates can ignore ``host.*`` wholesale.
    """
    from repro import __version__
    from repro.util import capture_host

    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = table.render()
    if notes:
        text += "\n\n" + notes.strip()
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    sidecar = {
        "schema": "repro.bench_result/1",
        "repro_version": __version__,
        "name": name,
        "host": capture_host(),
        **table.to_dict(),
        "notes": notes.strip(),
    }
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    print("\n" + text + "\n")
    return text


def run_once(benchmark, fn):
    """Run a sweep exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def parallel_sweep(task, cells, jobs=None, cache_dir=None):
    """Run a benchmark grid through the :mod:`repro.exec` JobRunner.

    ``cells`` is a list of task-parameter dicts (one per grid cell);
    returns the per-cell ``result`` summaries **in cell order**, so
    benchmark tables built from them are bit-identical whether the grid
    ran serially, across a process pool, or from cache.

    Sharding/caching default to the environment so CI and local runs can
    opt in without touching the bench files:

    * ``REPRO_BENCH_JOBS`` — worker processes (unset/0/1 = serial);
    * ``REPRO_BENCH_CACHE`` — result-cache directory (unset = no cache).
    """
    from repro.exec import JobRunner, RunSpec

    if jobs is None:
        jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0") or 0)
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_BENCH_CACHE") or None
    runner = JobRunner(jobs=jobs, cache_dir=cache_dir)
    results = runner.map([RunSpec(task, dict(cell)) for cell in cells])
    return [r.result for r in results]


def random_valid_instance(rng, hp):
    """A random matching instance satisfying the Invariant-1 degree bound.

    (Mirrors the generator used by the unit tests: |U| ≤ ⌊H'/2⌋ overloaded
    channels, each adjacent to ≥ ⌈H'/2⌉ of the H' channels.)
    """
    import numpy as np

    from repro.core.matching import MatchingInstance

    k = rng.integers(1, max(2, hp // 2 + 1))
    need = (hp + 1) // 2
    adj = np.zeros((k, hp), dtype=bool)
    for i in range(k):
        deg = rng.integers(need, hp + 1)
        cols = rng.choice(hp, size=deg, replace=False)
        adj[i, cols] = True
    return MatchingInstance(
        u_channels=tuple(range(k)),
        buckets=tuple(range(k)),
        adjacency=adj,
        n_channels=hp,
    )
