"""Exec-layer benchmark: serial vs ``--jobs 4`` vs warm cache on E1 + E3.

Measures the wall-clock of the E1 (Theorem 1 I/O sweep) and E3 (baseline
comparison) grids through the :mod:`repro.exec` JobRunner in three
modes and records the trajectory point in ``BENCH_exec_runner.json`` at
the repo root:

* ``serial`` — in-process execution (the pre-exec-layer behaviour);
* ``jobs=4`` — four worker processes (real speedup scales with the host's
  usable cores; on a single-core host this only measures pool overhead);
* ``warm cache`` — every cell served from the content-hashed result
  cache (the repeated-grid-cell path, independent of core count).

Besides timing, the benchmark asserts the determinism contract: all three
modes must produce **bit-identical rows**.

Run directly (``python benchmarks/bench_exec_runner.py``) or via pytest
(``pytest benchmarks/bench_exec_runner.py -m bench``).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import pytest

from repro.util import capture_host

sys.path.insert(0, os.path.dirname(__file__))

from _harness import parallel_sweep  # noqa: E402

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_exec_runner.json")


def _grids():
    import bench_e1_pdm_io
    import bench_e3_baselines

    return [
        ("e1", "sort_pdm", bench_e1_pdm_io.GRID),
        ("e3", "compare_pdm", bench_e3_baselines.GRID),
    ]


def measure() -> dict:
    """Time the E1+E3 grids serial / jobs=4 / warm-cache; return the record."""
    grids = _grids()
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        for name, task, grid in grids:
            t0 = time.perf_counter()
            serial = parallel_sweep(task, grid, jobs=0)
            t_serial = time.perf_counter() - t0

            t0 = time.perf_counter()
            par = parallel_sweep(task, grid, jobs=4, cache_dir=cache_dir)
            t_par = time.perf_counter() - t0

            t0 = time.perf_counter()
            warm = parallel_sweep(task, grid, jobs=4, cache_dir=cache_dir)
            t_warm = time.perf_counter() - t0

            assert serial == par == warm, f"{name}: modes disagree on results"
            rows.append(
                {
                    "grid": name,
                    "task": task,
                    "cells": len(grid),
                    "serial_s": round(t_serial, 3),
                    "jobs4_s": round(t_par, 3),
                    "warm_cache_s": round(t_warm, 3),
                    "speedup_jobs4": round(t_serial / t_par, 2),
                    "speedup_warm_cache": round(t_serial / t_warm, 1),
                    "bit_identical": True,
                }
            )
    return {
        "schema": "repro.bench_point/1",
        "name": "exec_runner",
        "description": "E1+E3 grid wall-clock: serial vs JobRunner "
                       "--jobs 4 vs warm result cache",
        "host": capture_host(),
        "rows": rows,
        "notes": (
            "Rows are bit-identical across all three modes (asserted). "
            "jobs=4 speedup is bounded by the host's usable cores: on a "
            "single-core host it measures only process-pool overhead; the "
            "warm-cache row is the core-count-independent fast path."
        ),
    }


def record(path: str = BENCH_PATH) -> dict:
    """Measure and persist the benchmark point."""
    point = measure()
    with open(path, "w") as fh:
        json.dump(point, fh, indent=2)
        fh.write("\n")
    return point


@pytest.mark.bench
@pytest.mark.benchmark(group="exec")
def test_exec_runner_modes_bit_identical_and_recorded(benchmark):
    point = benchmark.pedantic(record, rounds=1, iterations=1)
    for row in point["rows"]:
        assert row["bit_identical"]
        # The cache path must beat re-simulation decisively regardless of
        # core count; the jobs=4 path can only be asserted when the host
        # actually has the cores.
        assert row["speedup_warm_cache"] >= 2.0
        if point["host"]["usable_cores"] >= 4:
            assert row["speedup_jobs4"] >= 2.0


if __name__ == "__main__":
    point = record()
    print(json.dumps(point, indent=2))
