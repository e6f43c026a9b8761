"""PDM block-store benchmark: the arena backend vs the legacy dict store.

Records the tentpole trajectory point for the slab-allocated
:class:`~repro.pdm.store.ArenaBlockStore` in ``BENCH_pdm_store.json`` at
the repo root:

* **store microbench** — raw write/read/free batch throughput of the two
  backends in isolation (the substrate-only view of the change);
* **E1 macro grid** — the Theorem-1 sweep (9 ``sort_pdm`` cells), timed
  serially per cell on the arena and on the dict store (selected through
  ``repro.pdm.store.DEFAULT_STORE``), with
  backend runs interleaved and min-of-``repeats`` per cell to damp host
  noise.  Cell results are asserted bit-identical across backends — a
  speedup that changed the measurements would be a bug, not a win;
* **baselines** — the pre-arena numbers this PR is measured against:
  the PR-2 recorded E1 serial wall-clock (19.533 s, from
  ``BENCH_exec_runner.json``; different-day host conditions) and the
  PR-2 code re-timed on *this* host at the time the arena landed
  (25.317 s — the honest same-host comparison).

The pytest entry point (``pytest benchmarks/bench_pdm_store.py -m
bench``) runs a reduced smoke grid and enforces a **3× regression
threshold** against the recorded point: generous enough for noisy CI
hosts, tight enough to catch the store regressing to pre-arena
per-block-dict behaviour (>10× on the microbench).

Run directly (``python benchmarks/bench_pdm_store.py``) to re-record the
full point.
"""

from __future__ import annotations

import json
import os
import sys
import time
from unittest import mock

import numpy as np
import pytest

from repro.util import capture_host

sys.path.insert(0, os.path.dirname(__file__))

from bench_e1_pdm_io import GRID  # noqa: E402

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_pdm_store.json")

#: Pre-arena reference points (see module docstring for provenance).
PR2_RECORDED_E1_SERIAL_S = 19.533
PR2_SAME_HOST_E1_SERIAL_S = 25.317
PR2_SAME_HOST_E1_ROWS = [
    {"n": 4000, "disks": 4, "seconds": 0.306},
    {"n": 16000, "disks": 4, "seconds": 1.895},
    {"n": 64000, "disks": 4, "seconds": 10.894},
    {"n": 4000, "disks": 8, "seconds": 0.194},
    {"n": 16000, "disks": 8, "seconds": 1.229},
    {"n": 64000, "disks": 8, "seconds": 5.739},
    {"n": 4000, "disks": 16, "seconds": 0.124},
    {"n": 16000, "disks": 16, "seconds": 0.801},
    {"n": 64000, "disks": 16, "seconds": 4.134},
]

#: Reduced grid for the CI perf-smoke (the two largest cells dominate the
#: full grid's wall-clock and would make nightly noise hurt the most).
SMOKE_GRID = [c for c in GRID if c["n"] <= 16_000]


# ---------------------------------------------------------- microbench


def store_microbench(batches: int = 2000, width: int = 16, block: int = 4) -> dict:
    """Raw batched write→read→free throughput, per backend, in isolation."""
    from repro.pdm.store import make_store
    from repro.records import RECORD_DTYPE

    out = {}
    for name in ("arena", "dict"):
        store = make_store(name, width, block)
        disks = np.arange(width, dtype=np.int64)
        data = np.zeros((width, block), dtype=RECORD_DTYPE)
        t0 = time.perf_counter()
        for i in range(batches):
            slots = np.full(width, i, dtype=np.int64)
            store.write_batch(disks, slots, data)
        for i in range(batches):
            slots = np.full(width, i, dtype=np.int64)
            store.read_batch(disks, slots)
        for i in range(batches):
            slots = np.full(width, i, dtype=np.int64)
            store.free_batch(disks, slots)
        elapsed = time.perf_counter() - t0
        out[name] = {
            "seconds": round(elapsed, 4),
            "blocks_per_sec": int(3 * batches * width / elapsed),
        }
    out["arena_vs_dict"] = round(
        out["dict"]["seconds"] / out["arena"]["seconds"], 2
    )
    return out


# ------------------------------------------------------------ macro grid


def _time_cell(cell: dict, store: str) -> tuple[float, dict]:
    """One serial ``sort_pdm`` run under the given backend; returns (s, result)."""
    from repro.exec import run_task

    with mock.patch("repro.pdm.store.DEFAULT_STORE", store):
        t0 = time.perf_counter()
        payload = run_task("sort_pdm", dict(cell))
        return time.perf_counter() - t0, payload["result"]


def grid_comparison(grid: list[dict], repeats: int = 2) -> dict:
    """Time every cell under both backends, interleaved, min-of-``repeats``.

    Interleaving (arena, dict, arena, dict, ... per cell) means a load
    spike on the host hits both backends roughly equally instead of
    poisoning one column; min-of-N then discards the spikes.
    """
    rows = []
    for cell in grid:
        best = {"arena": float("inf"), "dict": float("inf")}
        results = {}
        for _ in range(repeats):
            for store in ("arena", "dict"):
                elapsed, result = _time_cell(cell, store)
                best[store] = min(best[store], elapsed)
                results[store] = result
        assert results["arena"] == results["dict"], (
            f"backends disagree on {cell}"
        )
        rows.append(
            {
                "n": cell["n"],
                "disks": cell["disks"],
                "arena_s": round(best["arena"], 3),
                "dict_s": round(best["dict"], 3),
                "arena_vs_dict": round(best["dict"] / best["arena"], 2),
            }
        )
    total_arena = round(sum(r["arena_s"] for r in rows), 3)
    total_dict = round(sum(r["dict_s"] for r in rows), 3)
    return {
        "rows": rows,
        "total_arena_s": total_arena,
        "total_dict_s": total_dict,
        "bit_identical": True,
    }


def measure(repeats: int = 2) -> dict:
    """The full benchmark point: microbench + E1 grid + baselines."""
    micro = store_microbench()
    macro = grid_comparison(GRID, repeats=repeats)
    total = macro["total_arena_s"]
    return {
        "schema": "repro.bench_point/1",
        "name": "pdm_store",
        "description": "Arena block store vs legacy dict store: raw batch "
                       "throughput and the E1 serial grid",
        "host": capture_host(),
        "microbench": micro,
        "e1_grid": macro,
        "baselines": {
            "pr2_recorded_serial_s": PR2_RECORDED_E1_SERIAL_S,
            "pr2_same_host_serial_s": PR2_SAME_HOST_E1_SERIAL_S,
            "pr2_same_host_rows": PR2_SAME_HOST_E1_ROWS,
            "speedup_vs_recorded": round(PR2_RECORDED_E1_SERIAL_S / total, 2),
            "speedup_vs_same_host": round(PR2_SAME_HOST_E1_SERIAL_S / total, 2),
        },
        "notes": (
            "Baselines: 'recorded' is PR-2's BENCH_exec_runner.json E1 serial "
            "number (different-day host conditions); 'same_host' is PR-2's "
            "code re-timed on this host when the arena landed — the honest "
            "comparison. This point was re-recorded after the fused-"
            "distribute work (whole-round gather/scatter I/O plans, the "
            "H'=2 closed-form rebalance, and scalar-mirror matrix upkeep); "
            "the per-PR trajectory — including the same-host pre-PR re-"
            "timing each fused point is gated against — lives in "
            "BENCH_ledger.jsonl (series e1-grid / e1-grid-unfused) and "
            "docs/performance.md. The microbench compares against the dict "
            "store *as it stands today* — it too has batched entry points, "
            "so the substrate gap understates the distance from the "
            "original per-block dict-of-dicts path; the end-to-end "
            "arena-vs-dict column (same code, store swapped) isolates the "
            "substrate's share of the grid win. This point was last "
            "re-recorded after PR-8 (columnar event journal + the "
            "optional compiled round inner loop); it times the default "
            "python backend — the compiled backend's grid trajectory "
            "lives in BENCH_ledger.jsonl (series e1-grid, min-of-3 "
            "methodology) and docs/performance.md. Remaining time is "
            "per-logical-round Python dispatch (feed/round bookkeeping, "
            "columnar appends, charge paths) that the payload-bit-"
            "identity contract requires to fire once per round. Cell "
            "results are asserted bit-identical between backends in "
            "every timed run."
        ),
    }


def record(path: str = BENCH_PATH, repeats: int = 2) -> dict:
    """Measure and persist the benchmark point."""
    point = measure(repeats=repeats)
    with open(path, "w") as fh:
        json.dump(point, fh, indent=2)
        fh.write("\n")
    return point


# ------------------------------------------------------------ perf smoke


@pytest.mark.bench
@pytest.mark.benchmark(group="pdm_store")
def test_pdm_store_perf_smoke(benchmark):
    """Nightly guard: arena must stay within 3x of the recorded point.

    Runs the reduced smoke grid (n <= 16000) once per backend, asserts
    bit-identical results, and gates the measured arena total against the
    recorded ``BENCH_pdm_store.json`` smoke-equivalent total through the
    :mod:`repro.obs.diff` engine — ``threshold=2.0`` allows a relative
    increase of 2.0, i.e. measured ≤ 3 × recorded (the same 3x window the
    ad-hoc assert used: wide enough for shared-CI noise, narrow enough to
    catch the execution layer sliding back toward pre-arena wall-clocks).
    The diff result doubles as the failure message, naming exactly which
    totals moved and by how much.
    """
    from repro.obs import diff_runs

    macro = benchmark.pedantic(
        grid_comparison, args=(SMOKE_GRID,), kwargs={"repeats": 1},
        rounds=1, iterations=1,
    )
    assert macro["bit_identical"]
    micro = store_microbench(batches=500)
    assert micro["arena_vs_dict"] > 1.0, (
        "arena store slower than the dict store at raw batch throughput"
    )
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as fh:
            recorded = json.load(fh)
        reference = sum(
            r["arena_s"] for r in recorded["e1_grid"]["rows"]
            if r["n"] <= 16_000
        )
        verdict = diff_runs(
            {"smoke": {"total_arena_s": round(reference, 3)}},
            {"smoke": {"total_arena_s": macro["total_arena_s"]}},
            threshold=2.0,
        )
        assert verdict.ok, (
            "perf regression past the 3x window: "
            + "; ".join(
                f"{e.path}: {e.a} -> {e.b} (rel {e.rel_delta:.2f} > {e.threshold})"
                for e in verdict.regressions
            )
        )


if __name__ == "__main__":
    point = record()
    print(json.dumps(point, indent=2))
