"""A deterministic cost guard on observation: no Python call per event.

An exec payload traces every parallel I/O and every Balance round, and
its auditor checks every round.  Each such record must cost about what a
counter costs — a few C-level list appends and one truth test — so
observation may add Python calls per span, per engine and per export,
but none per I/O and none per clean round.  The guard counts Python
function calls with ``sys.setprofile`` (C calls are not counted), so it
involves no timing: the same traced ``run_task`` against the same sort
with ``obs=None``.

It runs the pure-Python matrix upkeep, whose max factor and invariant
indexes are O(1) reads.  The compiled round ops keep neither, so there
the audit walks the buckets through three matrix methods per round.
"""

import sys
from collections import Counter

from repro import workloads
from repro.core import kernels
from repro.core.sort_pdm import balance_sort_pdm
from repro.exec import run_task
from repro.pdm import ParallelDiskMachine

#: Every default spelled out, so the bare twin below sorts the same keys
#: on the same machine; no verify and no checksums, so neither side reads
#: anything back.
PARAMS = {"n": 8000, "memory": 512, "block": 4, "disks": 4,
          "workload": "uniform", "seed": 0}


def _python_calls(fn):
    """``(calls per function, fn())``; a function is ``(file, name)``."""
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_filename, frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return calls, out


def _bare():
    machine = ParallelDiskMachine(memory=PARAMS["memory"], block=PARAMS["block"],
                                  disks=PARAMS["disks"])
    data = workloads.by_name(PARAMS["workload"], PARAMS["n"], seed=PARAMS["seed"])
    return balance_sort_pdm(machine, data, check_invariants=False)


def test_observation_adds_no_python_call_per_io_or_round(monkeypatch):
    monkeypatch.setattr(kernels, "ROUND_OPS", None)
    run_task("sort_pdm", dict(PARAMS))  # first-call imports and caches
    _bare()
    traced, payload = _python_calls(lambda: run_task("sort_pdm", dict(PARAMS)))
    bare, res = _python_calls(_bare)

    # The two sides ran the same sort.
    pdm = payload["metrics"]["pdm"]["counters"]
    ios = pdm["read_ios"] + pdm["write_ios"]
    rounds = payload["metrics"]["balance"]["counters"]["rounds"]
    assert (ios, rounds) == (res.io_stats["total_ios"], res.engine_rounds)
    assert payload["metrics"]["audit"]["gauges"]["rounds_checked"]["value"] == rounds
    assert rounds > 400 and ios > 4 * rounds

    added = {f: n - bare.get(f, 0) for f, n in traced.items()}
    # No function runs once per round (or per I/O) because of observation:
    # each runs per span, per engine or per export at most.
    per_round = {f"{path.rsplit('/', 1)[-1]}:{name}": n
                 for (path, name), n in added.items() if n >= rounds // 2}
    assert per_round == {}, f"called per round or per I/O when traced: {per_round}"
    assert sum(added.values()) < (ios + rounds) // 2
