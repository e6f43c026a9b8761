"""Golden-trace regression corpus.

Each file under ``tests/golden/`` is one canonical exec payload
(``repro.exec_payload/2``): the full result + merged metrics + zero-clock
trace of a small, fast, deterministic run.  The test re-executes the
run from the stored ``(task, params)`` and requires the fresh payload to
equal the stored one *exactly* — any drift in I/O counts, metrics,
trace structure, or result schema fails loudly with the offending paths.

``tests/golden/v1/`` holds the same runs in the ``/1`` form, whose trace
is one dict per event — the form payloads had before the trace went
columnar, and the form every trace file still has.  It is the oracle of
the expander: :func:`~repro.obs.columnar.expand_trace` of each fresh
trace must equal the stored ``/1`` trace, and every other key but
``schema`` must be equal.

The corpus is stored gzipped (``*.json.gz``) — traces dominate the
payloads and compress well, which keeps the repo slim as the corpus
grows.  The gzip stream is deterministic (``mtime=0``, no embedded
filename), so regeneration without behaviour change is byte-stable and
an intentional regen diffs as exactly the changed cases.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python tests/test_golden_reports.py --regen

It rewrites both forms: each payload as ``run_task`` returns it, and its
``/1`` form through the expander.  Commit the diff; the diff *is* the
review artifact, and a ``v1/`` diff without a behaviour change is an
expander bug.
"""

import functools
import gzip
import json
import os

import pytest

from repro.exec import SCHEMA_SALT, run_task
from repro.obs.columnar import expand_trace

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
V1_DIR = os.path.join(GOLDEN_DIR, "v1")
V1_SCHEMA = "repro.exec_payload/1"

#: The corpus: small enough to re-run in seconds, wide enough to cover
#: every task type and both PDM algorithm families.
CASES = {
    "sort_pdm_small": (
        "sort_pdm",
        {"n": 2000, "memory": 512, "block": 4, "disks": 4,
         "workload": "uniform", "seed": 0, "verify": True},
    ),
    "sort_pdm_adversarial": (
        "sort_pdm",
        {"n": 1500, "memory": 512, "block": 2, "disks": 8,
         "workload": "adversarial_striping", "seed": 2},
    ),
    "compare_pdm_greed": (
        "compare_pdm",
        {"algorithm": "greed", "n": 2000, "memory": 512, "block": 4,
         "disks": 4, "workload": "uniform", "seed": 1},
    ),
    "hierarchy_sort_umh": (
        "hierarchy_sort",
        {"n": 1024, "h": 64, "model": "hmm", "cost": "umh",
         "workload": "uniform", "seed": 0},
    ),
}


def _path(name: str, folder: str = GOLDEN_DIR) -> str:
    return os.path.join(folder, f"{name}.json.gz")


@functools.cache
def _fresh(name: str) -> dict:
    """One fresh payload per case, shared by the tests (none mutates it)."""
    task, params = CASES[name]
    return run_task(task, params)


def as_v1(payload: dict) -> dict:
    """The ``/1`` form of a payload: its trace expanded, one dict per event."""
    return {**payload, "schema": V1_SCHEMA, "trace": expand_trace(payload["trace"])}


def load_golden(path: str) -> dict:
    """Load one golden payload, transparently decompressing ``.json.gz``.

    Plain ``.json`` paths still load (useful when bisecting across the
    compression change), but the corpus itself is stored gzipped only.
    """
    if path.endswith(".gz"):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return json.load(fh)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _diff_paths(a, b, prefix=""):
    """Paths where two JSON-ish values disagree (first 20)."""
    out = []
    if type(a) is not type(b):
        return [f"{prefix or '$'}: type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{prefix}.{k}: only in fresh")
            elif k not in b:
                out.append(f"{prefix}.{k}: only in golden")
            else:
                out.extend(_diff_paths(a[k], b[k], f"{prefix}.{k}"))
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{prefix}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(_diff_paths(x, y, f"{prefix}[{i}]"))
    elif a != b:
        out.append(f"{prefix or '$'}: {a!r} != {b!r}")
    return out[:20]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_payload_unchanged(name):
    task, params = CASES[name]
    path = _path(name)
    assert os.path.exists(path), (
        f"missing golden file {path}; regenerate with "
        f"`PYTHONPATH=src python tests/test_golden_reports.py --regen`"
    )
    golden = load_golden(path)
    # The stored file must itself be self-consistent with the corpus.
    assert golden["task"] == task
    assert golden["params"] == params
    assert golden["schema"] == SCHEMA_SALT
    fresh = _fresh(name)
    if fresh != golden:
        diff = "\n  ".join(_diff_paths(golden, fresh))
        pytest.fail(
            f"golden payload {name!r} drifted; first differing paths "
            f"(golden != fresh):\n  {diff}\nIf intentional, regenerate and "
            f"commit the diff."
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_expanded_trace_equals_the_v1_payload(name):
    """The expander is lossless: the fresh ``/2`` trace expands to the
    stored ``/1`` trace, and every other key but ``schema`` is equal."""
    path = _path(name, V1_DIR)
    assert os.path.exists(path), f"missing v1 oracle {path}"
    v1 = load_golden(path)
    assert v1["schema"] == V1_SCHEMA
    fresh = _fresh(name)
    expanded = expand_trace(fresh["trace"])
    if expanded != v1["trace"]:
        diff = "\n  ".join(_diff_paths(v1["trace"], expanded, "trace"))
        pytest.fail(f"expanded trace of {name!r} differs from the v1 "
                    f"payload (v1 != expanded):\n  {diff}")
    assert {k: v for k, v in fresh.items() if k not in ("schema", "trace")} == \
        {k: v for k, v in v1.items() if k not in ("schema", "trace")}


def test_golden_corpus_has_no_strays():
    """Every file in tests/golden/ and tests/golden/v1/ is a declared
    case, stored gzipped."""
    for folder in (GOLDEN_DIR, V1_DIR):
        listing = os.listdir(folder)
        files = {f[:-8] for f in listing if f.endswith(".json.gz")}
        assert files == set(CASES), folder
        plain = [f for f in listing if f.endswith(".json")]
        assert not plain, f"uncompressed strays in {folder}: {plain}"
    assert set(os.listdir(GOLDEN_DIR)) == {f"{n}.json.gz" for n in CASES} | {"v1"}


def test_golden_gzip_streams_are_deterministic():
    """Stored gzip bytes carry no timestamp/filename — regen is byte-stable."""
    for folder in (GOLDEN_DIR, V1_DIR):
        for name in sorted(CASES):
            with open(_path(name, folder), "rb") as fh:
                header = fh.read(10)
            assert header[:2] == b"\x1f\x8b", f"{name}: not a gzip stream"
            assert header[3] == 0, f"{name}: FLG set (embedded filename?)"
            assert header[4:8] == b"\x00\x00\x00\x00", f"{name}: nonzero MTIME"


def _dump_gz(path: str, payload: dict) -> None:
    """Write one payload as a deterministic gzip stream (mtime=0, no name)."""
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
            text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
            gz.write(text.encode("utf-8"))


def regenerate():
    os.makedirs(V1_DIR, exist_ok=True)
    for name, (task, params) in sorted(CASES.items()):
        payload = run_task(task, params)
        for path, doc in ((_path(name), payload),
                          (_path(name, V1_DIR), as_v1(payload))):
            _dump_gz(path, doc)
            print(f"wrote {path} ({os.path.getsize(path)} bytes)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
