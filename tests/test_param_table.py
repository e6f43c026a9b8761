"""Conformance suite built from the task parameter tables.

``repro.exec.tasks.PARAMS`` declares each param a task reads: its type,
default, choices, minimum or rule.  Everything here is drawn from those
declarations:

* **Refusals** — for every task and every declared param, a value of
  the wrong type (or outside its choices, minimum or rule) is refused by
  :func:`~repro.exec.check_spec` with a
  :class:`~repro.exceptions.ParameterError` naming the key, and so is
  any key the table does not declare.
* **Canonical form** — a valid spec comes back as given (NumPy scalars
  as plain Python values) with the table's defaults filled in, in table
  order.
* **Shapes** — sorts on machine shapes at the edges of what the table
  and the shape rules admit (N ≤ M, N = M + 1, N not a multiple of D·B,
  D = 1, D prime, S at its minimum, small H), over every workload plus
  all-equal and two-valued keys, each asserting the sorted-permutation
  output, Invariants 1 and 2 every round (``check_invariants=True`` and
  the auditor), the Theorem-4 factor ≤ 2, every bucket ≤ 2N/S and a
  passing audit.

Probing the same space for minutes at a time found no failure, so this
is a regression net: the example counts are fixed and N is kept small.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core.sort_hierarchy import balance_sort_hierarchy
from repro.core.sort_pdm import balance_sort_pdm
from repro.core.streams import peek_run
from repro.exceptions import ParameterError
from repro.exec import check_spec
from repro.exec.tasks import PARAMS, REQUIRED
from repro.hierarchies import ParallelHierarchies, well_behaved
from repro.obs import Observation, TheoryAuditor
from repro.pdm import ParallelDiskMachine
from repro.records import make_records
from repro.util import assert_is_permutation, assert_sorted

#: The smallest spec each task accepts; an ``only`` param adds the
#: value its ``only`` key needs.
BASE = {
    "sort_pdm": {"n": 64},
    "compare_pdm": {"algorithm": "balance", "n": 64},
    "hierarchy_sort": {"n": 64, "h": 8},
}

#: Machine-shape params drawn from values every shape rule admits (the
#: rules themselves are covered by the shape tests below).
SHAPE_VALUES = {
    "memory": [512, 1024], "block": [1, 2, 4], "disks": [1, 2, 4, 8],
    "processors": [1, 2], "buckets": [None, 2, 3, 4], "virtual_disks": [None, 1],
    "h": [1, 8, 16, 27], "cost": ["log", "umh", "constant", "0.5", 0.5, 2],
}

PARAM_IDS = [(task, name) for task, table in PARAMS.items() for name in table]
SMALL = settings(max_examples=8, deadline=None,
                 suppress_health_check=[HealthCheck.filter_too_much])


def types_of(param) -> tuple:
    return param.type if isinstance(param.type, tuple) else (param.type,)


def base_for(task: str, param) -> dict:
    spec = dict(BASE[task])
    if param.only is not None:
        spec[param.only[0]] = param.only[1]
    return spec


def wrong_values(param):
    """Values the table must refuse for ``param``."""
    types = types_of(param)
    wrong = [st.lists(st.integers(), max_size=2),
             st.dictionaries(st.text(), st.integers(), max_size=1)]
    if param.default is not None:
        wrong.append(st.none())
    if bool not in types:
        wrong.append(st.booleans())
    else:
        wrong += [st.integers(), st.sampled_from(["false", "no", "true", ""])]
    if int in types:
        wrong += [st.floats(allow_nan=False), st.text(max_size=4)]
        if param.minimum is not None:
            wrong.append(st.integers(max_value=param.minimum - 1))
    if types == (str,):
        wrong += [st.integers(), st.floats(allow_nan=False),
                  st.text(max_size=8).filter(lambda v: v not in param.choices)]
    if float in types:  # a cost spec: its rule refuses the rest
        wrong += [st.floats(max_value=0), st.sampled_from(["abc", "-1", "nan", ""])]
    return st.one_of(wrong)


@pytest.mark.parametrize("task, name", PARAM_IDS, ids=[f"{t}.{n}" for t, n in PARAM_IDS])
@SMALL
@given(data=st.data())
def test_wrong_value_is_refused_naming_the_key(task, name, data):
    param = PARAMS[task][name]
    value = data.draw(wrong_values(param), label=name)
    spec = {**base_for(task, param), name: value}
    with pytest.raises(ParameterError) as info:
        check_spec(task, spec)
    assert re.search(rf"(^|unknown |bad ){name}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize("task", sorted(PARAMS))
@SMALL
@given(key=st.text(min_size=1, max_size=12))
def test_unknown_key_is_refused_naming_it(task, key):
    assume(key not in PARAMS[task])
    with pytest.raises(ParameterError, match=re.escape(repr(key))):
        check_spec(task, {**BASE[task], key: 1})


@pytest.mark.parametrize("algorithm", PARAMS["compare_pdm"]["algorithm"].choices)
def test_algorithm_specific_params_are_refused_elsewhere(algorithm):
    for name, param in PARAMS["compare_pdm"].items():
        if not param.applies({"algorithm": algorithm}):
            with pytest.raises(ParameterError, match=f"{name} applies only to"):
                check_spec("compare_pdm", {"algorithm": algorithm, "n": 64, name: None})


def valid_value(param):
    """Values the table admits for ``param`` on a machine shape every
    rule admits, some as NumPy scalars."""
    if param.name in SHAPE_VALUES:
        return st.sampled_from(SHAPE_VALUES[param.name])
    if param.choices:
        return st.sampled_from(param.choices)
    if param.type is bool:
        return st.one_of(st.booleans(), st.booleans().map(np.bool_))
    low = param.minimum or 0
    values = st.integers(low, low + 5000)
    values = st.one_of(values, values.map(np.int64))
    return st.one_of(st.none(), values) if param.default is None else values


@st.composite
def valid_specs(draw, task):
    table = PARAMS[task]
    spec = {}
    for name, param in table.items():
        if not param.applies(spec):  # its ``only`` key is drawn first
            continue
        if param.default is REQUIRED or draw(st.booleans()):
            spec[name] = draw(valid_value(param))
    return spec


@pytest.mark.parametrize("task", sorted(PARAMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_form_is_the_spec_with_defaults(task, data):
    spec = data.draw(valid_specs(task), label="spec")
    out = check_spec(task, spec)
    table = PARAMS[task]
    applies = [name for name, p in table.items() if p.applies(out)]
    assert list(out) == applies
    for name in applies:
        given_value = spec.get(name, table[name].default)
        assert out[name] == given_value
        assert not isinstance(out[name], np.generic)


# ------------------------------------------------------------------ shapes

KEYS = sorted(workloads.GENERATORS) + ["all-equal", "two-valued"]


def records(keys: str, n: int, seed: int) -> np.ndarray:
    if keys == "all-equal":
        return make_records(np.full(n, 7, dtype=np.int64))
    if keys == "two-valued":
        return make_records(np.random.default_rng(seed).integers(0, 2, n))
    return workloads.by_name(keys, n, seed=seed)


def assert_conforms(res, storage, data, auditor) -> None:
    out = peek_run(storage, res.output)
    assert_sorted(out)
    assert_is_permutation(out, data)
    assert res.max_balance_factor <= 2.0
    assert res.max_bucket_ratio <= 1.0
    assert auditor.report.ok, auditor.report.violations


@st.composite
def pdm_specs(draw):
    """A ``sort_pdm`` spec at the edges of the admitted shapes."""
    disks = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8]))
    block = draw(st.sampled_from([1, 2, 4]))
    memory = draw(st.sampled_from([64, 128, 256, 512]))
    stripe = disks * block
    n = draw(st.one_of(
        st.integers(0, memory),                           # N <= M
        st.just(memory + 1),                              # N = M + 1
        st.integers(1, 3 * memory // stripe).flatmap(     # N % DB != 0
            lambda k: st.integers(1, max(1, stripe - 1)).map(lambda r: k * stripe + r)),
    ))
    divisors = [d for d in range(1, disks + 1) if disks % d == 0]
    return {
        "n": min(n, 2000), "memory": memory, "block": block, "disks": disks,
        "seed": draw(st.integers(0, 2**16)),
        "matcher": draw(st.sampled_from(PARAMS["sort_pdm"]["matcher"].choices)),
        "buckets": draw(st.sampled_from([None, 2, 3, 5])),  # 2: S at its minimum
        "virtual_disks": draw(st.sampled_from([None, *divisors])),
        "check_invariants": True,
    }


def admitted(task: str, spec: dict) -> dict:
    """``spec`` canonicalized, or the example rejected by a shape rule."""
    try:
        return check_spec(task, spec)
    except ParameterError:
        assume(False)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(spec=pdm_specs(), keys=st.sampled_from(KEYS))
def test_pdm_shapes_conform(spec, keys):
    p = admitted("sort_pdm", spec)
    machine = ParallelDiskMachine(memory=p["memory"], block=p["block"],
                                  disks=p["disks"], processors=p["processors"])
    data = records(keys, p["n"], p["seed"])
    obs = Observation()
    auditor = TheoryAuditor().install(obs)
    res = balance_sort_pdm(
        machine, data, matcher=p["matcher"], buckets=p["buckets"],
        virtual_disks=p["virtual_disks"], internal=p["internal"],
        check_invariants=p["check_invariants"], obs=obs,
    )
    auditor.finish_pdm(machine, res)
    assert_conforms(res, res.storage, data, auditor)


@st.composite
def hierarchy_specs(draw):
    """A ``hierarchy_sort`` spec with small H (H' = 1 or 2 or 3)."""
    return {
        "n": draw(st.one_of(st.integers(0, 64), st.integers(65, 400))),
        "h": draw(st.sampled_from([1, 2, 3, 4, 8, 9, 16, 27])),
        "model": draw(st.sampled_from(PARAMS["hierarchy_sort"]["model"].choices)),
        "cost": draw(st.sampled_from(SHAPE_VALUES["cost"])),
        "interconnect": draw(st.sampled_from(
            PARAMS["hierarchy_sort"]["interconnect"].choices)),
        "seed": draw(st.integers(0, 2**16)),
        "matcher": draw(st.sampled_from(PARAMS["hierarchy_sort"]["matcher"].choices)),
    }


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(spec=hierarchy_specs(), keys=st.sampled_from(KEYS))
def test_hierarchy_shapes_conform(spec, keys):
    p = admitted("hierarchy_sort", spec)
    machine = ParallelHierarchies(p["h"], model=p["model"], cost_fn=well_behaved(p["cost"]),
                                  interconnect=p["interconnect"])
    data = records(keys, p["n"], p["seed"])
    obs = Observation()
    auditor = TheoryAuditor().install(obs)
    res = balance_sort_hierarchy(machine, data, matcher=p["matcher"],
                                 check_invariants=p["check_invariants"], obs=obs)
    auditor.finish_hierarchy(machine, res)
    assert_conforms(res, res.storage, data, auditor)
