"""Access-cost functions for hierarchical memories.

The paper's theorems are stated for the "well-behaved" cost functions
``f(x) = log x`` (with ``log z = max{1, log₂ z}``, footnote 1) and
``f(x) = x^α`` for ``α > 0``.  Cost functions here are vectorized: they map
an array of addresses (0-indexed internally, converted to the paper's
1-indexed locations) to an array of access costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "CostFunction",
    "LogCost",
    "PowerCost",
    "ConstantCost",
    "UMHCost",
    "well_behaved",
    "paper_log",
]


def paper_log(x) -> np.ndarray | float:
    """The paper's ``log z = max{1, log₂ z}`` (footnote 1), vectorized."""
    arr = np.maximum(np.asarray(x, dtype=np.float64), 1.0)
    return np.maximum(1.0, np.log2(np.maximum(arr, 1.0)))


@dataclass(frozen=True)
class CostFunction:
    """Base: cost of touching memory location ``x`` (1-indexed)."""

    name: str = "abstract"

    def __call__(self, addresses) -> np.ndarray:
        raise NotImplementedError

    def scan_cost(self, start: int, length: int) -> float:
        """Cost of touching locations start+1 .. start+length individually.

        ``start`` is 0-indexed; HMM charges each location separately.
        """
        if length <= 0:
            return 0.0
        locs = np.arange(start + 1, start + length + 1, dtype=np.float64)
        return float(self(locs).sum())


@dataclass(frozen=True)
class LogCost(CostFunction):
    """``f(x) = log x`` — the HMM_{log x} model of Figure 3a."""

    name: str = "log"

    def __call__(self, addresses) -> np.ndarray:
        return paper_log(addresses)


@dataclass(frozen=True)
class PowerCost(CostFunction):
    """``f(x) = x^α`` for ``α > 0``."""

    alpha: float = 1.0
    name: str = "power"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def __call__(self, addresses) -> np.ndarray:
        return np.asarray(addresses, dtype=np.float64) ** self.alpha


@dataclass(frozen=True)
class ConstantCost(CostFunction):
    """``f(x) = 1`` — degenerates the hierarchy to a flat memory (tests)."""

    name: str = "constant"

    def __call__(self, addresses) -> np.ndarray:
        return np.ones_like(np.asarray(addresses, dtype=np.float64))


@dataclass(frozen=True)
class UMHCost(CostFunction):
    """Streaming access cost on a UMH hierarchy [ACF], per virtual block.

    In ``UMH_{α,ρ,b(l)=1}`` the s-th block (in capacity order) lives around
    level ``log_ρ s``; pipelining it through the buses to the base costs a
    geometric sum dominated by the top bus, i.e. ``Θ(1 + log_ρ s)`` time
    per block once transfers overlap.  This is the simplified streaming
    model under which the [ViN] P-UMH sorting bounds take the
    ``Θ((N/H)·log N)`` shape our techniques derandomize (Section 3);
    the bus-level :class:`~repro.hierarchies.umh.UMH` machine remains
    available for exact transfer simulation.
    """

    rho: int = 2
    name: str = "umh"

    def __post_init__(self):
        if self.rho < 2:
            raise ValueError(f"rho must be >= 2, got {self.rho}")

    def __call__(self, addresses) -> np.ndarray:
        x = np.maximum(np.asarray(addresses, dtype=np.float64), 1.0)
        return 1.0 + np.log(x) / math.log(self.rho)


_NAMED = {"log": LogCost, "umh": UMHCost, "constant": ConstantCost}


def well_behaved(spec: str | float) -> CostFunction:
    """Build a cost function from a short spec — the one ``--cost`` parser.

    ``"log"``, ``"umh"``, ``"constant"``, or a positive exponent α of
    ``x^α``, given as a number or a numeric string (``0.5`` or ``"0.5"``).
    Anything else raises :class:`~repro.exceptions.ParameterError`.
    """
    if isinstance(spec, str) and spec in _NAMED:
        return _NAMED[spec]()
    try:
        alpha = float(spec)
    except (TypeError, ValueError):
        alpha = math.nan
    if not (math.isfinite(alpha) and alpha > 0):
        raise ParameterError(
            f"bad cost spec {spec!r}: expected log, umh, constant "
            "or a positive exponent"
        )
    return PowerCost(alpha=alpha)
