"""The one on/off environment switch, read by one rule.

``0``, ``off``, ``false`` and the empty string mean off; ``1``, ``on``
and ``true`` mean on (any case).  Any other value is refused with a
:class:`~repro.exceptions.ParameterError` naming the variable and the
value, so a misspelt switch never silently picks a side.
"""

from __future__ import annotations

import os

from ..exceptions import ParameterError

__all__ = ["SWITCHES", "check_switches", "env_switch", "switches_set"]

#: Every on/off ``REPRO_*`` variable and its value when unset.
SWITCHES = {
    "REPRO_PDM_CHECKSUMS": False,
}

_OFF = ("", "0", "off", "false")
_ON = ("1", "on", "true")


def env_switch(name: str) -> bool:
    """The value of the switch ``name`` (its default when unset)."""
    value = os.environ.get(name)
    if value is None:
        return SWITCHES[name]
    if value.lower() in _OFF:
        return False
    if value.lower() in _ON:
        return True
    raise ParameterError(
        f"{name}={value!r} is not a switch value "
        f"(off: 0, off, false or empty; on: 1, on, true)"
    )


def check_switches() -> None:
    """Refuse the first switch set to a value :func:`env_switch` refuses."""
    for name in SWITCHES:
        env_switch(name)


def switches_set() -> dict[str, str]:
    """The switches set in the environment: name → value as given."""
    return {name: os.environ[name] for name in SWITCHES if name in os.environ}
