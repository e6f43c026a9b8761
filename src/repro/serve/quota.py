"""Per-tenant admission quotas and fair-share scheduling.

Two small deterministic mechanisms keep one tenant from starving the
rest of a shared sort service:

* :class:`TokenBucket` — the classic burst + refill-rate quota, charged
  only for submissions that will consume execution capacity (coalesced
  joins and warm cache hits are free).  With ``rate=0`` the bucket never
  refills, which is what makes quota tests exact: a tenant gets
  precisely ``burst`` new executions, then deterministic rejects.
* :class:`FairShareScheduler` — a pick-next hook for
  :class:`~repro.exec.JobRunner` that round-robins across the tenants
  with runnable jobs (FIFO within a tenant, ties broken by tenant name),
  so a tenant with one job never waits behind another tenant's backlog.
"""

from __future__ import annotations

import time

from ..exceptions import ParameterError

__all__ = ["TokenBucket", "FairShareScheduler", "check_quota"]


def check_quota(burst: int | None, rate: float) -> None:
    """Refuse a quota no submission could pass (:class:`ParameterError`);
    ``burst=None`` means no quota."""
    if burst is not None and burst < 1:
        raise ParameterError(f"burst must be >= 1, got {burst}")
    if rate < 0:
        raise ParameterError(f"rate must be >= 0, got {rate}")


class TokenBucket:
    """A deterministic token bucket: ``burst`` capacity, ``rate`` tokens/s.

    :meth:`take` is driven by an explicit clock value so the service (and
    tests) control time; the returned ``retry_after`` is the seconds
    until one full token will have accrued (None when ``rate=0`` —
    the bucket will never refill).
    """

    def __init__(self, burst: int, rate: float = 0.0):
        check_quota(burst, rate)
        self.burst = int(burst)
        self.rate = float(rate)
        self.tokens = float(burst)
        self._updated: float | None = None

    def take(self, now: float | None = None) -> tuple[bool, float | None]:
        """Try to spend one token; ``(ok, retry_after_seconds_or_None)``."""
        if now is None:
            now = time.monotonic()
        if self._updated is None:
            self._updated = now
        if self.rate > 0 and now > self._updated:
            self.tokens = min(
                float(self.burst), self.tokens + (now - self._updated) * self.rate
            )
        self._updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, None
        if self.rate <= 0:
            return False, None
        return False, (1.0 - self.tokens) / self.rate


class FairShareScheduler:
    """Round-robin across tenants; FIFO within one tenant.

    Instances are stateful (they remember which tenant went last) and are
    only ever called from the runner's driver thread, so no locking is
    needed.  Jobs without a tenant annotation share the ``"anon"`` lane.
    """

    def __init__(self):
        self._served: dict[str, int] = {}
        self._turn = 0

    def __call__(self, ready):
        by_tenant: dict[str, list] = {}
        for job in ready:  # ready arrives in admission (seq) order
            tenant = (job.meta or {}).get("tenant", "anon")
            by_tenant.setdefault(tenant, []).append(job)
        tenant = min(
            by_tenant, key=lambda t: (self._served.get(t, -1), t)
        )
        self._turn += 1
        self._served[tenant] = self._turn
        return by_tenant[tenant][0]
