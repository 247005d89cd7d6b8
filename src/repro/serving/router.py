"""Load-balancing policies over fleet replicas.

A router ranks the *available* (circuit-closed, worker-alive) replicas
of a :class:`~repro.serving.fleet.ReplicaSet` for one request; the
fleet submits to the first candidate and walks down the ranking on
retries and hedges.

- ``least-loaded`` (default): order by estimated wait — the replica's
  predicted per-request latency (its plan's simulated latency on its
  device) times the work already ahead of it (queue depth + the
  request itself).  On a heterogeneous fleet this sends traffic to
  fast devices until their queues make them slower than an idle slow
  device, which is the point of carrying one plan per device.
- ``round-robin``: the classic baseline — rotate through healthy
  replicas regardless of speed.  Kept both as a fallback and as the
  comparison arm for the router benchmark.

Policies are instances (round-robin carries a cursor), resolved by
:func:`make_router` from a name or passed ready-made.
"""

from __future__ import annotations

import threading
from typing import List, Sequence


class LeastLoadedRouter:
    """Rank replicas by predicted completion time (latency x queue)."""

    name = "least-loaded"

    def rank(self, replicas: Sequence) -> List:
        available = [r for r in replicas if r.available()]
        # Tie-break on replica id so equal-wait rankings are stable.
        return sorted(
            available, key=lambda r: (r.estimated_wait_s(), str(r.id))
        )


class RoundRobinRouter:
    """Rotate through healthy replicas (speed-blind baseline)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._turn = 0
        self._lock = threading.Lock()

    def rank(self, replicas: Sequence) -> List:
        available = [r for r in replicas if r.available()]
        if not available:
            return []
        with self._lock:
            start = self._turn % len(available)
            self._turn += 1
        return available[start:] + available[:start]


ROUTER_POLICIES = {
    LeastLoadedRouter.name: LeastLoadedRouter,
    RoundRobinRouter.name: RoundRobinRouter,
}


def make_router(policy):
    """Resolve a router from a policy name or pass an instance through."""
    if isinstance(policy, str):
        try:
            return ROUTER_POLICIES[policy]()
        except KeyError:
            raise KeyError(
                f"unknown router policy {policy!r}; available: "
                f"{sorted(ROUTER_POLICIES)}"
            ) from None
    if not hasattr(policy, "rank"):
        raise TypeError(
            f"router must expose rank(replicas); got {type(policy).__name__}"
        )
    return policy
