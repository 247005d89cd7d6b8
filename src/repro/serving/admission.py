"""SLO-aware admission control: priority classes, deadlines, shedding.

The fleet's front door.  Every request belongs to a
:class:`PriorityClass` (name, importance level, default deadline) and
the :class:`AdmissionController` decides — *before* any replica queue
is touched — whether the request is

- **accepted** onto the replicated primary path,
- **degraded** onto the cheaper fallback plan (only classes marked
  ``degradable``, and only when the fleet is under pressure), or
- **shed**: rejected fast with a typed :class:`Overloaded` error when
  the predicted queue delay already exceeds the request's deadline —
  a request that cannot possibly meet its SLO should cost one
  comparison, not a queue slot.

The predicted delay comes from each replica's
``Executable.predicted_latency()`` — the plan's simulated latency on
the replica's device, never corrected by host measurements.

Overload is tracked as the fraction of recent admissions whose
predicted delay exceeded their deadline, over a sliding window with
hysteresis (``degrade_enter``/``degrade_exit``), so the controller
degrades low-priority traffic under *sustained* pressure and restores
it when the backlog clears instead of flapping per request.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple


class Overloaded(RuntimeError):
    """Typed reject: the fleet shed this request instead of queueing it
    past its deadline.  Callers can (should) retry later or downgrade
    the request's priority expectations."""

    def __init__(
        self,
        message: str,
        *,
        priority: Optional[str] = None,
        est_delay_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.priority = priority
        self.est_delay_s = est_delay_s
        self.deadline_s = deadline_s


class DeadlineExceeded(TimeoutError):
    """Typed deadline miss: the request was admitted but did not finish
    (including retries/hedges) before its deadline; any still-queued
    work was cancelled."""

    def __init__(
        self,
        message: str,
        *,
        priority: Optional[str] = None,
        deadline_s: Optional[float] = None,
        last_error: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.priority = priority
        self.deadline_s = deadline_s
        self.last_error = last_error


class CorruptedOutput(RuntimeError):
    """A replica produced a detectably invalid (non-finite) output; the
    fleet refused to serve it and treated the replica as failed."""


@dataclass(frozen=True)
class PriorityClass:
    """One traffic class: importance + default SLO.

    ``level`` orders classes (lower = more important).  ``deadline_s``
    is the default per-request deadline when the caller passes none.
    ``degradable`` marks traffic the fleet may route to the cheaper
    fallback plan under sustained overload instead of shedding it.
    """

    name: str
    level: int
    deadline_s: float = 1.0
    degradable: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("priority class needs a name")
        if self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


#: Default three-tier taxonomy: interactive, standard, and batch-ish
#: traffic.  Low priority tolerates degraded (lower-rank) answers.
DEFAULT_PRIORITY_CLASSES: Tuple[PriorityClass, ...] = (
    PriorityClass("high", 0, deadline_s=5.0),
    PriorityClass("normal", 1, deadline_s=2.0),
    PriorityClass("low", 2, deadline_s=1.0, degradable=True),
)

#: Admission decisions.
ACCEPT = "accept"
DEGRADE = "degrade"


@dataclass
class AdmissionStats:
    """Counters per class plus the controller's overload view."""

    admitted: Dict[str, int] = field(default_factory=dict)
    shed: Dict[str, int] = field(default_factory=dict)
    degraded: Dict[str, int] = field(default_factory=dict)
    degraded_mode: bool = False
    pressure: float = 0.0


class AdmissionController:
    """Deadline-aware admission with priority classes and hysteresis.

    Parameters
    ----------
    classes:
        The priority taxonomy (defaults to high/normal/low).
    pressure_window:
        Sliding window (in admission decisions) over which the
        overload fraction is computed.
    degrade_enter / degrade_exit:
        Hysteresis thresholds on the overload fraction for entering /
        leaving degraded mode.  Enter must be > exit.
    min_samples:
        Decisions required before degraded mode can engage (a single
        early spike should not flip the fleet).
    """

    def __init__(
        self,
        classes: Sequence[PriorityClass] = DEFAULT_PRIORITY_CLASSES,
        *,
        pressure_window: int = 128,
        degrade_enter: float = 0.5,
        degrade_exit: float = 0.1,
        min_samples: int = 8,
    ) -> None:
        if not classes:
            raise ValueError("need at least one priority class")
        self._classes: Dict[str, PriorityClass] = {}
        for cls in classes:
            if cls.name in self._classes:
                raise ValueError(f"duplicate priority class {cls.name!r}")
            self._classes[cls.name] = cls
        if pressure_window < 1:
            raise ValueError("pressure_window must be >= 1")
        if not 0.0 < degrade_exit < degrade_enter <= 1.0:
            raise ValueError(
                "need 0 < degrade_exit < degrade_enter <= 1, got "
                f"exit={degrade_exit}, enter={degrade_enter}"
            )
        self._pressure: deque = deque(maxlen=int(pressure_window))
        self._degrade_enter = float(degrade_enter)
        self._degrade_exit = float(degrade_exit)
        self._min_samples = int(min_samples)
        self._degraded = False
        self._lock = threading.Lock()
        self._admitted = {name: 0 for name in self._classes}
        self._shed = {name: 0 for name in self._classes}
        self._degraded_count = {name: 0 for name in self._classes}

    def classes(self) -> Tuple[PriorityClass, ...]:
        return tuple(self._classes.values())

    def resolve(self, name: str) -> PriorityClass:
        """Look a priority class up by name (KeyError lists options)."""
        try:
            return self._classes[name]
        except KeyError:
            raise KeyError(
                f"unknown priority class {name!r}; available: "
                f"{sorted(self._classes)}"
            ) from None

    @property
    def degraded(self) -> bool:
        """True while the controller routes degradable traffic to the
        fallback plan (sustained-overload mode)."""
        with self._lock:
            return self._degraded

    def admit(
        self,
        pclass: PriorityClass,
        est_delay_s: float,
        deadline_s: float,
        *,
        can_degrade: bool = False,
    ) -> str:
        """Decide one request: returns ``"accept"`` or ``"degrade"``,
        or raises :class:`Overloaded` (the shed path).

        ``est_delay_s`` is the router's best predicted completion time
        (the replica plan's predicted latency x queue ahead, including
        this request); ``deadline_s`` the request's SLO.  A predicted miss
        sheds immediately — except for degradable classes with a
        fallback available, which degrade instead.
        """
        pressured = est_delay_s > deadline_s
        with self._lock:
            self._pressure.append(1.0 if pressured else 0.0)
            fraction = (
                sum(self._pressure) / len(self._pressure)
                if self._pressure else 0.0
            )
            if self._degraded:
                if fraction <= self._degrade_exit:
                    self._degraded = False
            elif (len(self._pressure) >= self._min_samples
                  and fraction >= self._degrade_enter):
                self._degraded = True
            degraded_mode = self._degraded
            if pressured:
                if can_degrade and pclass.degradable:
                    self._degraded_count[pclass.name] += 1
                    return DEGRADE
                self._shed[pclass.name] += 1
                raise Overloaded(
                    f"predicted queue delay {est_delay_s * 1e3:.1f} ms "
                    f"exceeds the {deadline_s * 1e3:.1f} ms deadline "
                    f"({pclass.name} priority); shedding",
                    priority=pclass.name,
                    est_delay_s=est_delay_s,
                    deadline_s=deadline_s,
                )
            if degraded_mode and can_degrade and pclass.degradable:
                self._degraded_count[pclass.name] += 1
                return DEGRADE
            self._admitted[pclass.name] += 1
            return ACCEPT

    def stats(self) -> AdmissionStats:
        with self._lock:
            return AdmissionStats(
                admitted=dict(self._admitted),
                shed=dict(self._shed),
                degraded=dict(self._degraded_count),
                degraded_mode=self._degraded,
                pressure=(
                    sum(self._pressure) / len(self._pressure)
                    if self._pressure else 0.0
                ),
            )
