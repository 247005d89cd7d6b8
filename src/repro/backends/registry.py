"""The kernel-backend registry: pluggable core-conv latency providers.

The paper's central claim is hardware-aware *choice* — run each core
convolution through whichever kernel the device actually executes
fastest.  The planner therefore must not hardwire its backends: a
:class:`KernelBackend` wraps one core-conv scheme behind a uniform
protocol, the :func:`register_backend` decorator publishes it, and
:func:`dispatch_core` resolves a backend *name* (including the special
``"auto"`` pseudo-backend) to a concrete latency for one core shape on
one device.

Protocol
--------
A backend provides:

- ``name`` — the registry key (also the CLI spelling);
- ``supports(shape, device)`` — whether the scheme can run this core
  shape at all (e.g. Winograd F(2x2,3x3) is 3x3-only);
- ``core_latency(shape, device)`` — simulated seconds for the core
  conv on the target GPU, launch overhead included; the dispatchers
  rank backends by it;
- ``tiling(shape, device)`` — optional human-readable description of
  the tiling/config that produced the latency (recorded per kernel on
  the execution plan);
- ``dwcore_latency(shape, device, collapse_to=)`` — optional offer for
  a CP/TT depthwise middle stage (see :func:`dispatch_dwcore`).

A backend only prices: the compiled executable runs the same host
stages whichever backend a site's plan names.  Host wall time never
enters these numbers: a plan prices the target GPU only
(:mod:`repro.calibration` reports host seconds next to it).

A backend with an expensive selection (a tiling sweep, a tuning run)
memoizes it inside ``core_latency`` on first use, through a
:class:`~repro.planning.cache.PlanCache`.

``"auto"`` is *not* a registry entry — it is the dispatcher itself:
for each core shape it evaluates every registered backend that
supports the shape and keeps the fastest, so a freshly registered
backend immediately participates in whole-model planning.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Type, Union

from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape

#: Name of the per-layer fastest-registered-backend dispatcher.  Valid
#: anywhere a backend name is accepted, but never stored in the
#: registry itself (it would recurse).
AUTO_BACKEND = "auto"


@dataclass(frozen=True)
class CoreDispatch:
    """Outcome of resolving one core conv to a concrete backend."""

    backend: str               # registered backend that produced the latency
    latency: float             # simulated seconds, launch overhead included
    tiling: Optional[str] = None   # tiling/config description, if any


class KernelBackend:
    """Base class for core-conv kernel backends.

    Subclasses override :meth:`core_latency` (required) and any of the
    optional hooks; see the module docstring for the protocol.
    """

    name: str = ""
    description: str = ""

    def supports(self, shape: ConvShape, device: DeviceSpec) -> bool:
        """Whether this scheme can run the core shape on the device."""
        return True

    def core_latency(self, shape: ConvShape, device: DeviceSpec) -> float:
        """Simulated core-conv latency in seconds."""
        raise NotImplementedError

    def tiling(self, shape: ConvShape, device: DeviceSpec) -> Optional[str]:
        """Description of the tiling/config behind ``core_latency``."""
        return None

    def dwcore_latency(
        self,
        shape: ConvShape,
        device: DeviceSpec,
        collapse_to: Optional[int] = None,
    ) -> Optional[float]:
        """Optional hook: latency for a *depthwise* middle stage.

        CP/TT chains replace the dense Tucker core with a depthwise
        RxS conv (``shape.c == shape.n``; for TT, ``collapse_to``
        channels remain after the group-sum, whose cost the offer must
        fold in).  Backends whose scheme can run that stage return a
        simulated latency; the default ``None`` means "cannot" and
        keeps the backend out of :func:`dispatch_dwcore` — dense-core
        backends need no changes to stay correct.
        """
        return None


# Registration order is preserved: ``auto`` breaks latency ties in
# favor of the earliest-registered backend, and tables/CLI listings
# render in this order.
_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(
    backend: Union[KernelBackend, Type[KernelBackend]],
) -> Union[KernelBackend, Type[KernelBackend]]:
    """Register a backend (usable as a class decorator).

    A class is instantiated with no arguments; an instance is stored
    as-is.  Names must be unique, non-empty, and not ``"auto"``.
    """
    instance = backend() if isinstance(backend, type) else backend
    name = instance.name
    if not name:
        raise ValueError(
            f"backend {type(instance).__name__} has no name; set the "
            f"'name' class attribute"
        )
    if name == AUTO_BACKEND:
        raise ValueError(
            f"{AUTO_BACKEND!r} is the dispatcher, not a registrable backend"
        )
    if name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = instance
    return backend


def unregister_backend(name: str) -> KernelBackend:
    """Remove a backend (tests; plugins swapping an implementation)."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise ValueError(
            f"backend {name!r} is not registered; "
            f"registered: {backend_names()}"
        ) from None


@contextmanager
def temporary_backend(backend: KernelBackend) -> Iterator[KernelBackend]:
    """Register a backend for the duration of a ``with`` block."""
    register_backend(backend)
    try:
        yield backend
    finally:
        unregister_backend(backend.name)


def get_backend(name: str) -> KernelBackend:
    """Look a backend up by name; raises with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{backend_names()} (plus {AUTO_BACKEND!r})"
        ) from None


def registered_backends() -> Tuple[KernelBackend, ...]:
    """All registered backend instances, in registration order."""
    return tuple(_REGISTRY.values())


def backend_names() -> Tuple[str, ...]:
    """Names of the registered backends, in registration order."""
    return tuple(_REGISTRY)


def known_backend_names() -> Tuple[str, ...]:
    """Every name :func:`dispatch_core` accepts: the registry plus
    ``"auto"``."""
    return backend_names() + (AUTO_BACKEND,)


def validate_backend(name: str) -> str:
    """Fail fast on an unknown backend name (returns it when valid).

    Planners call this once at entry so a typo surfaces immediately —
    not mid-plan at the first decomposed conv.
    """
    if name != AUTO_BACKEND and name not in _REGISTRY:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{backend_names()} (plus {AUTO_BACKEND!r})"
        )
    return name


def auto_dispatch(shape: ConvShape, device: DeviceSpec) -> CoreDispatch:
    """The ``auto`` policy: fastest registered backend for this shape.

    Backends that do not support the shape — or whose tuner raises
    ``ValueError`` (no feasible config) — are skipped.  Ties keep the
    earliest-registered backend.
    """
    best: Optional[CoreDispatch] = None
    for backend in _REGISTRY.values():
        if not backend.supports(shape, device):
            continue
        try:
            latency = backend.core_latency(shape, device)
        except ValueError:
            continue
        if best is None or latency < best.latency:
            best = CoreDispatch(
                backend=backend.name,
                latency=latency,
                tiling=backend.tiling(shape, device),
            )
    if best is None:
        raise ValueError(
            f"no registered backend supports core shape {shape} on "
            f"{device.name}; registered: {backend_names()}"
        )
    return best


def dispatch_core(
    shape: ConvShape, device: DeviceSpec, backend: str = AUTO_BACKEND
) -> CoreDispatch:
    """Resolve one core conv: a fixed backend by name, or ``auto``."""
    validate_backend(backend)
    if backend == AUTO_BACKEND:
        return auto_dispatch(shape, device)
    resolved = get_backend(backend)
    if not resolved.supports(shape, device):
        raise ValueError(
            f"backend {backend!r} does not support core shape {shape} "
            f"on {device.name}"
        )
    return CoreDispatch(
        backend=resolved.name,
        latency=resolved.core_latency(shape, device),
        tiling=resolved.tiling(shape, device),
    )


#: Pseudo-backend name of the baseline depthwise middle-stage kernel —
#: not a registry entry (its 3-D weight is outside the dense-core
#: protocol); :func:`dispatch_dwcore` uses it for the fallback offer.
DEPTHWISE_BASELINE = "depthwise"


def dispatch_dwcore(
    shape: ConvShape,
    device: DeviceSpec,
    baseline_latency: float,
    collapse_to: Optional[int] = None,
    backend: str = AUTO_BACKEND,
) -> CoreDispatch:
    """Resolve a CP/TT depthwise middle stage.

    The baseline — the standalone depthwise kernel (plus TT's
    group-sum), priced by the caller — always competes.  Registered
    backends join through the optional
    :meth:`KernelBackend.dwcore_latency` hook:

    - ``backend="auto"``: fastest of the baseline and every offering
      backend (ties keep the baseline — it is the long-standing
      default);
    - a fixed name: that backend's offer whenever it makes one (the
      fixed-backend contract, like :func:`dispatch_core`), else the
      baseline.  Backends without the hook therefore plan exactly as
      before, which keeps fixed-backend latency accounting (format
      search, smoke gates) unchanged.
    """
    validate_backend(backend)
    best = CoreDispatch(backend=DEPTHWISE_BASELINE, latency=baseline_latency)
    if backend != AUTO_BACKEND:
        cand = get_backend(backend)
        latency = cand.dwcore_latency(shape, device, collapse_to=collapse_to)
        if latency is None:
            return best
        return CoreDispatch(
            backend=cand.name,
            latency=latency,
            tiling=cand.tiling(shape, device),
        )
    for cand in _REGISTRY.values():
        try:
            latency = cand.dwcore_latency(
                shape, device, collapse_to=collapse_to
            )
        except ValueError:
            continue
        if latency is not None and latency < best.latency:
            best = CoreDispatch(
                backend=cand.name,
                latency=latency,
                tiling=cand.tiling(shape, device),
            )
    return best
