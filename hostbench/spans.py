"""Span recorder for the traced benchmark run.

Every span is recorded from outside the library: the benchmark replaces
public functions and methods with timing wrappers at the place the
deploy and serving paths look them up (module attributes, class
methods, or attributes of the live objects), and restores them
afterwards.  Nothing under ``src/`` knows it is being traced.

A span has a name, a start and end (``time.perf_counter`` seconds), a
parent (the enclosing span on the same thread), a request id, and its
*self time*: its duration minus the time its direct children cover.
Spans stay in memory and are written at the end as Chrome trace-event
JSON (open the file in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[int]
    tid: int
    self_s: float
    args: Any


class Request(NamedTuple):
    """One session submission, resolved after the run from its handle."""

    rid: int
    session: Any
    pending: Any


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.requests: List[Request] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []
        self._wrapped_kernels: set = set()

    # -- recording ----------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.lane = False
        return local

    def new_request(self) -> int:
        """Start a request on this thread; later spans carry its id."""
        rid = next(self._rids)
        self._state().rid = rid
        return rid

    def end_request(self) -> None:
        self._state().rid = None

    def call(self, name: str, fn: Callable, a: tuple, kw: dict,
             args: Any = None, own_request: bool = False):
        st = self._state()
        stack = st.stack
        parent = stack[-1] if stack else None
        outer_rid = st.rid
        if own_request and outer_rid is None:
            st.rid = next(self._rids)
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*a, **kw)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            self.spans.append(Span(
                frame[0], name, t0, t1,
                parent[0] if parent is not None else None, st.rid,
                threading.get_ident(), dur - frame[1], args,
            ))
            st.rid = outer_rid

    def wrap(self, name: str, fn: Callable, own_request: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **kw):
            return tracer.call(name, fn, a, kw, own_request=own_request)

        return traced

    # -- installation -------------------------------------------------
    def replace(self, obj, attr: str, value) -> None:
        """Set ``obj.attr``; :meth:`uninstall` puts the old one back."""
        had_own = attr in getattr(obj, "__dict__", {})
        old = obj.__dict__[attr] if had_own else None

        def undo():
            if had_own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

        setattr(obj, attr, value)
        self._undo.append(undo)

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` in every ``repro`` module that binds it
        under that name: the deploy path imports these functions both
        at module level and inside functions, so each binding is a
        lookup site."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                self.replace(mod, attr, wrapped)

    def patch(self, obj, attr: str, name: str,
              own_request: bool = False) -> None:
        """Wrap a method of a class or of one live object."""
        self.replace(obj, attr, self.wrap(name, getattr(obj, attr),
                                          own_request=own_request))

    def patch_site_forward(self, cls, kind: str) -> None:
        original = cls.forward
        tracer = self

        def forward(site, x):
            return tracer.call(f"site.{kind}", original, (site, x), {},
                               args=site.site_name)

        self.replace(cls, "forward", forward)

    def patch_submit(self, cls) -> None:
        """Session submissions become requests (or join the fleet
        request that made them)."""
        original = cls.submit
        tracer = self

        def submit(session, x):
            st = tracer._state()
            outer = st.rid
            rid = outer if outer is not None else next(tracer._rids)
            st.rid = rid
            try:
                pending = tracer.call("serving.session.submit", original,
                                      (session, x), {})
            finally:
                st.rid = outer
            tracer.requests.append(Request(rid, session, pending))
            return pending

        self.replace(cls, "submit", submit)

    def patch_kernel(self, kernel, backend: str, method: str = "run_into",
                     work: Optional[Callable] = None) -> None:
        """Time one bound kernel object.  ``work(args) -> (flop, bytes)``
        prices a call; calls made inside a pool lane are left to the
        site and ``runtime`` spans."""
        if id(kernel) in self._wrapped_kernels:
            return
        self._wrapped_kernels.add(id(kernel))
        original = getattr(kernel, method)
        tracer = self
        name = f"kernel.{backend}"

        def run(*a, **kw):
            if tracer._state().lane:
                return original(*a, **kw)
            return tracer.call(name, original, a, kw,
                               args=work(a) if work else None)

        self.replace(kernel, method, run)

    def patch_pool(self, pool) -> None:
        """Wrap the shared pool's ``run_tasks``; each task runs flagged
        as lane work so kernel spans inside it are not recorded."""
        original = pool.run_tasks
        tracer = self

        def lane(task):
            def body():
                st = tracer._state()
                st.lane = True
                try:
                    return task()
                finally:
                    st.lane = False
            return body

        def run_tasks(tasks):
            return tracer.call("runtime.run_tasks", original,
                               ([lane(t) for t in tasks],), {})

        self.replace(pool, "run_tasks", run_tasks)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._wrapped_kernels.clear()

    # -- export -------------------------------------------------------
    def write_chrome_trace(self, path: str, batches: Dict[int, list]) -> None:
        """Write every span as a complete ("X") trace event.  Batch spans
        (``Executable.run``) list the request ids they served."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = []
        for s in self.spans:
            args: Dict[str, Any] = {"span": s.id}
            if s.parent is not None:
                args["parent"] = s.parent
            if s.rid is not None:
                args["request"] = s.rid
            if s.id in batches:
                args["requests"] = batches[s.id]
            if s.args is not None:
                args["detail"] = (s.args if isinstance(s.args, (str, int))
                                  else repr(s.args))
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "pid": 1, "tid": s.tid, "args": args,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
