"""The invariant analyzers themselves: seeded violations per rule
(true-positive + clean-pass), suppression comments, baseline
round-trip, the dynamic tracer/aliasing probes, and the CLI."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import (
    Finding,
    apply_baseline,
    load_baseline,
    run_rules,
    save_baseline,
)
from repro.analysis.dynamic import (
    arena_overlaps,
    count_allocations,
    hot_path_allocations,
    probe_input,
    trace_allocations,
)
from repro.analysis.lint import BARE_SUPPRESSION_RULE
from repro.analysis.rules import build_rules, rule_names
from repro.inference.executable import BufferArena

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(tmp_path, relpath: str, source: str, rules=None):
    """Write one fixture module and run the given rules over it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_rules(
        paths=[path],
        rules=build_rules(rules) if rules else None,
        root=tmp_path,
    )


# ---------------------------------------------------------------------------
# hot-path-alloc
# ---------------------------------------------------------------------------

HOT_VIOLATION = """
import numpy as np

class CompiledSite:
    def forward(self, x):
        return self._body(x)

    def _body(self, x):
        y = np.zeros(x.shape)      # closure-reached allocation
        return y.astype(np.float32)
"""

HOT_CLEAN = """
import numpy as np

class CompiledSite:
    def __init__(self):
        self.buf = np.zeros((4, 4))   # compile-time: fine

    def forward(self, x):
        np.multiply(x, 2.0, out=self.buf)
        return self.buf

class DirectKernel:
    def run(self, x, w):
        return np.zeros_like(x)       # kernel .run allocates by design

class ScaleStage:
    def __init__(self, out):
        self.out = out
        self.tmp = np.empty_like(out)  # compile-time: fine

    def run(self, x, lo, hi):
        np.multiply(x[lo:hi], 2.0, out=self.out[lo:hi])
"""

STAGE_VIOLATION = """
import numpy as np

class _PaddedStage:
    def _stage_input(self, x, lo, hi):
        return np.pad(x[lo:hi], 1)     # inherited helper: allocates

class ConvStage(_PaddedStage):
    def run(self, x, lo, hi):
        xp = self._stage_input(x, lo, hi)
        cols = np.empty((hi - lo, 9))  # stage body: allocates
        return xp, cols

class CompiledSite:
    def forward(self, x):
        self._run(x, 0, len(x))

    def _run(self, x, lo, hi):
        for stage in self.stages:
            stage.run(x, lo, hi)
"""


def test_hot_path_alloc_seeded_violation(tmp_path):
    findings = lint(tmp_path, "mod.py", HOT_VIOLATION, ["hot-path-alloc"])
    messages = [f.message for f in findings]
    assert any("np.zeros()" in m for m in messages)
    assert any(".astype()" in m for m in messages)
    assert all(f.symbol == "CompiledSite._body" for f in findings)


def test_hot_path_alloc_clean_pass(tmp_path):
    assert lint(tmp_path, "mod.py", HOT_CLEAN, ["hot-path-alloc"]) == []


def test_hot_path_alloc_seeded_stage_violation(tmp_path):
    """Stage bodies are hot, including helpers they inherit from a
    base class in the same module; each finding names the class that
    defines the allocating method."""
    findings = lint(tmp_path, "mod.py", STAGE_VIOLATION, ["hot-path-alloc"])
    assert sorted((f.symbol, f.message.split()[2]) for f in findings) == [
        ("ConvStage.run", "np.empty()"),
        ("_PaddedStage._stage_input", "np.pad()"),
    ]


# ---------------------------------------------------------------------------
# dtype-promotion
# ---------------------------------------------------------------------------

DTYPE_VIOLATION = """
import numpy as np

W = np.array([[1.0, 2.0]])
Z = np.zeros((3, 3))
L = np.asarray([1.0, 2.0])
D = np.float64
"""

DTYPE_CLEAN = """
import numpy as np

W = np.array([[1.0]], dtype=np.float32)
Z = np.zeros((3, 3), dtype=np.float32)
A = np.asarray(W)             # dtype-preserving on an array
B = np.zeros_like(W)          # _like preserves dtype
"""


def test_dtype_promotion_seeded_violation(tmp_path):
    findings = lint(
        tmp_path, "kernels/mod.py", DTYPE_VIOLATION, ["dtype-promotion"]
    )
    assert len(findings) == 4
    assert {"np.array" in f.message or "np.zeros" in f.message
            or "asarray" in f.message or "float64" in f.message
            for f in findings} == {True}


def test_dtype_promotion_clean_pass(tmp_path):
    assert lint(
        tmp_path, "kernels/mod.py", DTYPE_CLEAN, ["dtype-promotion"]
    ) == []


def test_dtype_promotion_out_of_scope_path(tmp_path):
    # The same violations outside kernels//runtime//nn/functional.py
    # are not this rule's business.
    assert lint(
        tmp_path, "experiments/mod.py", DTYPE_VIOLATION, ["dtype-promotion"]
    ) == []


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

LOCK_VIOLATION = """
import threading

class Pool:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.closed = False

    def bump(self):
        self.count += 1          # unguarded read-modify-write

    def close(self):
        self.closed = True       # unguarded, also written in reopen

    def reopen(self):
        with self._lock:
            self.closed = False
"""

LOCK_CLEAN = """
import threading

class Pool:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.closed = False

    def bump(self):
        with self._lock:
            self.count += 1

    def close(self):
        with self._lock:
            self.closed = True

    def _trip_locked(self):
        self.closed = True       # *_locked: caller holds the lock

    def set_only_here(self):
        self.single_writer = 1   # one writer method: no finding
"""


def test_lock_discipline_seeded_violation(tmp_path):
    findings = lint(tmp_path, "mod.py", LOCK_VIOLATION, ["lock-discipline"])
    assert len(findings) == 2
    by_symbol = {f.symbol: f.message for f in findings}
    assert "read-modify-write" in by_symbol["Pool.count"]
    assert "also written in reopen" in by_symbol["Pool.closed"]


def test_lock_discipline_clean_pass(tmp_path):
    assert lint(tmp_path, "mod.py", LOCK_CLEAN, ["lock-discipline"]) == []


def test_lock_discipline_ignores_lockless_classes(tmp_path):
    source = """
class Plain:
    def a(self):
        self.x = 1
    def b(self):
        self.x = 2
"""
    assert lint(tmp_path, "mod.py", source, ["lock-discipline"]) == []


# ---------------------------------------------------------------------------
# backend-conformance
# ---------------------------------------------------------------------------

BACKEND_PREAMBLE = """
class KernelBackend: ...
def register_backend(cls): return cls
"""

BACKEND_VIOLATION = BACKEND_PREAMBLE + """
@register_backend
class DriftedBackend(KernelBackend):
    name = "drifted"
    def core_latency(self, shape):            # missing `device`
        return 0.0
    def dwcore_latency(self, shape, device, collapse):
        return None                           # renamed `collapse_to`

@register_backend
class NamelessBackend(KernelBackend):
    def core_latency(self, shape, device):
        return 0.0
"""

BACKEND_CLEAN = BACKEND_PREAMBLE + """
class _SharedBase(KernelBackend):
    def core_latency(self, shape, device):
        return 1.0

@register_backend
class GoodBackend(_SharedBase):
    name = "good"
    def kernel(self, shape, device, tiling=None):
        return None
    def dwcore_latency(self, shape, device, collapse_to=None):
        return None
"""


def test_backend_conformance_seeded_violation(tmp_path):
    findings = lint(
        tmp_path, "mod.py", BACKEND_VIOLATION, ["backend-conformance"]
    )
    messages = " | ".join(f.message for f in findings)
    assert "signature drift" in messages
    assert "non-empty `name`" in messages
    drifted = {f.symbol for f in findings if "signature drift" in f.message}
    assert drifted == {"DriftedBackend.core_latency",
                       "DriftedBackend.dwcore_latency"}


def test_backend_conformance_clean_pass(tmp_path):
    # Hooks inherited through a local base class satisfy the protocol.
    assert lint(
        tmp_path, "mod.py", BACKEND_CLEAN, ["backend-conformance"]
    ) == []


def test_backend_conformance_reads_protocol_from_registry(tmp_path):
    # A drifted protocol definition in backends/registry.py wins over
    # the pinned fallback: a subclass matching the *new* protocol is
    # clean, one matching the old protocol is flagged.
    (tmp_path / "backends").mkdir()
    (tmp_path / "backends" / "registry.py").write_text("""
class KernelBackend:
    def core_latency(self, shape, device, phase):
        raise NotImplementedError
""")
    findings = lint(
        tmp_path, "mod.py",
        BACKEND_PREAMBLE + """
@register_backend
class NewProtocol(KernelBackend):
    name = "new"
    def core_latency(self, shape, device, phase):
        return 0.0
""",
        ["backend-conformance"],
    )
    # Note run_rules only scanned mod.py; scan both files instead.
    findings = run_rules(
        paths=[tmp_path], rules=build_rules(["backend-conformance"]),
        root=tmp_path,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# Suppressions and the bare-suppression pseudo-rule
# ---------------------------------------------------------------------------

def test_same_line_suppression_with_reason(tmp_path):
    source = HOT_VIOLATION.replace(
        "y = np.zeros(x.shape)      # closure-reached allocation",
        "y = np.zeros(x.shape)  # repro: ignore[hot-path-alloc] -- test fixture",
    ).replace(
        "return y.astype(np.float32)",
        "return y.astype(np.float32)  # repro: ignore[hot-path-alloc] -- test fixture",
    )
    assert lint(tmp_path, "mod.py", source, ["hot-path-alloc"]) == []


def test_function_level_suppression_covers_body(tmp_path):
    source = """
import numpy as np

class CompiledSite:
    def forward(self, x):  # repro: ignore[hot-path-alloc] -- whole-function fixture
        y = np.zeros(x.shape)
        return y.astype(np.float32)
"""
    assert lint(tmp_path, "mod.py", source, ["hot-path-alloc"]) == []


def test_suppression_is_rule_specific(tmp_path):
    source = """
import numpy as np

class CompiledSite:
    def forward(self, x):
        return np.zeros(x.shape)  # repro: ignore[dtype-promotion] -- wrong rule named
"""
    findings = lint(tmp_path, "mod.py", source, ["hot-path-alloc"])
    assert [f.rule for f in findings] == ["hot-path-alloc"]


def test_bare_suppression_is_reported(tmp_path):
    source = """
import numpy as np

class CompiledSite:
    def forward(self, x):
        return np.zeros(x.shape)  # repro: ignore[hot-path-alloc]
"""
    findings = lint(tmp_path, "mod.py", source, ["hot-path-alloc"])
    assert [f.rule for f in findings] == [BARE_SUPPRESSION_RULE]


# ---------------------------------------------------------------------------
# Baseline round-trip
# ---------------------------------------------------------------------------

def test_baseline_round_trip_and_stale_detection(tmp_path):
    findings = lint(tmp_path, "mod.py", HOT_VIOLATION, ["hot-path-alloc"])
    assert findings
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, findings)

    loaded = load_baseline(baseline_path)
    new, matched = apply_baseline(findings, loaded)
    assert new == [] and matched == {f.key() for f in findings}

    # A fresh finding is NOT masked; a fixed one goes stale.
    extra = Finding(
        rule="hot-path-alloc", path="mod.py", line=99,
        symbol="Other.run", message="allocating call np.empty()",
    )
    new, matched = apply_baseline(list(findings[:-1]) + [extra], loaded)
    assert new == [extra]
    assert loaded - matched == {findings[-1].key()}


def test_baseline_line_numbers_do_not_churn(tmp_path):
    findings = lint(tmp_path, "mod.py", HOT_VIOLATION, ["hot-path-alloc"])
    baseline = load_baseline_after_save(tmp_path, findings)
    shifted = lint(
        tmp_path, "mod2.py", "\n\n\n" + HOT_VIOLATION, ["hot-path-alloc"]
    )
    # Same module content shifted three lines: keys must still match
    # once the path matches (identity excludes the line number).
    rekeyed = [
        Finding(f.rule, "mod.py", f.line, f.symbol, f.message)
        for f in shifted
    ]
    new, _ = apply_baseline(rekeyed, baseline)
    assert new == []


def load_baseline_after_save(tmp_path, findings):
    p = tmp_path / "b.json"
    save_baseline(p, findings)
    return load_baseline(p)


def test_baseline_version_mismatch_rejected(tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"version": 999, "findings": []}))
    with pytest.raises(ValueError, match="version"):
        load_baseline(p)


# ---------------------------------------------------------------------------
# The repo itself is clean (the acceptance gate, in-process)
# ---------------------------------------------------------------------------

def test_repo_tree_has_zero_non_baselined_findings():
    findings = run_rules(root=REPO_ROOT)
    baseline_path = REPO_ROOT / "analysis_baseline.json"
    baseline = load_baseline(baseline_path) if baseline_path.exists() else set()
    new, _ = apply_baseline(findings, baseline)
    assert new == [], "\n".join(f.render() for f in new)


# ---------------------------------------------------------------------------
# Dynamic layer: tracer + arena aliasing
# ---------------------------------------------------------------------------

def test_tracer_counts_seeded_allocations():
    with trace_allocations() as trace:
        np.zeros((2, 2))
        np.zeros((2, 2))
        np.pad(np.ones(3), 1)   # ones + pad
    assert trace.counts["zeros"] == 2
    assert trace.counts["pad"] == 1
    assert trace.counts["ones"] == 1
    # np.pad itself allocates through np.empty internally, so the
    # total is >= the four calls issued directly.
    assert trace.total >= 4
    with pytest.raises(AssertionError, match="allocations"):
        trace.assert_zero()


def test_tracer_restores_numpy_on_exit():
    before = np.zeros
    with trace_allocations():
        assert np.zeros is not before
    assert np.zeros is before


def test_count_allocations_clean_path_is_empty():
    buf = np.empty(8)
    assert count_allocations(lambda: np.multiply(buf, 2.0, out=buf)) == {}


def test_hot_path_probe_on_compiled_executable():
    from repro.codesign.pipeline import decompose_for_device
    from repro.gpusim.device import A100
    from repro.inference import compile_model
    from repro.models.registry import build_model

    model = build_model("resnet_tiny", seed=0)
    decompose_for_device(model, A100, (8, 8), budget=0.5, rank_step=2)
    exe = compile_model(model.eval(), A100, image_hw=(8, 8), max_batch=2)
    assert hot_path_allocations(exe) == {}
    assert arena_overlaps(exe) == []
    # probe_input honors the compiled shape and dtype.
    x = probe_input(exe)
    assert x.shape == (2,) + exe.input_shape and x.dtype == exe.dtype


def test_arena_overlap_detects_seeded_aliasing():
    arena = BufferArena(np.float32)
    base = arena.allocate("a", (16,))
    arena.adopt("b", base[8:])        # overlaps a
    arena.allocate("c", (4,))         # disjoint
    fake_exe = SimpleNamespace(arena=arena)
    assert arena_overlaps(fake_exe) == [("a", "b")]


def test_arena_overlap_sees_the_stage_scratch():
    """The shared stage scratch is a named arena buffer, so a buffer
    aliasing it is caught like any other overlap."""
    from repro.gpusim.device import A100
    from repro.inference import compile_model
    from repro.inference.executable import STAGE_SCRATCH
    from repro.nn.module import Sequential
    from repro.nn.tucker_conv import TuckerConv2d

    model = Sequential(TuckerConv2d(6, 8, 3, rank_in=3, rank_out=4,
                                    padding=1, seed=1)).eval()
    exe = compile_model(model, A100, image_hw=(8, 8), in_channels=6,
                        max_batch=2)
    assert STAGE_SCRATCH in exe.arena.names()
    assert arena_overlaps(exe) == []
    scratch = exe.arena.get(STAGE_SCRATCH)
    exe.arena.adopt("seeded", scratch[: scratch.size // 2])
    assert arena_overlaps(exe) == [(STAGE_SCRATCH, "seeded")]


# ---------------------------------------------------------------------------
# CLI: repro analyze
# ---------------------------------------------------------------------------

def analyze_cli(capsys, *args):
    from repro.cli import main

    code = main(["analyze", *args])
    return code, capsys.readouterr().out


def test_cli_analyze_reports_and_baselines(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text(HOT_VIOLATION)
    baseline = tmp_path / "baseline.json"
    common = (
        "--root", str(tmp_path), "--paths", str(mod),
        "--baseline", str(baseline),
    )

    code, out = analyze_cli(capsys, *common, "--json")
    payload = json.loads(out)
    assert code == 1 and len(payload["findings"]) == 2

    code, _ = analyze_cli(capsys, *common, "--update-baseline")
    assert code == 0 and baseline.exists()

    code, out = analyze_cli(capsys, *common, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["findings"] == [] and payload["baselined"] == 2

    # Fixing the violation turns the baseline entries stale (still 0).
    mod.write_text(HOT_CLEAN)
    code, out = analyze_cli(capsys, *common, "--json")
    payload = json.loads(out)
    assert code == 0 and len(payload["stale_baseline"]) == 2


def test_cli_analyze_rule_subset_and_listing(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text(HOT_VIOLATION)
    code, out = analyze_cli(
        capsys, "--root", str(tmp_path), "--paths", str(mod),
        "--rules", "lock-discipline",
    )
    assert code == 0 and "0 new finding(s)" in out

    code, out = analyze_cli(capsys, "--list-rules")
    assert code == 0
    for name in rule_names():
        assert name in out
