"""dtype-promotion: no silent float64 promotion in kernel-adjacent code.

PR 2's contract: the execution dtype is decided once (float32 unless
the model's weights are float64) and every kernel/runtime path
preserves it.  numpy's default dtype is float64, so the classic
regressions are (a) ``np.array([...])``/``np.zeros(...)`` without an
explicit ``dtype=`` and (b) ``np.float64`` literals leaking into hot
code.  This rule flags those in the dtype-sensitive subtrees
(``kernels/``, ``nn/functional.py``, ``runtime/``, and ``inference/``,
where every host convolution runs); intentional float64 sites (the
simulator's latency math, reference paths) carry inline suppressions
with reasons.

``np.asarray(x)`` on an existing array preserves dtype, so a dtype-less
``asarray`` is only flagged when its argument is a literal list/tuple
or scalar expression — the case where numpy invents float64.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.lint import Finding, ParsedModule, Rule
from repro.analysis.rules import register_rule
from repro.analysis.rules.hot_path_alloc import _numpy_aliases

#: Path fragments that put a module in scope for this rule.
SCOPE_FRAGMENTS = ("kernels/", "runtime/", "inference/",
                   "nn/functional.py")

#: Allocators whose dtype defaults to float64 when omitted.
DEFAULT_FLOAT64_FUNCS = frozenset({"zeros", "empty", "ones", "array"})


def _in_scope(relpath: str) -> bool:
    return any(frag in relpath for frag in SCOPE_FRAGMENTS)


def _has_dtype_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "dtype" for kw in call.keywords)


def _is_literal_arg(node: ast.expr) -> bool:
    """True when numpy must infer a dtype from a python literal."""
    return isinstance(node, (ast.List, ast.Tuple, ast.Constant, ast.ListComp))


@register_rule
class DtypePromotionRule(Rule):
    name = "dtype-promotion"
    description = (
        "no dtype-less np.array/np.asarray/np.zeros or np.float64 "
        "literals in kernels/, nn/functional.py, runtime/, inference/"
    )

    def check(self, module: ParsedModule) -> List[Finding]:
        if not _in_scope(module.relpath):
            return []
        np_aliases = _numpy_aliases(module.tree)
        if not np_aliases:
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                if (
                    node.attr == "float64"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in np_aliases
                ):
                    findings.append(Finding(
                        rule=self.name,
                        path=module.relpath,
                        line=node.lineno,
                        symbol="",
                        message=(
                            "np.float64 literal in a dtype-sensitive "
                            "path; derive the dtype from the data or "
                            "suppress with a reason"
                        ),
                    ))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node, np_aliases))
        return findings

    def _check_call(
        self, module: ParsedModule, call: ast.Call, np_aliases: Set[str]
    ) -> List[Finding]:
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in np_aliases
        ):
            return []
        name = func.attr
        if _has_dtype_kwarg(call):
            return []
        if name in DEFAULT_FLOAT64_FUNCS:
            return [Finding(
                rule=self.name,
                path=module.relpath,
                line=call.lineno,
                symbol="",
                message=(
                    f"np.{name}() without dtype= defaults to float64; "
                    f"pass the execution dtype explicitly"
                ),
            )]
        if name == "asarray" and call.args and _is_literal_arg(call.args[0]):
            return [Finding(
                rule=self.name,
                path=module.relpath,
                line=call.lineno,
                symbol="",
                message=(
                    "np.asarray() of a literal without dtype= infers "
                    "float64; pass the execution dtype explicitly"
                ),
            )]
        return []
