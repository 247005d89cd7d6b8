"""hot-path-alloc: no allocating numpy calls in steady-state hot paths.

The compile/execute split promises zero steady-state allocation:
``Executable.run`` and everything it reaches — each compiled site's
stage runner and every stage body it calls — must write into
preallocated :class:`BufferArena` buffers only.  The dynamic tracer in
``tests`` samples this for a few backends; this rule enforces it
statically for *every* hot method in the tree.

Hot classes are matched by naming convention: the compiled sites
(``Compiled*``, their ``_CompiledSite`` base), ``Executable``, and the
stages (``*Stage``).  Their hot entry points are ``run`` (an
executable's request, a stage's body) and ``forward`` (a site); the
rule then takes the transitive closure of ``self.method()`` calls, so
the site's stage runner and any helper reached from a hot entry are
checked too.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.lint import Finding, ParsedModule, Rule
from repro.analysis.rules import register_rule

#: numpy module-level allocators that must not appear in a hot body.
ALLOC_FUNCS = frozenset({
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "pad", "concatenate", "stack", "vstack", "hstack", "dstack",
    "column_stack", "tile", "repeat", "copy",
    "array", "ascontiguousarray", "asfortranarray",
    "fromiter", "arange", "linspace", "outer", "kron",
})

#: ndarray methods that allocate a fresh array.
ALLOC_METHODS = frozenset({"astype", "copy", "flatten", "tolist"})

#: Entry methods of hot classes.
HOT_ENTRIES = ("forward", "run")


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    aliases.add(a.asname or "numpy")
    return aliases


def _is_hot_class(name: str) -> bool:
    stripped = name.lstrip("_")
    return (
        stripped.startswith("Compiled")
        or stripped == "Executable"
        or name.endswith("Stage")
    )


def _self_calls(fn: ast.FunctionDef) -> Set[str]:
    calls = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


def _methods(
    cls: ast.ClassDef, classes: Dict[str, ast.ClassDef]
) -> Dict[str, Tuple[str, ast.FunctionDef]]:
    """Method name -> (defining class, def) as ``cls`` resolves it,
    following bases defined in the same module (the stage bodies share
    their input handling through a base class)."""
    methods: Dict[str, Tuple[str, ast.FunctionDef]] = {}
    for base in reversed(cls.bases):
        if isinstance(base, ast.Name) and base.id in classes:
            methods.update(_methods(classes[base.id], classes))
    methods.update(
        (n.name, (cls.name, n))
        for n in cls.body if isinstance(n, ast.FunctionDef)
    )
    return methods


def _hot_methods(
    cls: ast.ClassDef, classes: Dict[str, ast.ClassDef],
    entries: Sequence[str],
) -> Dict[str, Tuple[str, ast.FunctionDef]]:
    methods = _methods(cls, classes)
    frontier = [m for m in entries if m in methods]
    hot: Dict[str, Tuple[str, ast.FunctionDef]] = {}
    while frontier:
        name = frontier.pop()
        if name in hot:
            continue
        hot[name] = methods[name]
        for callee in _self_calls(methods[name][1]):
            if callee in methods and callee not in hot:
                frontier.append(callee)
    return hot


@register_rule
class HotPathAllocRule(Rule):
    name = "hot-path-alloc"
    description = (
        "no allocating numpy calls (np.zeros/empty/pad/astype/...) in "
        "run/forward bodies of Compiled*/Executable/*Stage classes or "
        "their self-call closure"
    )

    def check(self, module: ParsedModule) -> List[Finding]:
        np_aliases = _numpy_aliases(module.tree)
        classes = {
            n.name: n for n in module.tree.body if isinstance(n, ast.ClassDef)
        }
        hot: Dict[Tuple[str, str], ast.FunctionDef] = {}
        for cls in classes.values():
            if _is_hot_class(cls.name):
                for mname, (owner, fn) in _hot_methods(
                    cls, classes, HOT_ENTRIES
                ).items():
                    hot[(owner, mname)] = fn
        findings: List[Finding] = []
        for (owner, mname), fn in sorted(hot.items()):
            findings.extend(
                self._check_method(module, owner, mname, fn, np_aliases)
            )
        return findings

    def _check_method(
        self,
        module: ParsedModule,
        cls: str,
        mname: str,
        fn: ast.FunctionDef,
        np_aliases: Set[str],
    ) -> List[Finding]:
        findings = []
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in np_aliases
            ):
                if func.attr in ALLOC_FUNCS:
                    findings.append(Finding(
                        rule=self.name,
                        path=module.relpath,
                        line=node.lineno,
                        symbol=f"{cls}.{mname}",
                        message=(
                            f"allocating call np.{func.attr}() in hot "
                            f"path {cls}.{mname}"
                        ),
                    ))
            elif func.attr in ALLOC_METHODS:
                # Exclude self.method() calls — those are dispatch, and
                # any allocating ones are caught when their body is
                # visited (or they live on another object entirely).
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    continue
                findings.append(Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    symbol=f"{cls}.{mname}",
                    message=(
                        f"allocating method .{func.attr}() in hot "
                        f"path {cls}.{mname}"
                    ),
                ))
        return findings
