"""backend-conformance: KernelBackend subclasses honor the protocol.

The registry (``repro.backends.registry``) defines the six-hook
``KernelBackend`` protocol that planning and warm-up dispatch
through.  A subclass with a drifted signature fails at dispatch time,
on whichever preset happens to exercise it.  This rule checks
statically, for every module defining a ``KernelBackend`` subclass:

- registered concrete classes (``@register_backend`` or a module-level
  ``register_backend(Cls)`` call) define a non-empty ``name`` and a
  ``core_latency``, either directly or via a local base class;
- any overridden protocol hook keeps the protocol's positional
  parameter names in order (extra trailing parameters need defaults).

The protocol signatures are read from ``backends/registry.py`` itself
when it is part of the scanned module set (so the rule tracks protocol
evolution automatically); a pinned copy is the fallback for fixture
tests that lint standalone files.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import Finding, ParsedModule, Rule
from repro.analysis.rules import register_rule

BASE_CLASS = "KernelBackend"
REGISTER_NAME = "register_backend"

#: Fallback protocol: hook -> positional parameter names (including
#: self) -> used only when backends/registry.py is not in the scan set.
FALLBACK_PROTOCOL: Dict[str, Tuple[str, ...]] = {
    "supports": ("self", "shape", "device"),
    "core_latency": ("self", "shape", "device"),
    "tiling": ("self", "shape", "device"),
    "kernel": ("self", "shape", "device", "tiling"),
    "dispatch": ("self", "shape", "device"),
    "dwcore_latency": ("self", "shape", "device", "collapse_to"),
}

REQUIRED_HOOKS = ("core_latency",)


def _positional_names(fn: ast.FunctionDef) -> Tuple[str, ...]:
    args = fn.args
    return tuple(a.arg for a in args.posonlyargs + args.args)


def _protocol_from_class(cls: ast.ClassDef) -> Dict[str, Tuple[str, ...]]:
    protocol = {}
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            protocol[node.name] = _positional_names(node)
    return protocol


def _is_register_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == REGISTER_NAME
    if isinstance(node, ast.Attribute):
        return node.attr == REGISTER_NAME
    if isinstance(node, ast.Call):
        return _is_register_decorator(node.func)
    return False


def _registered_names(tree: ast.Module) -> Set[str]:
    """Class names registered via module-level register_backend(Cls)."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _is_register_decorator(node.func)
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            out.add(node.args[0].id)
    return out


@register_rule
class BackendConformanceRule(Rule):
    name = "backend-conformance"
    description = (
        "KernelBackend subclasses define required hooks with protocol "
        "signatures"
    )

    def __init__(self) -> None:
        self._protocol: Dict[str, Tuple[str, ...]] = dict(FALLBACK_PROTOCOL)

    def begin(self, modules: Sequence[ParsedModule]) -> None:
        for module in modules:
            if not module.relpath.endswith("backends/registry.py"):
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == BASE_CLASS:
                    self._protocol = _protocol_from_class(node)
                    return

    def check(self, module: ParsedModule) -> List[Finding]:
        if module.relpath.endswith("backends/registry.py"):
            return []
        classes = {
            n.name: n for n in module.tree.body
            if isinstance(n, ast.ClassDef)
        }
        # Local subclass closure: direct KernelBackend bases plus
        # classes deriving from a local subclass (_TDCBackend et al.).
        subclasses: Dict[str, ast.ClassDef] = {}
        changed = True
        while changed:
            changed = False
            for name, cls in classes.items():
                if name in subclasses:
                    continue
                for base in cls.bases:
                    base_name = (
                        base.id if isinstance(base, ast.Name)
                        else base.attr if isinstance(base, ast.Attribute)
                        else None
                    )
                    if base_name == BASE_CLASS or base_name in subclasses:
                        subclasses[name] = cls
                        changed = True
                        break
        if not subclasses:
            return []

        registered = _registered_names(module.tree)
        for name, cls in subclasses.items():
            if any(_is_register_decorator(d) for d in cls.decorator_list):
                registered.add(name)

        findings: List[Finding] = []
        for name in sorted(subclasses):
            findings.extend(self._check_class(
                module, subclasses[name], subclasses,
                is_registered=name in registered,
            ))
        return findings

    # -- helpers ----------------------------------------------------------

    def _own_and_inherited(
        self,
        cls: ast.ClassDef,
        subclasses: Dict[str, ast.ClassDef],
        kind: str,
    ) -> Dict[str, ast.AST]:
        """Methods ('def') or string class attrs ('attr') visible on
        ``cls`` through its *local* base chain."""
        out: Dict[str, ast.AST] = {}
        stack = [cls]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur.name in seen:
                continue
            seen.add(cur.name)
            for node in cur.body:
                if kind == "def" and isinstance(node, ast.FunctionDef):
                    out.setdefault(node.name, node)
                elif kind == "attr" and isinstance(node, ast.Assign):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            out.setdefault(t.id, node.value)
            for base in cur.bases:
                if isinstance(base, ast.Name) and base.id in subclasses:
                    stack.append(subclasses[base.id])
        return out

    def _check_class(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        subclasses: Dict[str, ast.ClassDef],
        is_registered: bool,
    ) -> List[Finding]:
        findings: List[Finding] = []
        methods = self._own_and_inherited(cls, subclasses, "def")
        attrs = self._own_and_inherited(cls, subclasses, "attr")

        if is_registered:
            name_value = attrs.get("name")
            has_name = (
                isinstance(name_value, ast.Constant)
                and isinstance(name_value.value, str)
                and bool(name_value.value)
            )
            if not has_name:
                findings.append(Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=cls.lineno,
                    symbol=cls.name,
                    message=(
                        f"registered backend {cls.name} has no "
                        f"non-empty `name` class attribute"
                    ),
                ))
            for hook in REQUIRED_HOOKS:
                if hook not in methods:
                    findings.append(Finding(
                        rule=self.name,
                        path=module.relpath,
                        line=cls.lineno,
                        symbol=cls.name,
                        message=(
                            f"registered backend {cls.name} does not "
                            f"define required hook {hook}()"
                        ),
                    ))

        # Signature conformance for hooks this class overrides itself.
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            proto = self._protocol.get(node.name)
            if proto is None:
                continue
            finding = self._check_signature(module, cls.name, node, proto)
            if finding is not None:
                findings.append(finding)
        return findings

    def _check_signature(
        self,
        module: ParsedModule,
        cls_name: str,
        fn: ast.FunctionDef,
        proto: Tuple[str, ...],
    ) -> Optional[Finding]:
        names = _positional_names(fn)
        n_defaults = len(fn.args.defaults)
        has_varargs = fn.args.vararg is not None

        mismatch: Optional[str] = None
        if names[:len(proto)] != proto:
            if not (has_varargs and len(names) < len(proto)):
                mismatch = (
                    f"positional parameters {list(names)} do not match "
                    f"the protocol's {list(proto)}"
                )
        elif len(names) > len(proto):
            extras = names[len(proto):]
            undefaulted = len(names) - len(proto) - n_defaults
            if undefaulted > 0:
                mismatch = (
                    f"extra positional parameters {list(extras)} beyond "
                    f"the protocol must have defaults"
                )
        if mismatch is None:
            return None
        return Finding(
            rule=self.name,
            path=module.relpath,
            line=fn.lineno,
            symbol=f"{cls_name}.{fn.name}",
            message=f"{cls_name}.{fn.name}() signature drift: {mismatch}",
        )
