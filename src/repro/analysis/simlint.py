"""simlint — the AST rules of ``repro lint``.

The whole value of this codebase rests on two properties: **bit-identical
determinism** (the figure fingerprints) and **cycle-exact integer time**
(the event engine refuses fractional timestamps).  Both are easy to break
with ordinary-looking Python — a ``time.time()`` call in a trace label, a
float division feeding ``sim.after``, iteration over a set whose order
leaks into scheduling decisions.  ``repro lint`` enforces the project's
determinism contract the way a sanitizer enforces memory safety:
mechanically, on every commit.

This module holds what every rule shares — :class:`Violation` and the
package scopes — and the five rules that are plain AST visitors.  The three determinism contracts that values and
calls can carry across functions (``wall-clock``, ``rng-provenance``,
``cycle-unit-flow``) live in :mod:`repro.analysis.rules_interproc`.

Rules
-----
Rules are scoped.  *Simulation scope* covers the packages whose code runs
inside the simulated world (``repro.sim``, ``repro.vmm``, ``repro.guest``,
``repro.asman``, ``repro.hardware``, ``repro.faults``); *hot-path scope*
covers the modules whose classes are instantiated per-event (the
Task/Event/TraceRecord tier); everything else applies package-wide.

``nondet-iter``       [sim]  no iteration over sets / ``vars()`` /
                             ``dir()`` / ``os.listdir`` results — their
                             order is not part of the language contract
                             and can differ across runs or versions.
``silent-truncation`` [sim]  no ``int(a / b)`` — truncating a true
                             division silently discards cycles; use
                             floor division.
``mutable-default``   [all]  no mutable default arguments.
``slots-required``    [hot]  classes in hot-path modules must declare
                             ``__slots__`` (per-event allocation cost and
                             accidental-attribute protection).
``bare-except``       [all]  no bare ``except:`` / ``except
                             BaseException:`` without re-raise, and no
                             ``except ...: pass`` silent swallows.

Usage
-----
``python -m repro lint [ROOT]`` runs every rule through
:func:`repro.analysis.engine.analyze`, the one lint path.  Every
finding fails it; nothing waives one in place.  A false positive is
fixed in its rule, with a test.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "RULES",
    "Violation",
    "check_tree",
]

#: Rule id -> one-line description (the CLI's --list-rules output).
RULES: Dict[str, str] = {
    "nondet-iter": "no iteration over unordered collections",
    "silent-truncation": "no int() around a true division",
    "mutable-default": "no mutable default arguments",
    "slots-required": "hot-path classes must declare __slots__",
    "bare-except": "no bare/blanket except or silent except-pass",
}

#: Sub-packages whose code executes inside the simulated world.
SIM_PACKAGES: Tuple[str, ...] = ("sim", "vmm", "guest", "asman", "hardware",
                                 "faults")

#: Host-side tooling sub-packages: code that orchestrates simulations
#: from outside (process pools, on-disk caches, benchmark timing, this
#: checker itself) and legitimately touches wall clocks and the OS.
#: Sim-scoped rules never apply here, even under ``--assume-sim``.
TOOLING_PACKAGES: Tuple[str, ...] = ("parallel", "perf", "analysis",
                                     "conformance")

#: (subpackage, module) pairs holding per-event ("hot tier") classes.
HOT_MODULES: Set[Tuple[str, str]] = {
    ("sim", "engine"),
    ("sim", "tracing"),
    ("guest", "task"),
    ("guest", "spinlock"),
    ("guest", "futex"),
    ("guest", "flags"),
    ("vmm", "vm"),
    ("hardware", "machine"),
}

_UNORDERED_FACTORIES = {"set", "frozenset", "vars", "globals", "locals"}
_LISTING_ATTRS = {"listdir", "scandir", "iterdir", "glob", "iglob"}


@dataclass(frozen=True)
class Violation:
    """One rule breach at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


def _mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray",
                                "defaultdict", "deque", "Counter",
                                "OrderedDict")
    return False


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    return False


def _annotation_is_set(node: ast.expr) -> bool:
    target = node.value if isinstance(node, ast.Subscript) else node
    if isinstance(target, ast.Name):
        return target.id in ("Set", "set", "frozenset", "FrozenSet",
                            "MutableSet")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "MutableSet")
    return False


_EXEMPT_BASES = {
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "Protocol",
    "Exception", "BaseException", "NamedTuple", "TypedDict", "ABC",
}


def _class_exempt_from_slots(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else \
            base.id if isinstance(base, ast.Name) else ""
        if name in _EXEMPT_BASES or name.endswith("Error"):
            return True
    for dec in node.decorator_list:
        # @dataclass(slots=True) generates __slots__ itself.
        if isinstance(dec, ast.Call):
            fn = dec.func
            fn_name = fn.attr if isinstance(fn, ast.Attribute) else \
                fn.id if isinstance(fn, ast.Name) else ""
            if fn_name == "dataclass" and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in dec.keywords):
                return True
    return False


def _defines_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == "__slots__":
                return True
    return False


# --------------------------------------------------------------------- #
# The checker
# --------------------------------------------------------------------- #
class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, sim_scope: bool, hot_module: bool,
                 rules: Set[str]) -> None:
        self.path = path
        self.sim_scope = sim_scope
        self.hot_module = hot_module
        self.rules = rules
        self.found: List[Violation] = []
        #: Names bound to set expressions in the current function.
        self._set_names: List[Set[str]] = []

    # -- plumbing ------------------------------------------------------- #
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if rule not in self.rules:
            return
        self.found.append(Violation(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message))

    # -- calls ---------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        if self.sim_scope:
            self._check_silent_truncation(node)
        self.generic_visit(node)

    def _check_silent_truncation(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "int" \
                and len(node.args) == 1 \
                and isinstance(node.args[0], ast.BinOp) \
                and isinstance(node.args[0].op, ast.Div):
            self._emit(node, "silent-truncation",
                       "int(a / b) silently truncates; use a // b for "
                       "cycle-exact arithmetic")

    # -- iteration ------------------------------------------------------ #
    def _check_iter_expr(self, node: ast.expr) -> None:
        if not self.sim_scope:
            return
        if _is_set_expr(node):
            self._emit(node, "nondet-iter",
                       "iterating a set: ordering is not guaranteed; "
                       "wrap in sorted()")
            return
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in _UNORDERED_FACTORIES:
                self._emit(node, "nondet-iter",
                           f"iterating {fn.id}(): ordering is not "
                           f"guaranteed; wrap in sorted()")
            elif isinstance(fn, ast.Attribute) and fn.attr in _LISTING_ATTRS:
                self._emit(node, "nondet-iter",
                           f".{fn.attr}() results are filesystem-ordered; "
                           f"wrap in sorted()")
        elif isinstance(node, ast.Name) and self._set_names \
                and node.id in self._set_names[-1]:
            self._emit(node, "nondet-iter",
                       f"iterating {node.id!r}, which is bound to a set "
                       f"in this function; wrap in sorted()")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter_expr(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter_expr(node.iter)
        self.generic_visit(node)

    # -- functions ------------------------------------------------------ #
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults
                                              if d is not None]:
            if _mutable_default(default):
                self._emit(default, "mutable-default",
                           "mutable default argument is shared across "
                           "calls; default to None and build inside")

    def _collect_set_names(self, node) -> Set[str]:
        names: Set[str] = set()
        if hasattr(node, "args"):
            all_args = (node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs)
            for arg in all_args:
                if arg.annotation is not None \
                        and _annotation_is_set(arg.annotation):
                    names.add(arg.arg)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and _is_set_expr(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                if _annotation_is_set(stmt.annotation) or (
                        stmt.value is not None and _is_set_expr(stmt.value)):
                    names.add(stmt.target.id)
        return names

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        self._set_names.append(self._collect_set_names(node)
                               if self.sim_scope else set())
        self.generic_visit(node)
        self._set_names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- classes -------------------------------------------------------- #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot_module and not _class_exempt_from_slots(node) \
                and not _defines_slots(node):
            self._emit(node, "slots-required",
                       f"class {node.name} lives in a hot-path module but "
                       f"declares no __slots__")
        self.generic_visit(node)

    # -- exception handling --------------------------------------------- #
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        reraises = any(isinstance(s, ast.Raise) for s in node.body)
        if node.type is None:
            self._emit(node, "bare-except",
                       "bare except catches everything including "
                       "KeyboardInterrupt; name the exception")
        elif isinstance(node.type, ast.Name) \
                and node.type.id == "BaseException" and not reraises:
            self._emit(node, "bare-except",
                       "except BaseException without re-raise swallows "
                       "interpreter-level signals")
        elif len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            self._emit(node, "bare-except",
                       "except ...: pass silently swallows the error; "
                       "handle it or let it propagate")
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #
def _scope_of(path: Path, assume_sim: bool) -> Tuple[bool, bool]:
    """(sim_scope, hot_module) for a file, from its repro-relative path."""
    parts = path.parts
    sim_scope = assume_sim
    hot = False
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rel = parts[idx + 1:]
        if rel and rel[0] in SIM_PACKAGES:
            sim_scope = True
            if len(rel) == 2 and (rel[0], rel[1][:-3]) in HOT_MODULES:
                hot = True
        elif rel and rel[0] in TOOLING_PACKAGES:
            # Explicitly host-side: pool timing, cache I/O, bench clocks.
            sim_scope = False
    return sim_scope, hot


def check_tree(tree: ast.Module, path: str = "<string>",
               sim_scope: bool = False, hot_module: bool = False,
               rules: Optional[Iterable[str]] = None) -> List[Violation]:
    """Every AST-rule breach in an already-parsed module."""
    active = set(rules) if rules is not None else set(RULES)
    unknown = active - set(RULES)
    if unknown:
        raise ValueError(f"unknown simlint rule(s): {sorted(unknown)}")
    checker = _Checker(path, sim_scope, hot_module, active)
    checker.visit(tree)
    return checker.found
