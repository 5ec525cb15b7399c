"""simlint — sim-specific static analysis for the reproduction.

The whole value of this codebase rests on two properties: **bit-identical
determinism** (the perf harness's fingerprint gate) and **cycle-exact
integer time** (the event engine refuses fractional timestamps).  Both are
easy to break with ordinary-looking Python — a ``time.time()`` call in a
trace label, a float division feeding ``sim.after``, iteration over a set
whose order leaks into scheduling decisions.  simlint walks the AST of
every source file and enforces the project's determinism contract the way
a sanitizer enforces memory safety: mechanically, on every commit.

Rules
-----
Rules are scoped.  *Simulation scope* covers the packages whose code runs
inside the simulated world (``repro.sim``, ``repro.vmm``, ``repro.guest``,
``repro.asman``, ``repro.hardware``); *hot-path scope* covers the modules
whose classes are instantiated per-event (the Task/Event/TraceRecord
tier); everything else applies package-wide.

``wall-clock``        [sim]  no ``time`` / ``datetime`` imports or calls —
                             the simulated clock is ``sim.now``, wall time
                             makes runs host-dependent.
``random-module``     [sim]  no stdlib ``random``, no numpy legacy global
                             RNG, no unseeded ``default_rng()`` — all
                             randomness flows through named, seeded
                             :class:`repro.sim.rng.RngStreams`.
``nondet-iter``       [sim]  no iteration over sets / ``vars()`` /
                             ``dir()`` / ``os.listdir`` results — their
                             order is not part of the language contract
                             and can differ across runs or versions.
``float-into-cycles`` [sim]  no float literals or true division in the
                             time arguments of ``sim.at/after/every`` or
                             in cycle-denominated op constructors
                             (``Compute``/``Sleep``/``Critical``); convert
                             through :mod:`repro.units` producers or
                             integerize explicitly.
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

Escape hatch
------------
Any violation can be waived in place with an inline pragma on the
offending line::

    jitter = base * 1.5  # simlint: ignore[float-into-cycles]

``# simlint: ignore`` (no rule list) waives every rule on that line.
Pragmas are deliberate, reviewable markers — the linter counts them in
its JSON report so a creeping pile of waivers is visible.

Usage
-----
``python -m repro lint [ROOT]`` runs these rules together with the
whole-program families through :func:`repro.analysis.engine.analyze`;
:func:`lint_source` / :func:`lint_tree` check one snippet or parsed
module::

    from repro.analysis.simlint import lint_source
    violations, pragmas_used = lint_source(src, sim_scope=True)
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "RULES",
    "Violation",
    "apply_pragmas",
    "check_tree",
    "cycle_sink",
    "lint_source",
    "lint_tree",
]

#: Rule id -> one-line description (the CLI's --list-rules output).
RULES: Dict[str, str] = {
    "wall-clock": "no wall-clock time sources in simulation code",
    "random-module": "no stdlib random / unseeded or global numpy RNG",
    "nondet-iter": "no iteration over unordered collections",
    "float-into-cycles": "no float arithmetic feeding cycle-valued args",
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

_WALL_CLOCK_MODULES = {"time", "datetime"}
_WALL_CLOCK_TIME_ATTRS = {
    "time", "monotonic", "perf_counter", "process_time", "time_ns",
    "monotonic_ns", "perf_counter_ns", "localtime", "gmtime",
}
_WALL_CLOCK_DT_ATTRS = {"now", "utcnow", "today"}
#: numpy legacy global-state RNG entry points (np.random.<attr>).
_NUMPY_LEGACY_RNG = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "uniform",
    "normal", "standard_normal", "exponential", "poisson", "bytes",
}
_UNORDERED_FACTORIES = {"set", "frozenset", "vars", "globals", "locals"}
_LISTING_ATTRS = {"listdir", "scandir", "iterdir", "glob", "iglob"}
#: Callables blessing a cycle argument (explicit, reviewable integerizing);
#: the taint layer clears unit taint at the same names.
_INTEGERIZERS = {"int", "round", "floor", "ceil", "len", "max", "min", "abs"}
#: repro.units producers returning integer cycles.
_UNITS_PRODUCERS = {"ms", "us", "seconds"}
#: Op constructor -> index of its cycle-denominated argument
#: (``Critical(lock, hold)``).
_CYCLE_OP_ARGS = {"Compute": 0, "Sleep": 0, "Critical": 1}


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


# --------------------------------------------------------------------- #
# Pragma parsing
# --------------------------------------------------------------------- #
def _parse_pragmas(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> waived rule set (None = every rule).

    Pragmas ride in comments so they survive ``ast`` parsing, which drops
    them; we re-tokenize to recover positions.
    """
    pragmas: Dict[int, Optional[Set[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type is not tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith("simlint:"):
                continue
            directive = text[len("simlint:"):].strip()
            if not directive.startswith("ignore"):
                continue
            rest = directive[len("ignore"):].strip()
            if rest.startswith("[") and rest.endswith("]"):
                rules = {r.strip() for r in rest[1:-1].split(",") if r.strip()}
                pragmas[tok.start[0]] = rules
            else:
                pragmas[tok.start[0]] = None  # waive everything
    except tokenize.TokenError:
        return pragmas  # syntax errors surface through ast.parse instead
    return pragmas


def apply_pragmas(violations: Iterable[Violation], source: str,
                  waivers: Dict[str, int]) -> List[Violation]:
    """Drop the violations an inline pragma in ``source`` waives.

    Each waived violation is counted under its rule in ``waivers`` (the
    audit trail behind ``--max-waivers``); the rest are returned in
    order.  Per-file and interprocedural findings share this one rule.
    """
    pragmas = _parse_pragmas(source)
    kept: List[Violation] = []
    for v in violations:
        waived = pragmas.get(v.line)
        if v.line in pragmas and (waived is None or v.rule in waived):
            waivers[v.rule] = waivers.get(v.rule, 0) + 1
        else:
            kept.append(v)
    return kept


# --------------------------------------------------------------------- #
# RNG import-alias tables (satellite of the random-module rule)
# --------------------------------------------------------------------- #
@dataclass
class _RngAliases:
    """Local names behind which RNG entry points can hide.

    ``from random import random as _r`` and ``import numpy.random as
    npr`` both defeat literal name matching; one pre-pass over the
    import statements recovers the mapping so call checks work on
    resolved origins.
    """

    #: aliases of the stdlib ``random`` module itself.
    random_mods: Set[str] = field(default_factory=lambda: {"random"})
    #: aliases of the ``numpy`` module.
    np_mods: Set[str] = field(default_factory=lambda: {"np", "numpy"})
    #: aliases of the ``numpy.random`` submodule.
    np_random_mods: Set[str] = field(default_factory=set)
    #: local name -> original ``random.<name>`` function.
    random_funcs: Dict[str, str] = field(default_factory=dict)
    #: local name -> original ``numpy.random.<name>`` function.
    np_random_funcs: Dict[str, str] = field(default_factory=dict)


def _collect_rng_aliases(tree: ast.Module) -> _RngAliases:
    aliases = _RngAliases()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname
                if alias.name == "random":
                    aliases.random_mods.add(local or "random")
                elif alias.name == "numpy":
                    aliases.np_mods.add(local or "numpy")
                elif alias.name == "numpy.random" and local:
                    aliases.np_random_mods.add(local)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "random":
                    aliases.random_funcs[local] = alias.name
                elif node.module == "numpy" and alias.name == "random":
                    aliases.np_random_mods.add(local)
                elif node.module == "numpy.random":
                    aliases.np_random_funcs[local] = alias.name
    return aliases


# --------------------------------------------------------------------- #
# Expression helpers
# --------------------------------------------------------------------- #
def _is_units_producer(call: ast.Call) -> bool:
    """True for ``units.ms(...)`` / ``us`` / ``seconds`` (and bare names
    imported from repro.units)."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr in _UNITS_PRODUCERS \
            and isinstance(fn.value, ast.Name) and fn.value.id == "units":
        return True
    if isinstance(fn, ast.Name) and fn.id in _UNITS_PRODUCERS:
        return True
    return False


def _is_integerizer(call: ast.Call) -> bool:
    fn = call.func
    if isinstance(fn, ast.Name) and fn.id in _INTEGERIZERS:
        return True
    if isinstance(fn, ast.Attribute) and fn.attr in ("floor", "ceil"):
        return True
    return False


def _float_taint(expr: ast.expr) -> Optional[ast.expr]:
    """Return the first node proving float arithmetic reaches ``expr``.

    Subtrees wrapped in an explicit integerizer (``int``/``round``/
    ``math.floor``...) or produced by a :mod:`repro.units` converter are
    trusted: the conversion point is visible and auditable.
    """
    stack: List[ast.expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            if _is_units_producer(node) or _is_integerizer(node):
                continue  # blessed boundary: don't look inside
            stack.extend(node.args)
            stack.extend(kw.value for kw in node.keywords)
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return node
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return node
        stack.extend(ast.iter_child_nodes(node))  # type: ignore[arg-type]
    return None


def _looks_like_sim(receiver: ast.expr) -> bool:
    """Heuristic: is this attribute receiver a Simulator handle?

    Matches ``sim``, ``self.sim``, ``self._sim``, ``tb.sim`` — any name
    or attribute whose final component is ``sim``/``_sim``.
    """
    if isinstance(receiver, ast.Name):
        return receiver.id in ("sim", "_sim")
    if isinstance(receiver, ast.Attribute):
        return receiver.attr in ("sim", "_sim")
    return False


def cycle_sink(call: ast.Call,
               is_sim: Callable[[ast.expr], bool] = _looks_like_sim
               ) -> Optional[Tuple[str, List[ast.expr]]]:
    """``(label, cycle-valued args)`` when ``call`` is a cycle sink.

    The sinks are ``sim.at/after/every`` on a receiver ``is_sim``
    accepts (first positional argument plus the time keywords) and the
    cycle-denominated op constructors ``Compute``/``Sleep`` (first
    argument) and ``Critical`` (the hold, index 1).  ``None`` for any
    other call.  The per-file ``float-into-cycles`` rule and the taint
    layer's ``cycle-unit-flow`` both decide sinks here; taint widens
    ``is_sim`` with receivers typed as a ``Simulator``.
    """
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr in ("at", "after", "every"):
        if not is_sim(fn.value):
            return None
        return f"sim.{fn.attr}()", call.args[:1] + [
            kw.value for kw in call.keywords
            if kw.arg in ("time", "delay", "period", "start_offset")]
    if isinstance(fn, ast.Name) and fn.id in _CYCLE_OP_ARGS:
        idx = _CYCLE_OP_ARGS[fn.id]
        return f"{fn.id}()", call.args[idx:idx + 1]
    return None


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
                 rules: Set[str],
                 rng_aliases: Optional[_RngAliases] = None) -> None:
        self.path = path
        self.sim_scope = sim_scope
        self.hot_module = hot_module
        self.rules = rules
        self.rng = rng_aliases or _RngAliases()
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

    # -- imports -------------------------------------------------------- #
    def visit_Import(self, node: ast.Import) -> None:
        if self.sim_scope:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _WALL_CLOCK_MODULES:
                    self._emit(node, "wall-clock",
                               f"import of {alias.name!r}: simulation code "
                               f"must use sim.now, not wall-clock time")
                elif root == "random":
                    self._emit(node, "random-module",
                               "import of stdlib 'random': use seeded "
                               "repro.sim.rng.RngStreams instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.sim_scope and node.module:
            root = node.module.split(".")[0]
            if root in _WALL_CLOCK_MODULES:
                self._emit(node, "wall-clock",
                           f"import from {node.module!r}: simulation code "
                           f"must use sim.now, not wall-clock time")
            elif root == "random":
                self._emit(node, "random-module",
                           "import from stdlib 'random': use seeded "
                           "repro.sim.rng.RngStreams instead")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        if self.sim_scope:
            self._check_wall_clock_call(node)
            self._check_random_call(node)
            self._check_cycle_args(node)
            self._check_silent_truncation(node)
        self.generic_visit(node)

    def _check_wall_clock_call(self, node: ast.Call) -> None:
        fn = node.func
        if not isinstance(fn, ast.Attribute):
            return
        base = fn.value
        if isinstance(base, ast.Name) and base.id == "time" \
                and fn.attr in _WALL_CLOCK_TIME_ATTRS:
            self._emit(node, "wall-clock",
                       f"time.{fn.attr}() in simulation code: the only "
                       f"clock is sim.now")
        elif isinstance(base, ast.Name) and base.id in ("datetime", "date") \
                and fn.attr in _WALL_CLOCK_DT_ATTRS:
            self._emit(node, "wall-clock",
                       f"{base.id}.{fn.attr}() in simulation code: the "
                       f"only clock is sim.now")

    def _check_random_call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Name):
            # Functions imported out of the RNG modules, possibly under
            # an alias: ``from random import random as _r; _r()``.
            orig = self.rng.random_funcs.get(fn.id)
            if orig is not None:
                self._emit(node, "random-module",
                           f"{fn.id}() is stdlib random.{orig}: "
                           f"process-global state; use a named "
                           f"RngStreams stream")
                return
            orig = self.rng.np_random_funcs.get(fn.id)
            if orig is not None:
                if orig in _NUMPY_LEGACY_RNG:
                    self._emit(node, "random-module",
                               f"{fn.id}() is numpy.random.{orig}: legacy "
                               f"global-state RNG; use a named RngStreams "
                               f"stream")
                elif orig == "default_rng" and not node.args \
                        and not node.keywords:
                    self._emit(node, "random-module",
                               f"{fn.id}() is numpy.random.default_rng "
                               f"without a seed: draws OS entropy; pass "
                               f"an explicit seed")
            return
        if not isinstance(fn, ast.Attribute):
            return
        base = fn.value
        # random.<anything>() — including ``import random as rnd``.
        if isinstance(base, ast.Name) and base.id in self.rng.random_mods:
            self._emit(node, "random-module",
                       f"{base.id}.{fn.attr}(): stdlib RNG has "
                       f"process-global state; use a named RngStreams "
                       f"stream")
            return
        # np.random.<legacy>() — also through ``import numpy.random as
        # npr`` / ``from numpy import random as nr``.
        np_random = (
            isinstance(base, ast.Attribute) and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in self.rng.np_mods
        ) or (isinstance(base, ast.Name)
              and base.id in self.rng.np_random_mods)
        if np_random:
            if fn.attr in _NUMPY_LEGACY_RNG:
                self._emit(node, "random-module",
                           f"numpy.random.{fn.attr}(): legacy "
                           f"global-state RNG; use a named RngStreams "
                           f"stream")
            elif fn.attr == "default_rng" and not node.args \
                    and not node.keywords:
                self._emit(node, "random-module",
                           "numpy.random.default_rng() without a seed "
                           "draws OS entropy; pass an explicit seed")

    def _check_cycle_args(self, node: ast.Call) -> None:
        sink = cycle_sink(node)
        if sink is None:
            return
        where, cycle_args = sink
        for arg in cycle_args:
            taint = _float_taint(arg)
            if taint is not None:
                what = "float literal" \
                    if isinstance(taint, ast.Constant) else "true division"
                self._emit(arg, "float-into-cycles",
                           f"{what} reaches the cycle argument of {where}; "
                           f"convert via repro.units or integerize "
                           f"explicitly")

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
    """Every per-file rule breach in an already-parsed module, before
    pragma waivers (:func:`apply_pragmas` applies those)."""
    active = set(rules) if rules is not None else set(RULES)
    unknown = active - set(RULES)
    if unknown:
        raise ValueError(f"unknown simlint rule(s): {sorted(unknown)}")
    checker = _Checker(path, sim_scope, hot_module, active,
                       rng_aliases=_collect_rng_aliases(tree))
    checker.visit(tree)
    return checker.found


def lint_tree(tree: ast.Module, source: str, path: str = "<string>",
              sim_scope: bool = False, hot_module: bool = False,
              rules: Optional[Iterable[str]] = None
              ) -> Tuple[List[Violation], int, Dict[str, int]]:
    """Lint an already-parsed module.

    Returns ``(violations, pragmas_used, waivers_by_rule)``, violations
    in ``(line, col, rule)`` order.
    """
    found = check_tree(tree, path=path, sim_scope=sim_scope,
                       hot_module=hot_module, rules=rules)
    per_rule: Dict[str, int] = {}
    kept = apply_pragmas(
        sorted(found, key=lambda v: (v.line, v.col, v.rule)), source,
        per_rule)
    return kept, sum(per_rule.values()), per_rule


def lint_source(source: str, path: str = "<string>",
                sim_scope: bool = False, hot_module: bool = False,
                rules: Optional[Iterable[str]] = None
                ) -> Tuple[List[Violation], int]:
    """Lint one source string.  Returns (violations, pragmas_used)."""
    tree = ast.parse(source, filename=path)
    kept, used, _ = lint_tree(tree, source, path=path,
                              sim_scope=sim_scope, hot_module=hot_module,
                              rules=rules)
    return kept, used
