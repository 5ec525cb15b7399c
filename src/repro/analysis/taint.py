"""Forward dataflow / taint lattice over the project call graph.

Two value families are tracked through assignments, arithmetic, calls
and returns:

* **unit taint** — ``("float", src)`` for float-valued expressions and
  ``("ms", src)`` for wall-denominated values (``units.to_ms`` /
  ``units.to_seconds`` results).  ``src`` says where the value arose:
  a ``"literal"`` or a true ``"division"`` in this function, ``"local"``
  for a wall-unit conversion here, or ``"ret"`` for a value that
  crossed a call boundary.
* **RNG provenance** — ``("stream", prefix)`` for generators obtained
  from :meth:`repro.sim.rng.RngStreams.get` (prefix = the stream name up
  to the first ``/``, ``"?"`` when dynamic), ``("seeded",)`` for ad-hoc
  explicitly-seeded generators, ``("unseeded",)`` for entropy-seeded
  ones.  ``default_rng(x)`` *preserves* stream provenance when its seed
  derives from a stream draw (the workload thread-RNG idiom).

Values flowing through parameters carry ``("param", i)`` markers;
per-function :class:`Summary` objects record where those parameters end
up (cycle sinks, RNG draws, the return value), and a small fixpoint
iteration propagates summaries through wrappers so a leak laundered
through two helper calls is still attributed to its concrete source.

Every function is evaluated, including nested ``def``s and each
module's top-level code; lambda bodies and comprehensions are evaluated
in the scope that holds them.  Conversion points are trusted boundaries:
``units.ms/us/seconds``, ``int``/``round``/``math.floor``/``math.ceil``
and floor division all clear taint — the conversion is visible and
auditable, which is the contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import LocalTypes
from repro.analysis.engine import (FunctionInfo, ModuleInfo, Project,
                                   _dotted_name)

__all__ = [
    "DRAW_METHODS",
    "Summary",
    "TaintContext",
    "Tag",
    "compute_summaries",
    "cycle_sink",
    "stream_prefix_of_arg",
]

Tag = Tuple[str, ...]

#: numpy Generator methods that consume entropy from the stream.
DRAW_METHODS: Set[str] = {
    "random", "choice", "integers", "shuffle", "permutation", "uniform",
    "normal", "exponential", "gamma", "poisson", "standard_normal",
    "binomial", "geometric", "beta", "bytes", "lognormal", "pareto",
    "triangular", "weibull", "chisquare", "dirichlet", "multinomial",
}

_UNITS_WALL = {"to_ms", "to_seconds"}
#: Callables blessing a cycle value (explicit, reviewable integerizing).
_INTEGERIZERS = {"int", "round", "floor", "ceil", "len", "max", "min", "abs"}
#: repro.units producers returning integer cycles.
_UNITS_PRODUCERS = {"ms", "us", "seconds"}
#: Op constructor -> index of its cycle-denominated argument
#: (``Critical(lock, hold)``).
_CYCLE_OP_ARGS = {"Compute": 0, "Sleep": 0, "Critical": 1}
_GENERATOR_TYPE = "numpy.random.Generator"
_STREAMS_CLASS = "RngStreams"


@dataclass
class Summary:
    """Interprocedural facts about one function, iterated to fixpoint."""

    #: tags of the returned value; ``("param", i)`` marks pass-through.
    returns: Set[Tag] = field(default_factory=set)
    #: param index -> human chain describing the cycle sink it reaches.
    param_sink: Dict[int, str] = field(default_factory=dict)
    #: param index -> modules in which that parameter is drawn from.
    param_draw_modules: Dict[int, Set[str]] = field(default_factory=dict)

    def snapshot(self) -> Tuple[object, ...]:
        return (frozenset(self.returns),
                tuple(sorted(self.param_sink.items())),
                tuple(sorted((i, tuple(sorted(m)))
                             for i, m in self.param_draw_modules.items())))


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


def cycle_sink(call: ast.Call, is_sim: Callable[[ast.expr], bool]
               ) -> Optional[Tuple[str, List[ast.expr]]]:
    """``(label, cycle-valued args)`` when ``call`` is a cycle sink.

    The sinks are ``sim.at/after/every`` on a receiver ``is_sim``
    accepts (first positional argument plus the time keywords) and the
    cycle-denominated op constructors ``Compute``/``Sleep`` (first
    argument) and ``Critical`` (the hold, index 1).  ``None`` for any
    other call.  The evaluator's ``is_sim`` accepts receivers typed as a
    ``Simulator`` or named like one (:func:`_looks_like_sim`).
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


def stream_prefix_of_arg(arg: Optional[ast.expr]) -> Optional[str]:
    """Stream-name prefix (text before the first ``/``) from a literal
    or f-string first argument of ``RngStreams.get``; ``"?"`` when the
    name is dynamic."""
    if arg is None:
        return None
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value.split("/")[0]
    if isinstance(arg, ast.JoinedStr) and arg.values:
        first = arg.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value.split("/")[0]
    return "?"


class TaintContext:
    """Shared state for one whole-project taint computation."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries: Dict[str, Summary] = {
            q: Summary() for q in project.functions}
        #: class qname -> attr name -> __init__ param index (``self.x =
        #: param`` bindings, for draws on constructor-provided RNGs).
        self.ctor_attr_params: Dict[str, Dict[str, int]] = {}
        self._collect_ctor_attr_params()

    def _collect_ctor_attr_params(self) -> None:
        for cq, cinfo in self.project.classes.items():
            init = cinfo.methods.get("__init__")
            if init is None:
                continue
            index = {name: i for i, name in enumerate(init.params)}
            binding: Dict[str, int] = {}
            for stmt in ast.walk(init.node):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    t, v = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign) \
                        and stmt.value is not None:
                    t, v = stmt.target, stmt.value
                else:
                    continue
                if isinstance(t, ast.Attribute) \
                        and isinstance(t.value, ast.Name) \
                        and t.value.id == "self":
                    names = _param_names_in(v)
                    for n in names:
                        if n in index:
                            binding.setdefault(t.attr, index[n])
                            break
            if binding:
                self.ctor_attr_params[cq] = binding


def _param_names_in(expr: ast.expr) -> List[str]:
    """Parameter-name candidates an rvalue forwards (covers ``param``,
    ``param if param is not None else ...`` and similar)."""
    out: List[str] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            out.append(node.id)
    return out


class FunctionEvaluator:
    """One ordered pass over a function body, computing expression tags
    and updating the function's :class:`Summary`."""

    def __init__(self, ctx: TaintContext, mod: ModuleInfo,
                 finfo: FunctionInfo, local: LocalTypes) -> None:
        self.ctx = ctx
        self.project = ctx.project
        self.mod = mod
        self.finfo = finfo
        self.local = local
        self.summary = ctx.summaries[finfo.qname]
        self.env: Dict[str, Set[Tag]] = {
            name: {("param", str(i))} for i, name in enumerate(finfo.params)}
        #: call-site observations the rule pass consumes:
        #: (call node, callee qname, {param idx: tags}).
        self.call_bindings: List[Tuple[ast.Call, str,
                                       Dict[int, Set[Tag]]]] = []
        #: draw sites: (call node, receiver tags).
        self.draws: List[Tuple[ast.Call, Set[Tag]]] = []
        #: direct cycle-sink args: (arg node, sink label, tags).
        self.sink_args: List[Tuple[ast.expr, str, Set[Tag]]] = []
        #: generator creation sites: (call node, "unseeded" | "adhoc").
        self.rng_creations: List[Tuple[ast.Call, str]] = []

    # -- statement walk -------------------------------------------------- #
    def run(self) -> None:
        self._block(self.finfo.node.body)

    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            tags = self.eval(stmt.value)
            for t in stmt.targets:
                self._bind(t, tags)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            tags = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = self.env.get(stmt.target.id, set()) | tags
                if isinstance(stmt.op, ast.Div):
                    merged.add(("float", "division"))
                self.env[stmt.target.id] = merged
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.summary.returns |= {
                    t for t in self.eval(stmt.value)
                    if t[0] in ("float", "ms", "param", "stream",
                                "seeded", "unseeded")}
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass          # nested defs are functions of their own
        else:
            self._children(stmt)

    def _children(self, node: ast.AST) -> None:
        """Evaluate every expression and statement under ``node`` in
        source order (blocks, handlers, ``with`` items, class bodies)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
            elif isinstance(child, ast.stmt):
                self._stmt(child)
            else:
                self._children(child)

    def _bind(self, target: ast.expr, tags: Set[Tag]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(tags)
        else:
            self.eval(target)

    # -- expression evaluation ------------------------------------------- #
    def eval(self, expr: ast.expr) -> Set[Tag]:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, float):
                return {("float", "literal")}
            return set()
        if isinstance(expr, ast.Name):
            return set(self.env.get(expr.id, set()))
        if isinstance(expr, ast.BinOp):
            tags = self.eval(expr.left) | self.eval(expr.right)
            if isinstance(expr.op, ast.Div):
                tags.add(("float", "division"))
            elif isinstance(expr.op, (ast.FloorDiv, ast.Mod,
                                      ast.LShift, ast.RShift)):
                return set()      # integerizing boundary
            return tags
        if isinstance(expr, ast.UnaryOp):
            return self.eval(expr.operand)
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test)
            return self.eval(expr.body) | self.eval(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            out: Set[Tag] = set()
            for v in expr.values:
                out |= self.eval(v)
            return out
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value)
        if isinstance(expr, ast.NamedExpr):
            tags = self.eval(expr.value)
            self._bind(expr.target, tags)
            return tags
        if isinstance(expr, (ast.Lambda, ast.ListComp, ast.SetComp,
                             ast.GeneratorExp, ast.DictComp)):
            self._inner_scope(expr)
            return set()
        self._children(expr)      # containers, comparisons, subscripts...
        return set()

    def _inner_scope(self, expr: ast.expr) -> None:
        """A lambda or comprehension body, with its own names unbound."""
        saved = self.env
        self.env = dict(saved)
        if isinstance(expr, ast.Lambda):
            self._children(expr.args)
            args = expr.args
            for a in args.posonlyargs + args.args + args.kwonlyargs \
                    + [a for a in (args.vararg, args.kwarg) if a]:
                self.env.pop(a.arg, None)
            self.eval(expr.body)
        else:
            for gen in expr.generators:   # type: ignore[attr-defined]
                self.eval(gen.iter)
                for name in ast.walk(gen.target):
                    if isinstance(name, ast.Name):
                        self.env.pop(name.id, None)
                for cond in gen.ifs:
                    self.eval(cond)
            for part in ("elt", "key", "value"):
                node = getattr(expr, part, None)
                if node is not None:
                    self.eval(node)
        self.env = saved

    def _eval_attribute(self, expr: ast.Attribute) -> Set[Tag]:
        # self.<attr> backed by a constructor parameter: carry an
        # attrparam marker so draws inside methods attribute back to the
        # __init__ parameter that supplied the generator.
        if isinstance(expr.value, ast.Name) and expr.value.id == "self" \
                and self.finfo.cls is not None:
            binding = self._class_attr_binding(self.finfo.cls, expr.attr)
            if binding is not None:
                cls, idx = binding
                return {("attrparam", cls, str(idx))}
        return set()

    def _class_attr_binding(self, cls: str,
                            attr: str) -> Optional[Tuple[str, int]]:
        seen: Set[str] = set()
        frontier = [cls]
        while frontier:
            q = frontier.pop(0)
            if q in seen:
                continue
            seen.add(q)
            binding = self.ctx.ctor_attr_params.get(q, {})
            if attr in binding:
                return q, binding[attr]
            cinfo = self.project.classes.get(q)
            if cinfo is not None:
                frontier.extend(cinfo.bases)
        return None

    # -- call handling ---------------------------------------------------- #
    def _eval_call(self, call: ast.Call) -> Set[Tag]:
        fn = call.func
        arg_tags = [self.eval(a) for a in call.args]
        recv_tags = self.eval(fn.value) if isinstance(fn, ast.Attribute) \
            else set() if isinstance(fn, ast.Name) else self.eval(fn)
        kw_tags = {kw.arg: self.eval(kw.value) for kw in call.keywords
                   if kw.arg is not None}
        for kw in call.keywords:
            if kw.arg is None:
                self.eval(kw.value)

        name = fn.id if isinstance(fn, ast.Name) else \
            fn.attr if isinstance(fn, ast.Attribute) else None
        dotted = _dotted_name(fn)
        qname = self.project.resolve_name(self.mod, dotted) \
            if dotted is not None else None

        # Conversion boundaries clear taint.
        if name in _INTEGERIZERS or qname == "sorted":
            return set()
        if (qname or "").startswith("math."):
            return set()
        if name in _UNITS_PRODUCERS and (
                qname is None or qname.endswith(f"units.{name}")
                or qname == name):
            return set()
        if name in _UNITS_WALL and (
                qname is None or qname.endswith(f"units.{name}")
                or qname == name):
            return {("ms", "local")}

        # RngStreams.get(...) -> stream-tagged generator.
        if isinstance(fn, ast.Attribute) and fn.attr in ("get", "fork"):
            recv_t = self.local.type_of_expr(fn.value)
            if recv_t is not None and recv_t.split(".")[-1] == \
                    _STREAMS_CLASS:
                if fn.attr == "fork":
                    return set()     # a new stream family, not a generator
                prefix = stream_prefix_of_arg(
                    call.args[0] if call.args else None)
                return {("stream", prefix or "?")}

        # numpy default_rng: unseeded / seeded / stream-derived.
        if qname is not None and qname.endswith("random.default_rng"):
            if not call.args and not call.keywords:
                self.rng_creations.append((call, "unseeded"))
                return {("unseeded",)}
            seed_tags = arg_tags[0] if arg_tags else \
                next(iter(kw_tags.values()), set())
            passthrough = {t for t in seed_tags
                           if t[0] in ("stream", "param", "attrparam")}
            if passthrough:
                return passthrough
            self.rng_creations.append((call, "adhoc"))
            return {("seeded",)}

        # Draws on generators.
        if isinstance(fn, ast.Attribute) and fn.attr in DRAW_METHODS:
            recv_t = self.local.type_of_expr(fn.value)
            if recv_tags or recv_t == _GENERATOR_TYPE:
                self._note_draw(call, recv_tags)
                # A draw's numeric result keeps the stream provenance so
                # default_rng(rng.integers(...)) stays stream-derived.
                return {t for t in recv_tags
                        if t[0] in ("stream", "param", "attrparam")}

        # Project calls: record bindings, substitute return summaries.
        targets = self._project_targets(call)
        if targets:
            out: Set[Tag] = set()
            for callee_q, param_offset in targets:
                binding = self._bind_args(callee_q, param_offset,
                                          arg_tags, kw_tags)
                self.call_bindings.append((call, callee_q, binding))
                self._propagate_param_summaries(callee_q, binding)
                out |= self._apply_return_summary(callee_q, binding)
            self._check_direct_sink(call)
            return out

        self._check_direct_sink(call)
        # An unresolved call may compute on its float arguments.
        return {t for tags in [*arg_tags, *kw_tags.values()] for t in tags
                if t[0] == "float"}

    def _note_draw(self, call: ast.Call, recv_tags: Set[Tag]) -> None:
        self.draws.append((call, set(recv_tags)))
        for t in recv_tags:
            if t[0] == "param":
                self.summary.param_draw_modules.setdefault(
                    int(t[1]), set()).add(self.mod.name)
            elif t[0] == "attrparam":
                cls, idx = t[1], int(t[2])
                init = self.project.lookup_method(cls, "__init__")
                if init is not None:
                    self.ctx.summaries[init.qname] \
                        .param_draw_modules.setdefault(idx, set()) \
                        .add(self.mod.name)

    def _project_targets(self, call: ast.Call
                         ) -> List[Tuple[str, int]]:
        """(callee qname, param offset) pairs; offset 1 for bound calls
        (methods/constructors, where param 0 is ``self``)."""
        fn = call.func
        dotted = _dotted_name(fn)
        out: List[Tuple[str, int]] = []
        if dotted is not None:
            qname = self.project.resolve_name(self.mod, dotted)
            if qname in self.project.functions:
                info = self.project.functions[qname]
                offset = 1 if (info.cls is not None
                               and isinstance(fn, ast.Attribute)) else 0
                return [(qname, offset)]
            if qname in self.project.classes:
                init = self.project.lookup_method(qname, "__init__")
                if init is not None:
                    return [(init.qname, 1)]
        if isinstance(fn, ast.Attribute):
            recv_t = self.local.type_of_expr(fn.value)
            if recv_t is not None and recv_t in self.project.classes:
                m = self.project.lookup_method(recv_t, fn.attr)
                if m is not None:
                    out.append((m.qname, 1))
                for sub in sorted(self.project.subclasses.get(recv_t, ())):
                    cinfo = self.project.classes.get(sub)
                    if cinfo is not None and fn.attr in cinfo.methods:
                        out.append((cinfo.methods[fn.attr].qname, 1))
        return out

    def _bind_args(self, callee_q: str, offset: int,
                   arg_tags: List[Set[Tag]],
                   kw_tags: Dict[str, Set[Tag]]) -> Dict[int, Set[Tag]]:
        callee = self.project.functions[callee_q]
        binding: Dict[int, Set[Tag]] = {}
        for pos, tags in enumerate(arg_tags):
            idx = pos + offset
            if idx < len(callee.params):
                binding[idx] = tags
        for kwname, tags in kw_tags.items():
            if kwname in callee.params:
                binding[callee.params.index(kwname)] = tags
        return binding

    def _propagate_param_summaries(self, callee_q: str,
                                   binding: Dict[int, Set[Tag]]) -> None:
        """Lift the callee's per-param facts onto whatever parameters of
        *this* function (or constructor params behind ``self.x``) were
        forwarded — so a leak laundered through a wrapper chain is still
        attributed to its concrete source."""
        callee = self.ctx.summaries[callee_q]
        for idx, tags in binding.items():
            mods = callee.param_draw_modules.get(idx)
            sink = callee.param_sink.get(idx)
            if not mods and sink is None:
                continue
            for t in tags:
                if t[0] == "param":
                    p = int(t[1])
                    if mods:
                        self.summary.param_draw_modules.setdefault(
                            p, set()).update(mods)
                    if sink is not None:
                        self.summary.param_sink.setdefault(p, sink)
                elif t[0] == "attrparam":
                    init = self.project.lookup_method(t[1], "__init__")
                    if init is not None:
                        s = self.ctx.summaries[init.qname]
                        if mods:
                            s.param_draw_modules.setdefault(
                                int(t[2]), set()).update(mods)
                        if sink is not None:
                            s.param_sink.setdefault(int(t[2]), sink)

    def _apply_return_summary(self, callee_q: str,
                              binding: Dict[int, Set[Tag]]) -> Set[Tag]:
        summary = self.ctx.summaries[callee_q]
        out: Set[Tag] = set()
        if not summary.returns:
            callee_info = self.project.functions.get(callee_q)
            if callee_info is not None \
                    and callee_info.return_type == "float":
                return {("float", "ret")}
        for t in summary.returns:
            if t[0] == "param":
                out |= binding.get(int(t[1]), set())
            elif t[0] == "float":
                out.add(("float", "ret"))
            elif t[0] == "ms":
                out.add(("ms", "ret"))
            else:
                out.add(t)
        return out

    # -- cycle sinks ------------------------------------------------------ #
    def _check_direct_sink(self, call: ast.Call) -> None:
        sink = cycle_sink(call, self._is_sim)
        if sink is None:
            return
        label, args = sink
        for arg in args:
            tags = self.eval(arg)
            self.sink_args.append((arg, label, tags))
            for t in tags:
                if t[0] == "param":
                    self.summary.param_sink.setdefault(int(t[1]), label)
                elif t[0] == "attrparam":
                    cls, idx = t[1], int(t[2])
                    init = self.project.lookup_method(cls, "__init__")
                    if init is not None:
                        self.ctx.summaries[init.qname] \
                            .param_sink.setdefault(int(idx), label)

    def _is_sim(self, receiver: ast.expr) -> bool:
        """A Simulator receiver: typed as one, or named like one."""
        recv_t = self.local.type_of_expr(receiver)
        return (recv_t is not None and recv_t.endswith(".Simulator")) \
            or _looks_like_sim(receiver)


def compute_summaries(project: Project,
                      max_rounds: int = 12) -> TaintContext:
    """Iterate function summaries to a fixpoint (bounded)."""
    ctx = TaintContext(project)
    for _ in range(max_rounds):
        before = {q: s.snapshot() for q, s in ctx.summaries.items()}
        for qname, finfo in project.functions.items():
            mod = project.modules[finfo.module]
            local = LocalTypes(project, mod, finfo)
            FunctionEvaluator(ctx, mod, finfo, local).run()
        after = {q: s.snapshot() for q, s in ctx.summaries.items()}
        if before == after:
            break
    return ctx


def evaluate_function(ctx: TaintContext,
                      finfo: FunctionInfo) -> FunctionEvaluator:
    """One more evaluation pass with frozen summaries, for reporting."""
    mod = ctx.project.modules[finfo.module]
    local = LocalTypes(ctx.project, mod, finfo)
    ev = FunctionEvaluator(ctx, mod, finfo, local)
    ev.run()
    return ev
