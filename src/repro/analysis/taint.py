"""Forward dataflow / taint lattice over the project call graph.

Two value families are tracked through assignments, arithmetic, calls
and returns:

* **unit taint** — ``("float", src)`` for float-valued expressions
  (literals, true division, float-returning helpers) and ``("ms", src)``
  for wall-denominated values (``units.to_ms`` / ``units.to_seconds``
  results).  ``src`` distinguishes ``"local"`` taint (visible to the
  per-file rules) from ``"ret"`` taint that crossed a call boundary.
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

Conversion points are trusted boundaries, exactly like the per-file
rules: ``units.ms/us/seconds``, ``int``/``round``/``math.floor``/
``math.ceil`` and floor division all clear taint — the conversion is
visible and auditable, which is the contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import simlint
from repro.analysis.callgraph import LocalTypes
from repro.analysis.engine import (FunctionInfo, ModuleInfo, Project,
                                   _dotted_name)

__all__ = [
    "DRAW_METHODS",
    "Summary",
    "TaintContext",
    "Tag",
    "compute_summaries",
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
                if isinstance(t, ast.Name):
                    self.env[t.id] = set(tags)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = set(self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                tags = self.eval(stmt.value)
                merged = self.env.get(stmt.target.id, set()) | tags
                if isinstance(stmt.op, ast.Div):
                    merged.add(("float", "local"))
                self.env[stmt.target.id] = merged
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.summary.returns |= {
                    t for t in self.eval(stmt.value)
                    if t[0] in ("float", "ms", "param", "stream",
                                "seeded", "unseeded")}
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass          # nested scopes get their own FunctionInfo pass
        elif isinstance(stmt, ast.Raise) and stmt.exc is not None:
            self.eval(stmt.exc)

    # -- expression evaluation ------------------------------------------- #
    def eval(self, expr: ast.expr) -> Set[Tag]:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, float):
                return {("float", "local")}
            return set()
        if isinstance(expr, ast.Name):
            return set(self.env.get(expr.id, set()))
        if isinstance(expr, ast.BinOp):
            tags = self.eval(expr.left) | self.eval(expr.right)
            if isinstance(expr.op, ast.Div):
                tags.add(("float", "local"))
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
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self.eval(elt)
            return set()
        if isinstance(expr, ast.Compare):
            self.eval(expr.left)
            for c in expr.comparators:
                self.eval(c)
            return set()
        if isinstance(expr, ast.Subscript):
            self.eval(expr.value)
            return set()
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value)
        return set()

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
        if name in simlint._INTEGERIZERS or qname == "sorted":
            return set()
        if (qname or "").startswith("math."):
            return set()
        if name in simlint._UNITS_PRODUCERS and (
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
            recv_tags = self.eval(fn.value)
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
        return set()

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
        sink = simlint.cycle_sink(call, self._is_sim)
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
            or simlint._looks_like_sim(receiver)


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
