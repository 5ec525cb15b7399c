"""The whole-program determinism rules behind ``repro lint``.

One rule per determinism contract, run over the
:mod:`repro.analysis.engine` project index (every function, nested
``def``s and each module's top-level code included), the
:mod:`repro.analysis.callgraph` call graph and the
:mod:`repro.analysis.taint` summaries.  Each rule covers the direct case
(a call or value in the same function) and the case that crosses calls
alike; the other rules of ``repro lint`` are the AST visitors of
:mod:`repro.analysis.simlint`.

``wall-clock``
    A sim-scope function whose call graph reaches a wall-clock, entropy
    or environment API (``time.*``, ``datetime.now``, ``os.urandom``,
    ``uuid.*``, ``os.environ``/``getenv``, ``secrets``, stdlib
    ``random``) through a call chain of any length, a direct call
    included, is flagged with the chain; so is a sim-scope ``import`` of
    ``time`` or ``datetime``.

``rng-provenance``
    Every generator in simulation code must descend from a named, seeded
    :class:`repro.sim.rng.RngStreams` stream.  Flags sim-scope stdlib
    ``random`` (imports and calls), numpy's legacy global RNG, unseeded
    ``default_rng()`` and ad-hoc seeded ``default_rng(<constant>)``; and,
    in any scope, **stream contamination**: a stream named for one
    subsystem (``workload/...``, ``monitor/...``, ``faults/...``, ...)
    being drawn from inside a different subsystem's modules, directly or
    through any chain of parameter forwarding — sharing one stream
    couples two subsystems' draw sequences, so adding a draw in one
    silently perturbs the other.

``cycle-unit-flow``
    Float values (literals, true divisions, float-returning calls) and
    millisecond-typed values (``units.to_ms`` / ``to_seconds`` results)
    must not reach the cycle-denominated sinks (``sim.at/after/every``,
    ``Compute``, ``Sleep``, ``Critical``) without an explicit
    conversion, whether in the sink's own argument, through locals, or
    through returns and parameters.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import simlint
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.engine import FunctionInfo, ModuleInfo, Project
from repro.analysis.simlint import Violation
from repro.analysis.taint import (FunctionEvaluator, TaintContext,
                                  compute_summaries, evaluate_function)

__all__ = [
    "ALL_RULES",
    "INTERPROC_RULES",
    "STREAM_ROUTES",
    "run_interproc_rules",
]

#: Rule id -> one-line description (merged into --list-rules).
INTERPROC_RULES: Dict[str, str] = {
    "wall-clock": "sim-scope code must not reach wall-clock/entropy/env "
                  "APIs through any call chain",
    "rng-provenance": "all draws trace to a named RngStreams stream; "
                      "no stdlib/global RNG, no cross-subsystem sharing",
    "cycle-unit-flow": "ms-typed/float values cannot reach "
                       "cycle-denominated arguments unconverted",
}

#: Every rule ``repro lint`` knows: the AST rules, then these.
ALL_RULES: Dict[str, str] = {**simlint.RULES, **INTERPROC_RULES}

#: Stream-name prefix -> module prefixes allowed to draw from it.  The
#: experiments package is the wiring layer and may touch any stream it
#: routes; everything else is subsystem-exclusive.
STREAM_ROUTES: Dict[str, Tuple[str, ...]] = {
    "workload": ("repro.workloads", "repro.guest", "repro.experiments"),
    "monitor": ("repro.asman", "repro.experiments"),
    "learner": ("repro.asman",),
    "faults": ("repro.faults", "repro.experiments"),
    "conformance": ("repro.conformance",),
    # Driver-level streams: supervised-retry backoff jitter and the
    # chaos harness's injection schedule both live one level above the
    # simulation, in the parallel fabric only.
    "supervisor": ("repro.parallel",),
    "chaos": ("repro.parallel",),
}

_TIME_ATTRS = {
    "time", "monotonic", "perf_counter", "process_time", "time_ns",
    "monotonic_ns", "perf_counter_ns", "localtime", "gmtime", "sleep",
}
_DT_ATTRS = {"now", "utcnow", "today", "fromtimestamp"}
_UUID_ATTRS = {"uuid1", "uuid3", "uuid4", "uuid5", "getnode"}
_OS_BANNED = {
    "os.urandom", "os.getrandom", "os.getenv", "os.getpid",
    "os.environ.get", "os.environ.setdefault", "os.environ.pop",
    "os.environ.update",
}
_SOCKET_ATTRS = {"gethostname", "gethostbyname", "getfqdn"}
#: numpy legacy global-state RNG entry points (``numpy.random.<attr>``).
_NUMPY_LEGACY_RNG = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "uniform",
    "normal", "standard_normal", "exponential", "poisson", "bytes",
}


def _banned_external(qname: str) -> bool:
    """Is this external callee a wall-clock / entropy / env API?"""
    parts = qname.split(".")
    head, leaf = parts[0], parts[-1]
    if head == "time":
        return len(parts) == 1 or leaf in _TIME_ATTRS
    if head == "datetime":
        return leaf in _DT_ATTRS
    if head == "uuid":
        return len(parts) == 1 or leaf in _UUID_ATTRS
    if head in ("secrets", "random"):
        return True
    if head == "socket":
        return leaf in _SOCKET_ATTRS
    return qname in _OS_BANNED


def _global_rng(qname: str) -> bool:
    """Is this external callee stdlib ``random`` or numpy's legacy
    global-state RNG?"""
    parts = qname.split(".")
    return parts[0] == "random" or (
        len(parts) == 3 and parts[:2] == ["numpy", "random"]
        and parts[2] in _NUMPY_LEGACY_RNG)


def _route_allows(prefix: str, module: str) -> bool:
    allowed = STREAM_ROUTES.get(prefix)
    if allowed is None:
        return True        # unrouted prefix: no contamination contract
    return any(module == a or module.startswith(a + ".")
               for a in allowed)


def _unit_kind(tags: Iterable[Tuple[str, ...]]) -> Optional[str]:
    """Describe the most specific unit taint present: ms, then a float
    that crossed a call, then a true division, then a float literal."""
    kinds = {t for t in tags if t[0] in ("ms", "float")}
    if any(t[0] == "ms" for t in kinds):
        return "millisecond-typed value"
    for tag, what in ((("float", "ret"), "float value returned from a call"),
                      (("float", "division"), "true division"),
                      (("float", "literal"), "float literal")):
        if tag in kinds:
            return what
    return None


def _who(finfo: FunctionInfo) -> str:
    return f"module-level code of {finfo.module}" if finfo.toplevel \
        else f"sim-scope function {finfo.qname}"


class _Reporter:
    """Accumulates violations, deduplicating per (path, line, rule)."""

    def __init__(self) -> None:
        self._seen: Set[Tuple[str, int, str]] = set()
        self.found: List[Violation] = []

    def emit(self, path: str, line: int, col: int, rule: str,
             message: str) -> None:
        key = (path, line, rule)
        if key in self._seen:
            return
        self._seen.add(key)
        self.found.append(Violation(path=path, line=line, col=col,
                                    rule=rule, message=message))


# --------------------------------------------------------------------- #
# rng-provenance
# --------------------------------------------------------------------- #
def _check_imports(rep: _Reporter, mod: ModuleInfo, path: str) -> None:
    """Sim-scope imports of the wall clock and of stdlib ``random``."""
    for node, target in mod.import_sites:
        root = target.split(".")[0]
        if root in ("time", "datetime"):
            rep.emit(path, node.lineno, node.col_offset + 1, "wall-clock",
                     f"import of {target!r}: simulation code must use "
                     f"sim.now, not wall-clock time")
        elif root == "random":
            rep.emit(path, node.lineno, node.col_offset + 1,
                     "rng-provenance",
                     "import of stdlib 'random': use seeded "
                     "repro.sim.rng.RngStreams instead")


def _check_rng(rep: _Reporter, ctx: TaintContext, graph: CallGraph,
               finfo: FunctionInfo, ev: FunctionEvaluator, path: str,
               sim_scope: bool) -> None:
    if sim_scope:
        for site in graph.callees_of(finfo.qname):
            if site.external and _global_rng(site.callee):
                rep.emit(path, site.line, site.col, "rng-provenance",
                         f"{site.callee}() is a process-global RNG in "
                         f"simulation code; use a named RngStreams stream")
        for call, kind in ev.rng_creations:
            rep.emit(path, call.lineno, call.col_offset + 1,
                     "rng-provenance",
                     "numpy.random.default_rng() without a seed draws OS "
                     "entropy; use a named rng.get(...) stream"
                     if kind == "unseeded" else
                     "ad-hoc seeded default_rng() in simulation code: "
                     "the seed does not derive from RngStreams, so this "
                     "generator is outside the experiment's seed tree; "
                     "use a named rng.get(...) stream")
    module = finfo.module
    for call, recv_tags in ev.draws:
        for t in recv_tags:
            if t[0] == "stream" and not _route_allows(t[1], module):
                rep.emit(path, call.lineno, call.col_offset + 1,
                         "rng-provenance",
                         f"stream '{t[1]}/...' drawn from {module}: "
                         f"subsystems must not share RNG streams "
                         f"(allowed under "
                         f"{', '.join(STREAM_ROUTES[t[1]])})")
    for call, callee_q, binding in ev.call_bindings:
        callee = ctx.summaries[callee_q]
        for idx, tags in binding.items():
            draw_mods = callee.param_draw_modules.get(idx)
            if not draw_mods:
                continue
            for t in tags:
                if t[0] != "stream":
                    continue
                bad = sorted(m for m in draw_mods
                             if not _route_allows(t[1], m))
                if bad:
                    rep.emit(path, call.lineno, call.col_offset + 1,
                             "rng-provenance",
                             f"stream '{t[1]}/...' passed to {callee_q} "
                             f"is drawn from {', '.join(bad)}: "
                             f"subsystems must not share RNG streams")


# --------------------------------------------------------------------- #
# cycle-unit-flow
# --------------------------------------------------------------------- #
def _check_cycles(rep: _Reporter, ctx: TaintContext,
                  ev: FunctionEvaluator, path: str) -> None:
    for arg, label, tags in ev.sink_args:
        what = _unit_kind(tags)
        if what is not None:
            rep.emit(path, arg.lineno, arg.col_offset + 1, "cycle-unit-flow",
                     f"{what} reaches the cycle argument of {label}; "
                     f"convert with repro.units (ms/us/seconds) or "
                     f"integerize explicitly")
    for call, callee_q, binding in ev.call_bindings:
        callee = ctx.summaries[callee_q]
        for idx, tags in binding.items():
            sink = callee.param_sink.get(idx)
            if sink is None:
                continue
            what = _unit_kind(tags)
            if what is None:
                continue
            if what != "millisecond-typed value":
                what = "float value"
            rep.emit(path, call.lineno, call.col_offset + 1,
                     "cycle-unit-flow",
                     f"{what} passed to {callee_q} flows into the cycle "
                     f"argument of {sink} inside the callee; convert "
                     f"before the call")


# --------------------------------------------------------------------- #
# wall-clock
# --------------------------------------------------------------------- #
def _check_wall_clock(rep: _Reporter, graph: CallGraph, finfo: FunctionInfo,
                      path: str) -> None:
    """Every direct call site, then the shortest chain to each banned
    API; a direct stdlib ``random`` call is rng-provenance's."""
    chains = graph.reachable_externals(finfo.qname)
    for chain in [[site] for site in graph.callees_of(finfo.qname)
                  if site.external] + [chains[ext] for ext in sorted(chains)]:
        external = chain[-1].callee
        if not _banned_external(external) \
                or (len(chain) == 1 and _global_rng(external)):
            continue
        how = f"calls {external}() directly" if len(chain) == 1 else \
            f"reaches {external}() via " + \
            " -> ".join(site.callee for site in chain[:-1])
        rep.emit(path, chain[0].line, chain[0].col, "wall-clock",
                 f"{_who(finfo)} {how}; simulation code must be closed "
                 f"over sim.now and RngStreams")


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #
def run_interproc_rules(project: Project,
                        rules: Optional[Iterable[str]] = None,
                        assume_sim: bool = False) -> List[Violation]:
    """Run the whole-program rules over an indexed project."""
    active = set(rules) if rules is not None else set(INTERPROC_RULES)
    unknown = active - set(INTERPROC_RULES)
    if unknown:
        raise ValueError(
            f"unknown interprocedural rule(s): {sorted(unknown)}")
    graph = build_call_graph(project)
    ctx = compute_summaries(project)
    rep = _Reporter()
    scope: Dict[str, bool] = {
        name: simlint._scope_of(mod.path, assume_sim)[0]
        for name, mod in project.modules.items()}
    for name in sorted(project.modules):
        if scope[name]:
            _check_imports(rep, project.modules[name],
                           str(project.modules[name].path))
    for qname in sorted(project.functions):
        finfo = project.functions[qname]
        path = str(project.modules[finfo.module].path)
        sim_scope = scope[finfo.module]
        ev = evaluate_function(ctx, finfo)
        _check_rng(rep, ctx, graph, finfo, ev, path, sim_scope)
        _check_cycles(rep, ctx, ev, path)
        if sim_scope:
            _check_wall_clock(rep, graph, finfo, path)
    return [v for v in rep.found if v.rule in active]
