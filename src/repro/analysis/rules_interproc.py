"""Interprocedural rule families behind ``repro lint``.

Three whole-program determinism rules run, after the per-file rules of
:mod:`repro.analysis.simlint`, over the
:mod:`repro.analysis.engine` project index, the
:mod:`repro.analysis.callgraph` call graph and the
:mod:`repro.analysis.taint` summaries:

``rng-provenance``
    Every generator in simulation code must descend from a named, seeded
    :class:`repro.sim.rng.RngStreams` stream.  Flags ad-hoc seeded
    ``default_rng(<constant>)`` construction in sim scope (the per-file
    rule already catches *unseeded* construction), and **stream
    contamination**: a stream named for one subsystem
    (``workload/...``, ``monitor/...``, ``faults/...``, ...) being drawn
    from inside a different subsystem's modules, directly or through any
    chain of parameter forwarding — sharing one stream couples two
    subsystems' draw sequences, so adding a draw in one silently
    perturbs the other.

``cycle-unit-flow``
    Millisecond-typed values (``units.to_ms`` / ``to_seconds`` results)
    and float values that crossed a call boundary must not reach the
    cycle-denominated sinks (``sim.at/after/every``, ``Compute``,
    ``Sleep``, ``Critical``) without an explicit conversion.  The
    per-file rule sees only literals and divisions in the sink's own
    argument expression; this rule follows values through assignments,
    returns and parameters.

``transitive-wall-clock``
    A sim-scope function whose call graph reaches a wall-clock, entropy
    or environment API (``time.*``, ``datetime.now``, ``os.urandom``,
    ``uuid.*``, ``os.environ``/``getenv``, ``secrets``, stdlib
    ``random``) through at least one internal hop is flagged with the
    full call chain.  Direct calls stay the per-file ``wall-clock``
    rule's job.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import simlint
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.engine import FunctionInfo, Project
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
    "rng-provenance": "all draws trace to a named RngStreams stream; "
                      "no cross-subsystem stream sharing",
    "cycle-unit-flow": "ms-typed/float values cannot cross calls into "
                       "cycle-denominated arguments unconverted",
    "transitive-wall-clock": "sim-scope code must not reach wall-clock/"
                             "entropy/env APIs through any call chain",
}

#: Every rule ``repro lint`` knows: the per-file rules, then these.
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

#: Wall-clock reading attributes (superset of the per-file rule's list).
_TIME_ATTRS = set(simlint._WALL_CLOCK_TIME_ATTRS) | {"sleep"}
_DT_ATTRS = set(simlint._WALL_CLOCK_DT_ATTRS) | {"fromtimestamp"}
_UUID_ATTRS = {"uuid1", "uuid3", "uuid4", "uuid5", "getnode"}
_OS_BANNED = {
    "os.urandom", "os.getrandom", "os.getenv", "os.getpid",
    "os.environ.get", "os.environ.setdefault", "os.environ.pop",
    "os.environ.update",
}
_SOCKET_ATTRS = {"gethostname", "gethostbyname", "getfqdn"}


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


def _route_allows(prefix: str, module: str) -> bool:
    allowed = STREAM_ROUTES.get(prefix)
    if allowed is None:
        return True        # unrouted prefix: no contamination contract
    return any(module == a or module.startswith(a + ".")
               for a in allowed)


def _tag_kind(tags: Iterable[Tuple[str, ...]]) -> Optional[str]:
    """Pick the most specific unit-taint kind present: ms beats float."""
    kinds = {t[0] for t in tags}
    if "ms" in kinds:
        return "ms"
    if "float" in kinds:
        return "float"
    return None


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
def _check_rng(rep: _Reporter, ctx: TaintContext, finfo: FunctionInfo,
               ev: FunctionEvaluator, path: str, sim_scope: bool) -> None:
    if sim_scope:
        for call, kind in ev.rng_creations:
            if kind != "adhoc":
                continue   # unseeded construction is the per-file rule
            rep.emit(path, call.lineno, call.col_offset + 1,
                     "rng-provenance",
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
        # Local float literals/divisions at the sink are the per-file
        # float-into-cycles rule's territory; here we report only what
        # crossed a boundary (ret) or is wall-denominated (ms).
        interesting = {t for t in tags
                       if t[0] == "ms" or t == ("float", "ret")}
        kind = _tag_kind(interesting)
        if kind is None:
            continue
        what = "millisecond-typed value" if kind == "ms" else \
            "float value returned from a call"
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
            kind = _tag_kind(t for t in tags if t[0] in ("ms", "float"))
            if kind is None:
                continue
            what = "millisecond-typed value" if kind == "ms" else \
                "float value"
            rep.emit(path, call.lineno, call.col_offset + 1,
                     "cycle-unit-flow",
                     f"{what} passed to {callee_q} flows into the cycle "
                     f"argument of {sink} inside the callee; convert "
                     f"before the call")


# --------------------------------------------------------------------- #
# transitive-wall-clock
# --------------------------------------------------------------------- #
def _check_transitive(rep: _Reporter, graph: CallGraph, project: Project,
                      finfo: FunctionInfo, path: str) -> None:
    chains = graph.reachable_externals(finfo.qname)
    for external in sorted(chains):
        if not _banned_external(external):
            continue
        chain = chains[external]
        if len(chain) < 2:
            continue       # direct call: the per-file wall-clock rule
        hops = " -> ".join(site.callee for site in chain[:-1])
        first = chain[0]
        rep.emit(path, first.line, first.col, "transitive-wall-clock",
                 f"sim-scope function {finfo.qname} reaches "
                 f"{external}() via {hops}; simulation code must be "
                 f"closed over sim.now and RngStreams")


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #
def run_interproc_rules(project: Project,
                        rules: Optional[Iterable[str]] = None,
                        assume_sim: bool = False) -> List[Violation]:
    """Run the interprocedural rule families over an indexed project."""
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
    for qname in sorted(project.functions):
        finfo = project.functions[qname]
        mod = project.modules[finfo.module]
        path = str(mod.path)
        sim_scope = scope[finfo.module]
        ev = evaluate_function(ctx, finfo)
        if "rng-provenance" in active:
            _check_rng(rep, ctx, finfo, ev, path, sim_scope)
        if "cycle-unit-flow" in active:
            _check_cycles(rep, ctx, ev, path)
        if "transitive-wall-clock" in active and sim_scope:
            _check_transitive(rep, graph, project, finfo, path)
    return rep.found
