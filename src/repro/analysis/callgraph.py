"""Project call graph over a :class:`repro.analysis.engine.Project`.

Every function/method body is walked once; each ``ast.Call`` is resolved
to one or more callee qualified names:

* plain names through the module's import/alias tables;
* ``module.attr`` through import resolution (``time.time`` ->
  external node ``time.time``);
* ``self.method()`` through the owning class's project-local MRO;
* attribute receivers through the engine's type layer (annotations,
  ``self.x = <typed param>``, constructor assignments) with **virtual
  dispatch**: a call on a ``SchedulerBase``-typed receiver adds edges to
  every project subclass override — this is how the scheduler registry's
  indirection (``make_scheduler(name)(...)``) stays visible;
* calls on a ``Type[X]``-returning factory's result dispatch to ``X``
  and all its subclasses' constructors.

External callees (stdlib, numpy) become leaf nodes named by their
resolved dotted path, which is exactly what the transitive wall-clock /
entropy reachability rule consumes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import (FunctionInfo, ModuleInfo, Project,
                                   _TYPE_OF, _dotted_name)

__all__ = ["CallGraph", "CallSite", "LocalTypes", "build_call_graph"]


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge with its source anchor."""

    caller: str      #: caller function qname
    callee: str      #: callee qname (project function or external dotted)
    line: int
    col: int
    external: bool   #: True when the callee is not a project function


class LocalTypes:
    """Single-pass local variable typing inside one function body.

    Tracks ``x = ClassName(...)``, ``x = self.attr`` (typed attribute),
    ``x = f(...)`` with an annotated return, annotated assignments and
    parameter annotations.  Deliberately flow-insensitive past the first
    binding — good enough for the idioms this codebase uses, and wrong
    bindings only widen the call graph (never hide an edge).
    """

    def __init__(self, project: Project, mod: ModuleInfo,
                 finfo: FunctionInfo) -> None:
        self.project = project
        self.mod = mod
        self.finfo = finfo
        self.types: Dict[str, str] = dict(finfo.param_types)
        if finfo.cls is not None:
            self.types.setdefault("self", finfo.cls)
        for stmt in finfo.walk():
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                anno = project.resolve_annotation(mod, stmt.annotation)
                if anno is not None:
                    self.types.setdefault(stmt.target.id, anno)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                inferred = self.type_of_expr(stmt.value)
                if inferred is not None:
                    self.types.setdefault(stmt.targets[0].id, inferred)

    def type_of_expr(self, expr: ast.expr) -> Optional[str]:
        """Static type qname of an expression, or None."""
        if isinstance(expr, ast.Name):
            return self.types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of_expr(expr.value)
            if base is not None and not base.startswith(_TYPE_OF):
                return self.project.attr_type(base, expr.attr)
            # module attribute: resolve through imports
            dotted = _dotted_name(expr)
            if dotted is not None:
                resolved = self.project.resolve_name(self.mod, dotted)
                if resolved in self.project.classes:
                    return _TYPE_OF + resolved
            return None
        if isinstance(expr, ast.Call):
            return self._type_of_call(expr)
        return None

    def _type_of_call(self, call: ast.Call) -> Optional[str]:
        fn = call.func
        dotted = _dotted_name(fn)
        if dotted is not None:
            qname = self.project.resolve_name(self.mod, dotted)
            if qname in self.project.classes:
                return qname          # constructor -> instance
            callee = self.project.functions.get(qname)
            if callee is None and isinstance(fn, ast.Attribute):
                recv_t = self.type_of_expr(fn.value)
                if recv_t is not None:
                    m = self.project.lookup_method(recv_t, fn.attr)
                    if m is not None:
                        callee = m
            if callee is not None and callee.return_type is not None:
                return callee.return_type
            return None
        if isinstance(fn, ast.Call):
            # f(...)(...): if f returns Type[X], the outer call builds X.
            inner = self._type_of_call(fn)
            if inner is not None and inner.startswith(_TYPE_OF):
                return inner[len(_TYPE_OF):]
        if isinstance(fn, ast.Attribute):
            recv_t = self.type_of_expr(fn.value)
            if recv_t is not None:
                if recv_t.startswith(_TYPE_OF):
                    return None
                m = self.project.lookup_method(recv_t, fn.attr)
                if m is not None and m.return_type is not None:
                    return m.return_type
        return None


class CallGraph:
    """Adjacency over function qnames, with per-edge call sites."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.edges: Dict[str, List[CallSite]] = {}
        self.callers: Dict[str, Set[str]] = {}

    def add(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, []).append(site)
        self.callers.setdefault(site.callee, set()).add(site.caller)

    def callees_of(self, qname: str) -> Sequence[CallSite]:
        return self.edges.get(qname, ())

    def reachable_externals(self, start: str) -> Dict[str, List[CallSite]]:
        """Map external callee -> shortest call-site chain from ``start``.

        The chain lists the internal hops in order, ending with the site
        of the external call itself.
        """
        chains: Dict[str, List[CallSite]] = {}
        seen: Set[str] = {start}
        frontier: List[Tuple[str, List[CallSite]]] = [(start, [])]
        while frontier:
            next_frontier: List[Tuple[str, List[CallSite]]] = []
            for qname, chain in frontier:
                for site in self.callees_of(qname):
                    if site.external:
                        if site.callee not in chains:
                            chains[site.callee] = chain + [site]
                        continue
                    if site.callee in seen:
                        continue
                    seen.add(site.callee)
                    next_frontier.append((site.callee, chain + [site]))
            frontier = next_frontier
        return chains


def build_call_graph(project: Project) -> CallGraph:
    """Resolve every call in every project function into graph edges."""
    graph = CallGraph(project)
    for qname, finfo in project.functions.items():
        mod = project.modules[finfo.module]
        local = LocalTypes(project, mod, finfo)
        for node in finfo.walk():
            if isinstance(node, ast.Call):
                for callee, external in _resolve_call(project, mod, local,
                                                      node):
                    graph.add(CallSite(
                        caller=qname, callee=callee, line=node.lineno,
                        col=node.col_offset + 1, external=external))
    return graph


def _constructor_targets(project: Project, class_qname: str
                         ) -> Iterable[Tuple[str, bool]]:
    """Edges for constructing ``class_qname`` or any subclass of it."""
    for cq in [class_qname, *sorted(project.subclasses.get(class_qname,
                                                           ()))]:
        init = project.lookup_method(cq, "__init__")
        if init is not None:
            yield init.qname, False


def _method_targets(project: Project, recv_type: str, method: str
                    ) -> List[Tuple[str, bool]]:
    """Static target + virtual-dispatch overrides for one method call."""
    out: List[Tuple[str, bool]] = []
    base = project.lookup_method(recv_type, method)
    if base is not None:
        out.append((base.qname, False))
    for sub in sorted(project.subclasses.get(recv_type, ())):
        cinfo = project.classes.get(sub)
        if cinfo is not None and method in cinfo.methods:
            out.append((cinfo.methods[method].qname, False))
    return out


def _resolve_call(project: Project, mod: ModuleInfo, local: LocalTypes,
                  call: ast.Call) -> List[Tuple[str, bool]]:
    """All (callee qname, is_external) targets for one call node."""
    fn = call.func
    # f(...)(...) — Type[X] factories (the scheduler registry pattern).
    if isinstance(fn, ast.Call):
        inner = local._type_of_call(fn)
        if inner is not None and inner.startswith(_TYPE_OF):
            return list(_constructor_targets(project,
                                             inner[len(_TYPE_OF):]))
        return []
    dotted = _dotted_name(fn)
    if isinstance(fn, ast.Name):
        # Local variable holding a class object (Type[X]).
        held = local.types.get(fn.id)
        if held is not None and held.startswith(_TYPE_OF):
            return list(_constructor_targets(project, held[len(_TYPE_OF):]))
        qname = project.resolve_name(mod, fn.id)
        if qname in project.classes:
            return list(_constructor_targets(project, qname))
        if qname in project.functions:
            return [(qname, False)]
        if qname != fn.id or fn.id in mod.imports:
            return [(qname, True)]      # resolved external symbol
        return []                        # builtin / unknown local
    if isinstance(fn, ast.Attribute):
        recv = fn.value
        recv_type = local.type_of_expr(recv)
        if recv_type is not None:
            if recv_type.startswith(_TYPE_OF):
                cls = recv_type[len(_TYPE_OF):]
                if fn.attr == "__init__" or fn.attr == "__call__":
                    return list(_constructor_targets(project, cls))
                return _method_targets(project, cls, fn.attr)
            if recv_type in project.classes:
                targets = _method_targets(project, recv_type, fn.attr)
                if targets:
                    return targets
                return []
            # External receiver type (e.g. numpy.random.Generator).
            return [(f"{recv_type}.{fn.attr}", True)]
        if dotted is not None:
            qname = project.resolve_name(mod, dotted)
            if qname in project.functions:
                return [(qname, False)]
            if qname in project.classes:
                return list(_constructor_targets(project, qname))
            head = dotted.split(".")[0]
            if head in mod.imports or head in mod.assigns:
                return [(qname, True)]
            prefix = qname.rsplit(".", 1)[0]
            if prefix in project.modules:
                # attribute of a project module that is not a function
                # (constant, registry dict): no edge.
                return []
        # Unresolvable receiver: drop the edge rather than guess.
        return []
    return []
