"""Whole-program analysis engine for the reproduction (simlint v2).

An AST visitor cannot see a ``time.time()`` reached through two helper
calls, an unseeded generator laundered through a wrapper, or a
millisecond value flowing into a cycle-denominated argument across a
function boundary.  This module adds the substrate the determinism rules
need, for the direct case and the cross-call case alike:

* :class:`Project` — a module indexer over one package tree: every file
  parsed once, imports resolved to fully-qualified names, classes,
  methods, base classes and instance-attribute types collected into a
  queryable symbol table.  Every function is indexed — methods, nested
  functions (``outer.<locals>.inner``) and one ``<module>``
  pseudo-function per module holding its top-level code.
* a light type-inference layer (annotations, ``self.x = param``
  propagation, constructor assignments, ``Type[X]`` factory returns)
  that :mod:`repro.analysis.callgraph` uses for method resolution —
  including virtual dispatch through the scheduler registry's
  ``SchedulerBase`` surface and the ``CellSpec``/``FaultSpec``
  dataclass fields.
* :class:`AnalysisReport` — every finding of one run.  There is no
  waiver: any finding fails ``repro lint``, and a false positive is
  fixed in its rule.

The whole-program rules themselves live in
:mod:`repro.analysis.rules_interproc`, the AST visitors in
:mod:`repro.analysis.simlint`.  :func:`analyze` is the one lint
entry point: ``python -m repro lint [ROOT]`` runs it over a package
root, or over one file's enclosing package with reporting confined to
that file (:func:`package_root`).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Set, Tuple,
                    Union)

from repro.analysis import simlint
from repro.analysis.simlint import Violation

__all__ = [
    "AnalysisReport",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "analyze",
    "package_root",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Marker prefix for ``Type[X]`` annotations: a value holding the class
#: object itself (calling it constructs an X).
_TYPE_OF = "type:"

#: Name of each module's pseudo-function: the code at its top level.
MODULE_SCOPE = "<module>"


# --------------------------------------------------------------------- #
# Symbol table dataclasses
# --------------------------------------------------------------------- #
@dataclass
class FunctionInfo:
    """One function or method, with resolved parameter/return types."""

    qname: str                      #: e.g. ``repro.vmm.credit.CreditScheduler.schedule``
    module: str                     #: defining module's dotted name
    cls: Optional[str]              #: owning class qname, or None
    node: FunctionNode
    params: List[str] = field(default_factory=list)
    param_types: Dict[str, str] = field(default_factory=dict)
    return_type: Optional[str] = None
    #: the module-body pseudo-function (``<module>``), not a real ``def``.
    toplevel: bool = False

    def walk(self) -> Iterator[ast.AST]:
        """Every node of this function's code, breadth-first: the whole
        ``def``, nested closures included (a caller reaches what its
        closures reach); for the module pseudo-function, the top-level
        code outside any ``def``."""
        if not self.toplevel:
            yield from ast.walk(self.node)
            return
        todo = deque([self.node])
        while todo:
            node = todo.popleft()
            yield node
            if node is self.node or not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.extend(ast.iter_child_nodes(node))


@dataclass
class ClassInfo:
    """One class: resolved bases, methods, instance-attribute types."""

    qname: str
    module: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: instance attribute -> resolved type qname (dataclass fields,
    #: ``self.x: T`` annotations, ``self.x = <typed param>`` assignments).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module with its import table and top-level symbols."""

    name: str
    path: Path
    source: str
    tree: ast.Module
    #: local alias -> fully-qualified target (``np`` -> ``numpy``,
    #: ``ms`` -> ``repro.units.ms``, ``FaultSpec`` ->
    #: ``repro.faults.spec.FaultSpec``).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level straight aliases (``X = SomeClass``).
    assigns: Dict[str, str] = field(default_factory=dict)
    #: every import statement with the module it imports (``import a.b``
    #: -> ``a.b``; ``from .x import y`` -> ``<package>.x``).
    import_sites: List[Tuple[ast.stmt, str]] = field(default_factory=list)


# --------------------------------------------------------------------- #
# Project indexing
# --------------------------------------------------------------------- #
class Project:
    """An indexed package tree, queryable by fully-qualified name."""

    def __init__(self, root: Path, package: str) -> None:
        self.root = root
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: class qname -> transitive subclass qnames (project classes).
        self.subclasses: Dict[str, Set[str]] = {}

    # -- construction --------------------------------------------------- #
    @classmethod
    def load(cls, root: Union[str, Path]) -> "Project":
        """Index every ``*.py`` under ``root`` (a package directory).

        The package's dotted name is the directory name; submodules are
        named relative to it (``<root>/vmm/credit.py`` ->
        ``<root.name>.vmm.credit``).
        """
        root = Path(root).resolve()
        if not root.is_dir():
            raise ValueError(f"project root {root} is not a directory")
        project = cls(root, root.name)
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            parts = [root.name] + list(rel.parts[:-1])
            stem = rel.parts[-1][:-3]
            if stem != "__init__":
                parts.append(stem)
            modname = ".".join(parts)
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
            project.modules[modname] = ModuleInfo(
                name=modname, path=path, source=source, tree=tree)
        for mod in project.modules.values():
            project._index_module(mod)
        for finfo in project.functions.values():
            project._resolve_signature(project.modules[finfo.module], finfo)
        for mod in project.modules.values():
            project._resolve_types(mod)
        project._build_subclass_map()
        return project

    # -- pass 1: imports + defs ----------------------------------------- #
    def _index_module(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    mod.imports[local] = target
                    mod.import_sites.append((node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(mod, node)
                if base is None:
                    continue
                mod.import_sites.append((node, base))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{base}.{alias.name}"
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.functions[stmt.name] = self._add_function(
                    mod, f"{mod.name}.{stmt.name}", None, stmt)
            elif isinstance(stmt, ast.ClassDef):
                cinfo = ClassInfo(qname=f"{mod.name}.{stmt.name}",
                                  module=mod.name, node=stmt)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        cinfo.methods[item.name] = self._add_function(
                            mod, f"{cinfo.qname}.{item.name}", cinfo.qname,
                            item)
                mod.classes[stmt.name] = cinfo
                self.classes[cinfo.qname] = cinfo
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Name):
                mod.assigns[stmt.targets[0].id] = stmt.value.id
        # The module body runs too (at import): index it as one more
        # function, so every rule sees top-level code.
        body = ast.FunctionDef(
            name=MODULE_SCOPE, args=ast.arguments(
                posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                kw_defaults=[], kwarg=None, defaults=[]),
            body=mod.tree.body, decorator_list=[], returns=None,
            lineno=1, col_offset=0)
        self._add_function(mod, f"{mod.name}.{MODULE_SCOPE}", None, body,
                           toplevel=True)

    def _add_function(self, mod: ModuleInfo, qname: str, cls: Optional[str],
                      node: FunctionNode,
                      toplevel: bool = False) -> FunctionInfo:
        """Index one function and, recursively, the ``def``s nested in
        it (``outer.<locals>.inner``)."""
        earlier = self.functions.pop(qname, None)
        if earlier is not None:
            # A redefinition (property setter, sibling closures): the
            # last keeps the name, as at runtime; every body is indexed.
            earlier.qname = f"{qname}@{earlier.node.lineno}"
            self.functions[earlier.qname] = earlier
        info = FunctionInfo(qname=qname, module=mod.name, cls=cls,
                            node=node, toplevel=toplevel)
        self.functions[qname] = info
        if not toplevel:
            for inner in _nested_defs(node):
                self._add_function(mod, f"{qname}.<locals>.{inner.name}",
                                   None, inner)
        return info

    def _import_base(self, mod: ModuleInfo,
                     node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted prefix for a ``from X import ...`` statement."""
        if node.level == 0:
            return node.module
        # Relative import: climb from the importing module's package.
        parts = mod.name.split(".")
        # A module's own package is its name minus the leaf (packages
        # themselves — __init__ — already are the package name).
        is_pkg = mod.path.name == "__init__.py"
        pkg_parts = parts if is_pkg else parts[:-1]
        up = node.level - 1
        if up > len(pkg_parts):
            return None
        base_parts = pkg_parts[:len(pkg_parts) - up]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    # -- name / annotation resolution ----------------------------------- #
    def resolve_name(self, mod: ModuleInfo, dotted: str) -> str:
        """Resolve a possibly-aliased dotted name to a fully-qualified
        one; unknown names pass through unchanged (external symbols)."""
        head, _, rest = dotted.partition(".")
        target: Optional[str] = None
        if head in mod.imports:
            target = mod.imports[head]
        elif head in mod.assigns:
            target = self.resolve_name(mod, mod.assigns[head])
        elif head in mod.functions or head in mod.classes:
            target = f"{mod.name}.{head}"
        if target is None:
            target = head
        return f"{target}.{rest}" if rest else target

    def resolve_annotation(self, mod: ModuleInfo,
                           node: Optional[ast.expr]) -> Optional[str]:
        """Best-effort type qname for an annotation expression.

        Handles names, dotted names, string annotations, ``Optional[X]``
        / ``Union[X, None]`` unwrapping and ``Type[X]`` (returned with a
        ``type:`` prefix).  Container annotations resolve to ``None`` —
        this layer tracks nominal object types only.
        """
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return self.resolve_annotation(mod, parsed)
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = _dotted_name(node)
            return self.resolve_name(mod, dotted) if dotted else None
        if isinstance(node, ast.Subscript):
            base = _dotted_name(node.value)
            if base is None:
                return None
            resolved = self.resolve_name(mod, base)
            tail = resolved.rsplit(".", 1)[-1]
            if tail in ("Optional", "Union"):
                elts = node.slice.elts \
                    if isinstance(node.slice, ast.Tuple) else [node.slice]
                for elt in elts:
                    if isinstance(elt, ast.Constant) and elt.value is None:
                        continue
                    inner = self.resolve_annotation(mod, elt)
                    if inner is not None:
                        return inner
                return None
            if tail in ("Type", "type"):
                inner = self.resolve_annotation(mod, node.slice)
                return f"{_TYPE_OF}{inner}" if inner else None
            return None
        return None

    # -- pass 2: types --------------------------------------------------- #
    def _resolve_types(self, mod: ModuleInfo) -> None:
        for cinfo in mod.classes.values():
            for base in cinfo.node.bases:
                dotted = _dotted_name(base)
                if dotted:
                    cinfo.bases.append(self.resolve_name(mod, dotted))
            for item in cinfo.node.body:
                # Dataclass fields / class-level annotations type the
                # matching instance attribute.
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    anno = self.resolve_annotation(mod, item.annotation)
                    if anno is not None:
                        cinfo.attr_types[item.target.id] = anno
            for minfo in cinfo.methods.values():
                self._collect_attr_types(mod, cinfo, minfo)

    def _resolve_signature(self, mod: ModuleInfo, finfo: FunctionInfo) -> None:
        args = finfo.node.args
        everything = args.posonlyargs + args.args + args.kwonlyargs
        finfo.params = [a.arg for a in everything]
        for a in everything:
            anno = self.resolve_annotation(mod, a.annotation)
            if anno is not None:
                finfo.param_types[a.arg] = anno
        finfo.return_type = self.resolve_annotation(mod, finfo.node.returns)

    def _collect_attr_types(self, mod: ModuleInfo, cinfo: ClassInfo,
                            minfo: FunctionInfo) -> None:
        """``self.x: T``, ``self.x = <typed param>``, ``self.x = C(...)``."""
        for stmt in ast.walk(minfo.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            anno: Optional[str] = None
            if isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
                anno = self.resolve_annotation(mod, stmt.annotation)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            attr = target.attr
            if anno is None and value is not None:
                anno = self._infer_expr_type(mod, minfo, value)
            if anno is not None and attr not in cinfo.attr_types:
                cinfo.attr_types[attr] = anno

    def _infer_expr_type(self, mod: ModuleInfo, finfo: FunctionInfo,
                         expr: ast.expr) -> Optional[str]:
        """Shallow rvalue typing: params, constructors, typed factories."""
        if isinstance(expr, ast.Name):
            return finfo.param_types.get(expr.id)
        if isinstance(expr, ast.Call):
            dotted = _dotted_name(expr.func)
            if dotted is None:
                return None
            qname = self.resolve_name(mod, dotted)
            if qname in self.classes:
                return qname
            callee = self.functions.get(qname)
            if callee is not None and callee.return_type is not None:
                rt = callee.return_type
                # Calling a Type[X] factory's *result* yields an X; the
                # factory call itself yields the class object.
                return rt
        return None

    # -- pass 3: hierarchy ----------------------------------------------- #
    def _build_subclass_map(self) -> None:
        direct: Dict[str, Set[str]] = {}
        for cinfo in self.classes.values():
            for base in cinfo.bases:
                direct.setdefault(base, set()).add(cinfo.qname)
        for qname in self.classes:
            seen: Set[str] = set()
            frontier = list(direct.get(qname, ()))
            while frontier:
                sub = frontier.pop()
                if sub in seen:
                    continue
                seen.add(sub)
                frontier.extend(direct.get(sub, ()))
            self.subclasses[qname] = seen

    # -- queries ---------------------------------------------------------- #
    def lookup_method(self, class_qname: str,
                      method: str) -> Optional[FunctionInfo]:
        """Resolve a method through the class's (project-local) MRO."""
        seen: Set[str] = set()
        frontier = [class_qname]
        while frontier:
            qname = frontier.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            cinfo = self.classes.get(qname)
            if cinfo is None:
                continue
            if method in cinfo.methods:
                return cinfo.methods[method]
            frontier.extend(cinfo.bases)
        return None

    def attr_type(self, class_qname: str, attr: str) -> Optional[str]:
        """Instance-attribute type through the class hierarchy."""
        seen: Set[str] = set()
        frontier = [class_qname]
        while frontier:
            qname = frontier.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            cinfo = self.classes.get(qname)
            if cinfo is None:
                continue
            if attr in cinfo.attr_types:
                return cinfo.attr_types[attr]
            frontier.extend(cinfo.bases)
        return None


def _nested_defs(fn: FunctionNode) -> Iterator[FunctionNode]:
    """The ``def``s directly inside ``fn``'s body (not inside a deeper
    ``def``; through class bodies and blocks), breadth-first."""
    todo = deque(ast.iter_child_nodes(fn))
    while todo:
        node = todo.popleft()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        else:
            todo.extend(ast.iter_child_nodes(node))


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------- #
@dataclass
class AnalysisReport:
    """Outcome of one lint run: every finding fails it."""

    violations: List[Violation]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


# --------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------- #
def package_root(path: Union[str, Path]) -> Path:
    """The package a source file belongs to: the topmost ancestor
    reachable through an unbroken chain of ``__init__.py`` directories,
    or the file's own directory when that holds no ``__init__.py``."""
    root = Path(path).resolve().parent
    while (root / "__init__.py").is_file() \
            and (root.parent / "__init__.py").is_file():
        root = root.parent
    return root


def analyze(root: Union[str, Path],
            rules: Optional[Iterable[str]] = None,
            assume_sim: bool = False,
            ) -> Tuple[AnalysisReport, Project]:
    """Run the whole-program analysis over one package tree.

    The simlint AST rules run on every indexed module (reusing the
    engine's parse), then the whole-program rules from
    :mod:`repro.analysis.rules_interproc` run over the project call
    graph.  A ``.py`` file as ``root`` indexes its :func:`package_root`,
    so its modules keep their dotted names and cross-file facts, but
    reports findings only in that file — an interprocedural leak is
    attributed to the file that contains it.  A root holding no Python
    module is a ValueError: a gate pointed at the wrong directory must
    not pass by checking nothing.
    """
    from repro.analysis.rules_interproc import (ALL_RULES,
                                                run_interproc_rules)

    root = Path(root)
    only: Optional[Path] = None
    if root.is_file():
        if root.suffix != ".py":
            raise ValueError(f"{root} is not a Python source file")
        only = root.resolve()
        root = package_root(root)
    project = Project.load(root)
    if not project.modules:
        raise ValueError(f"no Python modules under {root}")
    active = set(rules) if rules is not None else set(ALL_RULES)
    unknown = active - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown simlint rule(s): {sorted(unknown)}")
    perfile_rules = active & set(simlint.RULES)
    interproc_rules = active - perfile_rules

    reported = [m for m in project.modules.values()
                if only is None or m.path.resolve() == only]
    violations: List[Violation] = []
    if perfile_rules:
        for mod in reported:
            sim_scope, hot = simlint._scope_of(mod.path, assume_sim)
            violations.extend(simlint.check_tree(
                mod.tree, path=str(mod.path), sim_scope=sim_scope,
                hot_module=hot, rules=perfile_rules))
    if interproc_rules:
        paths = {str(m.path) for m in reported}
        violations.extend(
            v for v in run_interproc_rules(project, rules=interproc_rules,
                                           assume_sim=assume_sim)
            if v.path in paths)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return (AnalysisReport(violations=violations,
                           files_checked=len(project.modules)), project)
