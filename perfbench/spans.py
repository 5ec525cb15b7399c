"""In-memory span recording and self-time arithmetic.

A :class:`Tracer` records one span per call into a wrapped function:
its name, start and end (``perf_counter_ns``) and the index of the span
that was open when it started (its parent, ``-1`` for a root).  Spans
live in flat arrays in memory and are written out once, when the run
ends, by :meth:`Tracer.write`.

A span's *self time* is its duration minus the durations of its direct
children; summed over a root's subtree, self times add up to the root's
duration exactly, which is what the coverage check relies on.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "SpanStats", "self_times", "aggregate", "Patcher",
           "class_functions"]

_now = time.perf_counter_ns


class Tracer:
    """Records nested spans in flat arrays (pre-order: parents first)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.starts)

    def enter(self, nid: int) -> int:
        idx = len(self.starts)
        stack = self._stack
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0)
        stack.append(idx)
        self.starts.append(_now())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = _now()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, self.name_id(name))

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable[[tuple, object], None]] = None
             ) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``after`` (optional) sees each call's positional arguments and
        return value, outside the span, so counts that depend on them
        (cache hits, violations, built testbeds) are taken where the
        work happens.
        """
        nid = self.name_id(name)
        enter, leave = self.enter, self.exit

        if after is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(idx)
                after(args, result)
                return result
        return traced

    def write(self, path: Path) -> Path:
        """Write every span as gzip'd JSON lines: a header naming the
        span names, then ``[name, start_ns, end_ns, parent]`` per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent"]}) + "\n")
            for rec in zip(self.name_ids, self.starts, self.ends,
                           self.parents):
                fh.write("[%d,%d,%d,%d]\n" % rec)
        return path


class _SpanContext:
    __slots__ = ("_tracer", "_nid", "_idx")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid
        self._idx = -1

    def __enter__(self) -> int:
        self._idx = self._tracer.enter(self._nid)
        return self._idx

    def __exit__(self, *exc) -> None:
        self._tracer.exit(self._idx)


def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> List[int]:
    """Per-span self time: duration minus the direct children's durations.

    Spans must be in creation order, so every parent precedes its
    children (``parents[i] < i``).
    """
    own = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


class SpanStats:
    """Per-name totals: calls, self time and outermost inclusive time."""

    __slots__ = ("calls", "self_ns", "inclusive_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.inclusive_ns = 0


def aggregate(tracer: Tracer) -> Dict[str, SpanStats]:
    """Fold a tracer's spans into :class:`SpanStats` per span name.

    Inclusive time counts only spans with no same-named ancestor, so a
    recursive call (a schedule inside a schedule) is not counted twice.
    """
    names, nids = tracer.names, tracer.name_ids
    starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
    own = self_times(starts, ends, parents)
    # open_names[i]: the name ids on span i's ancestor chain (itself
    # included), shared with the parent's tuple when nothing new joins.
    stats = {name: SpanStats() for name in names}
    by_id = [stats[name] for name in names]
    open_names: List[Tuple[int, ...]] = []
    for i, nid in enumerate(nids):
        parent = parents[i]
        ancestors = open_names[parent] if parent >= 0 else ()
        st = by_id[nid]
        st.calls += 1
        st.self_ns += own[i]
        if nid not in ancestors:
            st.inclusive_ns += ends[i] - starts[i]
            ancestors = ancestors + (nid,)
        open_names.append(ancestors)
    return stats


class Patcher:
    """Replaces functions in place and puts every original back.

    :meth:`everywhere` rebinds a function in every loaded module of a
    package that imported it by name, so ``from x import f`` call sites
    see the wrapper too.  Modules imported later would still bind the
    original, so callers import everything they patch first.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def attr(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def everywhere(self, package: str, original: object,
                   value: object) -> int:
        hits = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package
                                      or modname.startswith(package + ".")):
                continue
            for key, current in list(vars(module).items()):
                if current is original:
                    self.attr(module, key, value)
                    hits += 1
        return hits

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def class_functions(cls: type) -> List[str]:
    """Names of the plain functions ``cls`` itself defines (public,
    private and ``__init__``; other dunders excluded)."""
    out = []
    for key, value in vars(cls).items():
        if key.startswith("__") and key != "__init__":
            continue
        if callable(value) and not isinstance(value, (type, staticmethod,
                                                      classmethod)):
            out.append(key)
    return out
