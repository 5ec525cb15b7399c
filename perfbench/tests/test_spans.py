"""Self-time arithmetic, span recording and patch/restore."""

import sys
import types

import pytest

import spans
from spans import Patcher, Tracer, aggregate, self_times


def test_self_times_subtract_direct_children_only():
    # root [0, 100] > a [10, 40] > a.1 [15, 25];  root > b [50, 90]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    own = self_times(starts, ends, parents)
    assert own == [30, 20, 10, 40]
    assert sum(own) == ends[0] - starts[0]


def _fake_clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(spans, "_now", lambda: next(it))


def test_wrapped_calls_nest_under_the_open_span(monkeypatch):
    tracer = Tracer()
    inner = tracer.wrap(lambda: "x", "inner")

    def body():
        return inner() + inner()

    outer = tracer.wrap(body, "outer")
    _fake_clock(monkeypatch, [0, 10, 13, 20, 26, 40])
    assert outer() == "xx"
    assert list(tracer.parents) == [-1, 0, 0]
    stats = aggregate(tracer)
    assert stats["outer"].calls == 1
    assert stats["outer"].self_ns == 40 - 3 - 6
    assert stats["inner"].calls == 2
    assert stats["inner"].self_ns == 9
    assert stats["inner"].inclusive_ns == 9


def test_recursion_is_counted_once_inclusively(monkeypatch):
    tracer = Tracer()

    def f(n):
        return n if n == 0 else traced(n - 1)

    traced = tracer.wrap(f, "f")
    _fake_clock(monkeypatch, [0, 5, 7, 10])
    traced(1)
    stats = aggregate(tracer)["f"]
    assert stats.calls == 2
    assert stats.inclusive_ns == 10
    assert stats.self_ns == 10


def test_span_closes_when_the_call_raises(monkeypatch):
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    traced = tracer.wrap(boom, "boom")
    _fake_clock(monkeypatch, [0, 4, 10, 20])
    with pytest.raises(ValueError):
        traced()
    with tracer.span("after"):
        pass
    assert list(tracer.ends) == [4, 20]
    assert list(tracer.parents) == [-1, -1]


def test_after_sees_every_call_and_return_value():
    tracer = Tracer()
    seen = []
    traced = tracer.wrap(lambda v: v * 2, "double",
                         lambda args, result: seen.append((args, result)))
    traced(2)
    traced(5)
    assert seen == [((2,), 4), ((5,), 10)]


def test_write_round_trips(tmp_path):
    import gzip
    import json
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    path = tracer.write(tmp_path / "spans.jsonl.gz")
    lines = gzip.open(path, "rt").read().splitlines()
    assert json.loads(lines[0])["names"] == ["a", "b"]
    rows = [json.loads(line) for line in lines[1:]]
    assert [r[0] for r in rows] == [0, 1] and rows[1][3] == 0


def test_patcher_rebinds_every_import_site_and_restores():
    def original():
        return "original"

    pkg = types.ModuleType("pbtestpkg")
    sub = types.ModuleType("pbtestpkg.sub")
    other = types.ModuleType("pbtestother")
    pkg.f = sub.g = other.f = original
    sys.modules.update({"pbtestpkg": pkg, "pbtestpkg.sub": sub,
                        "pbtestother": other})
    try:
        patcher = Patcher()
        assert patcher.everywhere("pbtestpkg", original, len) == 2
        assert pkg.f is len and sub.g is len
        assert other.f is original  # outside the package
        patcher.restore()
        assert pkg.f is original and sub.g is original
    finally:
        for name in ("pbtestpkg", "pbtestpkg.sub", "pbtestother"):
            sys.modules.pop(name)
