"""Benchmark harness support.

``test_figures.py`` runs every registered figure under pytest-benchmark
timing and writes its rendering to ``benchmarks/results/<artifact>``;
EXPERIMENTS.md embeds these files' contents as the measured side of the
paper-vs-measured comparison.

The whole session shares one parallel-fabric result cache: figures that
revisit a cell another benchmark already simulated (same canonical spec)
get it for free.  Running with ``-p repro.parallel`` instead installs a
persistent cache (``.repro-cache/``) plus ``--jobs`` fan-out; this
fixture then leaves that configuration alone.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def fabric_cache(tmp_path_factory):
    """Share one result cache across every benchmark in the session."""
    import dataclasses

    from repro import parallel

    ctx = parallel.current_context()
    if ctx.cache is not None:  # -p repro.parallel already installed one
        yield ctx.cache
        return
    cache = parallel.ResultCache(tmp_path_factory.mktemp("repro-cache"))
    with parallel.use_context(dataclasses.replace(ctx, cache=cache)):
        yield cache

