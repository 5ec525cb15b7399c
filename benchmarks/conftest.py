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

import pathlib

import pytest

BASELINE = pathlib.Path(__file__).parent / "perf_baseline.json"


@pytest.fixture(scope="session", autouse=True)
def baseline_config_guard():
    """Refuse to benchmark under a config the baseline was not recorded in.

    Timings taken with the sanitizer attached or with fast-forward
    disabled are not comparable to the committed ``perf_baseline.json``
    (both configurations are deliberately slower while staying
    bit-identical in fingerprints).  Historically such runs compared
    silently and read as phantom regressions; now the mismatch is a
    loud session error.  Delete/regenerate the baseline, or rerun
    without ``--sanitize`` / ``REPRO_NO_FASTFORWARD``, to proceed.
    """
    import json

    from repro.perf.harness import run_config

    if not BASELINE.exists():  # nothing to be inconsistent with
        return
    meta = json.loads(BASELINE.read_text()).get("meta", {})
    stamp = meta.get("config")
    config = run_config()
    if stamp is None:
        pytest.exit(
            f"{BASELINE} has no config stamp (pre-quiescence-fast-forward "
            f"schema); regenerate it with `repro perf --quick "
            f"--update-baseline {BASELINE}`", returncode=3)
    if stamp != config:
        pytest.exit(
            f"benchmark config mismatch: {BASELINE} was recorded with "
            f"{stamp} but this session runs {config}; timings would not "
            f"be comparable (sanitize/fast-forward change wall-clock, "
            f"never fingerprints)", returncode=3)


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

