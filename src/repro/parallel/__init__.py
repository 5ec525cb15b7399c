"""repro.parallel — the parallel experiment fabric.

Fans independent scenario cells out over spawned worker processes and
merges results deterministically, with a content-addressed on-disk result
cache underneath.  Three ways in:

* **Library**: build :class:`CellSpec` batches and call :func:`run_cells`
  (the figure drivers and the conformance corpus do this internally)::

      from repro.parallel import WorkloadSpec, run_cells, single_vm_cell

      cells = [single_vm_cell(WorkloadSpec("nas", "LU", scale=0.2),
                              online_rate=r, seed=s)
               for r in (1.0, 0.4) for s in (1, 2)]
      results = run_cells(cells, jobs=8)

  Every batch runs supervised (:mod:`repro.parallel.supervisor`).
  ``with use_context(RunContext(jobs=..., cache=...)):`` installs the
  defaults every batch in the block takes.

* **CLI**: every simulation-running ``repro`` subcommand takes
  ``--jobs N|auto`` and ``--no-cache`` (see :mod:`repro.cli`); the
  ``REPRO_JOBS`` environment variable sets a default.

* **pytest plugin**: ``pytest benchmarks/ -p repro.parallel --jobs auto``
  loads this module as a plugin, adding ``--jobs`` / ``--no-cache`` /
  ``--repro-cache-dir`` options that build the session's run context
  and write cache statistics at session end.

Determinism is the design constraint throughout: a serial run and an
8-way run of the same batch produce bit-identical figure series and
fingerprints (see :mod:`repro.parallel.executor` and docs/parallel.md).
"""

from __future__ import annotations

import contextlib

from repro.parallel.cache import (DEFAULT_CACHE_DIR, CacheIntegrityWarning,
                                  ResultCache, default_salt)
from repro.parallel.cells import (CellSpec, WorkloadSpec, canonical_value,
                                  execute_cell, multi_vm_cell,
                                  result_fingerprint, single_vm_cell,
                                  specjbb_cell)
from repro.parallel.chaos import ChaosSpec
from repro.parallel.executor import (CellFailure, CellOutcome, CellResults,
                                     RunContext, current_context,
                                     resolve_jobs, use_context)
from repro.parallel.supervisor import (BatchJournal, SupervisorPolicy,
                                       SupervisorReport, get_last_report,
                                       run_cells, run_supervised)

__all__ = [
    "BatchJournal",
    "CacheIntegrityWarning",
    "CellFailure",
    "CellOutcome",
    "CellResults",
    "CellSpec",
    "ChaosSpec",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "RunContext",
    "SupervisorPolicy",
    "SupervisorReport",
    "WorkloadSpec",
    "canonical_value",
    "current_context",
    "default_salt",
    "execute_cell",
    "get_last_report",
    "multi_vm_cell",
    "resolve_jobs",
    "result_fingerprint",
    "run_cells",
    "run_supervised",
    "single_vm_cell",
    "specjbb_cell",
    "use_context",
]


# --------------------------------------------------------------------- #
# pytest plugin surface (`pytest -p repro.parallel ...`)
#
# Hook functions only — neither this package nor any module it imports
# loads pytest (tests/test_start_path.py pins that), so loading it as a
# library, in a CLI process or in a spawned worker, costs nothing extra.
# --------------------------------------------------------------------- #
def pytest_addoption(parser) -> None:
    """pytest hook: register the fabric's ``--jobs``/cache options."""
    group = parser.getgroup(
        "repro-parallel", "repro parallel experiment fabric")
    group.addoption(
        "--jobs", action="store", default=None, metavar="N|auto",
        help="fan simulation cells out over N worker processes "
             "(auto or 0 = one per CPU)")
    group.addoption(
        "--no-cache", action="store_true", dest="repro_no_cache",
        help="disable the content-addressed result cache")
    group.addoption(
        "--repro-cache-dir", action="store", default=None, metavar="DIR",
        help=f"result cache directory (default {DEFAULT_CACHE_DIR!r} "
             f"or $REPRO_CACHE_DIR)")


def pytest_configure(config) -> None:
    """pytest hook: install the session's run context from its options.

    The context stays installed until pytest's config cleanup, which
    first writes the cache statistics to ``<cache>/stats.json``.
    """
    if config.getoption("repro_no_cache", default=False):
        cache = None
    else:
        cache = ResultCache(config.getoption("--repro-cache-dir",
                                             default=None))
    stack = contextlib.ExitStack()
    stack.enter_context(use_context(RunContext(
        jobs=config.getoption("--jobs", default=None), cache=cache)))
    if cache is not None:
        stack.callback(cache.write_stats, cache.root / "stats.json")
    config.add_cleanup(stack.close)
