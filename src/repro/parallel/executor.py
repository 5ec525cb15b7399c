"""Run context, job resolution, pool plumbing and batch results.

Every cell batch runs through :func:`repro.parallel.run_cells`, which
*is* the supervised loop :func:`repro.parallel.supervisor.run_supervised`.
This module holds what that loop stands on:

1. :class:`RunContext`, the one frozen bundle of run settings (worker
   count, result cache, supervision policy, resume, chaos) that a front
   end builds once and installs with ``with use_context(ctx):``;
2. job resolution and the spawn-safe process pool (:func:`pool_map`);
3. :class:`CellResults`, one batch's results merged by canonical key.

Determinism contract
--------------------
Cells are keyed by their canonical spec; results are merged **sorted by
key** before any aggregation, and each cell is a self-contained
simulation seeded from its spec.  A serial run and an 8-way run of the
same batch therefore produce bit-identical values and fingerprints —
process scheduling can reorder *completion*, never *content*.  The
figure drivers aggregate by iterating their own spec lists (a fixed
order), so series are byte-stable too.

Job-count resolution: explicit ``jobs`` argument > the installed
context's ``jobs`` (the CLI's ``--jobs`` / pytest's ``--jobs``) > the
``REPRO_JOBS`` environment variable > 1.  ``"auto"`` or ``0`` means
one worker per CPU.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Optional, Sequence, TypeVar, Union)

from repro.errors import CellTimeoutError, ConfigurationError, ExecutionError
from repro.parallel.cache import ResultCache
from repro.parallel.cells import CellSpec

if TYPE_CHECKING:
    from repro.parallel.chaos import ChaosSpec
    from repro.parallel.supervisor import SupervisorPolicy, SupervisorReport

__all__ = [
    "CellFailure",
    "CellOutcome",
    "CellResults",
    "RunContext",
    "current_context",
    "pool_map",
    "resolve_jobs",
    "use_context",
]

_JOBS_ENV = "REPRO_JOBS"

_T = TypeVar("_T")
_R = TypeVar("_R")


def _coerce_jobs(jobs: Union[int, str]) -> int:
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            jobs = int(text)
        except ValueError:
            raise ConfigurationError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}")
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


# --------------------------------------------------------------------- #
# Run context
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunContext:
    """The settings every batch takes its defaults from.

    A front end builds one (the CLI from its flags, the pytest plugin
    from its options) and installs it with :func:`use_context`; a
    keyword passed to :func:`~repro.parallel.run_cells` overrides one
    field for one batch.  ``cache=None`` runs uncached (and without a
    journal); ``policy=None`` is the default
    :class:`~repro.parallel.supervisor.SupervisorPolicy` — no timeouts,
    light retry.
    """

    jobs: Optional[Union[int, str]] = None
    cache: Optional[ResultCache] = None
    policy: Optional["SupervisorPolicy"] = None
    resume: bool = False
    chaos: Optional["ChaosSpec"] = None

    def __post_init__(self) -> None:
        if self.jobs is not None:
            _coerce_jobs(self.jobs)  # bad input fails when built, loudly


_context = RunContext()


def current_context() -> RunContext:
    """The installed run context (all defaults when none is)."""
    return _context


@contextlib.contextmanager
def use_context(ctx: RunContext) -> Iterator[RunContext]:
    """Install ``ctx`` for the ``with`` block; the previous one returns
    on exit, so front ends nest and library callers stay unaffected."""
    global _context
    saved, _context = _context, ctx
    try:
        yield ctx
    finally:
        _context = saved


def resolve_jobs(jobs: Optional[Union[int, str]] = None) -> int:
    """Resolve an effective worker count from the precedence chain."""
    if jobs is None:
        jobs = _context.jobs
    if jobs is None:
        env = os.environ.get(_JOBS_ENV)
        if env is not None and env.strip():
            jobs = env
    if jobs is None:
        return 1
    return _coerce_jobs(jobs)


# --------------------------------------------------------------------- #
# Pool plumbing
# --------------------------------------------------------------------- #
def _child_environment() -> None:
    """Make sure spawn children can ``import repro``.

    Spawned workers re-import everything from scratch; if ``repro`` was
    imported from a source checkout that is not on ``PYTHONPATH`` (e.g.
    ``PYTHONPATH=src`` ran from the repo root but the pool is created
    from another working directory), prepend its location so the child's
    interpreter finds the same package the parent runs.
    """
    import repro
    pkg_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    parts = [p for p in existing.split(os.pathsep) if p]
    if pkg_dir not in (os.path.abspath(p) for p in parts):
        os.environ["PYTHONPATH"] = os.pathsep.join([pkg_dir] + parts)


def _make_pool(workers: int) -> ProcessPoolExecutor:
    _child_environment()
    ctx = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


def pool_map(fn: Callable[[_T], _R], items: Sequence[_T],
             jobs: Optional[Union[int, str]] = None) -> List[_R]:
    """Order-preserving map over a process pool (serial when jobs==1).

    ``fn`` and every item must pickle under the spawn start method when
    ``jobs > 1`` — module-level functions and plain data qualify,
    closures do not.
    """
    workers = min(resolve_jobs(jobs), max(1, len(items)))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool = _make_pool(workers)
    try:
        result = list(pool.map(fn, items))
    except BaseException:
        # KeyboardInterrupt (or any other abort) must not leak the
        # executor: cancel queued work, drop the workers without
        # blocking on in-flight cells, and re-raise cleanly.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return result


# --------------------------------------------------------------------- #
# Cell batches
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-served) cell."""

    key: str
    value: object
    fingerprint: int
    cached: bool


@dataclass(frozen=True)
class CellFailure:
    """A cell that could not produce a result within its budgets.

    Stored as the outcome *value* of the failed cell, so a batch with
    failures still merges, fingerprints, and renders — callers that
    need all cells to succeed call :meth:`CellResults.raise_if_failed`,
    and :meth:`CellResults.value` raises for a failed cell.
    """

    key: str
    #: ``timeout`` (cell or batch deadline), ``crash`` (worker death /
    #: injected kill), or ``error`` (the cell raised).
    kind: str
    attempts: int
    detail: str


def _failure_error(failed: Sequence[CellFailure],
                   summary: str) -> ExecutionError:
    """:class:`~repro.errors.CellTimeoutError` when any failure is a
    timeout (cell budget or batch deadline), otherwise
    :class:`~repro.errors.ExecutionError`."""
    detail = "; ".join(
        f"{f.kind} after {f.attempts} attempt(s): {f.detail}"
        for f in failed[:3]) + ("" if len(failed) <= 3 else "; …")
    error = CellTimeoutError if any(f.kind == "timeout" for f in failed) \
        else ExecutionError
    return error(f"{summary}: {detail}")


class CellResults:
    """Results of one :func:`run_cells` batch, keyed by canonical spec.

    Lookup is by :class:`CellSpec` (or its canonical string); iteration
    is in sorted-key order, so any aggregate derived from a plain
    traversal is deterministic.
    """

    def __init__(self, outcomes: Dict[str, CellOutcome]) -> None:
        self._outcomes = {k: outcomes[k] for k in sorted(outcomes)}
        #: Set by :func:`repro.parallel.supervisor.run_supervised`.
        self.supervisor: Optional["SupervisorReport"] = None

    def __len__(self) -> int:
        return len(self._outcomes)

    def __iter__(self) -> Iterator[CellOutcome]:
        return iter(self._outcomes.values())

    def outcome(self, spec: Union[CellSpec, str]) -> CellOutcome:
        key = spec.canonical() if isinstance(spec, CellSpec) else spec
        return self._outcomes[key]

    def value(self, spec: Union[CellSpec, str]) -> object:
        """The cell's result; a failed cell raises what
        :meth:`raise_if_failed` would raise for it alone."""
        value = self.outcome(spec).value
        if isinstance(value, CellFailure):
            raise _failure_error([value], "supervised cell failed")
        return value

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self._outcomes.values() if o.cached)

    def failures(self) -> List[CellFailure]:
        """Cells whose outcome is a structured supervision failure."""
        return [o.value for o in self._outcomes.values()
                if isinstance(o.value, CellFailure)]

    @property
    def ok(self) -> bool:
        """True iff every cell produced a real result (no failures)."""
        return not self.failures()

    def raise_if_failed(self) -> None:
        """Raise on supervision failures (the strict callers' gate):
        :class:`~repro.errors.CellTimeoutError` when any failure is a
        timeout, otherwise :class:`~repro.errors.ExecutionError`."""
        failed = self.failures()
        if failed:
            raise _failure_error(
                failed, f"{len(failed)} of {len(self)} supervised cell(s) "
                        f"failed")

    def fingerprints(self) -> Dict[str, int]:
        """key -> 64-bit result fingerprint, in sorted-key order."""
        return {k: o.fingerprint for k, o in self._outcomes.items()}

    def combined_fingerprint(self) -> str:
        """One hex digest over every cell fingerprint (sorted by key).

        This is the figure-level determinism token: serial and N-way
        runs of the same batch must print the same value.
        """
        import hashlib
        digest = hashlib.sha256()
        for key, outcome in self._outcomes.items():
            digest.update(key.encode("utf-8"))
            digest.update(outcome.fingerprint.to_bytes(8, "big"))
        return digest.hexdigest()[:16]
