"""Supervised execution: crash-recovery, retry, timeouts, journaled resume.

:func:`run_supervised` — exported as :func:`repro.parallel.run_cells`,
the one way a batch runs — executes cells cache-first in a supervision
loop that makes a multi-cell batch *survivable* without perturbing its
results:

* **Timeouts** — a per-cell wall-clock budget (``cell_timeout_s``) and a
  whole-batch deadline (``batch_deadline_s``).  A cell that overruns is
  recorded as a structured :class:`CellFailure` outcome, never an
  exception that loses the batch.  (Per-cell timeouts are enforceable
  only in pool mode — a serial in-process cell cannot be interrupted.)
* **Crash recovery** — a dead worker (OOM kill, segfault, injected
  ``os._exit``) breaks the :class:`~concurrent.futures.ProcessPoolExecutor`;
  the supervisor rebuilds the pool and re-dispatches only the cells whose
  results were lost.  Pool-break re-dispatches are governed by the
  *pool-level* ``max_pool_rebuilds`` budget, not the per-cell retry
  budget: a worker death does not identify a guilty cell, so innocent
  in-flight cells are never charged for it.
* **Deterministic retry** — error and timeout retries are bounded by
  ``max_retries`` per cell, with backoff delays derived from the cell key
  through the :mod:`repro.sim.rng` named-stream discipline
  (``supervisor/backoff/<cell>/<attempt>``) — no wall-clock randomness,
  so ``repro lint`` stays clean.
* **Journaled resume** — every completed cell is appended (atomically,
  ``fsync`` per line) to ``<cache>/journal/<batch-key>.jsonl``; an
  interrupted sweep re-run with ``resume=True`` re-executes only the
  cells that never completed.  Torn trailing lines (the writer died
  mid-append) are skipped on replay.
* **Graceful degradation** — once the rebuild budget is exhausted the
  supervisor falls back to in-process serial execution with a loud
  :class:`SupervisorDegradedWarning`, so a batch always runs to
  completion and reports structured failures instead of dying.

The determinism contract of the fabric is unchanged: supervision decides
*when and where* a cell runs, never *what it computes* — a supervised run
under injected kills/stalls/corruption merges results bit-identical to a
clean serial run (the ``repro chaos`` gate).
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Deque, Dict, Iterable, List,
                    Optional, Tuple, Union)

from repro.errors import ConfigurationError
from repro.parallel import chaos as chaos_mod
from repro.parallel.cache import ResultCache
from repro.parallel.cells import CellSpec, execute_cell, result_fingerprint
from repro.parallel.chaos import ChaosKill, ChaosSpec, cell_digest
from repro.parallel.executor import (CellFailure, CellOutcome, CellResults,
                                     _make_pool, current_context,
                                     resolve_jobs)
from repro.sim.rng import RngStreams

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "BatchJournal",
    "CellFailure",
    "SupervisorDegradedWarning",
    "SupervisorPolicy",
    "SupervisorReport",
    "backoff_ms",
    "batch_key",
    "get_last_report",
    "run_cells",
    "run_supervised",
]

#: Subdirectory (under the cache root) holding batch journals.
JOURNAL_DIR = "journal"

#: Patchable sleep so tests can fast-forward backoff waits.
_sleep = time.sleep


class SupervisorDegradedWarning(UserWarning):
    """The pool-rebuild budget ran out; the batch fell back to serial."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision parameters for one batch (all deterministic inputs).

    The default policy supervises *lightly*: no timeouts, two retries,
    three pool rebuilds.  ``None`` timeouts mean unlimited — explicitly
    setting a timeout of zero (or negative) is rejected rather than
    silently meaning "fail everything instantly".
    """

    #: Wall-clock budget for one cell attempt (pool mode only).
    cell_timeout_s: Optional[float] = None
    #: Wall-clock budget for the whole batch; cells that cannot start or
    #: finish inside it become structured timeout failures.
    batch_deadline_s: Optional[float] = None
    #: Failed attempts (errors, timeouts) allowed per cell *beyond* the
    #: first: a cell runs at most ``max_retries + 1`` times.
    max_retries: int = 2
    #: Pool reconstructions after worker deaths before degrading to
    #: in-process serial execution.
    max_pool_rebuilds: int = 3
    #: Retry backoff: base delay, doubled per failed attempt, jittered
    #: by a deterministic per-cell draw, capped.
    backoff_base_ms: float = 25.0
    backoff_cap_ms: float = 1000.0
    #: Seed of the ``supervisor/...`` stream family (backoff jitter).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("cell_timeout_s", "batch_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be > 0 when set, got {value!r} "
                    f"(use None for unlimited)")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, "
                f"got {self.max_pool_rebuilds}")
        if self.backoff_base_ms < 0 or self.backoff_cap_ms < 0:
            raise ConfigurationError("backoff delays must be >= 0")


@dataclass
class SupervisorReport:
    """What supervision did to one batch (the CLI's stderr summary)."""

    total: int = 0
    cached: int = 0
    resumed: int = 0
    executed: int = 0
    retried: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    corrupt_injected: int = 0
    failures: List[CellFailure] = field(default_factory=list)

    def describe(self) -> str:
        text = (f"supervisor: {self.total} cell(s), {self.cached} cached, "
                f"{self.executed} executed, {self.retried} retried, "
                f"{self.timeouts} timeout(s), "
                f"{self.pool_rebuilds} pool rebuild(s), "
                f"{len(self.failures)} failure(s)")
        if self.resumed:
            text += f", {self.resumed} resumed"
        if self.degraded:
            text += ", DEGRADED to serial"
        return text


_last_report: Optional[SupervisorReport] = None


def get_last_report() -> Optional[SupervisorReport]:
    """The report of the most recent supervised batch in this process."""
    return _last_report


# --------------------------------------------------------------------- #
# Deterministic backoff
# --------------------------------------------------------------------- #
def backoff_ms(policy: SupervisorPolicy, key: str, attempt: int) -> float:
    """Delay before retry ``attempt`` (1-based) of a cell, in ms.

    Exponential with a deterministic jitter factor in ``[0.5, 1.5)``
    drawn from the ``supervisor/backoff/<cell>/<attempt>`` stream — a
    pure function of ``(policy.seed, key, attempt)``, so retry schedules
    are reproducible and lint-clean.
    """
    if policy.backoff_base_ms == 0:
        return 0.0
    stream = RngStreams(seed=policy.seed).get(
        f"supervisor/backoff/{cell_digest(key)}/{attempt}")
    jitter = 0.5 + float(stream.random())
    raw = policy.backoff_base_ms * (2.0 ** max(0, attempt - 1)) * jitter
    return min(raw, policy.backoff_cap_ms)


# --------------------------------------------------------------------- #
# Journal
# --------------------------------------------------------------------- #
def batch_key(keys: Iterable[str], salt: str) -> str:
    """Stable identifier of a batch: digest of its sorted cell keys."""
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\x00")
    for key in sorted(keys):
        digest.update(key.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


class BatchJournal:
    """Append-only JSONL record of completed cells for one batch.

    One line per completed (or definitively failed) cell, flushed and
    ``fsync``\\ ed per append so a crash loses at most the line being
    written — and :meth:`replay` skips such torn trailing lines rather
    than refusing to resume.
    """

    def __init__(self, root: Union[str, Path], key: str) -> None:
        self.root = Path(root)
        self.key = key
        self.path = self.root / f"{key}.jsonl"

    def reset(self) -> None:
        """Drop any previous journal for this batch (fresh, non-resume
        runs must not inherit stale completion records)."""
        with contextlib.suppress(OSError):
            self.path.unlink()

    def append(self, record: Dict[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def replay(self) -> Dict[str, Dict[str, object]]:
        """Completed-cell records by cell key; torn lines are skipped.

        Later records win (a cell that failed and then succeeded on a
        resumed run is counted by its latest status).
        """
        records: Dict[str, Dict[str, object]] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn append from a killed writer
            if isinstance(doc, dict) and isinstance(doc.get("key"), str):
                records[doc["key"]] = doc
        return records


# --------------------------------------------------------------------- #
# Worker-side dispatch (module-level: must pickle under spawn)
# --------------------------------------------------------------------- #
def _dispatch(spec: CellSpec, key: str, chaos: Optional[ChaosSpec],
              seq: int, final: bool) -> object:
    """One supervised cell attempt inside a pool worker."""
    if chaos is not None:
        chaos_mod.apply_worker_chaos(chaos, key, seq, final,
                                     in_process=False)
    return execute_cell(spec)


# --------------------------------------------------------------------- #
# The supervision loop
# --------------------------------------------------------------------- #
class _Supervisor:
    """State machine for one supervised batch (pool or serial)."""

    def __init__(self, unique: Dict[str, CellSpec], workers: int,
                 cache: Optional[ResultCache],
                 policy: SupervisorPolicy,
                 chaos: Optional[ChaosSpec],
                 journal: Optional[BatchJournal],
                 report: SupervisorReport,
                 progress: Optional[Callable[[str], None]]) -> None:
        self.unique = unique
        self.workers = workers
        self.cache = cache
        self.policy = policy
        self.chaos = chaos
        self.journal = journal
        self.report = report
        self.progress = progress
        self.outcomes: Dict[str, CellOutcome] = {}
        #: Failed attempts per cell (errors + timeouts; NOT pool breaks).
        self.attempts: Dict[str, int] = {}
        #: Total dispatches per cell (chaos/backoff draw index).
        self.seq: Dict[str, int] = {}
        self.deadline: Optional[float] = (
            time.monotonic() + policy.batch_deadline_s
            if policy.batch_deadline_s is not None else None)

    # -- shared bookkeeping --------------------------------------------- #
    def _note(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _succeed(self, key: str, value: object) -> None:
        cache_key = (self.cache.put(self.unique[key], value)
                     if self.cache is not None else None)
        fingerprint = result_fingerprint(value)
        self.outcomes[key] = CellOutcome(key=key, value=value,
                                         fingerprint=fingerprint,
                                         cached=False)
        self.report.executed += 1
        if self.journal is not None:
            record: Dict[str, object] = {
                "key": key, "status": "done", "fingerprint": fingerprint,
                "attempts": self.attempts.get(key, 0) + 1}
            if self.cache is not None:
                record["cache_key"] = cache_key
                record["salt"] = self.cache.salt
            self.journal.append(record)

    def _fail(self, key: str, kind: str, detail: str) -> None:
        failure = CellFailure(key=key, kind=kind,
                              attempts=self.attempts.get(key, 0),
                              detail=detail)
        self.outcomes[key] = CellOutcome(
            key=key, value=failure,
            fingerprint=result_fingerprint(failure), cached=False)
        self.report.failures.append(failure)
        if kind == "timeout":
            self.report.timeouts += 1
        if self.journal is not None:
            self.journal.append({"key": key, "status": "failed",
                                 "kind": kind, "detail": detail,
                                 "attempts": failure.attempts})
        self._note(f"cell failed ({kind}, "
                   f"{failure.attempts} attempt(s)): {detail}")

    def _next_seq(self, key: str) -> int:
        seq = self.seq.get(key, 0)
        self.seq[key] = seq + 1
        return seq

    def _is_final(self, key: str) -> bool:
        return self.attempts.get(key, 0) >= self.policy.max_retries

    def _out_of_time(self) -> bool:
        return (self.deadline is not None
                and time.monotonic() >= self.deadline)

    def _classify(self, exc: BaseException) -> Tuple[str, str]:
        kind = "crash" if isinstance(exc, ChaosKill) else "error"
        return kind, f"{type(exc).__name__}: {exc}"

    # -- serial supervised execution ------------------------------------ #
    def run_serial(self, keys: Iterable[str]) -> None:
        """In-process execution with retry (and in-process chaos).

        Used for ``jobs == 1`` batches and as the degraded fallback;
        per-cell timeouts are not enforceable here (nothing can
        interrupt an in-process cell), but the batch deadline still is —
        it is checked between attempts.
        """
        for key in keys:
            if key in self.outcomes:
                continue
            if self._out_of_time():
                self._fail(key, "timeout", "batch deadline exhausted")
                continue
            last = "unknown"
            while True:
                final = self._is_final(key)
                seq = self._next_seq(key)
                try:
                    if self.chaos is not None:
                        chaos_mod.apply_worker_chaos(
                            self.chaos, key, seq, final, in_process=True)
                    value = execute_cell(self.unique[key])
                except Exception as exc:
                    kind, last = self._classify(exc)
                    self.attempts[key] = self.attempts.get(key, 0) + 1
                    if final or self._out_of_time():
                        self._fail(key, kind, last)
                        break
                    self.report.retried += 1
                    _sleep(backoff_ms(self.policy, key,
                                      self.attempts[key]) / 1000.0)
                else:
                    self._succeed(key, value)
                    break

    # -- pool supervised execution -------------------------------------- #
    def run_pool(self, keys: List[str],
                 make_pool: Callable[[int], ProcessPoolExecutor]) -> None:
        # Pool-only modules load here, so a serial batch never pays them.
        from concurrent.futures import FIRST_COMPLETED
        from concurrent.futures import wait as futures_wait
        from concurrent.futures.process import BrokenProcessPool
        queue: Deque[str] = deque(keys)
        waiting: List[Tuple[float, str]] = []  # (ready_at, key) heap
        inflight: Dict[Future[object], Tuple[str, Optional[float]]] = {}
        pool = make_pool(self.workers)
        try:
            while queue or waiting or inflight:
                if self._out_of_time():
                    self._drain_deadline(queue, waiting, inflight)
                    return
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    queue.append(heapq.heappop(waiting)[1])
                submit_broke = False
                while queue and len(inflight) < self.workers:
                    key = queue.popleft()
                    seq = self._next_seq(key)
                    try:
                        fut = pool.submit(_dispatch, self.unique[key],
                                          key, self.chaos, seq,
                                          self._is_final(key))
                    except (BrokenProcessPool, RuntimeError):
                        # A worker died between wait() rounds and broke
                        # the pool before we could even submit.
                        queue.appendleft(key)
                        submit_broke = True
                        break
                    cell_deadline = (
                        time.monotonic() + self.policy.cell_timeout_s
                        if self.policy.cell_timeout_s is not None else None)
                    inflight[fut] = (key, cell_deadline)
                if submit_broke:
                    for lost_key, _dl in inflight.values():
                        queue.appendleft(lost_key)
                    inflight.clear()
                    self.report.pool_rebuilds += 1
                    self._note(f"pool broke on submit; rebuild "
                               f"{self.report.pool_rebuilds}/"
                               f"{self.policy.max_pool_rebuilds}")
                    pool.shutdown(wait=False, cancel_futures=True)
                    if (self.report.pool_rebuilds
                            > self.policy.max_pool_rebuilds):
                        self._degrade(queue, waiting)
                        return
                    pool = make_pool(self.workers)
                    continue
                if not inflight:
                    # Everything is backing off; sleep to the next event.
                    target = waiting[0][0]
                    if self.deadline is not None:
                        target = min(target, self.deadline)
                    _sleep(max(0.0, target - time.monotonic()))
                    continue

                done, _ = futures_wait(list(inflight),
                                       timeout=self._tick(waiting,
                                                          inflight),
                                       return_when=FIRST_COMPLETED)
                broken = False
                for fut in done:
                    key, _cell_deadline = inflight.pop(fut)
                    try:
                        value = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        queue.appendleft(key)
                    except (EOFError, OSError):
                        # Pipe to a dead worker: same as a broken pool.
                        broken = True
                        queue.appendleft(key)
                    except Exception as exc:
                        self._retry_or_fail(key, exc, queue, waiting)
                    else:
                        self._succeed(key, value)

                if broken:
                    # Worker death does not name a guilty cell: requeue
                    # every lost in-flight cell without charging its
                    # retry budget; the pool-level rebuild budget bounds
                    # this instead.
                    for lost_key, _dl in inflight.values():
                        queue.appendleft(lost_key)
                    inflight.clear()
                    self.report.pool_rebuilds += 1
                    self._note(f"worker died; pool rebuild "
                               f"{self.report.pool_rebuilds}/"
                               f"{self.policy.max_pool_rebuilds}")
                    pool.shutdown(wait=False, cancel_futures=True)
                    if (self.report.pool_rebuilds
                            > self.policy.max_pool_rebuilds):
                        self._degrade(queue, waiting)
                        return
                    pool = make_pool(self.workers)
                    continue

                timed_out = self._collect_timeouts(inflight)
                if timed_out:
                    # A pool cannot abort a running cell: kill the
                    # workers and rebuild.  Innocent in-flight cells are
                    # requeued uncharged; a timeout-driven rebuild does
                    # not consume the crash-rebuild budget.
                    for fut, (key, _dl) in list(inflight.items()):
                        if fut in timed_out:
                            self._timeout_cell(key, queue, waiting)
                        else:
                            queue.appendleft(key)
                    inflight.clear()
                    self._kill_pool(pool)
                    pool = make_pool(self.workers)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _tick(self, waiting: List[Tuple[float, str]],
              inflight: Dict[Future[object], Tuple[str, Optional[float]]]
              ) -> Optional[float]:
        """How long the wait() may block before the next deadline."""
        targets = [dl for _k, dl in inflight.values() if dl is not None]
        if waiting:
            targets.append(waiting[0][0])
        if self.deadline is not None:
            targets.append(self.deadline)
        if not targets:
            return None
        return max(0.0, min(targets) - time.monotonic())

    def _retry_or_fail(self, key: str, exc: BaseException,
                       queue: Deque[str],
                       waiting: List[Tuple[float, str]]) -> None:
        kind, detail = self._classify(exc)
        self.attempts[key] = self.attempts.get(key, 0) + 1
        if self.attempts[key] > self.policy.max_retries:
            self._fail(key, kind, detail)
            return
        self.report.retried += 1
        delay = backoff_ms(self.policy, key, self.attempts[key]) / 1000.0
        if delay > 0:
            heapq.heappush(waiting, (time.monotonic() + delay, key))
        else:
            queue.append(key)

    def _timeout_cell(self, key: str, queue: Deque[str],
                      waiting: List[Tuple[float, str]]) -> None:
        self.attempts[key] = self.attempts.get(key, 0) + 1
        assert self.policy.cell_timeout_s is not None
        if self.attempts[key] > self.policy.max_retries:
            self._fail(key, "timeout",
                       f"cell exceeded {self.policy.cell_timeout_s:g}s "
                       f"wall-clock budget")
            return
        self.report.retried += 1
        self.report.timeouts += 1
        delay = backoff_ms(self.policy, key, self.attempts[key]) / 1000.0
        if delay > 0:
            heapq.heappush(waiting, (time.monotonic() + delay, key))
        else:
            queue.append(key)

    def _collect_timeouts(
            self,
            inflight: Dict[Future[object], Tuple[str, Optional[float]]]
    ) -> List[Future[object]]:
        now = time.monotonic()
        return [fut for fut, (_key, dl) in inflight.items()
                if dl is not None and now >= dl and not fut.done()]

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            with contextlib.suppress(Exception):
                proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _degrade(self, queue: Deque[str],
                 waiting: List[Tuple[float, str]]) -> None:
        self.report.degraded = True
        remaining = sorted(set(queue) | {k for _t, k in waiting})
        warnings.warn(
            f"supervised batch exhausted its pool-rebuild budget "
            f"({self.policy.max_pool_rebuilds}); degrading to in-process "
            f"serial execution for {len(remaining)} remaining cell(s)",
            SupervisorDegradedWarning, stacklevel=4)
        self._note("DEGRADED: continuing serially")
        self.run_serial(remaining)

    def _drain_deadline(self, queue: Deque[str],
                        waiting: List[Tuple[float, str]],
                        inflight: Dict[Future[object],
                                       Tuple[str, Optional[float]]]
                        ) -> None:
        remaining = (set(queue) | {k for _t, k in waiting}
                     | {k for k, _dl in inflight.values()})
        for key in sorted(remaining):
            self._fail(key, "timeout", "batch deadline exhausted")


def run_supervised(specs: Iterable[CellSpec],
                   jobs: Optional[Union[int, str]] = None,
                   cache: Optional[ResultCache] = None,
                   progress: Optional[Callable[[str], None]] = None,
                   policy: Optional[SupervisorPolicy] = None,
                   resume: Optional[bool] = None,
                   chaos: Optional[ChaosSpec] = None) -> CellResults:
    """Execute a batch of cells: cache-first, supervised, merged by key.

    Duplicate specs are coalesced (each distinct simulation runs once).
    Every keyword left ``None`` comes from the installed
    :class:`~repro.parallel.executor.RunContext`; there is no
    "definitely uncached" sentinel — install a context without a cache
    if a batch must not be cached.  With a cache, every completed cell
    is journaled under ``<cache>/journal/`` so ``resume=True`` can
    re-execute only the cells an interrupted run never finished.

    Failed cells surface as :class:`CellFailure` outcome values (check
    :meth:`CellResults.raise_if_failed`); the batch itself always
    completes.  The :class:`SupervisorReport` is attached to the
    returned results as ``results.supervisor``.
    """
    global _last_report
    ctx = current_context()
    cache = ctx.cache if cache is None else cache
    policy = policy or ctx.policy or SupervisorPolicy()
    resume = ctx.resume if resume is None else resume
    chaos = ctx.chaos if chaos is None else chaos
    if chaos is not None and chaos.is_noop():
        chaos = None
    if resume and cache is None:
        raise ConfigurationError(
            "resume needs the result cache: the batch journal lives "
            "under <cache>/journal")

    unique: Dict[str, CellSpec] = {}
    for spec in specs:
        unique.setdefault(spec.canonical(), spec)

    report = SupervisorReport(total=len(unique))
    _last_report = report

    # Host-side chaos first: corrupt existing cache entries *before* the
    # cache-first pass, so the batch must detect and survive them.
    if chaos is not None and cache is not None:
        report.corrupt_injected = chaos_mod.corrupt_cache_entries(
            chaos, cache, unique.values())

    journal: Optional[BatchJournal] = None
    replayed: Dict[str, Dict[str, object]] = {}
    if cache is not None:
        journal = BatchJournal(cache.root / JOURNAL_DIR,
                               batch_key(unique, cache.salt))
        if resume:
            replayed = journal.replay()
        else:
            journal.reset()

    # Cache-first pass (hits never touch a worker); under resume, hits
    # whose journal record says "done" count as resumed cells.
    outcomes: Dict[str, CellOutcome] = {}
    todo: List[str] = []
    for key in sorted(unique):
        if cache is not None:
            hit, value = cache.get(unique[key])
            if hit:
                outcomes[key] = CellOutcome(
                    key=key, value=value,
                    fingerprint=result_fingerprint(value), cached=True)
                report.cached += 1
                record = replayed.get(key)
                if record is not None and record.get("status") == "done":
                    report.resumed += 1
                continue
        todo.append(key)

    if todo:
        workers = min(resolve_jobs(jobs), len(todo))
        if progress is not None:
            progress(f"supervising {len(todo)} cell(s) "
                     f"({report.cached} cached) with {workers} worker(s)")
        sup = _Supervisor(unique, workers, cache, policy, chaos, journal,
                          report, progress)
        if workers <= 1:
            sup.run_serial(todo)
        else:
            sup.run_pool(todo, _make_pool)
        outcomes.update(sup.outcomes)

    results = CellResults(outcomes)
    results.supervisor = report
    return results


#: The one way a batch runs (re-exported as :func:`repro.parallel.run_cells`).
run_cells = run_supervised
