"""Supervised execution: worker slots, retry, timeouts, journaled resume.

:func:`run_supervised` — exported as :func:`repro.parallel.run_cells`,
the one way a batch runs — executes cells cache-first in a supervision
loop that makes a multi-cell batch *survivable* without perturbing its
results:

* **Worker slots** — ``jobs > 1`` runs the batch on ``jobs`` spawned
  worker processes, each with one pipe and at most one cell at a time.
  The supervisor owns every slot, so it can stop one worker without
  touching the others.  Each worker starts with its parent's
  :func:`~repro.config.run_config` (sanitizer, fast-forward), so an
  in-process ``--sanitize`` reaches the cells it runs.
* **Timeouts** — a per-cell wall-clock budget (``cell_timeout_s``) that
  starts when the cell is sent to a ready worker, and a whole-batch
  deadline (``batch_deadline_s``).  A cell that overruns has its own
  worker terminated and respawned, and is charged one ``timeout``
  attempt; no other in-flight cell loses its attempt.  A cell that runs
  out of attempts is recorded as a structured :class:`CellFailure`
  outcome, never an exception that loses the batch.  (Per-cell timeouts
  are enforceable only with worker slots — a serial in-process cell
  cannot be interrupted.)
* **Crash recovery** — a worker that dies mid-cell (OOM kill, segfault,
  injected ``os._exit``) charges *its own* cell one ``crash`` attempt,
  exactly as an in-process :class:`~repro.parallel.chaos.ChaosKill`
  does, and its slot is respawned.  The per-cell retry budget therefore
  bounds crash loops too.
* **Deterministic retry** — error, crash and timeout retries are bounded
  by ``max_retries`` per cell, with backoff delays derived from the cell
  key through the :mod:`repro.sim.rng` named-stream discipline
  (``supervisor/backoff/<cell>/<attempt>``) — no wall-clock randomness,
  so ``repro lint`` stays clean.
* **Journaled resume** — every completed cell is appended (atomically,
  ``fsync`` per line) to ``<cache>/journal/<batch-key>.jsonl``; an
  interrupted sweep re-run with ``resume=True`` re-executes only the
  cells that never completed.  Torn trailing lines (the writer died
  mid-append) are skipped on replay.

No worker outlives :func:`run_supervised`: at the end of a batch each
is sent a stop message and joined, and on any abort (``SIGINT``) each is
terminated and joined before the exception propagates.

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
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Deque, Dict, Iterable, List,
                    Optional, Tuple, Union)

from repro.config import apply_run_config, run_config
from repro.errors import ConfigurationError, ExecutionError
from repro.parallel import chaos as chaos_mod
from repro.parallel.cache import ResultCache
from repro.parallel.cells import CellSpec, execute_cell, result_fingerprint
from repro.parallel.chaos import ChaosKill, ChaosSpec, cell_digest
from repro.parallel.executor import (CellFailure, CellOutcome, CellResults,
                                     _child_environment, current_context,
                                     resolve_jobs)
from repro.sim.rng import RngStreams

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import SpawnContext, SpawnProcess

__all__ = [
    "BatchJournal",
    "CellFailure",
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


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision parameters for one batch (all deterministic inputs).

    The default policy supervises *lightly*: no timeouts, two retries.
    ``None`` timeouts mean unlimited — explicitly setting a timeout of
    zero (or negative) is rejected rather than silently meaning "fail
    everything instantly".
    """

    #: Wall-clock budget for one cell attempt (worker slots only).
    cell_timeout_s: Optional[float] = None
    #: Wall-clock budget for the whole batch; cells that cannot start or
    #: finish inside it become structured timeout failures.
    batch_deadline_s: Optional[float] = None
    #: Failed attempts (errors, crashes, timeouts) allowed per cell
    #: *beyond* the first: a cell runs at most ``max_retries + 1`` times.
    max_retries: int = 2
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
    corrupt_injected: int = 0
    failures: List[CellFailure] = field(default_factory=list)

    def describe(self) -> str:
        text = (f"supervisor: {self.total} cell(s), {self.cached} cached, "
                f"{self.executed} executed, {self.retried} retried, "
                f"{self.timeouts} timeout(s), "
                f"{len(self.failures)} failure(s)")
        if self.resumed:
            text += f", {self.resumed} resumed"
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
# Worker side (module-level: must pickle under spawn)
# --------------------------------------------------------------------- #
#: A worker's first message: it has started and can take a cell.
_READY = "ready"


def _dispatch(spec: CellSpec, key: str, chaos: Optional[ChaosSpec],
              seq: int, final: bool) -> object:
    """One supervised cell attempt inside a worker."""
    if chaos is not None:
        chaos_mod.apply_worker_chaos(chaos, key, seq, final,
                                     in_process=False)
    return execute_cell(spec)


def _worker(conn: "Connection", config: Dict[str, bool]) -> None:
    """A worker slot's process: install the parent's ``config`` (a
    :func:`~repro.config.run_config` dict), send :data:`_READY`, then run
    one cell per message until told to stop (``None``) or the pipe
    closes.

    Each reply is ``(True, value)``, or ``(False, "Type: message")``
    for the exception the cell raised — or, when the value does not
    pickle, for the pickling error.  ``SIGINT`` is ignored: the
    supervisor owns the worker and terminates it when the batch is
    interrupted.
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    apply_run_config(config)
    conn.send(_READY)
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        try:
            reply: Tuple[bool, object] = (True, _dispatch(*task))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except Exception as exc:  # the value does not pickle
            conn.send((False, f"{type(exc).__name__}: {exc}"))


class _Slot:
    """One spawned worker, its pipe, and the cell it holds (if any)."""

    def __init__(self, ctx: "SpawnContext") -> None:
        self.conn, child = ctx.Pipe()
        self.proc: "SpawnProcess" = ctx.Process(
            target=_worker, args=(child, run_config()), daemon=True)
        self.proc.start()
        child.close()  # so the parent's recv sees EOF once the worker dies
        #: Set once the worker's ready message has arrived.
        self.ready = False
        #: The cell being run, and the monotonic time its budget ends.
        self.key: Optional[str] = None
        self.deadline: Optional[float] = None

    @property
    def idle(self) -> bool:
        return self.ready and self.key is None

    def stop(self, terminate: bool = False) -> None:
        """End the worker and reap it: an idle worker is asked to stop
        (unless ``terminate``), any other is terminated."""
        if self.idle and not terminate:
            with contextlib.suppress(OSError):
                self.conn.send(None)
        else:
            self.proc.terminate()
        self.proc.join()
        self.conn.close()


# --------------------------------------------------------------------- #
# The supervision loop
# --------------------------------------------------------------------- #
class _Supervisor:
    """State machine for one supervised batch (worker slots or serial)."""

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
        #: Failed attempts per cell (errors, crashes, timeouts).
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

    # -- serial supervised execution ------------------------------------ #
    def run_serial(self, keys: Iterable[str]) -> None:
        """In-process execution with retry (and in-process chaos).

        Used for ``jobs == 1`` batches; per-cell timeouts are not
        enforceable here (nothing can interrupt an in-process cell), but
        the batch deadline still is — it is checked between attempts.
        """
        for key in keys:
            if key in self.outcomes:
                continue
            if self._out_of_time():
                self._fail(key, "timeout", "batch deadline exhausted")
                continue
            while True:
                final = self._is_final(key)
                seq = self._next_seq(key)
                try:
                    if self.chaos is not None:
                        chaos_mod.apply_worker_chaos(
                            self.chaos, key, seq, final, in_process=True)
                    value = execute_cell(self.unique[key])
                except Exception as exc:
                    kind = "crash" if isinstance(exc, ChaosKill) else "error"
                    self.attempts[key] = self.attempts.get(key, 0) + 1
                    if final or self._out_of_time():
                        self._fail(key, kind, f"{type(exc).__name__}: {exc}")
                        break
                    self.report.retried += 1
                    _sleep(backoff_ms(self.policy, key,
                                      self.attempts[key]) / 1000.0)
                else:
                    self._succeed(key, value)
                    break

    # -- worker slots ---------------------------------------------------- #
    def run_pool(self, keys: List[str]) -> None:
        """Run ``keys`` on ``self.workers`` worker slots."""
        # Slot-only modules load here, so a serial batch never pays them.
        import multiprocessing
        from multiprocessing.connection import wait
        _child_environment()
        ctx = multiprocessing.get_context("spawn")
        queue: Deque[str] = deque(keys)
        waiting: List[Tuple[float, str]] = []  # (ready_at, key) heap
        slots: List[_Slot] = []
        try:
            slots.extend(_Slot(ctx) for _ in range(self.workers))
            while queue or waiting or any(s.key is not None
                                          for s in slots):
                if self._out_of_time():
                    self._drain_deadline(queue, waiting, slots)
                    break
                ready = wait([h for s in slots
                              for h in (s.conn, s.proc.sentinel)],
                             timeout=self._tick(queue, waiting, slots))
                replies: List[Tuple[str, object]] = []
                for i, slot in enumerate(slots):
                    if slot.conn in ready or slot.proc.sentinel in ready:
                        slots[i] = self._collect(slot, ctx, replies,
                                                 queue, waiting)
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    queue.append(heapq.heappop(waiting)[1])
                # Refill idle slots before the replies' cache and journal
                # writes, so workers compute while the parent fsyncs.
                for i, slot in enumerate(slots):
                    if slot.idle and queue:
                        slots[i] = self._send(slot, ctx, queue)
                for key, (ok, value) in replies:
                    if ok:
                        self._succeed(key, value)
                    else:
                        self._retry_or_fail(key, "error", str(value),
                                            queue, waiting)
                # A passed deadline stops only its own worker; a result
                # already in the pipe is read on the next round instead.
                now = time.monotonic()
                for i, slot in enumerate(slots):
                    key = slot.key
                    if (key is not None and slot.deadline is not None
                            and now >= slot.deadline
                            and not slot.conn.poll()):
                        slot.stop()
                        slots[i] = _Slot(ctx)
                        self._retry_or_fail(
                            key, "timeout",
                            f"cell exceeded {self.policy.cell_timeout_s:g}s "
                            f"wall-clock budget", queue, waiting)
        except BaseException:
            for slot in slots:
                slot.stop(terminate=True)
            raise
        for slot in slots:
            slot.stop()

    def _collect(self, slot: _Slot, ctx: "SpawnContext",
                 replies: List[Tuple[str, object]], queue: Deque[str],
                 waiting: List[Tuple[float, str]]) -> _Slot:
        """Read one slot's message (or its death); return the slot that
        holds its place from now on."""
        try:
            message = slot.conn.recv() if slot.conn.poll() else None
        except (EOFError, OSError):
            message = None
        if message is not None:
            if not slot.ready:
                slot.ready = True  # the ready message
            elif slot.key is not None:
                replies.append((slot.key, message))
                slot.key, slot.deadline = None, None
            return slot
        # No message: the worker died.  Its own cell, and only that, is
        # charged a crash.
        key = slot.key
        slot.stop(terminate=True)
        if not slot.ready:
            raise ExecutionError(f"a worker exited during start-up "
                                 f"(exit code {slot.proc.exitcode})")
        if key is not None:
            self._retry_or_fail(
                key, "crash",
                f"worker died (exit code {slot.proc.exitcode})",
                queue, waiting)
        return _Slot(ctx)

    def _send(self, slot: _Slot, ctx: "SpawnContext",
              queue: Deque[str]) -> _Slot:
        """Hand the next queued cell to an idle slot; its budget starts
        now.  A worker that died while idle is replaced, uncharged."""
        key = queue.popleft()
        try:
            slot.conn.send((self.unique[key], key, self.chaos,
                            self._next_seq(key), self._is_final(key)))
        except OSError:
            queue.appendleft(key)
            slot.stop(terminate=True)
            return _Slot(ctx)
        slot.key = key
        if self.policy.cell_timeout_s is not None:
            slot.deadline = time.monotonic() + self.policy.cell_timeout_s
        return slot

    def _tick(self, queue: Deque[str], waiting: List[Tuple[float, str]],
              slots: List[_Slot]) -> Optional[float]:
        """How long the wait may block before the next deadline."""
        if queue and any(s.idle for s in slots):
            return 0.0
        targets = [s.deadline for s in slots if s.deadline is not None]
        if waiting:
            targets.append(waiting[0][0])
        if self.deadline is not None:
            targets.append(self.deadline)
        if not targets:
            return None
        return max(0.0, min(targets) - time.monotonic())

    def _retry_or_fail(self, key: str, kind: str, detail: str,
                       queue: Deque[str],
                       waiting: List[Tuple[float, str]]) -> None:
        """Charge ``key`` one failed attempt of ``kind``: requeue it
        after its backoff, or record its failure once out of retries."""
        self.attempts[key] = self.attempts.get(key, 0) + 1
        if self.attempts[key] > self.policy.max_retries:
            self._fail(key, kind, detail)
            return
        self.report.retried += 1
        if kind == "timeout":
            self.report.timeouts += 1
        delay = backoff_ms(self.policy, key, self.attempts[key]) / 1000.0
        if delay > 0:
            heapq.heappush(waiting, (time.monotonic() + delay, key))
        else:
            queue.append(key)

    def _drain_deadline(self, queue: Deque[str],
                        waiting: List[Tuple[float, str]],
                        slots: List[_Slot]) -> None:
        remaining = (set(queue) | {k for _t, k in waiting}
                     | {s.key for s in slots if s.key is not None})
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
            sup.run_pool(todo)
        outcomes.update(sup.outcomes)

    results = CellResults(outcomes)
    results.supervisor = report
    return results


#: The one way a batch runs (re-exported as :func:`repro.parallel.run_cells`).
run_cells = run_supervised
