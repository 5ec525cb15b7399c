"""Deterministic chaos injection for the supervised execution fabric.

Where :mod:`repro.faults` attacks the *simulated* system (hypercalls,
IPIs, the Monitoring Module), this module attacks the *driver* layer
that runs simulations: it kills pool workers mid-cell, stalls cells past
their timeout, corrupts on-disk cache entries and poisons chosen cells —
exactly the failures :mod:`repro.parallel.supervisor` exists to survive.
The design mirrors :class:`~repro.faults.spec.FaultSpec`:

* :class:`ChaosSpec` is a frozen, picklable, inert description; the
  default-constructed spec injects nothing (:meth:`ChaosSpec.is_noop`);
* every injection decision is a pure function of ``(chaos seed, site,
  cell key, attempt)`` drawn from dedicated named
  :class:`~repro.sim.rng.RngStreams` (``chaos/<site>/<cell>/<attempt>``)
  — no wall-clock randomness, so a chaos schedule is reproducible and
  ``simlint --interprocedural`` stays clean;
* by default chaos **spares the final allowed attempt** of each cell
  (``spare_final_attempt``), so a supervised run under kills/stalls/
  corruption is *guaranteed* to converge to results bit-identical to a
  clean run — the determinism gate ``repro chaos`` and the CI chaos job
  enforce.  Poisoned cells are the deliberate exception: they fail every
  attempt, proving retry exhaustion yields a structured
  :class:`~repro.parallel.supervisor.CellFailure`, never a lost batch.

Surfaces: the ``repro chaos`` CLI subcommand (self-proving demo), the
``--chaos KEY=VALUE,...`` option on every fabric subcommand, and the
``chaos_fabric`` pytest fixture (import it from this module, or load the
module as a plugin with ``-p repro.parallel.chaos``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple, Union

from repro.errors import ConfigurationError
from repro.parallel.cache import ResultCache
from repro.parallel.cells import CellSpec
from repro.sim.rng import RngStreams

__all__ = [
    "ChaosError",
    "ChaosKill",
    "ChaosPoisoned",
    "ChaosSpec",
    "apply_worker_chaos",
    "corrupt_cache_entries",
]

#: Exit status a chaos-killed worker dies with (visible in core dumps /
#: CI logs as "the injection", distinct from OOM kills and segfaults).
KILL_EXIT_STATUS = 86

#: Probability fields, all in [0, 1].
_RATE_FIELDS = ("kill_rate", "stall_rate", "error_rate", "corrupt_rate")

#: Patchable sleep so tests can run stall scenarios instantly.
_sleep = time.sleep


class ChaosError(Exception):
    """An injected in-cell failure (``error_rate`` site)."""


class ChaosKill(ChaosError):
    """The in-process translation of a worker kill: raised instead of
    ``os._exit`` when the supervisor runs cells serially (degraded mode
    or ``jobs=1``), where killing the process would kill the driver."""


class ChaosPoisoned(ChaosError):
    """A poisoned cell's unconditional per-attempt failure."""


@dataclass(frozen=True)
class ChaosSpec:
    """One deterministic driver-level chaos scenario.

    All defaults are no-ops.  Rates are per-(cell, attempt) injection
    probabilities; ``poison_keys`` are substrings matched against a
    cell's canonical key (e.g. ``'"seed":3'``) that make it fail *every*
    attempt.
    """

    #: Salt of the ``chaos/...`` stream family — two chaos scenarios
    #: with different seeds draw independent schedules.
    seed: int = 0
    #: Probability an attempt's worker is killed (``os._exit``) mid-cell.
    kill_rate: float = 0.0
    #: Probability an attempt stalls for ``stall_s`` wall-clock seconds
    #: before computing (trips the supervisor's cell timeout when the
    #: stall exceeds it; otherwise just a late, correct result).
    stall_rate: float = 0.0
    stall_s: float = 0.0
    #: Probability an attempt raises :class:`ChaosError` inside the cell.
    error_rate: float = 0.0
    #: Probability an *existing* cache entry for a batch cell is
    #: bit-flipped on disk before the batch reads it (host-side site:
    #: exercises checksum verification and quarantine).
    corrupt_rate: float = 0.0
    #: Canonical-key substrings naming cells that fail every attempt.
    poison_keys: Tuple[str, ...] = ()
    #: Never inject kill/stall/error into a cell's final allowed attempt,
    #: making convergence (and the bit-identical-results gate) certain.
    spare_final_attempt: bool = True

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {value!r}")
        if self.stall_rate > 0.0 and self.stall_s <= 0.0:
            raise ConfigurationError("stall_rate needs stall_s > 0")
        if self.stall_s < 0.0:
            raise ConfigurationError(
                f"stall_s must be >= 0, got {self.stall_s!r}")
        if not all(isinstance(k, str) and k for k in self.poison_keys):
            raise ConfigurationError(
                "poison_keys must be non-empty strings")

    def is_noop(self) -> bool:
        """True iff this spec injects nothing."""
        return (self.kill_rate == 0.0 and self.stall_rate == 0.0
                and self.error_rate == 0.0 and self.corrupt_rate == 0.0
                and not self.poison_keys)

    def describe(self) -> str:
        """Compact ``key=value`` rendering of the non-default fields."""
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value != f.default and f.name != "seed":
                if f.name == "poison_keys":
                    value = "+".join(self.poison_keys)
                parts.append(f"{f.name}={value}")
        return ",".join(parts) if parts else "none"

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Build a spec from ``key=value,key=value`` CLI syntax.

        ``poison_keys`` takes a ``+``-separated list; an empty string or
        ``none`` yields the no-op spec.
        """
        text = text.strip()
        if not text or text == "none":
            return cls()
        by_name = {f.name: f for f in dataclasses.fields(cls)}
        kwargs: Dict[str, Union[int, float, bool,
                                Tuple[str, ...]]] = {}
        for item in text.split(","):
            if "=" not in item:
                raise ConfigurationError(
                    f"bad chaos item {item!r}; expected key=value")
            key, _, raw = item.partition("=")
            key = key.strip()
            raw = raw.strip()
            field = by_name.get(key)
            if field is None:
                raise ConfigurationError(
                    f"unknown chaos field {key!r}; choose from "
                    f"{sorted(by_name)}")
            if key in kwargs:
                raise ConfigurationError(
                    f"duplicate chaos field {key!r}")
            try:
                if key == "poison_keys":
                    kwargs[key] = tuple(p for p in raw.split("+") if p)
                elif key == "spare_final_attempt":
                    # Case-insensitive so describe() output re-parses.
                    flag = raw.lower()
                    if flag not in ("0", "1", "true", "false"):
                        raise ValueError(raw)
                    kwargs[key] = flag in ("1", "true")
                elif key == "seed":
                    kwargs[key] = int(raw)
                else:
                    kwargs[key] = float(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad value for chaos field {key!r}: {raw!r}") from exc
        return cls(**kwargs)  # type: ignore[arg-type]


# --------------------------------------------------------------------- #
# Deterministic draws
# --------------------------------------------------------------------- #
def cell_digest(key: str) -> str:
    """Short stable digest of a canonical cell key for RNG stream names
    (chaos draws here, retry backoff in the supervisor)."""
    return hashlib.blake2b(key.encode("utf-8"),
                           digest_size=8).hexdigest()


def chaos_draw(spec: ChaosSpec, site: str, key: str, attempt: int) -> float:
    """The deterministic uniform draw for one (site, cell, attempt).

    A pure function of ``(spec.seed, site, key, attempt)`` — independent
    of dispatch order, pool timing, and every other stream in the
    system (the :mod:`repro.sim.rng` named-stream discipline, one level
    up from the simulation).
    """
    stream = RngStreams(seed=spec.seed).get(
        f"chaos/{site}/{cell_digest(key)}/{attempt}")
    return float(stream.random())


def is_poisoned(spec: ChaosSpec, key: str) -> bool:
    """Does any poison substring match this cell's canonical key?"""
    return any(p in key for p in spec.poison_keys)


def apply_worker_chaos(spec: ChaosSpec, key: str, attempt: int,
                       final: bool, in_process: bool) -> None:
    """Run the injection sites for one cell attempt, in order.

    Called at the top of every dispatched attempt — inside the pool
    worker normally, in the driver process when the supervisor executes
    serially (``in_process=True``, where a kill is translated into a
    :class:`ChaosKill` exception so the driver survives).
    """
    if is_poisoned(spec, key):
        raise ChaosPoisoned(
            f"poisoned cell (attempt {attempt}): injected unconditional "
            f"failure")
    if final and spec.spare_final_attempt:
        return
    if spec.kill_rate > 0.0 and \
            chaos_draw(spec, "kill", key, attempt) < spec.kill_rate:
        if in_process:
            raise ChaosKill(f"injected worker kill (attempt {attempt})")
        os._exit(KILL_EXIT_STATUS)
    if spec.stall_rate > 0.0 and \
            chaos_draw(spec, "stall", key, attempt) < spec.stall_rate:
        _sleep(spec.stall_s)
    if spec.error_rate > 0.0 and \
            chaos_draw(spec, "error", key, attempt) < spec.error_rate:
        raise ChaosError(f"injected cell error (attempt {attempt})")


def corrupt_cache_entries(spec: ChaosSpec, cache: ResultCache,
                          cells: Iterable[CellSpec]) -> int:
    """Host-side site: bit-flip existing cache entries for batch cells.

    Selection is the deterministic ``chaos/corrupt/<cell>`` draw; only
    entries already on disk are touched (corruption of *absent* entries
    is meaningless).  Returns the number of entries corrupted.  The
    supervised batch that follows must quarantine each one and
    re-execute the cell — checked by the ``repro chaos`` gate.
    """
    if spec.corrupt_rate <= 0.0:
        return 0
    corrupted = 0
    for cell in cells:
        key = cell.canonical()
        if chaos_draw(spec, "corrupt", key, 0) >= spec.corrupt_rate:
            continue
        path = cache._entry_path(cache.key_for(cell))
        try:
            data = path.read_bytes()
        except OSError:
            continue
        if not data:
            continue
        path.write_bytes(bytes([data[0] ^ 0xFF]) + data[1:])
        corrupted += 1
    return corrupted


# --------------------------------------------------------------------- #
# pytest surface
# --------------------------------------------------------------------- #
# Guarded so importing this module as a library never requires pytest.
# Use `from repro.parallel.chaos import chaos_fabric` in a test module
# (or `-p repro.parallel.chaos`) to get the fixture.
try:  # pragma: no cover - exercised via the test suite itself
    import pytest as _pytest
except ImportError:  # pragma: no cover
    _pytest = None  # type: ignore[assignment]

if _pytest is not None:
    @_pytest.fixture  # type: ignore[misc]
    def chaos_fabric(tmp_path):  # type: ignore[no-untyped-def]
        """Factory running supervised batches under deterministic chaos.

        Returns ``run(specs, chaos=..., policy=..., jobs=..., ...)``
        backed by a per-test :class:`ResultCache` (journal included), so
        a test can assert both the merged results and the supervisor's
        report/journal/quarantine side effects.
        """
        from repro.parallel.supervisor import (SupervisorPolicy,
                                               run_supervised)

        default_cache = ResultCache(tmp_path / "chaos-cache")

        def _run(specs, chaos=None, policy=None, jobs=2,  # type: ignore[no-untyped-def]
                 cache=None, resume=False):
            if cache is None:
                cache = default_cache
            if policy is None:
                policy = SupervisorPolicy(max_retries=3,
                                          max_pool_rebuilds=20)
            return run_supervised(list(specs), jobs=jobs, cache=cache,
                                  policy=policy, chaos=chaos,
                                  resume=resume)

        _run.cache = default_cache  # type: ignore[attr-defined]
        return _run
