"""Benchmark plumbing: results, registry, baselines, regression checks.

A benchmark is a callable ``fn(quick: bool) -> BenchResult`` registered
via :func:`bench`.  Results serialise to ``BENCH_<name>.json``; a
*baseline* file aggregates one run's results (plus a host-speed
calibration figure) so later runs can be gated against it.

Cross-host comparability
------------------------
Raw events/sec depends on the machine running the benchmark.  Each run
therefore also times a fixed pure-Python **calibration loop** that does
not touch the simulator; a baseline check scales the expected events/sec
by ``current_calibration / baseline_calibration`` before applying the
regression threshold, so a slower CI runner does not read as an engine
regression.  Simulation *fingerprints* (deterministic integer outcomes)
are compared exactly — they are hardware independent by construction.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError

#: Registered benchmarks, in registration order: name -> fn(quick) -> BenchResult.
registry: Dict[str, Callable[[bool], "BenchResult"]] = {}


def bench(name: str) -> Callable:
    """Decorator: register a benchmark under ``name``."""

    def register(fn: Callable[[bool], "BenchResult"]) -> Callable:
        if name in registry:
            raise ConfigurationError(f"duplicate benchmark name {name!r}")
        registry[name] = fn
        return fn

    return register


@dataclass
class BenchResult:
    """Outcome of one benchmark run.

    ``fingerprint`` is an integer digest of the *simulated* outcome
    (e.g. final clock value mixed with counters).  It must be identical
    across hosts and runs for the same code — a mismatch against the
    baseline means the simulation behaved differently, which a pure
    performance change must never do.
    """

    name: str
    wall_s: float
    events: int
    events_per_s: float
    peak_heap_entries: int
    fingerprint: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        d = {
            "name": self.name,
            "wall_s": round(self.wall_s, 6),
            "events": self.events,
            "events_per_s": round(self.events_per_s, 1),
            "peak_heap_entries": self.peak_heap_entries,
        }
        if self.fingerprint is not None:
            d["fingerprint"] = self.fingerprint
        if self.extra:
            d["extra"] = {k: round(v, 6) for k, v in self.extra.items()}
        return d


def fingerprint_of(*values: int) -> int:
    """Mix integer outcomes into one 64-bit FNV-1a-style digest.

    Used for determinism gating: fingerprints of a simulated run are pure
    functions of the configuration and seeds, never of the host.
    """
    acc = 0xCBF29CE484222325
    for v in values:
        acc ^= int(v) & 0xFFFFFFFFFFFFFFFF
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def run_config() -> Dict[str, bool]:
    """The determinism-relevant configuration of this process.

    Sanitizer-on runs execute extra validation work (slower) and
    fast-forward-off runs take the step-wise paths (also slower); both
    still produce identical fingerprints, but their events/sec are not
    comparable to a differently-configured baseline.  Every baseline is
    stamped with this dict and :func:`check_against_baseline` refuses to
    compare across differing stamps instead of reporting a phantom
    regression (or masking a real one).
    """
    from repro import analysis
    from repro.fastforward import fastforward_enabled

    return {"sanitize": analysis.sanitize_enabled(),
            "fastforward": fastforward_enabled()}


def timed(fn: Callable[[], int]) -> tuple:
    """Run ``fn`` (returning an event count) under a wall-clock timer;
    return ``(wall_s, events)``."""
    t0 = time.perf_counter()
    events = fn()
    wall = time.perf_counter() - t0
    return max(wall, 1e-9), events


def result_from_sim(name: str, sim, wall_s: float,
                    fingerprint: Optional[int] = None,
                    **extra: float) -> BenchResult:
    """Build a BenchResult from a finished :class:`Simulator`."""
    events = sim.events_executed
    return BenchResult(
        name=name,
        wall_s=wall_s,
        events=events,
        events_per_s=events / wall_s,
        peak_heap_entries=getattr(sim, "peak_heap_entries", 0),
        fingerprint=fingerprint,
        extra=dict(extra),
    )


# --------------------------------------------------------------------- #
# Calibration
# --------------------------------------------------------------------- #
def calibrate(rounds: int = 3) -> float:
    """Host-speed figure: iterations/second of a fixed pure-Python loop
    (integer arithmetic + dict traffic, roughly the engine's mix).  Takes
    the best of ``rounds`` to shed scheduling noise."""
    n = 200_000
    best = float("inf")
    for _ in range(rounds):
        d: Dict[int, int] = {}
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i * i & 1023
            d[i & 255] = acc
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return n / best


# --------------------------------------------------------------------- #
# Running and persistence
# --------------------------------------------------------------------- #
def run_benchmarks(names: Optional[Sequence[str]] = None,
                   quick: bool = False,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> List[BenchResult]:
    """Run the selected (default: all) registered benchmarks."""
    selected = list(names) if names else list(registry)
    unknown = [n for n in selected if n not in registry]
    if unknown:
        raise ConfigurationError(
            f"unknown benchmark(s) {unknown}; available: {sorted(registry)}")
    results = []
    for name in selected:
        if progress:
            progress(name)
        results.append(registry[name](quick))
    return results


def write_result(result: BenchResult, out_dir: Path) -> Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{result.name}.json"
    path.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    return path


def write_baseline(results: Sequence[BenchResult], path: Path,
                   quick: bool, calibration: float) -> None:
    """Persist one run as the regression baseline."""
    doc = {
        "meta": {
            "mode": "quick" if quick else "full",
            "config": run_config(),
            "calibration_events_per_s": round(calibration, 1),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "benches": {r.name: r.to_dict() for r in results},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def load_baseline(path: Path) -> Dict:
    """Read a baseline document written by :func:`write_baseline`."""
    return json.loads(Path(path).read_text())


def check_against_baseline(results: Sequence[BenchResult], baseline: Dict,
                           calibration: float,
                           threshold: float = 0.30) -> List[str]:
    """Compare a run against a baseline.  Returns a list of human-readable
    failures (empty = pass).

    * the baseline's config stamp (sanitize / fast-forward state) must
      match this process exactly — differently-configured runs are not
      performance-comparable and the check refuses them loudly;
    * events/sec may not drop more than ``threshold`` below the baseline
      after host-speed normalisation;
    * fingerprints must match exactly (determinism gate);
    * benchmarks present in the baseline but not in the run are reported,
      so a gate cannot silently shrink its coverage.
    """
    failures: List[str] = []
    meta = baseline.get("meta", {})
    base_config = meta.get("config")
    config = run_config()
    if base_config is None:
        failures.append(
            "baseline has no config stamp (pre-quiescence-fast-forward "
            "schema); regenerate it with --update-baseline")
        return failures
    if base_config != config:
        failures.append(
            f"config mismatch: baseline recorded with {base_config} but "
            f"this run is {config} — events/sec across sanitizer or "
            f"fast-forward settings are not comparable; rerun with a "
            f"matching configuration or regenerate the baseline")
        return failures
    base_cal = float(meta.get("calibration_events_per_s", 0.0))
    scale = (calibration / base_cal) if base_cal > 0 else 1.0
    by_name = {r.name: r for r in results}
    for name, base in baseline.get("benches", {}).items():
        got = by_name.get(name)
        if got is None:
            failures.append(f"{name}: present in baseline but not run")
            continue
        expected = float(base["events_per_s"]) * scale
        floor = expected * (1.0 - threshold)
        if got.events_per_s < floor:
            failures.append(
                f"{name}: {got.events_per_s:,.0f} events/s < floor "
                f"{floor:,.0f} (baseline {base['events_per_s']:,.0f} "
                f"x host-scale {scale:.2f}, threshold {threshold:.0%})")
        base_fp = base.get("fingerprint")
        if base_fp is not None and got.fingerprint is not None \
                and got.fingerprint != base_fp:
            failures.append(
                f"{name}: fingerprint {got.fingerprint} != baseline "
                f"{base_fp} — the simulation behaved differently; if "
                f"intended, regenerate the baseline with --update-baseline")
    return failures
