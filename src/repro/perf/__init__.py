"""Events/sec regression harness for the simulation core.

The hot path of every figure in the reproduction is
:class:`repro.sim.engine.Simulator`; this package times it so that a
change to the engine (or the scheduler/guest layers it drives) can show
it did not regress raw throughput.  Wall time end to end and per layer
is ``perfbench/``'s job; bit-identity is gated by the whole-figure diffs
(``benchmarks/test_figures.py`` under ``REPRO_NO_FASTFORWARD=1`` and
``REPRO_SANITIZE=1``).

Two benchmark tiers, each at one fixed, CI-sized configuration:

* **micro** (:mod:`repro.perf.micro`) — the engine in isolation: raw
  event throughput, schedule/cancel churn (exercises heap compaction),
  a periodic-timer storm (the bucketed tick fast path), a pure-Compute
  dispatch chain and a guest spinlock contention storm driving the full
  kernel/VMM stack;
* **macro** (:mod:`repro.perf.macro`) — timed runs of the Figure 7 and
  Figure 11(a) testbeds.

Each benchmark emits ``BENCH_<name>.json`` with
``{wall_s, events, events_per_s, peak_heap_entries, fingerprint}`` (see
:class:`repro.perf.harness.BenchResult`).  ``python -m repro perf``
runs the suite; ``--check BASELINE`` gates events/sec against a
committed baseline (``benchmarks/perf_baseline.json``), normalising for
host speed with a pure-Python calibration loop.
"""

from repro.config import run_config
from repro.perf.harness import (FAIL_THRESHOLD, BenchResult, calibrate,
                                check_against_baseline, load_baseline,
                                registry, run_benchmarks, write_baseline,
                                write_result)
from repro.perf import macro, micro  # noqa: F401  (register benchmarks)

__all__ = [
    "FAIL_THRESHOLD",
    "BenchResult",
    "calibrate",
    "check_against_baseline",
    "load_baseline",
    "registry",
    "run_benchmarks",
    "run_config",
    "write_baseline",
    "write_result",
]
