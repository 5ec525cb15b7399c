"""Which program functions each layer's spans wrap, and the per-layer
metrics folded from a traced pass.

The wrappers are installed from here, around the public entry points of
each ``repro`` layer; no program file changes.  Wrappers live only in
the process that installs them, so spans cover in-process work: the
simulator layers are traced at ``--jobs 1``, and at ``--jobs 2`` the
time the parent process spends waiting on its workers shows up as the self time
of the batch span (``parallel.dispatch_wait_s``).

Simulated counts (events, spin waits, switches, IPIs, injected faults)
are read from every :class:`~repro.experiments.setup.Testbed` the pass
built; they must repeat exactly for a given seed.
"""

from __future__ import annotations

import importlib
from typing import Dict, Optional, Tuple

from repro.units import OVER_THRESHOLD_CYCLES
from spans import Patcher, SpanStats, Tracer, class_functions

__all__ = ["LAYERS", "SPAN_LAYER", "Instrumentation", "layer_metrics",
           "PER_LAYER_METRICS", "INVARIANTS"]

#: Modules imported before patching, so every ``from x import f`` site
#: already holds the function object :meth:`Patcher.everywhere` rebinds.
_PRELOAD = (
    "repro.cli", "repro.conformance", "repro.conformance.driver",
    "repro.conformance.oracle", "repro.conformance.scenarios",
    "repro.experiments.figures", "repro.experiments.robustness",
    "repro.experiments.runner", "repro.experiments.setup",
    "repro.parallel", "repro.parallel.cells", "repro.parallel.executor",
    "repro.parallel.supervisor", "repro.parallel.cache",
)

#: (span name, module, class or None, function names or None = every
#: function the class defines).
_TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]],
                ...] = (
    ("sim.run", "repro.sim.engine", "Simulator",
     ("run", "run_until", "run_until_true", "run_until_stopped")),
    ("vmm.schedule", "repro.vmm.scheduler_base", "SchedulerBase",
     ("schedule",)),
    ("vmm.assign_credits", "repro.vmm.scheduler_base", "SchedulerBase",
     ("assign_credits",)),
    ("vmm.hypercall", "repro.vmm.hypercall", "HypercallTable", ("call",)),
    ("asman.monitor", "repro.asman.monitor", "MonitoringModule",
     ("on_spinlock_wait", "on_wait_in_progress")),
    ("asman.learner", "repro.asman.learning", "RothErevLearner",
     ("next_estimate",)),
    ("hardware.ipi", "repro.hardware.ipi", "IPIFabric",
     ("send", "broadcast")),
    ("faults.inject", "repro.faults.injector", "FaultInjector",
     ("hypercall", "ipi_delivery", "monitor_report",
      "monitor_report_delay", "_flip")),
    ("metrics.timeline", "repro.metrics.timeline", "TimelineCollector",
     None),
    ("metrics.spinlock", "repro.metrics.spinlock_stats", "SpinlockStats",
     None),
    ("metrics.fairness", "repro.metrics.fairness", "FairnessReport", None),
    ("experiments.testbed", "repro.experiments.setup", "Testbed",
     ("__init__", "add_domain0", "add_vm", "start")),
    ("experiments.cell", "repro.parallel.cells", None, ("execute_cell",)),
    ("parallel.batch", "repro.parallel.supervisor", None,
     ("run_supervised",)),
    ("parallel.cache.get", "repro.parallel.cache", "ResultCache", ("get",)),
    ("parallel.cache.put", "repro.parallel.cache", "ResultCache", ("put",)),
    ("parallel.journal.append", "repro.parallel.supervisor",
     "BatchJournal", ("append",)),
    ("parallel.fingerprint", "repro.parallel.cells", None,
     ("result_fingerprint",)),
    ("parallel.spec_key", "repro.parallel.cells", "CellSpec",
     ("canonical",)),
    ("parallel.results", "repro.parallel.executor", "CellResults", None),
    ("parallel.cache.stats", "repro.parallel.cache", "ResultCache",
     ("stats",)),
    ("conformance.scenario_gen", "repro.conformance.scenarios", None,
     ("scenario_at",)),
    ("conformance.scenario_cell", "repro.conformance.scenarios", "Scenario",
     ("cell",)),
    ("conformance.judge", "repro.conformance.oracle", None, ("judge",)),
    ("conformance.judge", "repro.conformance.driver", None,
     ("_judge_twins",)),
)

#: The root span the benchmark opens around each CLI command; its self
#: time is the part of the pass no layer span covers.
ROOT = "cli"

#: Span of the benchmark's own work inside a traced pass (reading the
#: counters of finished testbeds); reported apart from every layer.
BENCH = "bench"

#: Span name -> layer (the prefix before the first dot).
#: ``parallel.reap`` is opened by the benchmark around its post-pass
#: join of the workers the fabric left running.
SPAN_LAYER: Dict[str, str] = {name: name.split(".")[0] for name in
                              [t[0] for t in _TARGETS] + ["parallel.reap"]}
LAYERS = ("sim", "vmm", "asman", "hardware", "faults", "metrics",
          "experiments", "parallel", "conformance")


class Instrumentation:
    """Span wrappers plus the counters read from built testbeds."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[str, int] = {
            "sim.events": 0, "sim.peak_heap": 0, "guest.spin_waits": 0,
            "guest.spin_over_threshold": 0, "guest.spin_cycles": 0,
            "vmm.switches": 0, "vmm.cosched_launches": 0,
            "asman.vcrd_flips": 0, "hardware.ipis": 0,
            "faults.injected": 0, "experiments.testbeds": 0,
            "parallel.cache.hits": 0, "conformance.violations": 0,
        }
        #: id -> testbed built since the last harvest.
        self._testbeds: Dict[int, object] = {}
        self._patcher = Patcher()

    # -- install / remove ------------------------------------------------ #
    def install(self) -> None:
        for name in _PRELOAD:
            importlib.import_module(name)
        after = {
            "parallel.cache.get": self._count_hit,
            "conformance.judge": self._count_violations,
            "experiments.testbed": self._register,
            "experiments.cell": self._harvest_after_cell,
        }
        for span, modname, clsname, names in _TARGETS:
            module = importlib.import_module(modname)
            owner = getattr(module, clsname) if clsname else module
            for fname in names or class_functions(owner):
                original = owner.__dict__[fname]
                wrapper = self.tracer.wrap(original, span, after.get(span))
                if clsname:
                    self._patcher.attr(owner, fname, wrapper)
                else:
                    self._patcher.everywhere("repro", original, wrapper)

    def remove(self) -> None:
        self.harvest()
        self._patcher.restore()

    # -- counters -------------------------------------------------------- #
    def _register(self, args, _result) -> None:
        tb = args[0]  # every wrapped Testbed method's ``self``
        if id(tb) not in self._testbeds:
            self.counts["experiments.testbeds"] += 1
            self._testbeds[id(tb)] = tb

    def _count_hit(self, _args, result) -> None:
        if result[0]:
            self.counts["parallel.cache.hits"] += 1

    def _count_violations(self, _args, result) -> None:
        self.counts["conformance.violations"] += len(result)

    def _harvest_after_cell(self, _args, _result) -> None:
        with self.tracer.span(BENCH):
            self.harvest()

    def harvest(self) -> None:
        """Fold the simulated statistics of every registered testbed
        into :attr:`counts` and drop the testbeds.

        Switches, gang launches and VCRD flips are the program's own
        counters: ``SchedulerBase.context_switches`` (PCPU switch-ins),
        ``AdaptiveScheduler.cosched_launches`` and ``VM.vcrd_changes``
        of every VM the testbed built, removed ones included.
        """
        counts = self.counts
        for tb in self._testbeds.values():
            sim, scheduler = tb.sim, tb.scheduler
            counts["sim.events"] += sim.events_executed
            counts["sim.peak_heap"] = max(counts["sim.peak_heap"],
                                          sim.peak_heap_entries)
            counts["hardware.ipis"] += scheduler.ipi.sent
            counts["vmm.switches"] += scheduler.context_switches
            counts["vmm.cosched_launches"] += getattr(
                scheduler, "cosched_launches", 0)
            vms = {id(vm): vm for vm in tb.vms.values()}
            vms.update((id(g.vm), g.vm) for g in tb.guests.values())
            counts["asman.vcrd_flips"] += sum(vm.vcrd_changes
                                              for vm in vms.values())
            if tb.faults is not None:
                counts["faults.injected"] += sum(tb.faults.stats().values())
            for name in tb.workloads:
                waits = tb.spin_stats(name).waits
                counts["guest.spin_waits"] += len(waits)
                counts["guest.spin_over_threshold"] += sum(
                    1 for w in waits if w > OVER_THRESHOLD_CYCLES)
                counts["guest.spin_cycles"] += sum(waits)
        self._testbeds.clear()


# --------------------------------------------------------------------- #
#: Every per-layer metric name with its unit, in report order.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"), ("sim.peak_heap", "count"),
    ("sim.run_s", "s"), ("sim.self_s", "s"), ("sim.ns_per_event", "ns"),
    ("guest.spin_waits", "count"), ("guest.spin_over_threshold", "count"),
    ("guest.spin_cycles", "cycles"),
    ("vmm.schedule.calls", "count"), ("vmm.schedule.self_s", "s"),
    ("vmm.assign_credits.calls", "count"),
    ("vmm.assign_credits.self_s", "s"),
    ("vmm.hypercalls", "count"), ("vmm.hypercall.self_s", "s"),
    ("vmm.switches", "count"), ("vmm.cosched_launches", "count"),
    ("asman.monitor.calls", "count"), ("asman.monitor.self_s", "s"),
    ("asman.learner.calls", "count"), ("asman.learner.self_s", "s"),
    ("asman.vcrd_flips", "count"),
    ("hardware.ipis", "count"), ("hardware.ipi.self_s", "s"),
    ("faults.injected", "count"), ("faults.self_s", "s"),
    ("metrics.self_s", "s"),
    ("experiments.testbeds", "count"), ("experiments.testbed_build_s", "s"),
    ("experiments.cell.self_s", "s"),
    ("parallel.cells", "count"), ("parallel.cells_executed", "count"),
    ("parallel.cells_cached", "count"),
    ("parallel.cache.get.calls", "count"),
    ("parallel.cache.get.self_s", "s"),
    ("parallel.cache.hit_ratio", "ratio"),
    ("parallel.cache.put.calls", "count"),
    ("parallel.cache.put.self_s", "s"),
    ("parallel.journal.append.calls", "count"),
    ("parallel.journal.append.self_s", "s"),
    ("parallel.fingerprint.self_s", "s"),
    ("parallel.spec_key.self_s", "s"), ("parallel.results.self_s", "s"),
    ("parallel.cache.stats.self_s", "s"),
    ("parallel.dispatch_wait_s", "s"),
    ("parallel.reap_s", "s"),
    ("parallel.worker_peak_rss_mb", "MB"),
    ("conformance.scenario_gen_s", "s"),
    ("conformance.scenario_cell.self_s", "s"),
    ("conformance.judge.calls", "count"), ("conformance.judge.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
    ("trace.unattributed_s", "s"),
)

#: Counts that are 0 on every correct run.  A traced run prints them,
#: but they are not per-layer metrics: each nonzero one is already a
#: failed operation (the run's ``correct`` and fail ratio carry them).
INVARIANTS: Tuple[Tuple[str, str], ...] = (
    ("parallel.children_left", "count"), ("parallel.retries", "count"),
    ("parallel.failures", "count"), ("conformance.violations", "count"),
)

#: Metrics each traced pass of a workload contributes: the simulator
#: layers come from the pass that runs cells in-process.
SIM_SIDE = ("sim", "guest", "vmm", "asman", "hardware", "faults",
            "metrics", "experiments")


def layer_metrics(stats: Dict[str, SpanStats], counts: Dict[str, int]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (span- and count-derived)."""
    def get(name: str) -> SpanStats:
        return stats.get(name) or SpanStats()

    def self_s(*names: str) -> float:
        return sum(get(n).self_ns for n in names) / 1e9

    run = get("sim.run")
    events = counts["sim.events"]
    gets = get("parallel.cache.get").calls
    out: Dict[str, float] = {
        "sim.events": events,
        "sim.peak_heap": counts["sim.peak_heap"],
        "sim.run_s": run.inclusive_ns / 1e9,
        "sim.self_s": self_s("sim.run"),
        "sim.ns_per_event": run.inclusive_ns / events if events else 0.0,
        "vmm.schedule.calls": get("vmm.schedule").calls,
        "vmm.schedule.self_s": self_s("vmm.schedule"),
        "vmm.assign_credits.calls": get("vmm.assign_credits").calls,
        "vmm.assign_credits.self_s": self_s("vmm.assign_credits"),
        "vmm.hypercalls": get("vmm.hypercall").calls,
        "vmm.hypercall.self_s": self_s("vmm.hypercall"),
        "asman.monitor.calls": get("asman.monitor").calls,
        "asman.monitor.self_s": self_s("asman.monitor"),
        "asman.learner.calls": get("asman.learner").calls,
        "asman.learner.self_s": self_s("asman.learner"),
        "hardware.ipi.self_s": self_s("hardware.ipi"),
        "faults.self_s": self_s("faults.inject"),
        "metrics.self_s": self_s("metrics.timeline", "metrics.spinlock",
                                 "metrics.fairness"),
        "experiments.testbed_build_s": self_s("experiments.testbed"),
        "experiments.cell.self_s": self_s("experiments.cell"),
        "parallel.cache.get.calls": gets,
        "parallel.cache.get.self_s": self_s("parallel.cache.get"),
        "parallel.cache.hit_ratio": (counts["parallel.cache.hits"] / gets
                                     if gets else 0.0),
        "parallel.cache.put.calls": get("parallel.cache.put").calls,
        "parallel.cache.put.self_s": self_s("parallel.cache.put"),
        "parallel.journal.append.calls":
            get("parallel.journal.append").calls,
        "parallel.journal.append.self_s": self_s("parallel.journal.append"),
        "parallel.fingerprint.self_s": self_s("parallel.fingerprint"),
        "parallel.spec_key.self_s": self_s("parallel.spec_key"),
        "parallel.results.self_s": self_s("parallel.results"),
        "parallel.cache.stats.self_s": self_s("parallel.cache.stats"),
        "parallel.dispatch_wait_s": self_s("parallel.batch"),
        "conformance.scenario_gen_s": self_s("conformance.scenario_gen"),
        "conformance.scenario_cell.self_s":
            self_s("conformance.scenario_cell"),
        "conformance.judge.calls": get("conformance.judge").calls,
        "conformance.judge.self_s": self_s("conformance.judge"),
    }
    for key in ("guest.spin_waits", "guest.spin_over_threshold",
                "guest.spin_cycles", "vmm.switches", "vmm.cosched_launches",
                "asman.vcrd_flips", "hardware.ipis", "faults.injected",
                "experiments.testbeds", "conformance.violations"):
        out[key] = counts[key]
    return out


def layer_self_seconds(stats: Dict[str, SpanStats]) -> Dict[str, float]:
    """Self seconds per layer, plus the root's unattributed remainder."""
    out = {layer: 0.0 for layer in LAYERS}
    out[ROOT] = 0.0
    for name, st in stats.items():
        layer = SPAN_LAYER.get(name, ROOT if name == ROOT else None)
        if layer is None:
            continue
        out[layer] += st.self_ns / 1e9
    return out

