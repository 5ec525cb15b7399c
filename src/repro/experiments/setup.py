"""Testbed construction: the simulated Dell T5400 running Xen.

:class:`Testbed` wires together simulator, trace bus, machine, one of the
three schedulers, the hypercall table and per-VM guests/monitors, exactly
mirroring the paper's setup (Section 5.1): 8 PCPUs, an idle 8-VCPU
Domain-0 with weight 256, guest VMs with 4 VCPUs each.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

import numpy as np

from repro.analysis import sanitize_enabled
from repro.analysis.sanitizer import SchedulerSanitizer
from repro.asman.inference import ExternalVcrdMonitor, InferenceConfig
from repro.asman.monitor import MonitoringModule
from repro.config import (GuestConfig, MachineConfig, MonitorConfig,
                          SchedulerConfig, VMConfig)
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultSpec
from repro.guest.kernel import GuestKernel
from repro.hardware.machine import Machine
from repro.metrics.runtime import RuntimeCollector
from repro.metrics.spinlock_stats import SpinlockStats
from repro.sim.engine import Simulator
from repro.sim.fastforward import fastforward_enabled
from repro.sim.rng import RngStreams
from repro.sim.tracing import TraceBus
from repro.vmm.adaptive import AdaptiveScheduler
from repro.vmm.coschedule import StaticCoscheduler
from repro.vmm.credit import CreditScheduler
from repro.vmm.relaxed import RelaxedCoscheduler
from repro.vmm.hypercall import HypercallTable
from repro.vmm.scheduler_base import SchedulerBase
from repro.vmm.vm import VM
from repro.workloads.base import Workload

_SCHEDULERS: Dict[str, Type[SchedulerBase]] = {
    "credit": CreditScheduler,
    "asman": AdaptiveScheduler,
    "con": StaticCoscheduler,
    "relaxed": RelaxedCoscheduler,
}


def make_scheduler(name: str) -> Type[SchedulerBase]:
    """Resolve a scheduler class by its paper label."""
    cls = _SCHEDULERS.get(name.lower())
    if cls is None:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; choose from {sorted(_SCHEDULERS)}")
    return cls


def register_scheduler(name: str, cls: Type[SchedulerBase]) -> None:
    """Register an extra scheduler class under ``name``.

    Extension hook used by :mod:`repro.conformance`'s deliberately broken
    test-only mutants.  Registering the same class twice is a no-op;
    rebinding an existing name to a *different* class raises, so the
    built-in schedulers cannot be silently replaced.  Registrations are
    process-local: parallel-fabric workers (spawned fresh) do not see
    them, so cells naming a registered scheduler must run with
    ``jobs=1``.
    """
    key = name.lower()
    existing = _SCHEDULERS.get(key)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"scheduler {name!r} is already registered as "
            f"{existing.__name__}")
    _SCHEDULERS[key] = cls


def weight_for_rate(rate: float, num_pcpus: int = 8, num_vcpus: int = 4,
                    dom0_weight: int = 256) -> int:
    """Invert Equations (1)+(2): the guest weight giving the requested
    VCPU online rate when sharing the machine with an idle Domain-0.

    The paper's settings fall out exactly: rates 100/66.7/40/22.2% on
    8 PCPUs / 4 VCPUs give weights 256/128/64/32.
    """
    if not 0 < rate <= 1.0:
        raise ConfigurationError("rate must be in (0, 1]")
    q = rate * num_vcpus / num_pcpus  # desired weight proportion
    if q >= 1.0:
        raise ConfigurationError(
            f"rate {rate} is unreachable with {num_vcpus} VCPUs "
            f"on {num_pcpus} PCPUs against Domain-0")
    w = dom0_weight * q / (1.0 - q)
    return max(1, int(round(w)))


class Testbed:
    """A complete simulated system under one scheduler."""

    def __init__(self, scheduler: str = "credit", num_pcpus: int = 8,
                 seed: int = 1,
                 sched_config: Optional[SchedulerConfig] = None,
                 machine_config: Optional[MachineConfig] = None,
                 sanitize: Optional[bool] = None,
                 faults: Optional[FaultSpec] = None) -> None:
        self.sim = Simulator()
        self.trace = TraceBus()
        self.rng = RngStreams(seed)
        mcfg = machine_config or MachineConfig(num_pcpus=num_pcpus)
        self.machine = Machine(mcfg, self.sim)
        self.scheduler: SchedulerBase = make_scheduler(scheduler)(
            self.machine, self.sim, self.trace, sched_config)
        #: Runtime invariant checker (``sanitize=True``, the ``--sanitize``
        #: CLI flag or ``REPRO_SANITIZE=1``); None in the default path.
        self.sanitizer: Optional[SchedulerSanitizer] = None
        if sanitize is None:
            sanitize = sanitize_enabled()
        if sanitize:
            self.sanitizer = SchedulerSanitizer(self.scheduler)
            self.scheduler.sanitizer = self.sanitizer
        self.hypercalls = HypercallTable(self.sim, self.trace)
        #: Fault-injection engine (repro.faults); None when ``faults`` is
        #: None or a no-op spec, in which case nothing is hooked and the
        #: simulation is bit-identical to a faults-free build.
        self.faults: Optional[FaultInjector] = None
        if faults is not None and not faults.is_noop():
            self.faults = FaultInjector(faults, self.sim, self.trace,
                                        self.rng)
            self.faults.apply_machine(self.machine)
            self.scheduler.ipi.faults = self.faults
            self.hypercalls.faults = self.faults
        self.vms: Dict[str, VM] = {}
        self.guests: Dict[str, GuestKernel] = {}
        self.monitors: Dict[str, MonitoringModule] = {}
        self.external_monitors: Dict[str, ExternalVcrdMonitor] = {}
        self.workloads: Dict[str, Workload] = {}
        # Collectors every experiment wants.
        self.runtimes = RuntimeCollector(self.trace)
        self._spin_stats: Dict[str, SpinlockStats] = {}
        self._vm_counter = 0
        self._started = False
        #: Quiescence fast-forward, sampled at construction like the
        #: kernels/schedulers do; selects the push-driven completion
        #: driver in :meth:`_drive`.
        self._ff = fastforward_enabled()
        #: Generation token retiring stale completion callbacks: each
        #: drive call bumps it, so a callback registered by an earlier
        #: call (possibly for a different VM subset) can never stop a
        #: later run.
        self._drive_gen = 0

    # ------------------------------------------------------------------ #
    @property
    def scheduler_name(self) -> str:
        return self.scheduler.name

    def add_domain0(self, num_vcpus: Optional[int] = None,
                    weight: int = 256) -> VM:
        """The administrator VM: paper config is 8 VCPUs, weight 256,
        1024 MB, no workload (Section 5.2)."""
        return self.add_vm("Domain-0",
                           num_vcpus=num_vcpus or len(self.machine),
                           weight=weight)

    def add_vm(self, name: str, num_vcpus: int = 4, weight: int = 256,
               workload: Optional[Workload] = None,
               monitored=None,
               concurrent_hint: bool = False,
               guest_config: Optional[GuestConfig] = None,
               monitor_config: Optional[MonitorConfig] = None,
               inference_config: Optional[InferenceConfig] = None) -> VM:
        """Create and register a VM; attach a guest kernel and workload.

        ``monitored`` selects the VCRD detector:

        * ``None`` — the in-guest Monitoring Module, but only under ASMan
          (the paper's prototype modifies the guest kernel only there);
        * ``True`` / ``"guest"`` — the in-guest Monitoring Module;
        * ``"external"`` — the out-of-VM inference monitor (the paper's
          future-work variant; no guest modification);
        * ``False`` — no detector.

        ``concurrent_hint`` is the CON scheduler's manual VM-type setting.

        VMs may be added after :meth:`start` (hot-plug): they join
        scheduling immediately and earn credit from the next accounting.
        """
        if name in self.vms:
            raise ConfigurationError(f"duplicate VM name {name!r}")
        if monitored not in (None, True, False, "guest", "external"):
            raise ConfigurationError(
                f"monitored must be None/True/False/'guest'/'external', "
                f"got {monitored!r}")
        cfg = VMConfig(name=name, num_vcpus=num_vcpus, weight=weight,
                       monitored=bool(monitored),
                       guest=guest_config or GuestConfig(),
                       monitor=monitor_config or MonitorConfig())
        vm = VM(self._vm_counter, cfg, self.sim, self.trace)
        self._vm_counter += 1
        vm.concurrent_hint = concurrent_hint
        self.scheduler.add_vm(vm)
        self.vms[name] = vm

        if workload is not None:
            kernel = GuestKernel(vm, self.sim, self.trace, cfg.guest)
            self.guests[name] = kernel
            if self.sanitizer is not None:
                kernel.sanitizer = self.sanitizer
            if monitored is None:
                monitored = self.scheduler_name == "asman"
            if monitored in (True, "guest"):
                mon_rng = self.rng.get(f"monitor/{name}")
                monitor = MonitoringModule(
                    kernel, self.hypercalls, cfg.monitor, mon_rng,
                    faults=self.faults)
                self.monitors[name] = monitor
                if self.faults is not None:
                    self.faults.attach_monitor(monitor)
            elif monitored == "external":
                self.external_monitors[name] = ExternalVcrdMonitor(
                    vm, self.sim, inference_config)
            workload.install(kernel, self.rng.get(f"workload/{name}"))
            self.workloads[name] = workload
            self._spin_stats[name] = SpinlockStats(self.trace, name)
        return vm

    def remove_vm(self, name: str) -> VM:
        """Destroy a VM at runtime (the consolidation-churn scenario).

        Its statistics stay readable through the returned object and the
        testbed's ``guests``/``workloads`` maps.
        """
        vm = self.vms.pop(name, None)
        if vm is None:
            raise ConfigurationError(f"no VM named {name!r}")
        ext = self.external_monitors.pop(name, None)
        if ext is not None:
            ext.stop()
        self.scheduler.remove_vm(vm)
        return vm

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.scheduler.start()

    def run_for(self, cycles: int) -> None:
        """Simulate a fixed window."""
        self.start()
        self.sim.run_until(self.sim.now + cycles)

    def run_until_workloads_done(self, vm_names: Optional[List[str]] = None,
                                 deadline_cycles: Optional[int] = None) -> bool:
        """Run until the named VMs' workloads all finish.  Returns True on
        completion, False if the deadline struck first."""
        names = vm_names if vm_names is not None else list(self.workloads)
        guests = [self.guests[n] for n in names]
        if len(guests) == 1:
            # The reference poll runs the predicate once per simulated
            # event; skip the generator machinery for the common
            # single-VM experiments.
            guest = guests[0]
            done = lambda: guest.finished  # noqa: E731
        else:
            done = lambda: all(g.finished for g in guests)  # noqa: E731
        return self._drive(done, [g.on_all_done for g in guests],
                           deadline_cycles)

    def run_until_rounds(self, rounds: int,
                         deadline_cycles: Optional[int] = None) -> bool:
        """Run until every workload has completed ``rounds`` rounds (the
        Section 5.3 multi-VM measurement).  Returns True once reached,
        False if the deadline struck or the event queue drained first."""
        workloads = list(self.workloads.values())
        done = lambda: all(w.rounds_completed() >= rounds  # noqa: E731
                           for w in workloads)
        return self._drive(done, [w.on_round for w in workloads],
                           deadline_cycles)

    def _drive(self, done: Callable[[], bool],
               subscribers: List[Callable[[Callable[[], None]], None]],
               deadline_cycles: Optional[int]) -> bool:
        """Run until ``done()`` holds; the one completion driver.

        ``subscribers`` register a callback fired at every change that
        can make ``done()`` true.  Under fast-forward completion is
        push-driven: those callbacks run inside the event that made the
        change, so re-testing ``done()`` there and calling ``stop()``
        ends the loop on the same event, clock and event count as the
        reference per-event predicate poll (``run_until_true``, kept for
        ``REPRO_NO_FASTFORWARD=1``).  Deadline and drained-queue returns
        match that poll too.
        """
        self.start()
        if not self._ff:
            return self.sim.run_until_true(done, deadline=deadline_cycles)
        if done():
            return True
        self._drive_gen += 1
        gen = self._drive_gen

        def changed() -> None:
            # A callback registered by a superseded drive call (possibly
            # for another condition) must never stop a later run.
            if gen == self._drive_gen and done():
                self.sim.stop()

        for subscribe in subscribers:
            subscribe(changed)
        self.sim.run_until_stopped(deadline=deadline_cycles)
        self._drive_gen += 1  # retire this call's callbacks
        return done()

    # ------------------------------------------------------------------ #
    def spin_stats(self, vm_name: str) -> SpinlockStats:
        stats = self._spin_stats.get(vm_name)
        if stats is None:
            raise ConfigurationError(f"no workload VM named {vm_name!r}")
        return stats

    def measured_online_rate(self, vm_name: str) -> float:
        vm = self.vms[vm_name]
        rates = [v.online_rate() for v in vm.vcpus]
        return sum(rates) / len(rates)
