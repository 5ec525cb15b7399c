"""Shared fixtures for the test suite.

Also provides ``--shuffle-seed N``: a deterministic random reordering of
the collected test items.  Every test module must pass standalone and in
any order; the CI randomized-order step rotates the seed to keep hidden
inter-test coupling from creeping back in.
"""

from __future__ import annotations

import random

import numpy as np
import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--shuffle-seed", type=int, default=None, metavar="N",
        help="deterministically shuffle test order with this seed "
             "(default: collection order)")


def pytest_collection_modifyitems(config: pytest.Config,
                                  items: list) -> None:
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        return
    random.Random(seed).shuffle(items)

from repro.config import (GuestConfig, MachineConfig, SchedulerConfig,
                          VMConfig)
from repro.guest.kernel import GuestKernel
from repro.hardware.machine import Machine
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.tracing import TraceBus
from repro.vmm.credit import CreditScheduler
from repro.vmm.hypercall import HypercallTable
from repro.vmm.vm import VM


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def trace() -> TraceBus:
    return TraceBus()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RngStreams:
    return RngStreams(seed=7)


@pytest.fixture
def machine(sim) -> Machine:
    return Machine(MachineConfig(num_pcpus=8), sim)


@pytest.fixture
def small_machine(sim) -> Machine:
    return Machine(MachineConfig(num_pcpus=2, sockets=1), sim)


def reference_fingerprints(specs) -> dict:
    """Cell key -> fingerprint of executing each cell directly, outside
    any fabric loop: the clean reference a batch run is checked against."""
    from repro.parallel import execute_cell, result_fingerprint
    return {spec.canonical(): result_fingerprint(execute_cell(spec))
            for spec in specs}


def quiet_guest_config(**overrides) -> GuestConfig:
    """Guest config without the IRQ daemon, for deterministic unit tests."""
    defaults = dict(irq_interval_cycles=0)
    defaults.update(overrides)
    return GuestConfig(**defaults)


@pytest.fixture
def guest_config() -> GuestConfig:
    return quiet_guest_config()


class Harness:
    """A minimal wired system: machine + credit scheduler + one VM with a
    guest kernel, convenient for guest/VMM unit tests."""

    def __init__(self, num_pcpus: int = 4, num_vcpus: int = 2,
                 sched_config: SchedulerConfig | None = None,
                 guest_config: GuestConfig | None = None,
                 scheduler_cls=CreditScheduler) -> None:
        self.sim = Simulator()
        self.trace = TraceBus()
        self.machine = Machine(MachineConfig(num_pcpus=num_pcpus,
                                             sockets=1), self.sim)
        self.scheduler = scheduler_cls(self.machine, self.sim, self.trace,
                                       sched_config or SchedulerConfig())
        self.hypercalls = HypercallTable(self.sim, self.trace)
        gcfg = guest_config or quiet_guest_config()
        self.vm = VM(0, VMConfig(name="vm0", num_vcpus=num_vcpus,
                                 guest=gcfg), self.sim, self.trace)
        self.scheduler.add_vm(self.vm)
        self.kernel = GuestKernel(self.vm, self.sim, self.trace, gcfg)

    def add_vm(self, name: str, num_vcpus: int = 2, weight: int = 256,
               guest_config: GuestConfig | None = None) -> tuple[VM, GuestKernel]:
        gcfg = guest_config or quiet_guest_config()
        vm = VM(len(self.scheduler.vms),
                VMConfig(name=name, num_vcpus=num_vcpus, weight=weight,
                         guest=gcfg),
                self.sim, self.trace)
        self.scheduler.add_vm(vm)
        kernel = GuestKernel(vm, self.sim, self.trace, gcfg)
        return vm, kernel

    def start(self) -> None:
        if not getattr(self, "_started", False):
            self._started = True
            self.scheduler.start()

    def run_ms(self, ms_amount: float) -> None:
        from repro import units
        self.start()
        self.sim.run_until(self.sim.now + units.ms(ms_amount))

    def run_until_done(self, deadline_ms: float = 10_000) -> bool:
        from repro import units
        self.start()
        return self.sim.run_until_true(
            lambda: self.kernel.finished,
            deadline=self.sim.now + units.ms(deadline_ms))


@pytest.fixture
def harness() -> Harness:
    return Harness()
