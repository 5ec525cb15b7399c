"""Configuration dataclasses for machines, VMs and schedulers.

These are plain, validated value objects; construction performs all sanity
checks so that downstream code can assume a consistent configuration.  The
defaults mirror the paper's testbed: a Dell T5400 with dual quad-core Xeon
X5410 (8 PCPUs at 2.33 GHz), Xen 3.3.0 Credit-scheduler timing (30 ms time
slice, 10 ms accounting tick), and ASMan's delta = 20 over-threshold
exponent.

:func:`run_config` is the host-side counterpart: the process's
determinism-relevant switches (sanitizer, fast-forward).  Worker
processes install their parent's with :func:`apply_run_config`, and the
result cache mixes it into its key salt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro import units
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MachineConfig:
    """Physical machine description."""

    num_pcpus: int = 8
    cpu_hz: int = units.CPU_HZ
    #: sockets * cores_per_socket must equal num_pcpus (used by topology).
    sockets: int = 2
    #: Latency of an inter-processor interrupt, in cycles (~1 microsecond).
    ipi_latency: int = units.us(1)

    def __post_init__(self) -> None:
        if self.num_pcpus <= 0:
            raise ConfigurationError("num_pcpus must be positive")
        if self.sockets <= 0 or self.num_pcpus % self.sockets != 0:
            raise ConfigurationError(
                f"{self.num_pcpus} PCPUs do not divide into {self.sockets} sockets")
        if self.ipi_latency < 0:
            raise ConfigurationError("ipi_latency must be >= 0")


@dataclass(frozen=True)
class SchedulerConfig:
    """Timing parameters shared by all VMM schedulers (Xen Credit defaults).

    ``slice_cycles`` is the 30 ms scheduling slice; ``tick_cycles`` the 10 ms
    accounting tick (the paper: "The basic unit time of scheduling is 10 ms,
    and the Credit of a running VCPU is decreased every 10 ms").  Credit is
    assigned every ``assign_slots`` ticks (the paper's interval of K slots;
    K=3 gives Xen's 30 ms accounting period).
    """

    slice_cycles: int = units.ms(30)
    tick_cycles: int = units.ms(10)
    assign_slots: int = 3
    #: Credit debited from a running VCPU per tick (Xen uses 100).
    credit_per_tick: int = 100
    #: Work-conserving: VMs may consume idle CPU beyond their weight share.
    work_conserving: bool = True
    #: Upper bound on accumulated credit, in assignment periods, so an
    #: idle VM cannot bank unbounded credit (Xen caps at one period's worth).
    credit_cap_periods: float = 1.0
    #: Credit accounting mode.  False (default) models Xen faithfully:
    #: whoever is running *at* a PCPU's tick is debited a full tick's
    #: credit.  Sampling is accurate for CPU-bound VCPUs but noisy for
    #: bursty (synchronisation-heavy) ones — that noise spreads the VCPUs'
    #: credit and hence their park/unpark times, desynchronising their
    #: online windows; it is a root cause of the paper's phenomenon.
    #: True debits exactly by elapsed runtime (ablation: how much of the
    #: pathology does accounting noise contribute?).
    exact_accounting: bool = False
    #: Context-switch overhead charged on every VCPU switch, in cycles.
    context_switch_cycles: int = units.us(3)
    #: Minimum spacing between IPI coscheduling fan-outs of one VM.  Gang
    #: launches are slot-grained (a gang runs for about a slot before
    #: another gang may evict it); without this, two coscheduled VMs evict
    #: each other at IPI latency and both starve.
    cosched_cooldown_cycles: int = units.ms(10)

    def __post_init__(self) -> None:
        if self.tick_cycles <= 0:
            raise ConfigurationError("tick_cycles must be positive")
        if self.slice_cycles % self.tick_cycles != 0:
            raise ConfigurationError("slice must be a multiple of the tick")
        if self.assign_slots <= 0:
            raise ConfigurationError("assign_slots must be positive")
        if self.credit_per_tick <= 0:
            raise ConfigurationError("credit_per_tick must be positive")
        if self.context_switch_cycles < 0:
            raise ConfigurationError("context_switch_cycles must be >= 0")


@dataclass(frozen=True)
class LearningConfig:
    """Parameters of the modified Roth–Erev learning algorithm (Section 4.3).

    The algorithm estimates the lasting time X_i of each locality of
    synchronization.  ``candidates`` is the discrete set of possible
    durations (the paper's N possible values of X), in cycles.
    """

    #: Recency parameter r in [0, 1): how fast old propensities decay.
    recency: float = 0.2
    #: Experimentation parameter e in [0, 1): probability mass spread to
    #: non-reinforced candidates.
    experimentation: float = 0.1
    #: Initial scaling parameter s(0).
    initial_scale: float = 1.0
    #: Candidate coscheduling durations (cycles).  Default: geometric grid
    #: from 4 ms to ~4 s, N = 11.  The top of the range matters for
    #: continuously-synchronising workloads (LU): their localities chain
    #: into effectively unbounded stretches, and the learner should be
    #: able to express that.
    candidates: Tuple[int, ...] = tuple(
        int(units.ms(4) * (2.0 ** k)) for k in range(11))
    #: Threshold Delta for classifying under-coscheduling: if the next
    #: over-threshold spinlock arrives within Delta cycles of coscheduling
    #: ending, the estimate was too short and probability mass moves to
    #: longer durations.  The paper leaves Delta unspecified; 500 ms makes
    #: the learner treat episodes recurring at sub-second gaps as one
    #: continuing locality, which is what its NAS experiments need.
    under_cosched_delta: int = units.ms(500)

    def __post_init__(self) -> None:
        if not 0.0 <= self.recency < 1.0:
            raise ConfigurationError("recency must be in [0, 1)")
        if not 0.0 <= self.experimentation < 1.0:
            raise ConfigurationError("experimentation must be in [0, 1)")
        if self.initial_scale <= 0:
            raise ConfigurationError("initial_scale must be positive")
        if len(self.candidates) < 2:
            raise ConfigurationError("need at least two candidate durations")
        if any(c <= 0 for c in self.candidates):
            raise ConfigurationError("candidate durations must be positive")
        if list(self.candidates) != sorted(self.candidates):
            raise ConfigurationError("candidates must be sorted ascending")


@dataclass(frozen=True)
class MonitorConfig:
    """Monitoring Module parameters (guest side of ASMan)."""

    #: delta: waits above 2**delta_exp cycles are over-threshold (paper: 20).
    delta_exp: int = units.DELTA_EXP
    #: Waits above 2**measure_floor_exp cycles are recorded at all (paper: 10).
    measure_floor_exp: int = 10
    #: Cost in cycles of executing the do_vcrd_op hypercall from the guest.
    hypercall_cycles: int = units.us(2)
    learning: LearningConfig = field(default_factory=LearningConfig)

    def __post_init__(self) -> None:
        if not 0 < self.measure_floor_exp <= self.delta_exp:
            raise ConfigurationError(
                "need 0 < measure_floor_exp <= delta_exp")

    @property
    def over_threshold_cycles(self) -> int:
        return 1 << self.delta_exp

    @property
    def measure_floor_cycles(self) -> int:
        return 1 << self.measure_floor_exp


@dataclass(frozen=True)
class GuestConfig:
    """Guest operating system parameters."""

    #: Guest scheduler timeslice for multiplexing tasks on a VCPU (cycles).
    timeslice_cycles: int = units.ms(10)
    #: Futex spin budget before blocking (cycles).  Models the adaptive
    #: spin-then-block behaviour of futex-based synchronisation: libgomp's
    #: default wait policy busy-waits a long while (~10^5..10^6 cycles)
    #: before sleeping, which is tuned for dedicated HPC nodes and is a
    #: large CPU-waste source once VCPUs are descheduled under them.
    futex_spin_cycles: int = units.us(400)
    #: Hold time of the futex hash-bucket spinlock per wait/wake operation.
    futex_bucket_hold_cycles: int = units.us(6)
    #: Base cost of acquiring an uncontended spinlock.
    spinlock_acquire_cycles: int = 200
    #: Cost of a context switch inside the guest.
    context_switch_cycles: int = units.us(2)
    #: Interrupt housekeeping on VCPU0.  Linux routes device and timer
    #: interrupts to CPU0 by default, so VCPU0 carries a persistent extra
    #: load.  Under a credit cap this drains VCPU0's credit faster each
    #: period, drifting its park phase away from its siblings' — the
    #: persistent asymmetry that desynchronises a capped VM's online
    #: windows (and that gang-aware scheduling absorbs).  Zero interval
    #: disables the IRQ daemon.
    irq_interval_cycles: int = units.ms(1)
    irq_work_cycles: int = units.us(100)
    #: Every Nth interrupt takes a shared kernel spinlock briefly (timer
    #: wheel / xtime-style bookkeeping).
    irq_lock_period: int = 4
    irq_lock_hold_cycles: int = units.us(3)

    def __post_init__(self) -> None:
        if self.timeslice_cycles <= 0:
            raise ConfigurationError("guest timeslice must be positive")
        if self.futex_spin_cycles < 0:
            raise ConfigurationError("futex spin budget must be >= 0")
        if self.irq_interval_cycles < 0:
            raise ConfigurationError("irq interval must be >= 0")
        if self.irq_lock_period < 1:
            raise ConfigurationError("irq_lock_period must be >= 1")


@dataclass(frozen=True)
class VMConfig:
    """One virtual machine: VCPUs, weight, and optional monitoring."""

    name: str
    num_vcpus: int = 4
    weight: int = 256
    #: Memory in MB — recorded for fidelity with the paper's setup; the
    #: simulator does not model memory pressure.
    memory_mb: int = 1024
    #: Install the ASMan Monitoring Module in this guest's kernel.
    monitored: bool = False
    guest: GuestConfig = field(default_factory=GuestConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("VM needs a name")
        if self.num_vcpus <= 0:
            raise ConfigurationError("num_vcpus must be positive")
        if self.weight <= 0:
            raise ConfigurationError("weight must be positive")


def weight_proportion(weights: Sequence[int], index: int) -> float:
    """Equation (1): weight of VM ``index`` divided by the total weight."""
    total = sum(weights)
    if total <= 0:
        raise ConfigurationError("total weight must be positive")
    return weights[index] / total


def vcpu_online_rate(num_pcpus: int, proportion: float, num_vcpus: int) -> float:
    """Equation (2): |P| * omega(Vi) / |C(Vi)|, capped at 1.0.

    The cap reflects that a VCPU cannot be online more than all the time;
    Equation (2) in the paper implicitly assumes the uncapped case.
    """
    if num_vcpus <= 0:
        raise ConfigurationError("num_vcpus must be positive")
    return min(1.0, num_pcpus * proportion / num_vcpus)


def run_config() -> Dict[str, bool]:
    """The determinism-relevant configuration of this process.

    Sanitizer-on runs execute extra validation work and fast-forward-off
    runs take the step-wise paths.  Both produce identical results, so
    the flags matter only where a run must really take those paths (a
    worker, a cache lookup) or is timed (a perf baseline's stamp).
    """
    from repro import analysis
    from repro.fastforward import fastforward_enabled

    return {"sanitize": analysis.sanitize_enabled(),
            "fastforward": fastforward_enabled()}


def apply_run_config(config: Mapping[str, bool]) -> None:
    """Install a :func:`run_config` dict as this process's overrides."""
    from repro import analysis
    from repro.fastforward import set_fastforward

    analysis.set_sanitize(config["sanitize"])
    set_fastforward(config["fastforward"])
