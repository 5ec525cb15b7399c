"""Synthetic models of the NAS Parallel Benchmarks (OpenMP, class A).

The paper runs NPB 2.3 with 4 threads as its concurrent workloads.  We
cannot run the real codes on a simulator, so each benchmark is modelled by
the *synchronisation structure* that determines its interaction with the
VMM scheduler (DESIGN.md substitution table):

* per-iteration compute per thread (with load-imbalance jitter),
* barrier crossings per iteration (OpenMP ``barrier`` / implicit ones),
* fine-grained spinlock critical sections per iteration (LU's
  point-to-point pipeline synchronisation maps to these),

calibrated so the *relative* sync intensity matches the published NPB
characteristics: LU is the most tightly synchronised (pipelined wavefront,
the paper's running example), SP/MG/CG sync every few milliseconds, BT/FT
have coarser phases, EP is embarrassingly parallel.  Absolute run times
are scaled down (~1.2 s at 100% online rate) to keep simulations fast;
slowdown ratios — what Figures 1, 7 and 9 report — are scale-free.

Thread t's iteration is::

    [ compute, critical ] * criticals_per_iter
    [ compute, barrier  ] * barriers_per_iter

with criticals drawn from a small pool of shared locks, so adjacent
threads genuinely contend (as LU's pipeline neighbours do).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator

import numpy as np

from repro import units
from repro.errors import WorkloadError
from repro.guest.kernel import GuestKernel
from repro.guest.ops import BarrierOp, Compute, Critical, FlagSet, FlagWait, Op
from repro.fastforward import fastforward_enabled
from repro.workloads.base import Workload, jittered, jittered_stream

#: Hold time of a modelled kernel critical section (~3.4 us — a futex
#: bucket / runqueue-lock scale hold, the locks the paper instruments).
DEFAULT_HOLD = 8_000


@dataclass(frozen=True)
class NasProfile:
    """Synchronisation profile of one NAS benchmark (4-thread class A)."""

    name: str
    iterations: int
    compute_per_iter: int       # cycles per thread per iteration (mean)
    barriers_per_iter: int
    criticals_per_iter: int
    critical_hold: int = DEFAULT_HOLD
    jitter_cv: float = 0.12     # load imbalance between threads/segments
    threads: int = 4
    #: Wavefront pipeline sweeps per iteration (LU): each sweep makes
    #: thread t busy-wait on thread t-1's progress flag before computing
    #: its share — NPB-LU's point-to-point flag synchronisation.
    pipeline_sweeps: int = 0

    def __post_init__(self) -> None:
        if self.iterations <= 0 or self.compute_per_iter <= 0:
            raise WorkloadError(f"{self.name}: bad iteration profile")
        if self.barriers_per_iter < 0 or self.criticals_per_iter < 0:
            raise WorkloadError(f"{self.name}: negative sync counts")
        if self.threads < 1:
            raise WorkloadError(f"{self.name}: need >= 1 thread")

    def scaled(self, factor: float) -> "NasProfile":
        """Shrink total work by ``factor`` (tests use small instances).
        Scales iteration count, keeping per-iteration granularity."""
        its = max(2, int(round(self.iterations * factor)))
        return replace(self, iterations=its)

    @property
    def total_compute(self) -> int:
        return self.iterations * self.compute_per_iter

    @property
    def sync_ops_total(self) -> int:
        return self.iterations * (self.barriers_per_iter
                                  + self.criticals_per_iter) * self.threads


def _p(name: str, iterations: int, compute_ms: float, barriers: int,
       criticals: int, jitter: float, hold: int = DEFAULT_HOLD,
       sweeps: int = 0) -> NasProfile:
    return NasProfile(name=name, iterations=iterations,
                      compute_per_iter=units.ms(compute_ms),
                      barriers_per_iter=barriers,
                      criticals_per_iter=criticals,
                      critical_hold=hold, jitter_cv=jitter,
                      pipeline_sweeps=sweeps)


#: Class-A-like profiles; ~1.2 s base run each, sync intensity ordered to
#: match Figure 9's slowdown ordering (LU worst, EP ideal).
NAS_PROFILES: Dict[str, NasProfile] = {
    # LU: pipelined wavefront — two triangular-solve sweeps per iteration
    # synchronised thread-to-thread through busy-wait flags, plus barriers
    # between phases and kernel critical sections on shared structures.
    "LU": _p("LU", iterations=250, compute_ms=4.8, barriers=2,
             criticals=16, jitter=0.15, hold=16_000, sweeps=2),
    # SP: scalar penta-diagonal solver, frequent sweeps with barriers.
    "SP": _p("SP", iterations=220, compute_ms=5.5, barriers=3,
             criticals=2, jitter=0.12),
    # MG: multigrid V-cycles, a barrier per level transition.
    "MG": _p("MG", iterations=350, compute_ms=3.4, barriers=3,
             criticals=1, jitter=0.15),
    # CG: conjugate gradient, reductions every sparse matvec.
    "CG": _p("CG", iterations=300, compute_ms=4.0, barriers=2,
             criticals=2, jitter=0.20),
    # BT: block tri-diagonal, coarser phases than SP.
    "BT": _p("BT", iterations=150, compute_ms=8.0, barriers=2,
             criticals=1, jitter=0.10),
    # FT: FFT with a few large all-to-all transposes.
    "FT": _p("FT", iterations=60, compute_ms=20.0, barriers=2,
             criticals=1, jitter=0.10),
    # EP: embarrassingly parallel; a handful of barriers in total.
    "EP": _p("EP", iterations=8, compute_ms=150.0, barriers=1,
             criticals=0, jitter=0.05),
}


class NasBenchmark(Workload):
    """One NAS benchmark instance, installable into a guest kernel."""

    def __init__(self, profile: NasProfile, rounds: int = 1) -> None:
        super().__init__(rounds=rounds)
        self.profile = profile
        self.name = f"nas.{profile.name.lower()}"
        self._expected_threads = profile.threads

    @classmethod
    def by_name(cls, name: str, scale: float = 1.0,
                rounds: int = 1) -> "NasBenchmark":
        prof = NAS_PROFILES.get(name.upper())
        if prof is None:
            raise WorkloadError(f"unknown NAS benchmark {name!r}")
        if scale != 1.0:
            prof = prof.scaled(scale)
        return cls(prof, rounds=rounds)

    # ------------------------------------------------------------------ #
    def install(self, kernel: GuestKernel, rng: np.random.Generator) -> None:
        self._mark_installed(kernel)
        p = self.profile
        if p.threads > len(kernel.vm.vcpus):
            raise WorkloadError(
                f"{self.name}: {p.threads} threads exceed "
                f"{len(kernel.vm.vcpus)} VCPUs (CPU-bound NPB runs do not "
                f"oversubscribe, Section 5.2)")
        kernel.barrier(f"{self.name}.bar", p.threads)
        # Lock pool: adjacent threads share locks, like pipeline neighbours.
        self._nlocks = max(2, p.threads)
        for i in range(self._nlocks):
            kernel.lock(f"{self.name}.lk{i}")
        for t in range(p.threads):
            trng = np.random.default_rng(rng.integers(0, 2**63))
            kernel.spawn(f"{self.name}.t{t}",
                         self._program(t, trng), vcpu_index=t)

    def _program(self, t: int, rng: np.random.Generator) -> Iterator[Op]:
        p = self.profile
        segments = (p.criticals_per_iter + p.barriers_per_iter
                    + p.pipeline_sweeps)
        seg_mean = p.compute_per_iter / max(1, segments)
        # Every draw in this program uses the constant (seg_mean,
        # jitter_cv) pair — with segments == 0 the only draw site has
        # mean == compute_per_iter == seg_mean — so fast-forward batches
        # them through one jittered_stream on the thread-private RNG
        # (bit-identical to the scalar calls; see jittered_stream).
        if fastforward_enabled():
            draw = jittered_stream(rng, seg_mean, p.jitter_cv).__next__
        else:
            def draw() -> int:
                return jittered(rng, seg_mean, p.jitter_cv)
        # Ops are frozen (immutable) dataclasses, so the sync ops whose
        # fields repeat every iteration are built once and re-yielded;
        # name strings for the per-sweep flag ops are likewise hoisted.
        bar_op = BarrierOp(f"{self.name}.bar")
        crit_ops = [Critical(f"{self.name}.lk{(t + c) % self._nlocks}",
                             p.critical_hold)
                    for c in range(p.criticals_per_iter)]
        pred_flag = f"{self.name}.pipe{t - 1}"
        my_flag = f"{self.name}.pipe{t}"
        sweep = 0  # global pipeline step counter across rounds
        for _round in range(self.rounds):
            for it in range(p.iterations):
                for s in range(p.pipeline_sweeps):
                    sweep += 1
                    # Wavefront: wait for the predecessor thread's flag,
                    # compute this thread's share, publish progress.
                    if t > 0:
                        yield FlagWait(pred_flag, sweep)
                    yield Compute(draw())
                    yield FlagSet(my_flag, sweep)
                for crit in crit_ops:
                    yield Compute(draw())
                    yield crit
                for _ in range(p.barriers_per_iter):
                    yield Compute(draw())
                    yield bar_op
                if segments == 0:
                    yield Compute(draw())
            self._note_round(t)

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d.update(benchmark=self.profile.name,
                 iterations=self.profile.iterations,
                 threads=self.profile.threads,
                 total_compute=self.profile.total_compute)
        return d
