"""Cell specifications: declarative, picklable scenario descriptions.

A *cell* is one independent, deterministic simulation — a (scenario kind,
scheduler, rate, seed, workload, config) point of a figure or sweep.  The
figure drivers used to call the runner functions directly with workload
*closures*; closures neither pickle (so they cannot cross a process
boundary) nor hash (so their results cannot be cached).  A
:class:`CellSpec` is the declarative replacement: plain frozen dataclasses
that

* **pickle** — so a :class:`~concurrent.futures.ProcessPoolExecutor`
  worker can receive them under the spawn start method;
* **canonicalise** — :meth:`CellSpec.canonical` renders a spec as one
  deterministic JSON string, which is both the merge key of a batch run
  and the input of the content-addressed cache key;
* **execute** — :func:`execute_cell` dispatches a spec to the matching
  ``run_*`` function in :mod:`repro.experiments.runner`.

Nothing here runs inside the simulated world; this module is host-side
tooling (see ``TOOLING_PACKAGES`` in :mod:`repro.analysis.simlint`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import SchedulerConfig
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec

__all__ = [
    "CellSpec",
    "WorkloadSpec",
    "canonical_value",
    "execute_cell",
    "from_canonical",
    "multi_vm_cell",
    "result_fingerprint",
    "single_vm_cell",
    "specjbb_cell",
]

#: Scenario kinds a cell can describe, matching the runner entry points.
CELL_KINDS: Tuple[str, ...] = ("single_vm", "multi_vm", "specjbb")

#: Workload families resolvable by :meth:`WorkloadSpec.build`.
WORKLOAD_FAMILIES: Tuple[str, ...] = ("nas", "speccpu", "synthetic")


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative workload: family + profile name + scale + rounds.

    Replaces the figure drivers' workload factory closures with something
    that pickles and canonicalises.  :meth:`build` constructs the actual
    :class:`~repro.workloads.base.Workload` instance (fresh per call —
    workloads are stateful and must never be shared between runs).
    """

    family: str
    name: str
    scale: float = 1.0
    rounds: int = 1

    def __post_init__(self) -> None:
        if self.family not in WORKLOAD_FAMILIES:
            raise ConfigurationError(
                f"unknown workload family {self.family!r}; "
                f"choose from {WORKLOAD_FAMILIES}")
        if self.scale <= 0:
            raise ConfigurationError("workload scale must be positive")
        if self.rounds < 1:
            raise ConfigurationError("workload rounds must be >= 1")

    def build(self):
        """Construct a fresh workload instance for one simulation."""
        # Lazy imports keep repro.parallel importable without dragging the
        # whole experiments/workloads tree in at module-import time (and
        # avoid an import cycle with repro.experiments).
        if self.family == "nas":
            from repro.workloads.nas import NasBenchmark
            return NasBenchmark.by_name(self.name, scale=self.scale,
                                        rounds=self.rounds)
        if self.family == "speccpu":
            from repro.workloads.speccpu import SpecCpuRateWorkload
            return SpecCpuRateWorkload.by_name(self.name, scale=self.scale,
                                               rounds=self.rounds)
        from repro.workloads.synthetic import SyntheticWorkload
        return SyntheticWorkload.by_name(self.name, scale=self.scale,
                                         rounds=self.rounds)


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation cell.

    ``kind`` selects the scenario; the remaining fields mirror the
    keyword arguments of the matching runner function.  ``None`` means
    "the runner's default" and canonicalises as ``null`` — the
    code-version salt of the cache covers changes to those defaults.
    """

    kind: str
    scheduler: str = "credit"
    seed: int = 1
    num_pcpus: int = 8
    num_vcpus: int = 4
    #: single_vm / specjbb: the VCPU online rate steering the VM weight.
    online_rate: float = 1.0
    #: single_vm: the workload to run inside V1.
    workload: Optional[WorkloadSpec] = None
    collect_scatter: bool = False
    #: multi_vm: (vm_name, workload, concurrent_hint) triples.
    assignments: Tuple[Tuple[str, WorkloadSpec, bool], ...] = ()
    measure_rounds: int = 2
    #: specjbb: warehouse count and measurement window.
    warehouses: int = 0
    window_cycles: Optional[int] = None
    warmup_cycles: Optional[int] = None
    deadline_cycles: Optional[int] = None
    #: Overrides the runner's scenario-default SchedulerConfig.
    sched_config: Optional[SchedulerConfig] = None
    #: "raise" (default) propagates SimulationError on deadline; "return"
    #: yields a structured unfinished result instead (pool-friendly).
    on_deadline: str = "raise"
    #: Fault-injection scenario (:mod:`repro.faults`); None or a no-op
    #: spec means the pristine system.  Part of the canonical form, so
    #: faulted cells merge and cache separately from clean ones.
    faults: Optional[FaultSpec] = None
    #: single_vm: attach a timeline collector and report the co-online
    #: fraction (the robustness experiment's headline metric).
    collect_timeline: bool = False
    #: Trace categories to retain and return as canonical event tuples
    #: (``result.trace_events``) — the golden-trace record/replay feed
    #: of :mod:`repro.conformance`.  Empty means no trace capture.
    collect_trace: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ConfigurationError(
                f"unknown cell kind {self.kind!r}; choose from {CELL_KINDS}")
        if self.kind == "single_vm" and self.workload is None:
            raise ConfigurationError("single_vm cell needs a workload")
        if self.kind == "multi_vm" and not self.assignments:
            raise ConfigurationError("multi_vm cell needs assignments")
        if self.kind == "specjbb" and self.warehouses < 1:
            raise ConfigurationError("specjbb cell needs warehouses >= 1")
        if self.on_deadline not in ("raise", "return"):
            raise ConfigurationError(
                "on_deadline must be 'raise' or 'return'")
        if self.collect_trace:
            if self.kind == "specjbb":
                raise ConfigurationError(
                    "specjbb cells do not support collect_trace")
            if not all(isinstance(c, str) and c for c in self.collect_trace):
                raise ConfigurationError(
                    "collect_trace must be non-empty category names")

    # -- canonical form ------------------------------------------------- #
    def canonical(self) -> str:
        """Deterministic JSON rendering of this spec.

        The canonical string is the batch merge key and the cache-key
        input: two specs describe the same simulation iff their canonical
        strings are equal.  The resolved :class:`SchedulerConfig` is
        embedded in full, so changing any timing parameter re-keys every
        affected cell.

        Computed once per instance: every field is a frozen dataclass, a
        tuple or a scalar, so the memo can never go stale, and
        :func:`dataclasses.replace` builds a new instance without it.
        """
        return self._canonical

    @functools.cached_property
    def _canonical(self) -> str:
        doc = canonical_value(self)
        assert isinstance(doc, dict)
        doc["sched_config"] = canonical_value(self.resolved_sched_config())
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def cache_key(self, salt: str) -> str:
        """SHA-256 over the canonical spec plus a code-version ``salt``."""
        digest = hashlib.sha256()
        digest.update(salt.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.canonical().encode("utf-8"))
        return digest.hexdigest()

    def resolved_sched_config(self) -> SchedulerConfig:
        """The SchedulerConfig this cell actually simulates under."""
        if self.sched_config is not None:
            return self.sched_config
        # Scenario defaults mirror the runner functions: single-VM and
        # SPECjbb scenarios are non-work-conserving (Section 5.2), the
        # multi-VM mixes are work-conserving (Section 5.3).
        return SchedulerConfig(work_conserving=(self.kind == "multi_vm"))


# --------------------------------------------------------------------- #
# Canonicalisation and fingerprints
# --------------------------------------------------------------------- #
#: Types :func:`canonical_value` returns as they are (exact-type match;
#: subclasses such as ``IntEnum`` take the generic path below).
_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))

#: class -> its dataclass field names in declaration order, or ``None``
#: for a class that is not a dataclass.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = (tuple(f.name for f in dataclasses.fields(cls))
                 if dataclasses.is_dataclass(cls) else None)
        _FIELD_NAMES[cls] = names
        return names


def canonical_value(obj: object) -> object:
    """Recursively convert a value into JSON-stable plain data.

    Dataclasses become ``{"__kind__": <class name>, **fields}`` dicts,
    tuples become lists, dict keys are stringified (json sorts them).
    Floats serialise through ``repr`` via :mod:`json`, which round-trips
    exactly — canonical strings are bit-stable across runs and hosts.
    """
    cls = type(obj)
    if cls in _PLAIN_TYPES:
        return obj
    names = _field_names(cls)
    if names is not None:
        doc: Dict[str, object] = {"__kind__": cls.__name__}
        for name in names:
            doc[name] = canonical_value(getattr(obj, name))
        return doc
    if isinstance(obj, dict):
        return {str(k): canonical_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_value(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigurationError(
        f"cannot canonicalise {type(obj).__name__!r} value {obj!r}")


def from_canonical(text: str) -> "CellSpec":
    """Rebuild a :class:`CellSpec` from its :meth:`CellSpec.canonical` JSON.

    The inverse used by conformance ``--replay`` artifacts: a failing
    scenario is persisted as its canonical string and reconstructed here
    to re-run the exact simulation.  Because ``canonical()`` embeds the
    *resolved* SchedulerConfig, a spec whose ``sched_config`` was None
    round-trips to one carrying the resolved config explicitly — a
    canonically (and behaviourally) identical cell.

    Strict by design: unknown fields raise :class:`ConfigurationError`
    rather than being dropped, so artifacts recorded under a different
    code version fail loudly instead of replaying something else.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"invalid canonical spec JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("__kind__") != "CellSpec":
        raise ConfigurationError("document is not a canonical CellSpec")
    kw = {k: v for k, v in doc.items() if k != "__kind__"}
    if kw.get("workload") is not None:
        kw["workload"] = _rebuild_dataclass(kw["workload"], WorkloadSpec)
    kw["assignments"] = tuple(
        (name, _rebuild_dataclass(wdoc, WorkloadSpec), bool(conc))
        for name, wdoc, conc in (kw.get("assignments") or ()))
    if kw.get("faults") is not None:
        kw["faults"] = _rebuild_dataclass(kw["faults"], FaultSpec,
                                          tuple_fields=("degraded_pcpus",))
    if kw.get("sched_config") is not None:
        kw["sched_config"] = _rebuild_dataclass(kw["sched_config"],
                                                SchedulerConfig)
    kw["collect_trace"] = tuple(kw.get("collect_trace") or ())
    names = {f.name for f in dataclasses.fields(CellSpec)}
    unknown = sorted(set(kw) - names)
    if unknown:
        raise ConfigurationError(
            f"canonical CellSpec has unknown fields: {unknown}")
    return CellSpec(**kw)


def _rebuild_dataclass(doc: object, cls: type,
                       tuple_fields: Tuple[str, ...] = ()) -> object:
    """Reconstruct one frozen dataclass from its canonical dict form."""
    want = cls.__name__
    if not isinstance(doc, dict) or doc.get("__kind__") != want:
        raise ConfigurationError(f"expected a canonical {want} document")
    kw = {k: v for k, v in doc.items() if k != "__kind__"}
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(kw) - names)
    if unknown:
        raise ConfigurationError(
            f"canonical {want} has unknown fields: {unknown}")
    for f in tuple_fields:
        kw[f] = tuple(kw.get(f) or ())
    return cls(**kw)


def result_fingerprint(value: object) -> int:
    """64-bit digest of a cell result's canonical form.

    A serial run and an N-way parallel run of the same spec must produce
    the same fingerprint — this is the determinism gate the parallel
    tests and the ``parallel_scaling`` macro bench check.
    """
    text = json.dumps(canonical_value(value), sort_keys=True,
                      separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# --------------------------------------------------------------------- #
# Spec builders (ergonomic shorthands used by figures and the CLI)
# --------------------------------------------------------------------- #
def single_vm_cell(workload: WorkloadSpec, scheduler: str = "credit",
                   online_rate: float = 1.0, seed: int = 1,
                   collect_scatter: bool = False,
                   **kw) -> CellSpec:
    """A Section-5.2 cell: one monitored VM plus idle Domain-0."""
    return CellSpec(kind="single_vm", workload=workload,
                    scheduler=scheduler, online_rate=online_rate,
                    seed=seed, collect_scatter=collect_scatter, **kw)


def multi_vm_cell(assignments, scheduler: str = "credit", seed: int = 1,
                  measure_rounds: int = 2, **kw) -> CellSpec:
    """A Section-5.3 cell: several weight-256 VMs, work-conserving."""
    return CellSpec(kind="multi_vm", assignments=tuple(
        (name, wl, bool(concurrent)) for name, wl, concurrent in assignments),
        scheduler=scheduler, seed=seed, measure_rounds=measure_rounds, **kw)


def specjbb_cell(warehouses: int, scheduler: str = "credit",
                 online_rate: float = 1.0, seed: int = 1,
                 window_cycles: Optional[int] = None,
                 warmup_cycles: Optional[int] = None, **kw) -> CellSpec:
    """A Figure-10 cell: SPECjbb warehouses over a fixed window."""
    return CellSpec(kind="specjbb", warehouses=warehouses,
                    scheduler=scheduler, online_rate=online_rate, seed=seed,
                    window_cycles=window_cycles, warmup_cycles=warmup_cycles,
                    **kw)


# --------------------------------------------------------------------- #
# Execution (runs in pool workers — must stay module-level picklable)
# --------------------------------------------------------------------- #
def execute_cell(spec: CellSpec):
    """Run one cell and return its (picklable) result dataclass."""
    from repro.experiments import runner

    if spec.kind == "single_vm":
        assert spec.workload is not None  # guaranteed by __post_init__
        deadline = (spec.deadline_cycles if spec.deadline_cycles is not None
                    else runner.DEFAULT_DEADLINE)
        return runner.run_single_vm(
            spec.workload.build, scheduler=spec.scheduler,
            online_rate=spec.online_rate, seed=spec.seed,
            num_pcpus=spec.num_pcpus, num_vcpus=spec.num_vcpus,
            deadline_cycles=deadline, collect_scatter=spec.collect_scatter,
            sched_config=spec.sched_config, on_deadline=spec.on_deadline,
            faults=spec.faults, collect_timeline=spec.collect_timeline,
            collect_trace=spec.collect_trace)
    if spec.kind == "multi_vm":
        assignments = [(name, wl.build, concurrent)
                       for name, wl, concurrent in spec.assignments]
        deadline = (spec.deadline_cycles if spec.deadline_cycles is not None
                    else runner.DEFAULT_DEADLINE)
        return runner.run_multi_vm(
            assignments, scheduler=spec.scheduler, seed=spec.seed,
            num_pcpus=spec.num_pcpus, num_vcpus=spec.num_vcpus,
            measure_rounds=spec.measure_rounds, deadline_cycles=deadline,
            sched_config=spec.sched_config, on_deadline=spec.on_deadline,
            faults=spec.faults, collect_trace=spec.collect_trace)
    window = (spec.window_cycles if spec.window_cycles is not None
              else runner.DEFAULT_SPECJBB_WINDOW)
    warmup = (spec.warmup_cycles if spec.warmup_cycles is not None
              else runner.DEFAULT_SPECJBB_WARMUP)
    return runner.run_specjbb(
        spec.warehouses, scheduler=spec.scheduler,
        online_rate=spec.online_rate, window_cycles=window,
        warmup_cycles=warmup, seed=spec.seed,
        num_pcpus=spec.num_pcpus, num_vcpus=spec.num_vcpus,
        sched_config=spec.sched_config, faults=spec.faults)
