"""Auto-shrinker: minimise a failing scenario to a replayable artifact.

Greedy fixpoint reduction, the delta-debugging idiom: apply one
structural simplification at a time — zero the faults, drop VMs,
substitute simpler workloads, halve the machine, halve the scale and
deadline — and keep a candidate only if the oracle still reports
*exactly* the original violation signature (the same ``(check,
scheduler)`` pairs, and no new ones).  The signature guard matters: a
naive "still fails somehow" predicate happily shrinks the deadline
until *every* scheduler times out, which is a different bug.

Each probe is judged by :func:`repro.conformance.driver.check_scenario`,
the corpus's own per-scenario path: the scheduler cells, plus the
metamorphic twin cells when the signature holds a metamorphic check,
run serially in-process as one batch and judged by the oracle and the
metamorphic relations.  A metamorphic violation therefore shrinks and
replays like any other.

The result serialises to a JSON artifact (``save_artifact``) built on
``CellSpec.canonical()``; ``replay_artifact`` reconstructs the scenario
via :func:`repro.parallel.cells.from_canonical`, re-judges it the same
way and confirms the violation signature reproduces — the CLI exposes
this as ``python -m repro conform --replay artifact.json``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple, Union)

from repro import units
from repro.conformance.driver import check_scenario
from repro.conformance.oracle import Violation
from repro.conformance.scenarios import SCALES, Scenario
from repro.errors import ConfigurationError
from repro.parallel.cells import CellSpec, WorkloadSpec, from_canonical
from repro.workloads.synthetic import SYNTH_PROFILES

__all__ = [
    "ARTIFACT_SCHEMA",
    "ReplayOutcome",
    "ShrinkResult",
    "replay_artifact",
    "save_artifact",
    "shrink",
]

#: Version stamp of the artifact JSON layout.
ARTIFACT_SCHEMA = 1

#: A violation signature: the set of (check, scheduler-or-None) pairs.
_Signature = Set[Tuple[str, Optional[str]]]

#: Deadlines are never shrunk below this (replay must stay meaningful).
_MIN_DEADLINE = units.seconds(2)

#: Simpler workloads tried as drop-in replacements, most-preferred
#: first: (family, profile, scale, concurrent).  pingpong2 genuinely
#: blocks/wakes its VCPUs, so liveness bugs in the wake path keep
#: reproducing after substitution; compute1 is the smallest program of
#: all for bugs that don't need synchronisation.
_SIMPLER_WORKLOADS: Tuple[Tuple[str, str, float, bool], ...] = (
    ("synthetic", "pingpong2", 0.3, True),
    ("synthetic", "compute1", 0.3, False),
)


@dataclass
class ShrinkResult:
    """What the shrinker produced for one failing scenario."""

    original: Scenario
    minimized: Scenario
    schedulers: Tuple[str, ...]
    roles: Dict[str, str]
    signature: _Signature
    violations: List[Violation] = field(default_factory=list)
    steps: int = 0
    probes: int = 0

    def render(self) -> str:
        o, m = self.original.base, self.minimized.base
        lines = [
            f"shrunk scenario #{self.original.index} in {self.steps} "
            f"step(s) / {self.probes} probe(s):",
            f"  from: {self.original.describe()}",
            f"  to:   {self.minimized.describe()}",
            f"  machine: {o.num_vcpus}v/{o.num_pcpus}p -> "
            f"{m.num_vcpus}v/{m.num_pcpus}p",
        ]
        for v in self.violations:
            lines.append(f"  {v.render()}")
        return "\n".join(lines)


@dataclass
class ReplayOutcome:
    """Result of re-running a shrink artifact."""

    scenario: Scenario
    expected: _Signature
    violations: List[Violation]

    @property
    def reproduced(self) -> bool:
        got = {(v.check, v.scheduler) for v in self.violations}
        return got == self.expected

    def render(self) -> str:
        lines = [f"replay {self.scenario.describe()}"]
        for v in self.violations:
            lines.append(f"  {v.render()}")
        lines.append("violation signature reproduced"
                     if self.reproduced else
                     f"signature MISMATCH: expected {sorted(self.expected)}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
def shrink(scenario: Scenario,
           schedulers: Sequence[str],
           roles: Optional[Mapping[str, str]] = None,
           max_probes: int = 200,
           metamorphic: bool = False) -> ShrinkResult:
    """Minimise ``scenario`` while its violation signature is preserved.

    ``metamorphic`` judges the scenario with its twin cells, as the
    corpus does on its metamorphic stride; pass it when the violation
    to shrink is a metamorphic one.
    """
    roles_d = dict(roles or {})
    signature = _signature_of(check_scenario(
        scenario, schedulers, roles_d, metamorphic).violations)
    if not signature:
        raise ConfigurationError(
            f"scenario #{scenario.index} does not violate the oracle — "
            f"nothing to shrink")
    result = ShrinkResult(original=scenario, minimized=scenario,
                          schedulers=tuple(schedulers), roles=roles_d,
                          signature=signature)
    current = scenario
    improved = True
    while improved and result.probes < max_probes:
        improved = False
        for candidate in _candidates(current):
            if result.probes >= max_probes:
                break
            result.probes += 1
            violations = _judge_cell(candidate, schedulers, roles_d,
                                     signature)
            if _signature_of(violations) == signature:
                current = candidate
                result.steps += 1
                improved = True
                break  # restart the ladder from the smallest transform
    result.minimized = current
    result.violations = _judge_cell(current, schedulers, roles_d,
                                    signature)
    return result


def _signature_of(violations: Sequence[Violation]) -> _Signature:
    return {(v.check, v.scheduler) for v in violations}


def _judge_cell(scenario: Scenario, schedulers: Sequence[str],
                roles: Mapping[str, str],
                signature: _Signature) -> List[Violation]:
    """Judge ``scenario``, with its twin cells iff ``signature`` holds a
    metamorphic check."""
    metamorphic = any(check.startswith("metamorphic-")
                      for check, _ in signature)
    return check_scenario(scenario, schedulers, roles,
                          metamorphic).violations


# --------------------------------------------------------------------- #
def _candidates(sc: Scenario) -> Iterator[Scenario]:
    """Structurally smaller variants of ``sc``, smallest step first."""
    base = sc.base

    def derived(spec: CellSpec) -> Scenario:
        return dataclasses.replace(sc, base=spec)

    # 1. Zero the faults: does the bug reproduce on a clean machine?
    if base.faults is not None:
        yield derived(dataclasses.replace(base, faults=None))

    # 2. Drop one VM at a time from a mix.
    if base.kind == "multi_vm" and len(base.assignments) > 1:
        for i in range(len(base.assignments)):
            kept = base.assignments[:i] + base.assignments[i + 1:]
            yield derived(dataclasses.replace(base, assignments=kept))

    # 3. Substitute each workload with a structurally simpler one.
    for fam, prof, scale, conc in _SIMPLER_WORKLOADS:
        simple = WorkloadSpec(fam, prof, scale=scale)
        if base.kind == "single_vm":
            assert base.workload is not None
            if (base.workload.family, base.workload.name) != (fam, prof) \
                    and _min_vcpus(simple) <= base.num_vcpus:
                yield derived(dataclasses.replace(base, workload=simple))
                # Also try shrinking the guest to the substitute's
                # natural size in the same step: a thread-placement-
                # sensitive bug (e.g. a lost *last* VCPU) often only
                # reproduces when the small program fills the guest.
                if _min_vcpus(simple) < base.num_vcpus:
                    yield derived(dataclasses.replace(
                        base, workload=simple,
                        num_vcpus=_min_vcpus(simple)))
        else:
            for i, (name, w, _conc) in enumerate(base.assignments):
                if (w.family, w.name) == (fam, prof) \
                        or _min_vcpus(simple) > base.num_vcpus:
                    continue
                swapped = dataclasses.replace(simple, rounds=w.rounds)
                new = (base.assignments[:i]
                       + ((name, swapped, conc),)
                       + base.assignments[i + 1:])
                yield derived(dataclasses.replace(base, assignments=new))

    # 4. Fewer measured rounds.
    if base.kind == "multi_vm" and base.measure_rounds > 1:
        trimmed = tuple(
            (n, dataclasses.replace(w, rounds=2), c)
            for n, w, c in base.assignments)
        yield derived(dataclasses.replace(
            base, measure_rounds=1, assignments=trimmed))

    # 5. Halve the guest, then the machine (rate kept feasible).
    floor = max((_min_vcpus(w) for w in _workloads(base)), default=1)
    if base.num_vcpus // 2 >= floor:
        yield derived(dataclasses.replace(
            base, num_vcpus=base.num_vcpus // 2))
    if base.num_pcpus // 2 >= base.num_vcpus \
            and _rate_feasible(base, base.num_pcpus // 2):
        yield derived(dataclasses.replace(
            base, num_pcpus=base.num_pcpus // 2))

    # 6. Lighter programs: the family's smallest corpus scale.
    for spec in _scaled_down(base):
        yield derived(spec)

    # 7. A tighter deadline (cheaper replay of stalls).
    if base.deadline_cycles is not None \
            and base.deadline_cycles // 2 >= _MIN_DEADLINE:
        yield derived(dataclasses.replace(
            base, deadline_cycles=base.deadline_cycles // 2))


def _workloads(base: CellSpec) -> List[WorkloadSpec]:
    if base.kind == "single_vm":
        assert base.workload is not None
        return [base.workload]
    return [w for _, w, _ in base.assignments]


def _min_vcpus(w: WorkloadSpec) -> int:
    """Smallest guest the workload can run on (thread placement floor)."""
    if w.family == "nas":
        return 4
    if w.family == "synthetic":
        return SYNTH_PROFILES[w.name][0]
    return 1


def _rate_feasible(base: CellSpec, num_pcpus: int) -> bool:
    if base.kind != "single_vm":
        return True
    return base.online_rate * base.num_vcpus / num_pcpus <= 0.9


def _scaled_down(base: CellSpec) -> Iterator[CellSpec]:
    floors = {fam: min(scales) for fam, scales in SCALES.items()}
    if base.kind == "single_vm":
        assert base.workload is not None
        w = base.workload
        lo = floors.get(w.family, w.scale)
        if w.scale > lo:
            yield dataclasses.replace(
                base, workload=dataclasses.replace(w, scale=lo))
    else:
        for i, (name, w, conc) in enumerate(base.assignments):
            lo = floors.get(w.family, w.scale)
            if w.scale > lo:
                new = (base.assignments[:i]
                       + ((name, dataclasses.replace(w, scale=lo), conc),)
                       + base.assignments[i + 1:])
                yield dataclasses.replace(base, assignments=new)


# --------------------------------------------------------------------- #
def save_artifact(result: ShrinkResult,
                  path: Union[str, Path]) -> Path:
    """Write the shrink result as a self-contained replay artifact."""
    doc = {
        "schema": ARTIFACT_SCHEMA,
        "kind": "conformance-shrink",
        "seed": result.original.seed,
        "index": result.original.index,
        "concurrent": result.original.concurrent,
        "schedulers": list(result.schedulers),
        "roles": dict(result.roles),
        "signature": sorted(([c, s] for c, s in result.signature),
                            key=lambda p: (p[0], p[1] or "")),
        "original": result.original.base.canonical(),
        "minimized": result.minimized.base.canonical(),
        "violations": [v.render() for v in result.violations],
        "probes": result.probes,
        "steps": result.steps,
    }
    out = Path(path)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


def replay_artifact(path: Union[str, Path]) -> ReplayOutcome:
    """Re-run a shrink artifact and check its signature reproduces."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"unreadable artifact {path}: {exc}")
    if doc.get("kind") != "conformance-shrink":
        raise ConfigurationError(
            f"{path} is not a conformance shrink artifact")
    if doc.get("schema") != ARTIFACT_SCHEMA:
        raise ConfigurationError(
            f"artifact schema {doc.get('schema')!r} unsupported "
            f"(expected {ARTIFACT_SCHEMA})")
    schedulers = tuple(doc["schedulers"])
    if any(s.startswith("mutant-") for s in schedulers):
        from repro.conformance.mutants import install
        install()
    scenario = Scenario(
        index=int(doc["index"]), seed=int(doc["seed"]),
        concurrent=bool(doc["concurrent"]),
        base=from_canonical(doc["minimized"]))
    expected: _Signature = {(c, s) for c, s in doc["signature"]}
    violations = _judge_cell(scenario, schedulers, doc.get("roles") or {},
                             expected)
    return ReplayOutcome(scenario=scenario, expected=expected,
                        violations=violations)
