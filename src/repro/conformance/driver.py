"""Conformance driver: fuzz, fan out, judge, fingerprint.

One :func:`conform` call is one corpus run: generate N scenarios, build
every (scenario x scheduler) cell — plus the metamorphic twin cells for
a strided subset — submit them as a *single* parallel-fabric batch
(maximum worker utilisation, content-addressed caching), then judge each
scenario from the merged results.

Every judging path goes through the same two steps:
:func:`scenario_cells` builds one scenario's scheduler cells and twins,
and :func:`judge_scenario` applies the oracle and the metamorphic
relations to their results.  The shrinker and artifact replay run one
scenario's cells as their own batch (:func:`check_scenario`), so a
metamorphic violation shrinks and replays like any other.

Determinism contract: the corpus is a pure function of (seed, count,
schedulers, metamorphic stride).  Per-scenario fingerprints — and the
combined corpus fingerprint — are bit-identical at any ``--jobs`` level
and across warm-cache reruns; the CI conformance job gates on exactly
that.

Metamorphic relations (checked on every ``metamorphic_every``-th
scenario, under the credit scheduler to bound cost):

* **faults-off ≡ baseline** — a clean scenario rerun with an armed but
  *no-op* :class:`~repro.faults.FaultSpec` must be fingerprint-identical
  to the bare run (the PR 6 faults-off guarantee, fuzzed);
* **degraded slowdown** — the same single-VM scenario on a uniformly
  slower machine (every PCPU at speed 0.7) must not finish earlier
  (small tolerance for concurrent mixes, whose interleavings may shift);
* **fuzzer addressability** — ``scenario_at(i)`` must equal
  ``generate(n)[i]`` (seed-stream isolation / permutation invariance of
  the generator itself; no simulation cost).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.executor import CellResults

from repro.conformance.oracle import ScenarioVerdict, Violation, judge
from repro.conformance.scenarios import (DEFAULT_SEED,
                                         SCHEDULERS_UNDER_TEST, Scenario,
                                         generate, scenario_at)
from repro.errors import ConfigurationError
from repro.experiments.runner import SingleVmResult
from repro.faults.spec import FaultSpec
from repro.parallel import RunContext, run_cells, use_context
from repro.parallel.cells import CellSpec

__all__ = ["ConformanceReport", "check_scenario", "conform",
           "judge_scenario", "scenario_cells"]

#: Tolerance on the degraded-slowdown relation for concurrent scenarios:
#: a uniformly slower machine may reshuffle lock interleavings slightly,
#: but must not speed the run up beyond this factor.
SLOWDOWN_TOLERANCE = 0.98

#: Speed of every PCPU in the degraded metamorphic twin.
TWIN_SPEED = 0.7


@dataclass
class ConformanceReport:
    """Everything one corpus run produced."""

    seed: int
    count: int
    schedulers: Tuple[str, ...]
    verdicts: List[ScenarioVerdict] = field(default_factory=list)
    cells_run: int = 0
    cache_hits: int = 0

    @property
    def violations(self) -> List[Violation]:
        return [v for verdict in self.verdicts for v in verdict.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprints(self) -> Dict[str, Dict[str, str]]:
        """scenario index (str) -> scheduler -> 64-bit hex fingerprint."""
        return {str(v.scenario.index): dict(v.fingerprints)
                for v in self.verdicts}

    def combined_fingerprint(self) -> str:
        """One digest over every per-scenario fingerprint (sorted)."""
        digest = hashlib.sha256()
        digest.update(json.dumps(self.fingerprints(), sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))
        return digest.hexdigest()[:16]

    def render(self, max_violations: int = 20) -> str:
        lines = [
            f"conformance corpus: {self.count} scenario(s), seed "
            f"{self.seed}, schedulers {'/'.join(self.schedulers)}",
            f"cells: {self.cells_run} run, {self.cache_hits} cache hit(s)",
            f"fingerprint: {self.combined_fingerprint()}",
        ]
        bad = self.violations
        if not bad:
            lines.append("all invariants held")
        else:
            lines.append(f"{len(bad)} violation(s):")
            for v in bad[:max_violations]:
                lines.append(f"  {v.render()}")
            if len(bad) > max_violations:
                lines.append(f"  ... and {len(bad) - max_violations} more")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
def conform(scenarios: int = 200,
            seed: int = DEFAULT_SEED,
            schedulers: Sequence[str] = SCHEDULERS_UNDER_TEST,
            metamorphic_every: int = 10,
            roles: Optional[Mapping[str, str]] = None
            ) -> ConformanceReport:
    """Run one conformance corpus and return the judged report."""
    if scenarios < 1:
        raise ConfigurationError("need at least one scenario")
    if not schedulers:
        raise ConfigurationError("need at least one scheduler")
    corpus = generate(scenarios, seed)
    report = ConformanceReport(seed=seed, count=scenarios,
                               schedulers=tuple(schedulers))

    # Fuzzer addressability: O(1) indexing must agree with enumeration.
    for i in sorted({0, scenarios // 2, scenarios - 1}):
        if scenario_at(i, seed) != corpus[i]:
            report.verdicts.append(ScenarioVerdict(
                scenario=corpus[i],
                violations=[Violation(
                    i, "fuzzer-addressability", None,
                    "scenario_at(i) differs from generate(n)[i] — "
                    "per-index stream isolation is broken")]))
            return report

    # One batch: every scheduler cell plus the metamorphic twins.  Each
    # cell is built once; the same objects are submitted and looked up,
    # so each canonical key is computed once.
    built = [scenario_cells(sc, schedulers, metamorphic=bool(
        metamorphic_every and sc.index % metamorphic_every == 0))
        for sc in corpus]
    results = _run([spec for cells, twins in built
                    for spec in (*cells.values(), *twins.values())])
    report.cells_run = len(results)
    report.cache_hits = results.cache_hits
    report.verdicts.extend(
        judge_scenario(sc, cells, twins, results, roles)
        for sc, (cells, twins) in zip(corpus, built))
    return report


def scenario_cells(sc: Scenario, schedulers: Sequence[str],
                   metamorphic: bool = True
                   ) -> Tuple[Dict[str, CellSpec], Dict[str, CellSpec]]:
    """One scenario's cells: scheduler -> cell, and its metamorphic twin
    cells (none unless ``metamorphic``)."""
    cells = {sched: sc.cell(sched) for sched in schedulers}
    twins = _twin_cells(sc, cells.get("credit")) if metamorphic else {}
    return cells, twins


def judge_scenario(sc: Scenario, cells: Dict[str, CellSpec],
                   twins: Dict[str, CellSpec], results: "CellResults",
                   roles: Optional[Mapping[str, str]] = None
                   ) -> ScenarioVerdict:
    """Judge one scenario from the results of its :func:`scenario_cells`:
    the oracle over the scheduler cells, then the metamorphic relations
    over the twins."""
    verdict = ScenarioVerdict(scenario=sc)
    by_sched: Dict[str, object] = {}
    for sched, spec in cells.items():
        outcome = results.outcome(spec)
        by_sched[sched] = outcome.value
        verdict.fingerprints[sched] = f"{outcome.fingerprint:016x}"
    verdict.violations.extend(judge(sc, by_sched, roles=roles))
    if twins:
        verdict.violations.extend(
            _judge_twins(sc, twins, results, cells.get("credit")))
    return verdict


def check_scenario(sc: Scenario, schedulers: Sequence[str],
                   roles: Optional[Mapping[str, str]] = None,
                   metamorphic: bool = True) -> ScenarioVerdict:
    """Run one scenario's cells (and twins, if ``metamorphic``) as their
    own batch and judge them: the shrinker's probe and artifact replay.

    The batch runs in-process and uncached: mutant schedulers are
    process-local registrations that spawned workers cannot see, and a
    probe's cells are a few small simulations.
    """
    cells, twins = scenario_cells(sc, schedulers, metamorphic)
    with use_context(RunContext(jobs=1)):
        results = _run([*cells.values(), *twins.values()])
    return judge_scenario(sc, cells, twins, results, roles)


def _run(specs: List[CellSpec]) -> "CellResults":
    results = run_cells(specs)
    # Conformance verdicts need a real result for every cell; a batch
    # that ended in structured supervision failures cannot be judged
    # and must fail loudly, not mis-judge CellFailure values.
    results.raise_if_failed()
    return results


# --------------------------------------------------------------------- #
def _twin_cells(sc: Scenario, base: Optional[CellSpec] = None
                ) -> Dict[str, CellSpec]:
    """The metamorphic twin cells for one scenario (credit runs only),
    derived from its credit cell ``base`` (built here when omitted)."""
    cells: Dict[str, CellSpec] = {}
    if base is None:
        base = sc.cell("credit")
    if sc.fault_free:
        # Armed-but-no-op fault spec: must be bit-identical to bare.
        cells["noop-faults"] = dataclasses.replace(
            base, faults=FaultSpec(seed=sc.index))
        if base.kind == "single_vm":
            # Uniformly degraded machine: strictly less capacity.
            cells["degraded"] = dataclasses.replace(
                base, faults=FaultSpec(
                    seed=sc.index,
                    degraded_pcpus=tuple(range(base.num_pcpus)),
                    degraded_speed=TWIN_SPEED))
    return cells


def _judge_twins(sc: Scenario, twins: Dict[str, CellSpec],
                 results: "CellResults",
                 base: Optional[CellSpec]) -> List[Violation]:
    """Check the metamorphic relations of one scenario against its
    credit cell ``base`` (``None`` when credit is not under test)."""
    out: List[Violation] = []
    if not twins or base is None:
        return out
    base_res = results.value(base)
    noop = twins.get("noop-faults")
    if noop is not None and (results.outcome(noop).fingerprint
                             != results.outcome(base).fingerprint):
        out.append(Violation(
            sc.index, "metamorphic-noop-faults", "credit",
            "a no-op FaultSpec changed the result fingerprint — "
            "fault hooks are not invisible when disarmed"))
    degraded = twins.get("degraded")
    if degraded is not None and isinstance(base_res, SingleVmResult):
        deg_res = results.value(degraded)
        assert isinstance(deg_res, SingleVmResult)
        if base_res.finished and deg_res.finished:
            tolerance = SLOWDOWN_TOLERANCE if sc.concurrent else 1.0
            if deg_res.runtime_cycles < base_res.runtime_cycles * tolerance:
                out.append(Violation(
                    sc.index, "metamorphic-slowdown", "credit",
                    f"uniformly degraded machine (speed {TWIN_SPEED}) "
                    f"finished in {deg_res.runtime_cycles} cycles, faster "
                    f"than the healthy machine's "
                    f"{base_res.runtime_cycles}"))
    return out
