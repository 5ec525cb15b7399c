"""Conformance driver: fuzz, fan out, judge, fingerprint.

One :func:`conform` call is one corpus run: generate N scenarios, build
every (scenario x scheduler) cell — plus the metamorphic twin cells for
a strided subset — submit them as a *single* parallel-fabric batch
(maximum pool utilisation, content-addressed caching), then judge each
scenario from the merged results.

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
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import CellResults

from repro.conformance.oracle import ScenarioVerdict, Violation, judge
from repro.conformance.scenarios import (DEFAULT_SEED,
                                         SCHEDULERS_UNDER_TEST, Scenario,
                                         generate, scenario_at)
from repro.errors import ConfigurationError
from repro.experiments.runner import SingleVmResult
from repro.faults.spec import FaultSpec
from repro.parallel import run_cells
from repro.parallel.cells import CellSpec

__all__ = ["ConformanceReport", "conform"]

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
            jobs: Optional[Union[int, str]] = None,
            cache: Optional["ResultCache"] = None,
            metamorphic_every: int = 10,
            roles: Optional[Mapping[str, str]] = None,
            progress: Optional[Callable[[str], None]] = None
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
    specs: List[CellSpec] = []
    cells: Dict[int, Dict[str, CellSpec]] = {}
    twins: Dict[int, Dict[str, CellSpec]] = {}
    for sc in corpus:
        cells[sc.index] = {sched: sc.cell(sched) for sched in schedulers}
        specs.extend(cells[sc.index].values())
        if metamorphic_every and sc.index % metamorphic_every == 0:
            twins[sc.index] = _twin_cells(sc, cells[sc.index].get("credit"))
            specs.extend(twins[sc.index].values())

    results = run_cells(specs, jobs=jobs, cache=cache, progress=progress)
    # Conformance verdicts need a real result for every cell; a batch
    # that degraded into structured supervision failures cannot be
    # judged and must fail loudly, not mis-judge CellFailure values.
    results.raise_if_failed()
    report.cells_run = len(results)
    report.cache_hits = results.cache_hits

    for sc in corpus:
        verdict = ScenarioVerdict(scenario=sc)
        by_sched: Dict[str, object] = {}
        for sched, spec in cells[sc.index].items():
            outcome = results.outcome(spec)
            by_sched[sched] = outcome.value
            verdict.fingerprints[sched] = f"{outcome.fingerprint:016x}"
        verdict.violations.extend(judge(sc, by_sched, roles=roles))
        if sc.index in twins:
            verdict.violations.extend(
                _judge_twins(sc, twins[sc.index], results,
                             cells[sc.index].get("credit")))
        report.verdicts.append(verdict)
    return report


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
