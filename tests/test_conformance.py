"""Conformance layer: fuzzer determinism, oracle, mutants, shrink, golden.

The full 200-scenario corpus runs in CI's dedicated ``conformance`` job;
here a smaller smoke corpus keeps the default test tier fast.  Slower
end-to-end cases (the smoke corpus itself, the shrinker) carry the
``conformance`` marker so they can be deselected with
``-m 'not conformance'``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.conformance import (Scenario, conform, generate, judge,
                               scenario_at)
from repro.conformance.golden import (GOLDEN_SCENARIOS,
                                      check as golden_check, record)
from repro.conformance.mutants import (MUTANT_ROLES, MUTANT_SCHEDULERS,
                                       install as install_mutants)
from repro.conformance.scenarios import SCALES, SINGLE_POOL
from repro.conformance.shrink import (replay_artifact, save_artifact,
                                      shrink)
from repro.errors import ConfigurationError
from repro.parallel import RunContext, use_context
from repro.parallel.cells import CellSpec, WorkloadSpec, from_canonical

FIXTURES = Path(__file__).parent / "fixtures"


# --------------------------------------------------------------------- #
class TestFuzzer:
    def test_addressable_equals_enumerated(self):
        corpus = generate(25)
        for i in (0, 7, 12, 24):
            assert scenario_at(i) == corpus[i]

    def test_explicit_indices(self):
        assert generate([3, 9]) == [scenario_at(3), scenario_at(9)]

    def test_seed_changes_scenarios(self):
        a = [scenario_at(i, seed=1) for i in range(10)]
        b = [scenario_at(i, seed=2) for i in range(10)]
        assert a != b

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_at(-1)

    def test_drawn_cells_are_feasible(self):
        for sc in generate(60):
            base = sc.base
            assert base.num_pcpus >= base.num_vcpus
            if base.kind == "single_vm":
                q = base.online_rate * base.num_vcpus / base.num_pcpus
                assert q <= 0.9
                assert base.workload is not None
                assert base.workload.scale in SCALES[base.workload.family]
            else:
                assert base.assignments
            assert base.deadline_cycles is not None
            assert base.on_deadline == "return"

    def test_concurrent_flag_matches_pool(self):
        by_profile = {(fam, prof): conc
                      for fam, prof, _v, conc in SINGLE_POOL}
        for sc in generate(60):
            if sc.base.kind != "single_vm":
                continue
            w = sc.base.workload
            assert sc.concurrent == by_profile[(w.family, w.name)]

    def test_scenarios_round_trip_canonically(self):
        for sc in generate(20):
            doc = sc.base.canonical()
            assert from_canonical(doc).canonical() == doc

    def test_describe_mentions_shape(self):
        text = scenario_at(0).describe()
        assert "#0" in text and "v/" in text


# --------------------------------------------------------------------- #
@pytest.mark.conformance
class TestSmokeCorpus:
    def test_small_corpus_holds_and_is_deterministic(self):
        with use_context(RunContext(jobs=1)):
            first = conform(scenarios=15, metamorphic_every=5)
            again = conform(scenarios=15, metamorphic_every=5)
        assert first.ok, "\n".join(v.render() for v in first.violations)
        assert first.fingerprints() == again.fingerprints()
        assert first.combined_fingerprint() == again.combined_fingerprint()

    def test_report_render_mentions_fingerprint(self):
        with use_context(RunContext(jobs=1)):
            report = conform(scenarios=3, metamorphic_every=0)
        text = report.render()
        assert report.combined_fingerprint() in text
        assert "3 scenario(s)" in text

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ConfigurationError):
            conform(scenarios=0)
        with pytest.raises(ConfigurationError):
            conform(scenarios=1, schedulers=())


# --------------------------------------------------------------------- #
class TestOracle:
    def test_clean_scenario_judges_clean(self):
        sc = scenario_at(1)  # clean single-VM scenario (barrier2)
        assert sc.fault_free
        results = {s: _run(sc, s) for s in ("credit",)}
        assert judge(sc, results) == []

    def test_unexpected_result_type_is_flagged(self):
        sc = scenario_at(1)
        violations = judge(sc, {"credit": object()})
        assert [v.check for v in violations] == ["result-type"]

    def test_violation_render_has_context(self):
        sc = scenario_at(1)
        v = judge(sc, {"credit": object()})[0]
        assert "#1" in v.render() and "credit" in v.render()


def _run(sc: Scenario, scheduler: str):
    from repro.parallel.cells import execute_cell
    return execute_cell(sc.cell(scheduler))


# --------------------------------------------------------------------- #
@pytest.mark.conformance
class TestMutantRegression:
    """The seeded lost-VCPU bug must be caught, shrunk, and replayable."""

    def test_oracle_catches_lost_vcpu_mutant(self):
        install_mutants()
        # Scenario 12 (nas/SP, clean) exercises the broken wake path.
        sc = scenario_at(12)
        assert sc.fault_free
        results = {s: _run(sc, s) for s in ("credit", "mutant-lost-vcpu")}
        checks = {(v.check, v.scheduler)
                  for v in judge(sc, results, roles=MUTANT_ROLES)}
        assert ("liveness", "mutant-lost-vcpu") in checks
        assert ("cross-agreement", None) in checks

    def test_mutant_shrinks_to_tiny_machine(self, tmp_path):
        install_mutants()
        result = shrink(scenario_at(12),
                        schedulers=("credit", "mutant-lost-vcpu"),
                        roles=MUTANT_ROLES)
        small = result.minimized.base
        n_vms = 1 if small.kind == "single_vm" else len(small.assignments)
        assert n_vms <= 2
        assert small.num_pcpus <= 2
        assert small.num_vcpus <= 2
        # The artifact round-trips and still reproduces the signature.
        path = save_artifact(result, tmp_path / "artifact.json")
        outcome = replay_artifact(path)
        assert outcome.reproduced

    def test_checked_in_artifact_replays(self):
        path = FIXTURES / "conformance" / "lost_vcpu_minimized.json"
        outcome = replay_artifact(path)
        assert outcome.reproduced, outcome.render()

    def test_metamorphic_violation_is_judged_per_scenario(self):
        """Shrink and replay judge a scenario with its twin cells, so
        corpus seed 7's #110 (a degraded-machine run faster than the
        healthy one) is a violation there too, not only in the corpus."""
        from repro.conformance.driver import check_scenario
        verdict = check_scenario(scenario_at(110, seed=7),
                                 ("credit", "relaxed", "asman"))
        assert {(v.check, v.scheduler) for v in verdict.violations} == {
            ("metamorphic-slowdown", "credit")}

    def test_checked_in_metamorphic_artifact_replays(self):
        """Pins the seed-7 #110 anomaly (not fixed yet): its shrunk
        artifact must keep replaying with the same signature."""
        path = FIXTURES / "conformance" / "metamorphic_slowdown_minimized.json"
        outcome = replay_artifact(path)
        assert outcome.reproduced, outcome.render()

    def test_shrink_refuses_passing_scenario(self):
        sc = scenario_at(1)
        with pytest.raises(ConfigurationError):
            shrink(sc, schedulers=("credit",))

    def test_replay_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "not_artifact.json"
        p.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ConfigurationError):
            replay_artifact(p)

    def test_mutants_register_idempotently(self):
        install_mutants()
        install_mutants()
        from repro.experiments.setup import make_scheduler
        cls = make_scheduler("mutant-lost-vcpu")
        assert cls is MUTANT_SCHEDULERS["mutant-lost-vcpu"]

    def test_production_names_cannot_be_rebound(self):
        from repro.experiments.setup import register_scheduler
        from repro.vmm.credit import CreditScheduler

        class Impostor(CreditScheduler):
            name = "credit"

        with pytest.raises(ConfigurationError):
            register_scheduler("credit", Impostor)


# --------------------------------------------------------------------- #
@pytest.mark.conformance
class TestGolden:
    def test_fixtures_match(self):
        drifts = golden_check()
        assert drifts == [], "\n".join(d.render() for d in drifts)

    def test_record_is_deterministic(self):
        a = record("concurrent_mix")
        b = record("concurrent_mix")
        assert a["fingerprint"] == b["fingerprint"]
        assert a["events"] == b["events"]

    def test_concurrent_mix_contains_adaptation(self):
        doc = record("concurrent_mix")
        cats = {cat for _c, cat, _p in doc["events"]}
        assert "vcrd.change" in cats and "sched.cosched" in cats

    def test_noncurrent_mix_never_coschedules(self):
        doc = record("noncurrent_mix")
        cats = {cat for _c, cat, _p in doc["events"]}
        assert "sched.cosched" not in cats

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            record("nope")

    def test_missing_fixture_reported(self, tmp_path):
        drifts = golden_check(tmp_path, names=["concurrent_mix"])
        assert len(drifts) == 1 and "missing" in drifts[0].reason

    def test_scenarios_cover_required_regimes(self):
        assert set(GOLDEN_SCENARIOS) >= {
            "concurrent_mix", "noncurrent_mix", "faulted_degraded"}
        faulted = GOLDEN_SCENARIOS["faulted_degraded"]
        assert faulted.faults is not None
        assert faulted.faults.degraded_pcpus


# --------------------------------------------------------------------- #
class TestTraceCapture:
    def test_collect_trace_populates_events(self):
        spec = CellSpec(
            kind="single_vm", scheduler="credit", seed=3,
            num_pcpus=2, num_vcpus=2, online_rate=0.4,
            workload=WorkloadSpec("synthetic", "compute2", scale=0.3),
            collect_trace=("credit.assign", "workload.done"))
        res = _exec(spec)
        assert res.trace_events
        cats = {cat for _c, cat, _p in res.trace_events}
        assert cats <= {"credit.assign", "workload.done"}
        assert "workload.done" in cats
        # Payloads must be JSON-plain (canonical traces are fixtures).
        json.dumps(res.trace_events)

    def test_no_collect_trace_means_no_events(self):
        spec = CellSpec(
            kind="single_vm", scheduler="credit", seed=3,
            num_pcpus=2, num_vcpus=2, online_rate=0.4,
            workload=WorkloadSpec("synthetic", "compute2", scale=0.3))
        assert _exec(spec).trace_events is None

    def test_collect_trace_validation(self):
        with pytest.raises(ConfigurationError):
            CellSpec(kind="single_vm", scheduler="credit",
                     workload=WorkloadSpec("synthetic", "compute2"),
                     collect_trace=("",))


def _exec(spec: CellSpec):
    from repro.parallel.cells import execute_cell
    return execute_cell(spec)


# --------------------------------------------------------------------- #
class TestMetamorphicConstants:
    def test_twin_cells_for_clean_single(self):
        from repro.conformance.driver import _twin_cells
        sc = scenario_at(1)
        assert sc.fault_free and sc.base.kind == "single_vm"
        twins = _twin_cells(sc)
        assert set(twins) == {"noop-faults", "degraded"}
        assert twins["noop-faults"].faults.is_noop()
        deg = twins["degraded"].faults
        assert deg.degraded_pcpus == tuple(range(sc.base.num_pcpus))

    def test_no_twins_for_faulted(self):
        from repro.conformance.driver import _twin_cells
        faulted = next(sc for sc in generate(40) if not sc.fault_free)
        assert _twin_cells(faulted) == {}
