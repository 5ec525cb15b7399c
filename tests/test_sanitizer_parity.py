"""The static ↔ runtime parity table: every lint rule and every
sanitizer check is claimed by exactly one invariant, and one-sided
additions fail loudly with an actionable message.
"""

from unittest import mock

from repro.analysis import parity
from repro.analysis.parity import INVARIANT_PARITY, Invariant, verify_parity
from repro.analysis.rules_interproc import ALL_RULES
from repro.analysis.sanitizer import RUNTIME_CHECKS


class TestTableIsConsistent:
    def test_verify_parity_reports_no_problems(self):
        assert verify_parity() == []

    def test_every_static_rule_is_claimed(self):
        claimed = {r for inv in INVARIANT_PARITY for r in inv.static_rules}
        assert claimed == set(ALL_RULES)

    def test_every_runtime_check_is_claimed(self):
        claimed = {c for inv in INVARIANT_PARITY
                   for c in inv.runtime_checks}
        assert claimed == set(RUNTIME_CHECKS)

    def test_single_plane_rows_record_their_asymmetry(self):
        for inv in INVARIANT_PARITY:
            if not inv.static_rules or not inv.runtime_checks:
                assert inv.asymmetry, inv.name


class TestDriftFailsLoudly:
    """Simulate the four drift modes by patching one registry at a time:
    each must surface as a distinct, actionable problem string."""

    def test_new_runtime_check_without_row(self):
        grown = dict(RUNTIME_CHECKS)
        grown["brand-new-check"] = "added without a parity decision"
        with mock.patch.object(parity, "RUNTIME_CHECKS", grown):
            problems = verify_parity()
        assert any("brand-new-check" in p and "no row" in p
                   for p in problems)

    def test_new_static_rule_without_row(self):
        grown = dict(ALL_RULES)
        grown["brand-new-rule"] = "added without a parity decision"
        with mock.patch.object(parity, "ALL_RULES", grown):
            problems = verify_parity()
        assert any("brand-new-rule" in p and "no row" in p
                   for p in problems)

    def test_row_referencing_deleted_rule(self):
        bogus = INVARIANT_PARITY + (Invariant(
            name="ghost", description="references a deleted rule",
            static_rules=("no-such-rule",)),)
        with mock.patch.object(parity, "INVARIANT_PARITY", bogus):
            problems = verify_parity()
        assert any("unknown static rule" in p for p in problems)

    def test_double_claimed_check(self):
        bogus = INVARIANT_PARITY + (Invariant(
            name="greedy", description="claims an already-claimed check",
            runtime_checks=("placement",)),)
        with mock.patch.object(parity, "INVARIANT_PARITY", bogus):
            problems = verify_parity()
        assert any("claimed by both" in p for p in problems)

    def test_empty_invariant_rejected(self):
        bogus = INVARIANT_PARITY + (Invariant(
            name="hollow", description="enforces nothing anywhere"),)
        with mock.patch.object(parity, "INVARIANT_PARITY", bogus):
            problems = verify_parity()
        assert any("enforces nothing" in p for p in problems)

    def test_missing_asymmetry_rationale_rejected(self):
        bogus = INVARIANT_PARITY + (Invariant(
            name="half", description="single-plane, no rationale",
            static_rules=()),)
        with mock.patch.object(parity, "INVARIANT_PARITY", bogus):
            problems = verify_parity()
        assert any("asymmetry rationale" in p for p in problems)


class TestRuntimeChecksMatchSanitizer:
    # Registry id -> the callable that actually enforces it.  A check id
    # whose enforcement method is renamed or deleted fails here, keeping
    # the registry honest rather than prose.
    ENFORCEMENT = {
        "placement": "_check_placement",
        "runq-membership": None,  # delegates to scheduler.check_invariants
        "credit-conservation": "_check_credit_monotonic",
        "gang-atomicity": "_check_gang_atomicity",
        "launch-mutex": "_check_launch_mutex",
        "lhp-provenance": "note_spin_wait",
        "ff-quiescence": "check_ff_quiescence",
    }

    def test_enforcement_map_covers_the_registry(self):
        assert set(self.ENFORCEMENT) == set(RUNTIME_CHECKS)

    def test_every_check_has_a_live_enforcement_point(self):
        from repro.analysis.sanitizer import SchedulerSanitizer
        from repro.vmm.scheduler_base import SchedulerBase
        for check, method in self.ENFORCEMENT.items():
            if method is None:
                assert callable(SchedulerBase.check_invariants), check
            else:
                assert callable(getattr(SchedulerSanitizer, method)), check
