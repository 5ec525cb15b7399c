"""Static ↔ runtime enforcement parity for the determinism contract.

The project enforces its invariants on two independent planes:

* **statically** — the ``repro lint`` rules reject code that *could*
  break determinism before it runs;
* **at runtime** — :class:`repro.analysis.sanitizer.SchedulerSanitizer`
  validates the scheduler's structural guarantees while it runs.

The two planes drift apart silently unless something ties them
together: a new sanitizer check whose failure mode could have been
rejected statically, or a new lint rule whose property the sanitizer
should also watch, each deserve a deliberate decision.  This module is
that decision record: every enforced invariant appears in
:data:`INVARIANT_PARITY` with its static rule ids and/or runtime check
ids, and :func:`verify_parity` fails if any rule or check exists outside
the table (or the table names something that does not exist).  The table
test in ``tests/test_sanitizer_parity.py`` runs it on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.rules_interproc import ALL_RULES
from repro.analysis.sanitizer import RUNTIME_CHECKS

__all__ = ["INVARIANT_PARITY", "Invariant", "verify_parity"]


@dataclass(frozen=True)
class Invariant:
    """One enforced property and where each plane enforces it."""

    name: str
    description: str
    #: ``repro lint`` rule ids enforcing this statically.
    static_rules: Tuple[str, ...] = ()
    #: :data:`RUNTIME_CHECKS` ids enforcing this at runtime.
    runtime_checks: Tuple[str, ...] = ()
    #: why the other plane deliberately does not cover it ("" when both
    #: planes are populated).
    asymmetry: str = ""


INVARIANT_PARITY: Tuple[Invariant, ...] = (
    Invariant(
        name="simulated-clock-only",
        description="simulation code reads time only from sim.now",
        static_rules=("wall-clock",),
        asymmetry="a wall-clock read changes no scheduler structure, so "
                  "only the fingerprint gate could see it at runtime; "
                  "rejected statically instead",
    ),
    Invariant(
        name="seeded-named-rng",
        description="all randomness flows through named, seeded "
                    "RngStreams streams, one subsystem per stream",
        static_rules=("rng-provenance",),
        asymmetry="draw-sequence coupling is invisible to structural "
                  "runtime checks; enforced statically plus by the "
                  "bit-identical fingerprint gates",
    ),
    Invariant(
        name="cycle-exact-time",
        description="event timestamps and op durations are integer "
                    "cycles, converted explicitly from wall units",
        static_rules=("cycle-unit-flow", "silent-truncation"),
        asymmetry="the event engine itself rejects fractional "
                  "timestamps at insert, which is the runtime half; "
                  "that guard lives in sim.engine, not the sanitizer",
    ),
    Invariant(
        name="deterministic-iteration",
        description="no scheduling-visible iteration over unordered "
                    "collections",
        static_rules=("nondet-iter",),
        asymmetry="ordering leaks perturb fingerprints, not structure; "
                  "static-only by design",
    ),
    Invariant(
        name="code-hygiene",
        description="no shared mutable defaults, no silent exception "
                    "swallowing, hot-tier classes declare __slots__",
        static_rules=("mutable-default", "bare-except", "slots-required"),
        asymmetry="pure source-level properties with no runtime "
                  "observable",
    ),
    Invariant(
        name="vcpu-placement",
        description="a VCPU occupies at most one PCPU and linkage is "
                    "mutually consistent",
        runtime_checks=("placement",),
        asymmetry="placement is emergent scheduler state; no static "
                  "rule can see it",
    ),
    Invariant(
        name="runq-consistency",
        description="RUNNABLE iff enqueued exactly once, counters "
                    "agree with queues",
        runtime_checks=("runq-membership",),
        asymmetry="emergent state; runtime-only",
    ),
    Invariant(
        name="credit-conservation",
        description="credit totals fall between assignments and "
                    "respect the Algorithm 3 ceiling",
        runtime_checks=("credit-conservation",),
        asymmetry="numeric flow over time; runtime-only",
    ),
    Invariant(
        name="gang-scheduling-atomicity",
        description="coscheduling enters and exits all-or-nothing "
                    "(paper Algorithm 4)",
        runtime_checks=("gang-atomicity",),
        asymmetry="emergent state; runtime-only",
    ),
    Invariant(
        name="launch-mutex-bounded",
        description="the gang launch mutex is held at most one IPI "
                    "fan-out window",
        runtime_checks=("launch-mutex",),
        asymmetry="liveness over simulated time; runtime-only",
    ),
    Invariant(
        name="lhp-causality",
        description="over-threshold spin waits are caused by a "
                    "descheduled lock holder",
        runtime_checks=("lhp-provenance",),
        asymmetry="causal property of a run; runtime-only",
    ),
    Invariant(
        name="ff-quiescence-noop",
        description="every scheduling pass skipped by the quiescent-tick "
                    "fast-forward would have been a strict no-op",
        runtime_checks=("ff-quiescence",),
        asymmetry="quiescence is a dynamic state property (idle PCPU, "
                  "all queued VCPUs parked) no static rule can decide; "
                  "the sanitizer replays the skipped pass step-wise and "
                  "compares state signatures, and the ff-off fingerprint "
                  "gate covers unsanitized runs",
    ),
)


def verify_parity() -> List[str]:
    """Cross-check the parity table against both rule registries.

    Returns a list of human-readable problems (empty when consistent):
    static rules or runtime checks missing from the table, table entries
    referencing ids that do not exist, ids claimed by two invariants,
    and invariants enforcing nothing on either plane.
    """
    problems: List[str] = []
    static_known = set(ALL_RULES)
    runtime_known = set(RUNTIME_CHECKS)
    static_claimed: Dict[str, str] = {}
    runtime_claimed: Dict[str, str] = {}
    for inv in INVARIANT_PARITY:
        if not inv.static_rules and not inv.runtime_checks:
            problems.append(f"invariant {inv.name!r} enforces nothing")
        if (not inv.static_rules or not inv.runtime_checks) \
                and not inv.asymmetry:
            problems.append(
                f"invariant {inv.name!r} is single-plane but gives no "
                f"asymmetry rationale")
        for rule in inv.static_rules:
            if rule not in static_known:
                problems.append(
                    f"invariant {inv.name!r} references unknown static "
                    f"rule {rule!r}")
            elif rule in static_claimed:
                problems.append(
                    f"static rule {rule!r} claimed by both "
                    f"{static_claimed[rule]!r} and {inv.name!r}")
            else:
                static_claimed[rule] = inv.name
        for check in inv.runtime_checks:
            if check not in runtime_known:
                problems.append(
                    f"invariant {inv.name!r} references unknown runtime "
                    f"check {check!r}")
            elif check in runtime_claimed:
                problems.append(
                    f"runtime check {check!r} claimed by both "
                    f"{runtime_claimed[check]!r} and {inv.name!r}")
            else:
                runtime_claimed[check] = inv.name
    for rule in sorted(static_known - set(static_claimed)):
        problems.append(
            f"static rule {rule!r} has no row in INVARIANT_PARITY: "
            f"decide its runtime counterpart (or record the asymmetry)")
    for check in sorted(runtime_known - set(runtime_claimed)):
        problems.append(
            f"runtime check {check!r} has no row in INVARIANT_PARITY: "
            f"decide its static counterpart (or record the asymmetry)")
    return problems
