"""Common machinery for VMM schedulers.

:class:`SchedulerBase` implements everything the three schedulers share:

* per-PCPU run queues with strict membership invariants (a VCPU is in
  exactly one runq iff RUNNABLE, on exactly one PCPU iff RUNNING, and
  nowhere iff BLOCKED);
* per-PCPU accounting ticks.  Ticks are **staggered** across PCPUs (phase
  offset ``tick * id / |P|``) exactly because real Xen's per-PCPU timers are
  not aligned — this asynchrony is what de-synchronises VCPU online windows
  and produces lock-holder preemption under the Credit baseline;
* credit assignment every K slots on the bootstrap PCPU (paper Algorithm 3);
* the credit-ordered pick ("a VCPU with the maximal Credit in the run queue
  of a PCPU will be mapped to the PCPU", Section 4.1), with UNDER/OVER
  priority classes and an IPI-boost class above both;
* work stealing for load balancing ("Before a PCPU goes idle, it will find
  any runnable VCPU in the run queue of the other PCPUs", Section 3.3);
* block/wake plumbing between guest and scheduler.

Subclasses specialise :meth:`eligible`, :meth:`post_pick` and
:meth:`on_vcrd_change` to implement the Credit baseline, static
coscheduling (CON) and ASMan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import SchedulerConfig
from repro.errors import ConfigurationError, SchedulerInvariantError
from repro.hardware.ipi import IPIFabric
from repro.hardware.machine import Machine, PCPU
from repro.sim.engine import Simulator
from repro.fastforward import fastforward_enabled
from repro.sim.tracing import TraceBus
from repro.vmm.vm import VCPU, VM, VCPUState

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import SchedulerSanitizer


class SchedulerBase:
    """Base VMM scheduler: mechanism + the shared credit policy."""

    #: Human-readable scheduler name, overridden by subclasses.
    name = "base"

    #: May the quiescent-tick fast-forward skip this scheduler's
    #: scheduling pass when the ticked PCPU is idle and every queued
    #: VCPU is parked?  Opting in carries a proof obligation: in that
    #: state ``_schedule`` must be a *strict no-op* — no placement, no
    #: trace emission, no counter or policy side effects (see the
    #: rationale comments on each opting-in subclass).  Default off so
    #: subclasses with unknown ``eligible``/``post_pick`` behaviour keep
    #: exact step-wise semantics.
    ff_quiescent_safe = False

    def __init__(self, machine: Machine, sim: Simulator, trace: TraceBus,
                 config: Optional[SchedulerConfig] = None) -> None:
        self.machine = machine
        self.sim = sim
        self.trace = trace
        self.config = config or SchedulerConfig()
        self.ipi = IPIFabric(machine, sim)
        self.vms: List[VM] = []
        #: pcpu id -> list of RUNNABLE VCPUs (unordered; picks scan it).
        self.runqs: Dict[int, List[VCPU]] = {p.id: [] for p in machine}
        #: Total VCPUs across all runqs, kept in lockstep by _enqueue /
        #: _remove_from_runq so the steal path can skip an all-runq scan
        #: when everything queued is already local.
        self._queued = 0
        #: pcpu id -> the *other* PCPUs' runq lists, in machine order.
        #: Runqs are only ever mutated in place, so the aliases stay live.
        self._peer_runqs: Dict[int, List[List[VCPU]]] = {
            p.id: [self.runqs[q.id] for q in machine if q.id != p.id]
            for p in machine}
        self._started = False
        self._next_vm_slot = 0
        self.context_switches = 0
        self._tick_count: Dict[int, int] = {p.id: 0 for p in machine}
        #: id(vcpu) -> cycle of its last credit debit while running.
        self._debit_start: Dict[int, int] = {}
        #: vm id -> cycle until which the VM's gang window is open (its
        #: VCPUs run in the top priority class).  Maintained only by the
        #: coscheduling subclasses; empty under the plain Credit policy.
        self._gang_until: Dict[int, int] = {}
        #: Optional runtime invariant checker (repro.analysis.sanitizer).
        #: None in the default path: every hook below is a single
        #: attribute test, so the sanitizer costs nothing when off.
        self.sanitizer: Optional["SchedulerSanitizer"] = None
        #: Quiescence fast-forward, sampled at construction (PR 9).
        self._ff = fastforward_enabled()
        for p in machine:
            self.ipi.register(p.id, self._on_ipi)

    # ------------------------------------------------------------------ #
    # Registration and startup
    # ------------------------------------------------------------------ #
    def add_vm(self, vm: VM) -> None:
        """Register a VM; its VCPUs are spread round-robin over PCPU runqs
        ("When a VM is created, its VCPUs will be inserted into run queues
        of PCPUs", Section 4.1)."""
        if vm.config.num_vcpus > len(self.machine):
            raise ConfigurationError(
                f"VM {vm.name} has more VCPUs ({vm.config.num_vcpus}) than "
                f"PCPUs ({len(self.machine)})")
        vm.scheduler = self
        self.vms.append(vm)
        # A fresh VM starts with one period's burn banked so it is not
        # parked for its first accounting periods (startup transient).
        initial = self.config.credit_per_tick * self.config.assign_slots
        for vcpu in vm.vcpus:
            pid = self._next_vm_slot % len(self.machine)
            self._next_vm_slot += 1
            vcpu.credit = float(initial)
            self._enqueue(vcpu, pid)
        if self.sanitizer is not None:
            self.sanitizer.note_credit_event()

    def remove_vm(self, vm: VM) -> None:
        """Destroy a VM: deschedule and dequeue its VCPUs and stop giving
        it credit.  The guest's pending timers become no-ops (the VM is
        flagged destroyed); its statistics remain readable."""
        if vm not in self.vms:
            raise ConfigurationError(f"VM {vm.name} is not registered")
        vm.destroyed = True
        for vcpu in vm.vcpus:
            self._debit_start.pop(id(vcpu), None)
            vcpu.boosted = False
            if vcpu.state is VCPUState.RUNNING:
                pcpu = vcpu.pcpu
                pcpu.vacate()
                self.trace.emit(self.sim.now, "sched.switch",
                                pcpu=pcpu.id, vcpu=None)
                vcpu.stop_running()  # RUNNING -> RUNNABLE, not in a runq
                vcpu.state = VCPUState.BLOCKED
                self.schedule(pcpu)
            elif vcpu.state is VCPUState.RUNNABLE:
                self._remove_from_runq(vcpu)
                vcpu.state = VCPUState.BLOCKED
        self._gang_until.pop(vm.id, None)
        self.vms.remove(vm)
        if self.sanitizer is not None:
            self.sanitizer.note_credit_event()

    def start(self) -> None:
        """Install tick timers and perform the initial credit assignment.

        Call once, after all VMs have been added (VMs added later still
        work: they join the next assignment round).
        """
        if self._started:
            raise SchedulerInvariantError("scheduler already started")
        self._started = True
        self.assign_credits()
        npc = len(self.machine)
        for p in self.machine:
            offset = (self.config.tick_cycles * p.id) // npc
            self.sim.every(self.config.tick_cycles,
                           lambda pid=p.id: self._tick(pid),
                           label=f"tick:p{p.id}",
                           start_offset=offset)
        # Kick the first scheduling pass so work begins at cycle ~0.
        for p in self.machine:
            self.schedule(p)

    # ------------------------------------------------------------------ #
    # Ticks and credit accounting
    # ------------------------------------------------------------------ #
    def _debit(self, vcpu: VCPU) -> None:
        """Exact-mode debit: charge elapsed runtime since the last debit.
        No-op in sampled mode (ticks do all the charging there)."""
        start = self._debit_start.pop(id(vcpu), None)
        if start is None or not self.config.exact_accounting:
            return
        elapsed = self.sim.now - start
        if elapsed > 0:
            debit = (elapsed * self.config.credit_per_tick
                     / self.config.tick_cycles)
            pcpu = vcpu.pcpu
            if pcpu is not None and pcpu.speed_factor != 1.0:
                # Degraded PCPU: the same wall cycles buy less work, so
                # the entitlement burns proportionally faster.
                debit /= pcpu.speed_factor
            vcpu.credit -= debit

    def _tick(self, pcpu_id: int) -> None:
        """Per-PCPU accounting tick: debit the running VCPU, re-schedule.

        The bootstrap PCPU (id 0) additionally runs the credit assignment
        every ``assign_slots`` of its own ticks (Algorithm 3)."""
        pcpu = self.machine[pcpu_id]
        running = pcpu.current
        if running is not None:
            if self.config.exact_accounting:
                self._debit(running)
                self._debit_start[id(running)] = self.sim.now
            else:
                # Xen's sampled accounting: whoever holds the PCPU at the
                # tick pays for the whole tick (more, on a degraded PCPU).
                debit = float(self.config.credit_per_tick)
                if pcpu.speed_factor != 1.0:
                    debit /= pcpu.speed_factor
                running.credit -= debit
        self._tick_count[pcpu_id] += 1
        if pcpu_id == 0 and self._tick_count[0] % self.config.assign_slots == 0:
            self.assign_credits()
            # Parked VCPUs that regained credit are *not* kicked here: as
            # in Xen, each PCPU notices newly-eligible VCPUs at its own
            # (staggered) tick.  This is what desynchronises the online
            # windows of a capped VM's VCPUs — the seed of lock-holder
            # preemption under the Credit baseline.
        if (self._ff and self.ff_quiescent_safe and pcpu.current is None
                and (self._queued == 0 or self._all_queued_parked())):
            # Lazy credit tick: the PCPU is idle and nothing queued is
            # eligible anywhere (base eligibility is exactly ``not
            # parked``), so the scheduling pass below would scan the
            # runqs, pick nothing, place nothing, emit nothing.  Skip
            # it.  Everything observable already happened above: the
            # tick counter advanced and — on PCPU 0 — Algorithm 3 ran
            # with exact conservation, so UNDER/OVER transitions and
            # park/unpark flips are identical; the *next* tick after an
            # unpark takes the normal path because the parked scan
            # fails.  With the sanitizer attached nothing is skipped:
            # the pass is replayed for real and asserted to be the
            # no-op the proof claims (check "ff-quiescence").
            if self.sanitizer is not None:
                self.sanitizer.check_ff_quiescence(pcpu)
                self.sanitizer.after_schedule(pcpu)
            return
        self.schedule(pcpu)

    def _all_queued_parked(self) -> bool:
        """True when every queued VCPU is parked under its cap — i.e. no
        scheduling pass anywhere could place anything.  Always False in
        work-conserving mode, where parking does not exist and every
        queued VCPU is eligible."""
        if self.config.work_conserving:
            return False
        for runq in self.runqs.values():
            for v in runq:
                if not v.parked:
                    return False
        return True

    def assign_credits(self) -> None:
        """Algorithm 3: distribute Cred_total = |P| * Cred_unit * K among
        VMs by weight, equally across each VM's VCPUs.

        Banking is clipped (a VCPU may save about one full running burst
        beyond its per-period share, like Xen's anti-hoarding clip), debt
        is floored, and — in non-work-conserving mode — cap enforcement
        happens *here*, at accounting granularity: a VCPU in the red is
        parked until a later assignment finds it positive again.  At low
        online rates this yields the real system's burst pattern (runs a
        whole 30 ms slice, parks ~100 ms), which is what stretches
        lock-holder-preemption waits into the 2^27..2^30 range.
        """
        cfg = self.config
        total_weight = sum(vm.weight for vm in self.vms)
        if total_weight <= 0:
            return
        cred_total = len(self.machine) * cfg.credit_per_tick * cfg.assign_slots
        burst = cfg.credit_per_tick * cfg.assign_slots  # one period's burn
        for vm in self.vms:
            omega = vm.weight / total_weight
            vm_credit = cred_total * omega
            shares = self._credit_split(vm, vm_credit)
            inc_max = max((s for _, s in shares), default=vm_credit)
            hi = inc_max + burst * (1.0 + cfg.credit_cap_periods)
            lo = -(inc_max + burst * (1.0 + cfg.credit_cap_periods))
            earned = {id(v): s for v, s in shares}
            for vcpu in vm.vcpus:
                inc = earned.get(id(vcpu), 0.0)
                vcpu.credit = min(hi, max(lo, vcpu.credit + inc))
            if not cfg.work_conserving:
                self._repark(vm, burst)
        self.trace.emit(self.sim.now, "credit.assign",
                        total=cred_total, vms=len(self.vms))
        self.post_assign()
        if self.sanitizer is not None:
            self.sanitizer.note_assign()

    def _credit_split(self, vm: VM, vm_credit: float) -> List[Tuple[VCPU, float]]:
        """How a VM's per-period credit is divided among its VCPUs.

        Xen's ``csched_acct`` splits it among the VCPUs *active* (not
        idle-blocked) at accounting time; a VCPU asleep at that instant
        earns nothing that period.  For synchronisation-heavy guests this
        is a vicious cycle — threads sleeping at a barrier forfeit income,
        park longer on wake, delay the others into sleeping more — and a
        major ingredient of the Credit scheduler's concurrent-workload
        pathology.  The Adaptive Scheduler overrides this with the paper's
        Algorithm 3 (equal split over all |C(Vi)| VCPUs).
        """
        active = [v for v in vm.vcpus if v.state is not VCPUState.BLOCKED]
        if not active:
            active = list(vm.vcpus)
        share = vm_credit / len(active)
        return [(v, share) for v in active]

    def _repark(self, vm: VM, burst: float) -> None:
        """Non-work-conserving cap enforcement at accounting granularity.

        A VCPU is eligible for the coming period only if its banked credit
        can fund a full period of running (``burst``); otherwise it parks
        and saves up.  This quantisation delivers exactly the entitled
        rate for CPU-bound VCPUs (run floor(credit/burst) of every few
        periods) while leaving blocked VCPUs unaffected.  Subclasses that
        coschedule override this to park/unpark a VM's VCPUs as a gang.
        """
        for vcpu in vm.vcpus:
            vcpu.parked = vcpu.credit < burst

    def post_assign(self) -> None:
        """Hook for subclasses (ASMan relocates VCRD-HIGH VMs here too)."""

    # ------------------------------------------------------------------ #
    # Eligibility and ordering
    # ------------------------------------------------------------------ #
    def eligible(self, vcpu: VCPU) -> bool:
        """May this RUNNABLE VCPU be placed on a PCPU right now?

        In non-work-conserving mode a parked VCPU is ineligible ("the CPU
        time obtained by the VM is strictly in proportion to its weight",
        Section 5.2); parking is decided at assignment events.
        """
        if self.config.work_conserving:
            return True
        return not vcpu.parked

    def _key(self, vcpu: VCPU) -> Tuple[int, float]:
        """Priority key, most important first.

        Class 0: coscheduled gang member in an open gang window (the IPI's
        "temporarily raise the priority", Algorithm 4 — held for the whole
        gang slot so the gang runs and exhausts credit *together*).
        Class 1: Xen's BOOST — just woke with credit in hand.
        Class 2: UNDER (credit >= 0);  class 3: OVER.
        Ties broken by maximal credit (Section 4.1).
        """
        if vcpu.boosted or \
                self._gang_until.get(vcpu.vm.id, 0) > self.sim.now:
            cls = 0
        elif vcpu.wake_boost and vcpu.credit >= 0:
            cls = 1
        elif vcpu.credit >= 0:
            cls = 2
        else:
            cls = 3
        return (cls, -vcpu.credit)

    # ------------------------------------------------------------------ #
    # The scheduling event (paper Section 4.5)
    # ------------------------------------------------------------------ #
    def schedule(self, pcpu: PCPU) -> None:
        """Run one scheduling event on ``pcpu``: pick the best eligible
        VCPU (locally, else steal), preempting the current one if beaten."""
        self._schedule(pcpu)
        if self.sanitizer is not None:
            self.sanitizer.after_schedule(pcpu)

    def _schedule(self, pcpu: PCPU) -> None:
        best = self._best_local(pcpu)
        if best is None and pcpu.current is None:
            best = self._steal_for(pcpu)
        current = pcpu.current
        if best is None:
            if current is not None and not self.eligible_running(current):
                self._deschedule(pcpu)
            return
        if current is not None:
            if not self.eligible_running(current):
                self._deschedule(pcpu)
            elif self._key(best) < self._key(current):
                self._deschedule(pcpu)
            else:
                # Current keeps the PCPU; Algorithm 4 still applies to it
                # as the head VCPU of this scheduling event.
                self.post_pick(pcpu, current)
                return
        self._place(pcpu, best)
        self.post_pick(pcpu, best)

    def eligible_running(self, vcpu: VCPU) -> bool:
        """May the *currently running* VCPU keep its PCPU?  Symmetric to
        :meth:`eligible`; split out so subclasses can differ."""
        if self.config.work_conserving:
            return True
        return not vcpu.parked

    def post_pick(self, pcpu: PCPU, vcpu: VCPU) -> None:
        """Hook invoked after a VCPU is placed (coschedulers fan out here)."""

    # -- placement helpers --------------------------------------------- #
    def _best_local(self, pcpu: PCPU) -> Optional[VCPU]:
        best: Optional[VCPU] = None
        best_key: Optional[Tuple[int, float]] = None
        for v in self.runqs[pcpu.id]:
            if not self.eligible(v):
                continue
            key = self._key(v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def _steal_for(self, pcpu: PCPU) -> Optional[VCPU]:
        """Work stealing: find the best eligible VCPU in other runqs and
        migrate it here.  Only called when this PCPU would otherwise idle."""
        if self._queued == len(self.runqs[pcpu.id]):
            return None  # every queued VCPU is already local
        best: Optional[VCPU] = None
        best_key: Optional[Tuple[int, float]] = None
        for runq in self._peer_runqs[pcpu.id]:
            for v in runq:
                if not self.eligible(v):
                    continue
                if not self.may_migrate(v, pcpu):
                    continue
                key = self._key(v)
                if best_key is None or key < best_key:
                    best, best_key = v, key
        if best is not None:
            self._move_to_runq(best, pcpu.id)
            best.migrations += 1
        return best

    def may_migrate(self, vcpu: VCPU, dest: PCPU) -> bool:
        """Migration filter hook.  Algorithm 4 forbids migrating a VCPU of
        a VCRD-HIGH VM onto a PCPU whose runq already holds a sibling;
        subclasses enforce that — the base allows everything."""
        return True

    def _place(self, pcpu: PCPU, vcpu: VCPU) -> None:
        if vcpu.state is not VCPUState.RUNNABLE:
            raise SchedulerInvariantError(
                f"placing {vcpu.name} which is {vcpu.state}")
        self._remove_from_runq(vcpu)
        vcpu.home_pcpu_id = pcpu.id
        self.context_switches += 1
        pcpu.occupy(vcpu)
        self._debit_start[id(vcpu)] = self.sim.now
        self.trace.emit(self.sim.now, "sched.switch",
                        pcpu=pcpu.id, vcpu=vcpu.name)
        # A coscheduling boost is consumed by winning a PCPU: the IPI's
        # purpose ("temporarily raise the priority", Algorithm 4) is
        # fulfilled, and ordinary credit order resumes afterwards.
        vcpu.boosted = False
        vcpu.start_running(pcpu)

    def _deschedule(self, pcpu: PCPU) -> None:
        vcpu = pcpu.vacate()
        if vcpu is None:
            return
        self.trace.emit(self.sim.now, "sched.switch",
                        pcpu=pcpu.id, vcpu=None)
        self._debit(vcpu)
        vcpu.stop_running()
        # stop_running may cascade into block() via the guest offline hook
        # in pathological guests; only runnable VCPUs rejoin the queue.
        if vcpu.state is VCPUState.RUNNABLE:
            self._enqueue(vcpu, pcpu.id)

    def _enqueue(self, vcpu: VCPU, pcpu_id: int) -> None:
        """Single entry point onto a runq: keeps home_pcpu_id and the
        global ``_queued`` counter consistent with runq membership."""
        vcpu.home_pcpu_id = pcpu_id
        self.runqs[pcpu_id].append(vcpu)
        self._queued += 1

    def _remove_from_runq(self, vcpu: VCPU) -> None:
        runq = self.runqs[vcpu.home_pcpu_id]
        try:
            runq.remove(vcpu)
        except ValueError:
            raise SchedulerInvariantError(
                f"{vcpu.name} not in its home runq {vcpu.home_pcpu_id}")
        self._queued -= 1

    def _move_to_runq(self, vcpu: VCPU, dest_pcpu_id: int) -> None:
        self._remove_from_runq(vcpu)
        self._enqueue(vcpu, dest_pcpu_id)

    # ------------------------------------------------------------------ #
    # Guest-driven events
    # ------------------------------------------------------------------ #
    def on_vcpu_block(self, vcpu: VCPU, was_running: bool) -> None:
        """A VCPU went idle.  Free its PCPU or runq slot and re-schedule."""
        if was_running:
            pcpu = vcpu.pcpu
            if pcpu is None or pcpu.current is not vcpu:
                raise SchedulerInvariantError(
                    f"blocking {vcpu.name}: PCPU linkage broken")
            pcpu.vacate()
            self.trace.emit(self.sim.now, "sched.switch",
                            pcpu=pcpu.id, vcpu=None)
            self._debit(vcpu)
            vcpu.boosted = False
            self.schedule(pcpu)
        else:
            # RUNNABLE -> BLOCKED while queued.
            self._remove_from_runq(vcpu)
            vcpu.boosted = False

    def on_vcpu_wake(self, vcpu: VCPU) -> None:
        """A blocked VCPU has work again: enqueue it, prefer idle PCPUs,
        and give it Xen's BOOST priority so a latency-sensitive VCPU can
        preempt a CPU hog immediately (the "tickle" path)."""
        home = self.machine[vcpu.home_pcpu_id]
        target = home
        if not home.is_idle:
            for p in self.machine:
                if p.is_idle and self.may_migrate(vcpu, p):
                    target = p
                    break
        self._enqueue(vcpu, target.id)
        if vcpu.credit >= 0:
            vcpu.wake_boost = True
        if self.eligible(vcpu):
            self.schedule(target)

    def on_vcrd_change(self, vm: VM) -> None:
        """Hook: a VM's VCRD flipped (only the Adaptive Scheduler reacts)."""

    def _wants_cosched(self, vm: VM) -> bool:
        """Does policy want this VM's VCPUs gang-scheduled right now?
        The base credit policy never coschedules; the CON and ASMan
        subclasses override (static hint / VCRD respectively)."""
        return False

    # ------------------------------------------------------------------ #
    # IPIs
    # ------------------------------------------------------------------ #
    def _on_ipi(self, target: int, source: int, payload) -> None:
        """Default IPI handler: a rescheduling interrupt."""
        self.schedule(self.machine[target])

    # ------------------------------------------------------------------ #
    # Introspection / verification
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Assert the runq/state invariants; used heavily by tests."""
        seen: Dict[str, int] = {}
        total_queued = sum(len(rq) for rq in self.runqs.values())
        if total_queued != self._queued:
            raise SchedulerInvariantError(
                f"_queued={self._queued} but runqs hold {total_queued}")
        for pid, runq in self.runqs.items():
            for v in runq:
                if v.state is not VCPUState.RUNNABLE:
                    raise SchedulerInvariantError(
                        f"{v.name} in runq {pid} but state={v.state}")
                if v.home_pcpu_id != pid:
                    raise SchedulerInvariantError(
                        f"{v.name} home={v.home_pcpu_id} but queued on {pid}")
                seen[v.name] = seen.get(v.name, 0) + 1
        for name, count in seen.items():
            if count > 1:
                raise SchedulerInvariantError(f"{name} in {count} runqs")
        for p in self.machine:
            v = p.current
            if v is None:
                continue
            if v.state is not VCPUState.RUNNING or v.pcpu is not p:
                raise SchedulerInvariantError(
                    f"{v.name} on PCPU {p.id} but state={v.state}")
            if v.name in seen:
                raise SchedulerInvariantError(
                    f"{v.name} both RUNNING and queued")
        for vm in self.vms:
            for v in vm.vcpus:
                if v.state is VCPUState.RUNNABLE and v.name not in seen:
                    raise SchedulerInvariantError(
                        f"{v.name} RUNNABLE but in no runq")

    def runq_of(self, vcpu: VCPU) -> List[VCPU]:
        return self.runqs[vcpu.home_pcpu_id]
