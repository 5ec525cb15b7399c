"""Command-line interface.

``python -m repro <command>`` (or the ``repro`` console script):

* ``list`` — available figures, workloads and schedulers;
* ``figure <name>`` — rerun one paper figure and print/export its series;
* ``run`` — a single-VM scenario with a chosen workload/scheduler/rate;
* ``sweep`` — the online-rate sweep comparing schedulers (a quick Fig 7);
* ``specjbb`` — the warehouse sweep (a quick Fig 10);
* ``robustness`` — the fault-injection matrix (``repro.faults``): how
  each scheduler degrades under hypercall loss, IPI drops, Monitoring
  Module misreporting and degraded PCPUs;
* ``perf`` — the simulation-core benchmark/regression harness
  (``repro.perf``): emits ``BENCH_<name>.json`` and optionally gates
  against a committed baseline (``--check``);
* ``conform`` — the differential conformance suite
  (``repro.conformance``): a fuzzed scenario corpus cross-checked under
  every scheduler by an invariant oracle, plus golden-trace comparison
  (``--golden check|update``) and failure-artifact replay (``--replay``);
* ``lint`` — the simlint static checker (``repro.analysis``): sim-specific
  determinism and cycle-unit rules, non-zero exit on violations.

The sim subcommands (``run``/``sweep``/``specjbb``) also accept
``--faults KEY=VALUE,...`` to inject a deterministic fault scenario into
the simulated system (see ``docs/robustness.md`` for the vocabulary).

Every simulation-running command accepts ``--sanitize``, which attaches
the runtime scheduler sanitizer (``repro.analysis.sanitizer``) to all
testbeds built in this process; ``REPRO_SANITIZE=1`` does the same from
the environment.

The parallel experiment fabric (``repro.parallel``) adds ``--jobs N|auto``
(also ``REPRO_JOBS``) to fan independent scenario cells out over worker
processes, and a content-addressed result cache under ``.repro-cache/``
that is on by default — ``--no-cache`` disables it, ``--cache-dir``
relocates it.  Results are bit-identical at any job count.

Every fabric batch runs *supervised* (``repro.parallel.supervisor``):
worker crashes rebuild the pool and re-dispatch only the lost cells,
``--cell-timeout``/``--batch-deadline`` bound wall-clock budgets,
``--retries`` bounds deterministic per-cell retry, and each completed
cell is journaled so an interrupted ``sweep``/``conform`` re-run with
``--resume`` re-executes only the missing cells.  ``--chaos
KEY=VALUE,...`` injects deterministic driver-level faults (worker kills,
stalls, cache corruption — see ``repro chaos`` for the self-proving
demo).  These options build one :class:`~repro.parallel.RunContext`,
installed for the duration of the command.

Everything the CLI does goes through the same public API the examples
use; it adds no behaviour, only ergonomics.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence)

from repro import units
from repro.experiments import figures as F
from repro.experiments.runner import PAPER_RATES
from repro.metrics import ascii_plot
from repro.metrics.export import figure_to_csv, figure_to_json, write_text
from repro.metrics.report import Table
from repro.metrics.runtime import ideal_slowdown
from repro.workloads.nas import NAS_PROFILES, NasBenchmark
from repro.workloads.speccpu import SPEC_CPU_PROFILES, SpecCpuRateWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel import RunContext

#: name -> zero-config callable returning a FigureResult.
FIGURES: Dict[str, Callable[..., "F.FigureResult"]] = {
    "fig01a": F.fig01_lu_runtime,
    "fig01b": F.fig01_spinlock_counts,
    "fig02": F.fig02_wait_details,
    "fig07": F.fig07_lu_comparison,
    "fig08": F.fig08_wait_details_asman,
    "fig09": F.fig09_nas_slowdowns,
    "fig10": F.fig10_specjbb,
    "fig11a": F.fig11a,
    "fig11b": F.fig11b,
    "fig12a": F.fig12a,
    "fig12b": F.fig12b,
}

SCHEDULERS = ("credit", "asman", "con", "relaxed")


def _workload_factory(name: str, scale: float):
    if name.upper() in NAS_PROFILES:
        return lambda: NasBenchmark.by_name(name.upper(), scale=scale)
    if name in SPEC_CPU_PROFILES:
        return lambda: SpecCpuRateWorkload.by_name(name, scale=scale)
    raise SystemExit(
        f"unknown workload {name!r}; choose a NAS benchmark "
        f"({', '.join(NAS_PROFILES)}) or SPEC CPU "
        f"({', '.join(SPEC_CPU_PROFILES)})")


def _workload_spec(name: str, scale: float):
    """Map a CLI workload name to a declarative (cellable) WorkloadSpec."""
    from repro.parallel import WorkloadSpec
    if name.upper() in NAS_PROFILES:
        return WorkloadSpec("nas", name.upper(), scale=scale)
    if name in SPEC_CPU_PROFILES:
        return WorkloadSpec("speccpu", name, scale=scale)
    raise SystemExit(
        f"unknown workload {name!r}; choose a NAS benchmark "
        f"({', '.join(NAS_PROFILES)}) or SPEC CPU "
        f"({', '.join(SPEC_CPU_PROFILES)})")


def _parse_faults(text: Optional[str]):
    """Map the ``--faults`` option to a FaultSpec (None when absent or
    a no-op, so the pristine path stays injector-free)."""
    if text is None:
        return None
    from repro.errors import ConfigurationError
    from repro.faults import FaultSpec
    try:
        spec = FaultSpec.parse(text)
    except ConfigurationError as exc:
        raise SystemExit(f"bad --faults spec: {exc}")
    return None if spec.is_noop() else spec


def _parse_chaos(text: Optional[str]):
    """Map the ``--chaos`` option to a ChaosSpec (None when absent or a
    no-op, so clean runs never touch the injector)."""
    if text is None:
        return None
    from repro.errors import ConfigurationError
    from repro.parallel.chaos import ChaosSpec
    try:
        spec = ChaosSpec.parse(text)
    except ConfigurationError as exc:
        raise SystemExit(f"bad --chaos spec: {exc}")
    return None if spec.is_noop() else spec


# --------------------------------------------------------------------- #
def cmd_list(args) -> int:
    """``repro list``: print figures, workloads, schedulers."""
    print("figures:    " + " ".join(sorted(FIGURES)))
    print("workloads:  " + " ".join(list(NAS_PROFILES)
                                    + list(SPEC_CPU_PROFILES)
                                    + ["specjbb"]))
    print("schedulers: " + " ".join(SCHEDULERS))
    return 0


def cmd_figure(args) -> int:
    """``repro figure <name>``: rerun a paper figure, print/export it."""
    fn = FIGURES.get(args.name)
    if fn is None:
        print(f"unknown figure {args.name!r}; try: "
              + " ".join(sorted(FIGURES)), file=sys.stderr)
        return 2
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.seeds:
        kwargs["seeds"] = tuple(args.seeds)
    try:
        result = fn(**kwargs)
    except TypeError:
        result = fn()  # driver without those knobs (e.g. fig10)
    print(result.render())
    if args.plot:
        line_series = {k: v for k, v in result.series.items()
                       if len(v) <= 64}
        if line_series:
            print()
            print(ascii_plot.line_plot(line_series, title=result.figure))
    if args.json:
        write_text(args.json, figure_to_json(result))
        print(f"\nwrote {args.json}")
    if args.csv:
        write_text(args.csv, figure_to_csv(result))
        print(f"wrote {args.csv}")
    return 0


def cmd_run(args) -> int:
    """``repro run``: one single-VM scenario (optionally verbose)."""
    if args.verbose:
        return _run_verbose(args, _workload_factory(args.workload,
                                                    args.scale))
    from repro.experiments.runner import SingleVmResult
    from repro.parallel import run_cells, single_vm_cell
    faults = _parse_faults(args.faults)
    spec = single_vm_cell(_workload_spec(args.workload, args.scale),
                          scheduler=args.scheduler, online_rate=args.rate,
                          seed=args.seed, collect_scatter=True,
                          faults=faults)
    r = run_cells([spec]).value(spec)
    assert isinstance(r, SingleVmResult)
    print(f"workload={args.workload} scheduler={args.scheduler} "
          f"rate={args.rate:.3f} seed={args.seed}")
    print(f"runtime: {r.runtime_seconds:.3f} s "
          f"(measured online rate {r.measured_online_rate:.3f})")
    print(f"spinlock waits: {int(r.spin_summary['recorded'])} recorded, "
          f">2^20: {int(r.spin_summary['over_2^20'])}, "
          f"max log2: {r.spin_summary['max_log2']:.1f}")
    if r.monitor_stats:
        print(f"monitoring module: {r.monitor_stats}")
    if r.fault_stats is not None:
        fired = {k: v for k, v in r.fault_stats.items() if v}
        print(f"faults ({faults.describe()}): {fired or 'none fired'}")
    if args.plot and r.spin_scatter:
        print()
        print(ascii_plot.wait_histogram(
            [w for _, w in r.spin_scatter],
            title="spinlock wait distribution (log2 cycles)"))
    return 0


def _run_verbose(args, factory) -> int:
    """Single-VM run with guest introspection and a co-online summary."""
    from repro.config import SchedulerConfig
    from repro.experiments.setup import Testbed, weight_for_rate
    from repro.guest.stats import snapshot
    from repro.metrics.timeline import TimelineCollector

    tb = Testbed(scheduler=args.scheduler, seed=args.seed,
                 sched_config=SchedulerConfig(work_conserving=False),
                 faults=_parse_faults(args.faults))
    timeline = TimelineCollector(tb.trace, tb.sim)
    tb.add_domain0()
    tb.add_vm("V1", weight=weight_for_rate(args.rate), workload=factory())
    ok = tb.run_until_workloads_done(
        ["V1"], deadline_cycles=units.seconds(600))
    if not ok:
        print("run did not finish within the deadline", file=sys.stderr)
        return 1
    timeline.close()
    print(f"runtime: {units.to_seconds(tb.guests['V1'].finished_at):.3f} s")
    print(f"co-online fraction (all 4 VCPUs simultaneously): "
          f"{timeline.co_online_fraction('V1', parties=4):.3f}\n")
    print(snapshot(tb.guests["V1"]).render())
    if tb.faults is not None:
        print(f"fault injections: {tb.faults.stats()}")
    if args.plot:
        window = min(tb.sim.now, units.ms(200))
        print()
        print(timeline.gantt(tb.sim.now - window, tb.sim.now,
                             pcpus=range(len(tb.machine))))
    return 0


def cmd_sweep(args) -> int:
    """``repro sweep``: the paper-rate sweep across schedulers.

    The whole (rate x scheduler) grid plus the rate-1.0 base run is one
    cell batch, so ``--jobs`` parallelises it and reruns are cache hits.
    """
    from repro.experiments.runner import SingleVmResult
    from repro.parallel import run_cells, single_vm_cell

    wl = _workload_spec(args.workload, args.scale)
    faults = _parse_faults(args.faults)
    scheds: List[str] = args.schedulers.split(",")
    for s in scheds:
        if s not in SCHEDULERS:
            raise SystemExit(f"unknown scheduler {s!r}")
    base_spec = single_vm_cell(wl, scheduler=scheds[0], online_rate=1.0,
                               seed=args.seed, faults=faults)
    grid = {(rate, sched): single_vm_cell(wl, scheduler=sched,
                                          online_rate=rate, seed=args.seed,
                                          faults=faults)
            for rate in PAPER_RATES for sched in scheds}
    results = run_cells([base_spec, *grid.values()])

    def runtime(spec) -> float:
        r = results.value(spec)
        assert isinstance(r, SingleVmResult)
        return r.runtime_seconds

    base = runtime(base_spec)
    table = Table(["rate_%", "ideal"] + [f"{s}_sd" for s in scheds],
                  title=f"{args.workload} slowdown sweep")
    for rate in PAPER_RATES:
        row = [round(rate * 100, 1), ideal_slowdown(rate)]
        for sched in scheds:
            row.append(runtime(grid[(rate, sched)]) / base)
        table.add_row(*row)
    print(table)
    return 0


def cmd_specjbb(args) -> int:
    """``repro specjbb``: warehouse sweep at one online rate, batched
    as one (warehouse x scheduler) cell grid over the fabric."""
    from repro.experiments.runner import SpecJbbResult
    from repro.parallel import run_cells, specjbb_cell

    scheds = args.schedulers.split(",")
    faults = _parse_faults(args.faults)
    warehouses = range(1, args.max_warehouses + 1)
    grid = {(w, sched): specjbb_cell(
                w, scheduler=sched, online_rate=args.rate,
                window_cycles=units.ms(args.window_ms), seed=args.seed,
                faults=faults)
            for w in warehouses for sched in scheds}
    results = run_cells(list(grid.values()))
    table = Table(["warehouses"] + scheds,
                  title=f"SPECjbb bops at rate {args.rate:.3f}")
    for w in warehouses:
        row: List[object] = [w]
        for sched in scheds:
            r = results.value(grid[(w, sched)])
            assert isinstance(r, SpecJbbResult)
            row.append(r.bops)
        table.add_row(*row)
    print(table)
    return 0


def cmd_robustness(args) -> int:
    """``repro robustness``: the fault-injection degradation matrix."""
    from repro.errors import ConfigurationError
    from repro.experiments.robustness import (FAULT_CLASSES, QUICK_CLASSES,
                                              robustness_report)

    if args.list_classes:
        width = max(len(n) for n in FAULT_CLASSES)
        for name, spec in FAULT_CLASSES.items():
            print(f"{name:<{width}}  {spec.describe() or '(pristine)'}")
        return 0
    scheds = args.schedulers.split(",")
    for s in scheds:
        if s not in SCHEDULERS:
            raise SystemExit(f"unknown scheduler {s!r}")
    if args.classes:
        classes: Optional[Sequence[str]] = args.classes.split(",")
    elif args.quick:
        classes = QUICK_CLASSES
    else:
        classes = None  # the full matrix
    scale = args.scale if args.scale is not None \
        else (0.3 if args.quick else 0.6)
    try:
        report = robustness_report(
            workload=args.workload.upper(), scale=scale, rate=args.rate,
            seeds=tuple(args.seeds), schedulers=scheds, classes=classes,
            fairness=not args.no_fairness)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    print(report.render())
    return 0


def cmd_conform(args) -> int:
    """``repro conform``: the differential conformance suite.

    Default mode fuzzes ``--scenarios`` deterministic scenarios and runs
    each under every scheduler in ``--schedulers``, judging the oracle's
    cross-scheduler invariants and metamorphic relations.  Two exclusive
    side modes skip the corpus: ``--golden check|update`` replays the
    pinned golden-trace scenarios, and ``--replay ARTIFACT`` re-runs a
    shrunk failure artifact.
    """
    from repro.conformance import conform
    from repro.conformance.golden import check as golden_check
    from repro.conformance.golden import update as golden_update
    from repro.conformance.shrink import (replay_artifact, save_artifact,
                                          shrink)
    from repro.errors import ConfigurationError

    if args.golden and args.replay:
        raise SystemExit("--golden and --replay are exclusive modes")

    if args.golden:
        if args.golden == "update":
            for path in golden_update(args.golden_dir):
                print(f"wrote {path}")
            return 0
        drifts = golden_check(args.golden_dir)
        for d in drifts:
            print(d.render())
        if drifts:
            return 1
        print("golden traces match")
        return 0

    if args.replay:
        try:
            outcome = replay_artifact(args.replay)
        except ConfigurationError as exc:
            raise SystemExit(str(exc))
        print(outcome.render())
        return 0 if outcome.reproduced else 1

    schedulers = tuple(args.schedulers.split(","))
    try:
        report = conform(scenarios=args.scenarios, seed=args.seed,
                         schedulers=schedulers,
                         metamorphic_every=args.metamorphic_every)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    print(report.render())
    if args.fingerprints:
        import json as _json
        import pathlib
        doc = {"seed": report.seed, "count": report.count,
               "schedulers": list(report.schedulers),
               "combined": report.combined_fingerprint(),
               "scenarios": report.fingerprints()}
        pathlib.Path(args.fingerprints).write_text(
            _json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote fingerprints to {args.fingerprints}")
    if report.ok:
        return 0
    if args.shrink:
        first = next(v for v in report.verdicts if not v.ok)
        print(f"\nshrinking first failing scenario "
              f"#{first.scenario.index} ...")
        result = shrink(first.scenario, schedulers)
        print(result.render())
        if args.artifact:
            path = save_artifact(result, args.artifact)
            print(f"wrote replay artifact {path} "
                  f"(python -m repro conform --replay {path})")
    return 1


def cmd_chaos(args) -> int:
    """``repro chaos``: the self-proving driver-level chaos demo.

    Three phases over one small cell batch, in scratch caches under
    ``<cache>/chaos-demo/``: (1) a clean serial reference run; (2) a
    supervised parallel run under injected worker kills/stalls/errors —
    merged results must be bit-identical to the reference; (3) a warm
    rerun after deterministically corrupting cache entries — corrupt
    entries must be quarantined and re-executed, fingerprints unchanged.
    Any fingerprint divergence raises
    :class:`~repro.errors.ExecutionError` (exit code 3).
    """
    import os as _os
    import pathlib

    from repro import parallel
    from repro.errors import ExecutionError
    from repro.parallel import (ResultCache, RunContext, run_cells,
                                single_vm_cell, use_context)
    from repro.parallel.chaos import ChaosSpec
    from repro.parallel.supervisor import SupervisorPolicy

    chaos = _parse_chaos(args.chaos)
    if chaos is None:
        chaos = ChaosSpec(seed=7, kill_rate=0.3, stall_rate=0.2,
                          stall_s=0.05, error_rate=0.3, corrupt_rate=0.6)
    policy = SupervisorPolicy(
        cell_timeout_s=args.cell_timeout,
        batch_deadline_s=args.batch_deadline,
        max_retries=args.retries if args.retries is not None else 3,
        max_pool_rebuilds=10)

    wl = _workload_spec(args.workload, args.scale)
    scheds = args.schedulers.split(",")
    for s in scheds:
        if s not in SCHEDULERS:
            raise SystemExit(f"unknown scheduler {s!r}")
    specs = [single_vm_cell(wl, scheduler=sched, online_rate=rate,
                            seed=seed)
             for sched in scheds for rate in (1.0, 0.4)
             for seed in args.seeds]

    scratch = pathlib.Path(
        args.cache_dir or _os.environ.get("REPRO_CACHE_DIR")
        or parallel.DEFAULT_CACHE_DIR) / "chaos-demo"
    clean_cache = ResultCache(scratch / "clean")
    clean_cache.clear()
    chaos_cache = ResultCache(scratch / "chaos")
    chaos_cache.clear()

    print(f"chaos spec: {chaos.describe()} (seed {chaos.seed})")
    print(f"batch: {len(specs)} cell(s), {args.workload} "
          f"scale {args.scale:g}, schedulers {','.join(scheds)}")

    # Each phase sets its own injection: the --chaos/--resume of this
    # command's context must not reach the clean reference run.
    with use_context(RunContext()):
        ref = run_cells(specs, jobs=1, cache=clean_cache,
                        policy=SupervisorPolicy())
        ref_fp = ref.combined_fingerprint()
        print(f"[1/3] clean serial reference        : {ref_fp}")

        jobs = args.jobs if args.jobs is not None else "2"
        cold = run_cells(specs, jobs=jobs, cache=chaos_cache,
                         policy=policy, chaos=chaos)
        cold.raise_if_failed()
        cold_fp = cold.combined_fingerprint()
        print(f"[2/3] supervised run under chaos    : {cold_fp}")
        if cold.supervisor is not None:
            print(f"      {cold.supervisor.describe()}")

        warm = run_cells(specs, jobs=jobs, cache=chaos_cache,
                         policy=policy, chaos=chaos)
        warm.raise_if_failed()
        warm_fp = warm.combined_fingerprint()
        quarantined = chaos_cache.quarantined
        print(f"[3/3] warm rerun + cache corruption : {warm_fp}")
        print(f"      {quarantined} corrupt cache entr"
              f"{'y' if quarantined == 1 else 'ies'} quarantined and "
              f"re-executed")

    if cold_fp != ref_fp or warm_fp != ref_fp:
        raise ExecutionError(
            f"chaos determinism gate FAILED: clean {ref_fp}, "
            f"cold chaos {cold_fp}, warm chaos {warm_fp}")
    print(f"chaos determinism gate OK: results bit-identical to the "
          f"clean run under {chaos.describe()}")
    return 0


def _lint_default_root():
    import pathlib
    src = pathlib.Path("src/repro")
    if src.is_dir():
        return src
    import repro
    return pathlib.Path(repro.__file__).parent


def _lint_emit(text: str, output) -> None:
    if output:
        import pathlib
        pathlib.Path(output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {output}")
    else:
        print(text)


def _check_waiver_budget(pragmas_used: int, max_waivers) -> int:
    if max_waivers is not None and pragmas_used > max_waivers:
        print(f"lint: {pragmas_used} pragma waiver(s) exceed the "
              f"--max-waivers budget of {max_waivers}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint_interproc(args, rules) -> int:
    """The ``--interprocedural`` arm: whole-program analysis with the
    SARIF/baseline workflow."""
    import json as _json
    import pathlib

    from repro.analysis.engine import (analyze, load_baseline,
                                       write_baseline)
    from repro.analysis.sarif import render_sarif

    if len(args.paths) > 1:
        print("lint error: --interprocedural takes one package root",
              file=sys.stderr)
        return 2
    root = pathlib.Path(args.paths[0]) if args.paths \
        else _lint_default_root()
    if not root.is_dir():
        print(f"lint error: {root} is not a package directory",
              file=sys.stderr)
        return 2

    baseline_path = pathlib.Path(args.baseline)
    baseline_doc = None
    if not args.no_baseline and not args.update_baseline \
            and baseline_path.exists():
        try:
            baseline_doc = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"lint error: {exc}", file=sys.stderr)
            return 2

    changed = [p for p in args.diff.split(",") if p.strip()] \
        if args.diff is not None else None
    try:
        report, project, sources = analyze(
            root, rules=rules, baseline=baseline_doc,
            changed_files=changed, assume_sim=args.assume_sim)
    except (ValueError, OSError, SyntaxError) as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        out = write_baseline(report.violations, sources, baseline_path)
        print(f"wrote {out} ({len(report.violations)} grandfathered "
              f"finding(s))")
        return 0

    if args.format == "sarif":
        _lint_emit(render_sarif(report, sources, project), args.output)
    elif args.format == "json":
        doc = {
            "violations": [v.to_dict() for v in report.violations],
            "new": len(report.new),
            "grandfathered": len(report.grandfathered),
            "stale_baseline": len(report.stale_baseline),
            "files_checked": report.files_checked,
            "pragmas_used": report.pragmas_used,
            "waivers_by_rule": report.waivers_by_rule,
            "interprocedural": True,
            "ok": report.ok,
        }
        _lint_emit(_json.dumps(doc, indent=2, sort_keys=True),
                   args.output)
    else:
        lines = [v.render() for v in report.new]
        lines.append(
            f"{len(report.violations)} finding(s) "
            f"({len(report.new)} new, {len(report.grandfathered)} "
            f"grandfathered) in {report.files_checked} file(s), "
            f"{report.pragmas_used} pragma waiver(s)")
        if report.stale_baseline and changed is None:
            lines.append(
                f"warning: {len(report.stale_baseline)} stale baseline "
                f"entr(y/ies) no longer occur — prune {baseline_path}")
        _lint_emit("\n".join(lines), args.output)

    budget_rc = _check_waiver_budget(report.pragmas_used,
                                     args.max_waivers)
    return 1 if (report.new or budget_rc) else 0


def cmd_lint(args) -> int:
    """``repro lint``: run simlint over the source tree (default) or the
    given paths; exit 1 if violations are found.

    ``--interprocedural`` switches to the whole-program engine
    (:mod:`repro.analysis.engine`) with the three cross-function rule
    families, SARIF output and the ``analysis-baseline.json``
    suppression workflow."""
    import pathlib

    from repro import analysis

    if args.list_rules:
        from repro.analysis.rules_interproc import INTERPROC_RULES
        merged = dict(analysis.RULES)
        merged.update({f"{r} [interprocedural]": d
                       for r, d in INTERPROC_RULES.items()})
        width = max(len(r) for r in merged)
        for rule, desc in merged.items():
            print(f"{rule:<{width}}  {desc}")
        return 0
    rules = args.rules.split(",") if args.rules else None
    if args.format == "sarif" and not args.interprocedural:
        print("lint error: --format sarif requires --interprocedural",
              file=sys.stderr)
        return 2
    if args.interprocedural:
        return _cmd_lint_interproc(args, rules)
    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
    else:
        paths = [_lint_default_root()]
    try:
        report = analysis.lint_paths(paths, assume_sim=args.assume_sim,
                                     rules=rules)
    except (ValueError, OSError, SyntaxError) as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _lint_emit(analysis.render_json(report), args.output)
    else:
        _lint_emit(analysis.render_text(report), args.output)
    budget_rc = _check_waiver_budget(report.pragmas_used,
                                     args.max_waivers)
    return 1 if (not report.ok or budget_rc) else 0


def cmd_perf(args) -> int:
    """``repro perf``: run the performance regression harness.

    Emits ``BENCH_<name>.json`` per benchmark; ``--check`` gates
    events/sec (host-normalised) and simulation fingerprints against a
    committed baseline, ``--update-baseline`` records a new one.
    """
    import pathlib

    from repro import perf
    from repro.errors import ConfigurationError

    if args.list:
        for name in perf.registry:
            print(name)
        return 0
    names = args.only.split(",") if args.only else None
    mode = "quick" if args.quick else "full"
    config = perf.run_config()
    print("run config: " + ", ".join(f"{k}={'on' if v else 'off'}"
                                     for k, v in config.items()))
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        results = perf.run_benchmarks(
            names, quick=args.quick,
            progress=lambda n: print(f"running {n} [{mode}] ...", flush=True))
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    out_dir = pathlib.Path(args.out)
    if profiler is not None:
        import pstats

        profiler.disable()
        out_dir.mkdir(parents=True, exist_ok=True)
        pstats_path = out_dir / "profile.pstats"
        profiler.dump_stats(pstats_path)
        print(f"\nprofile (top 20 by cumulative time) -> {pstats_path}")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(20)
    for r in results:
        path = perf.write_result(r, out_dir)
        print(f"  {r.name}: {r.events_per_s:,.0f} events/s "
              f"({r.events} events in {r.wall_s:.3f}s, "
              f"peak heap {r.peak_heap_entries}) -> {path}")
    if args.trajectory:
        import json

        base_path = pathlib.Path(args.check or "benchmarks/perf_baseline.json")
        before = perf.load_baseline(base_path).get("benches", {})
        traj = {}
        for r in results:
            b = before.get(r.name, {})
            prev = float(b.get("events_per_s", 0.0))
            traj[r.name] = {
                "before_events_per_s": round(prev, 1),
                "after_events_per_s": round(r.events_per_s, 1),
                "speedup": round(r.events_per_s / prev, 3) if prev else None,
            }
        doc = {"meta": {"mode": mode, "config": config,
                        "baseline": str(base_path)},
               "benches": traj}
        traj_path = pathlib.Path(args.trajectory)
        traj_path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote perf trajectory {traj_path}")
    status = 0
    if args.update_baseline or args.check:
        calibration = perf.calibrate()
        print(f"host calibration: {calibration:,.0f} loop-iters/s")
    if args.update_baseline:
        perf.write_baseline(results, pathlib.Path(args.update_baseline),
                            args.quick, calibration)
        print(f"wrote baseline {args.update_baseline}")
    if args.check:
        baseline = perf.load_baseline(pathlib.Path(args.check))
        base_mode = baseline.get("meta", {}).get("mode")
        if base_mode != mode:
            print(f"baseline was recorded in {base_mode!r} mode but this "
                  f"run is {mode!r}; rerun with matching --quick",
                  file=sys.stderr)
            return 2
        failures = perf.check_against_baseline(
            results, baseline, calibration, threshold=args.fail_threshold)
        if failures:
            print("\nPERF REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            status = 1
        else:
            print(f"perf check OK against {args.check} "
                  f"(threshold {args.fail_threshold:.0%})")
    return status


# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for shell-completion tools)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="ASMan (HPDC'11) reproduction: run figures and "
                    "scenarios on the simulated testbed.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  success\n"
            "  1  run failed (violations, regressions, drift)\n"
            "  2  usage or configuration error\n"
            "  3  ExecutionError: supervised cells failed "
            "(exhausted retries, crashes)\n"
            "  4  CellTimeoutError: cells exceeded their wall-clock "
            "budgets\n"
            "  5  CacheIntegrityError: result-cache entries failed "
            "checksum verification\n"))
    sub = p.add_subparsers(dest="command", required=True)

    #: Shared by every simulation-running subcommand.
    sim_common = argparse.ArgumentParser(add_help=False)
    sim_common.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime scheduler sanitizer (invariant checks "
             "after every scheduling decision; slower)")

    #: Parallel-fabric options, shared by every cell-batched subcommand.
    fabric_common = argparse.ArgumentParser(add_help=False)
    fabric_common.add_argument(
        "--jobs", metavar="N|auto", default=None,
        help="fan independent scenario cells out over N worker "
             "processes ('auto' = one per CPU; default: $REPRO_JOBS or 1)")
    fabric_common.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed result cache")
    fabric_common.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result cache directory (default .repro-cache or "
             "$REPRO_CACHE_DIR)")
    fabric_common.add_argument(
        "--cell-timeout", type=float, metavar="SECONDS", default=None,
        help="wall-clock budget per cell attempt (pool mode; overruns "
             "become structured timeout failures, not lost batches)")
    fabric_common.add_argument(
        "--batch-deadline", type=float, metavar="SECONDS", default=None,
        help="wall-clock budget for the whole batch")
    fabric_common.add_argument(
        "--retries", type=int, metavar="N", default=None,
        help="failed attempts allowed per cell beyond the first "
             "(default 2); backoff is deterministic per cell key")
    fabric_common.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted batch from its journal "
             "(.repro-cache/journal/): only missing cells re-execute")
    fabric_common.add_argument(
        "--chaos", metavar="KEY=VALUE,...", default=None,
        help="inject deterministic driver-level faults into this batch "
             "(worker kills, stalls, cache corruption; see `repro "
             "chaos --help`)")

    #: Fault injection, shared by the scenario subcommands.
    faults_common = argparse.ArgumentParser(add_help=False)
    faults_common.add_argument(
        "--faults", metavar="KEY=VALUE,...", default=None,
        help="inject a deterministic fault scenario, e.g. "
             "'hypercall_loss=0.5,monitor_mode=stuck_low' "
             "(see docs/robustness.md)")

    sub.add_parser("list", help="list figures/workloads/schedulers")

    fp = sub.add_parser("figure", help="rerun one paper figure",
                        parents=[sim_common, fabric_common])
    fp.add_argument("name", help="e.g. fig07 (see `repro list`)")
    fp.add_argument("--scale", type=float, default=None,
                    help="workload scale factor")
    fp.add_argument("--seeds", type=int, nargs="*", default=None)
    fp.add_argument("--plot", action="store_true",
                    help="also render an ASCII plot")
    fp.add_argument("--json", metavar="PATH", help="export JSON")
    fp.add_argument("--csv", metavar="PATH", help="export CSV")

    rp = sub.add_parser("run", help="one single-VM scenario",
                        parents=[sim_common, fabric_common, faults_common])
    rp.add_argument("--workload", default="LU")
    rp.add_argument("--scheduler", default="credit", choices=SCHEDULERS)
    rp.add_argument("--rate", type=float, default=0.4,
                    help="VCPU online rate in (0, 1]")
    rp.add_argument("--scale", type=float, default=0.4)
    rp.add_argument("--seed", type=int, default=1)
    rp.add_argument("--plot", action="store_true")
    rp.add_argument("--verbose", action="store_true",
                    help="guest introspection + co-online fraction")

    sp = sub.add_parser("sweep", help="online-rate sweep across schedulers",
                        parents=[sim_common, fabric_common, faults_common])
    sp.add_argument("--workload", default="LU")
    sp.add_argument("--schedulers", default="credit,asman")
    sp.add_argument("--scale", type=float, default=0.4)
    sp.add_argument("--seed", type=int, default=1)

    jp = sub.add_parser("specjbb", help="SPECjbb warehouse sweep",
                        parents=[sim_common, fabric_common, faults_common])
    jp.add_argument("--rate", type=float, default=0.4)
    jp.add_argument("--max-warehouses", type=int, default=8)
    jp.add_argument("--window-ms", type=float, default=1000.0)
    jp.add_argument("--schedulers", default="credit,asman")
    jp.add_argument("--seed", type=int, default=1)

    bp = sub.add_parser("robustness",
                        help="fault-injection degradation matrix",
                        parents=[sim_common, fabric_common])
    bp.add_argument("--workload", default="LU")
    bp.add_argument("--schedulers", default="credit,con,asman")
    bp.add_argument("--rate", type=float, default=2.0 / 9.0,
                    help="VCPU online rate (default: the paper's 22.2%%)")
    bp.add_argument("--scale", type=float, default=None,
                    help="workload scale (default 0.6, or 0.3 with --quick)")
    bp.add_argument("--seeds", type=int, nargs="*", default=(1,))
    bp.add_argument("--classes", metavar="NAMES", default=None,
                    help="comma-separated fault classes "
                         "(see --list-classes; default: all)")
    bp.add_argument("--quick", action="store_true",
                    help="smoke subset of classes at a smaller scale")
    bp.add_argument("--no-fairness", action="store_true",
                    help="skip the two-VM fairness cells (faster)")
    bp.add_argument("--list-classes", action="store_true",
                    help="list fault classes and exit")

    pp = sub.add_parser("perf", help="performance regression harness",
                        parents=[sim_common, fabric_common])
    pp.add_argument("--quick", action="store_true",
                    help="smaller iteration counts (CI smoke mode)")
    pp.add_argument("--only", metavar="NAMES",
                    help="comma-separated benchmark subset")
    pp.add_argument("--out", metavar="DIR", default="benchmarks/results/perf",
                    help="directory for BENCH_<name>.json files")
    pp.add_argument("--check", metavar="BASELINE",
                    help="fail on events/sec regression vs this baseline")
    pp.add_argument("--fail-threshold", type=float, default=0.30,
                    help="allowed events/sec drop fraction (default 0.30)")
    pp.add_argument("--update-baseline", metavar="PATH",
                    help="write this run as the new baseline")
    pp.add_argument("--profile", action="store_true",
                    help="cProfile the run: print the top-20 cumulative "
                         "hotspots and dump profile.pstats under --out")
    pp.add_argument("--trajectory", metavar="PATH",
                    help="write a before/after/speedup record per bench "
                         "vs the --check baseline (default: the "
                         "committed benchmarks/perf_baseline.json)")
    pp.add_argument("--list", action="store_true",
                    help="list benchmark names and exit")

    cp = sub.add_parser("conform",
                        help="differential conformance suite "
                             "(fuzzed scenarios, oracle, golden traces)",
                        parents=[sim_common, fabric_common])
    cp.add_argument("--scenarios", type=int, default=200,
                    help="corpus size (default 200)")
    cp.add_argument("--seed", type=int, default=1,
                    help="corpus seed (default 1)")
    cp.add_argument("--schedulers", default="credit,relaxed,asman",
                    help="comma-separated schedulers to cross-check")
    cp.add_argument("--metamorphic-every", type=int, default=10,
                    metavar="N",
                    help="run metamorphic twin cells for every Nth "
                         "scenario (0 disables; default 10)")
    cp.add_argument("--fingerprints", metavar="PATH",
                    help="write per-scenario fingerprints as JSON "
                         "(for cross-job-count determinism checks)")
    cp.add_argument("--shrink", action="store_true",
                    help="on failure, minimise the first failing "
                         "scenario (serial; may take a while)")
    cp.add_argument("--artifact", metavar="PATH",
                    default="conformance_failure.json",
                    help="where --shrink writes the replay artifact")
    cp.add_argument("--replay", metavar="PATH",
                    help="re-run a shrink artifact and verify its "
                         "violation signature reproduces")
    cp.add_argument("--golden", choices=("check", "update"),
                    help="golden-trace mode: compare against (or "
                         "regenerate) the checked-in trace fixtures")
    cp.add_argument("--golden-dir", metavar="DIR", default=None,
                    help="fixture directory (default tests/fixtures/golden)")

    xp = sub.add_parser(
        "chaos",
        help="chaos harness: prove the supervised fabric survives "
             "worker kills, stalls and cache corruption with "
             "bit-identical results",
        parents=[sim_common, fabric_common])
    xp.add_argument("--workload", default="LU")
    xp.add_argument("--schedulers", default="credit,asman")
    xp.add_argument("--scale", type=float, default=0.15)
    xp.add_argument("--seeds", type=int, nargs="*", default=(1,))

    lp = sub.add_parser("lint", help="simlint static checker")
    lp.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: src/repro; "
                         "with --interprocedural: one package root)")
    lp.add_argument("--format", choices=("text", "json", "sarif"),
                    default="text",
                    help="output format (sarif requires "
                         "--interprocedural)")
    lp.add_argument("--rules", metavar="NAMES",
                    help="comma-separated rule subset (see --list-rules)")
    lp.add_argument("--list-rules", action="store_true",
                    help="list rule names and exit")
    lp.add_argument("--assume-sim", action="store_true",
                    help="apply simulation-scoped rules to every file "
                         "regardless of its package path")
    lp.add_argument("--interprocedural", action="store_true",
                    help="whole-program analysis: call graph + taint "
                         "rule families over one package root")
    lp.add_argument("--baseline", metavar="PATH",
                    default="analysis-baseline.json",
                    help="suppression baseline for --interprocedural "
                         "(default: analysis-baseline.json; new findings "
                         "fail, grandfathered ones are counted)")
    lp.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline: every finding is 'new'")
    lp.add_argument("--update-baseline", action="store_true",
                    help="write the current findings as the new baseline "
                         "and exit 0")
    lp.add_argument("--diff", metavar="FILES",
                    help="comma-separated changed files: index the whole "
                         "project but report findings only in these")
    lp.add_argument("--max-waivers", type=int, metavar="N", default=None,
                    help="fail if more than N pragma waivers fire "
                         "(keeps the waiver pile shrinking)")
    lp.add_argument("--output", metavar="PATH",
                    help="write the report to PATH instead of stdout")
    return p


def _run_context(args: argparse.Namespace) -> Optional["RunContext"]:
    """The :class:`~repro.parallel.RunContext` this command's fabric
    options describe (``None`` for subcommands without them)."""
    if not hasattr(args, "no_cache"):
        return None  # subcommand without fabric options (list/lint)
    from repro import parallel
    policy_kwargs = {}
    if args.cell_timeout is not None:
        policy_kwargs["cell_timeout_s"] = args.cell_timeout
    if args.batch_deadline is not None:
        policy_kwargs["batch_deadline_s"] = args.batch_deadline
    if args.retries is not None:
        policy_kwargs["max_retries"] = args.retries
    return parallel.RunContext(
        jobs=args.jobs,
        cache=None if args.no_cache else parallel.ResultCache(
            args.cache_dir),
        policy=parallel.SupervisorPolicy(**policy_kwargs),
        resume=args.resume, chaos=_parse_chaos(args.chaos))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status.

    Supervision/integrity errors map to distinct exit codes (see
    ``repro --help``): 3 for :class:`~repro.errors.ExecutionError`,
    4 for :class:`~repro.errors.CellTimeoutError`, 5 for
    :class:`~repro.errors.CacheIntegrityError`, 2 for
    :class:`~repro.errors.ConfigurationError`.
    """
    from repro.errors import (CacheIntegrityError, CellTimeoutError,
                              ConfigurationError, ExecutionError)
    try:
        return _main(argv)
    except CellTimeoutError as exc:  # before ExecutionError: subclass
        print(f"timeout: {exc}", file=sys.stderr)
        return 4
    except ExecutionError as exc:
        print(f"execution failed: {exc}", file=sys.stderr)
        return 3
    except CacheIntegrityError as exc:
        print(f"cache integrity: {exc}", file=sys.stderr)
        return 5
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, once per process: parsing never mutates the
    parser, and in-process callers (tests, tools embedding the CLI) run
    many commands."""
    return build_parser()


def _main(argv: Optional[Sequence[str]]) -> int:
    args = _parser().parse_args(argv)
    # Resolved by name on every call: the shared parser holds no handler,
    # so a handler replaced after the parser was built still runs.
    handler = globals()[f"cmd_{args.command}"]
    if getattr(args, "sanitize", False):
        from repro import analysis
        analysis.set_sanitize(True)
    ctx = _run_context(args)
    if ctx is None:
        return int(handler(args))
    from repro import parallel
    with parallel.use_context(ctx):
        status = handler(args)
    # Stderr, so piping stdout (series, tables, JSON) stays byte-stable
    # whether the run was cold or warm.
    cache = ctx.cache
    if cache is not None and (cache.hits or cache.misses or cache.stores):
        print(cache.describe(), file=sys.stderr)
    report = parallel.get_last_report()
    if report is not None and (report.retried or report.timeouts
                               or report.pool_rebuilds or report.failures
                               or report.resumed or report.degraded):
        print(report.describe(), file=sys.stderr)
    return int(status)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
