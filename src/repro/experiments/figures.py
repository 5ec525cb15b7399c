"""Per-figure experiment drivers and the registry that runs them.

Every figure in the paper's evaluation (Figs 1-2, 7-12) has a driver
here that runs the corresponding experiment and returns a
:class:`FigureResult` whose series mirror what the paper plots.
:data:`FIGURES` is the one definition of each figure: its driver, the
exact keyword arguments that produce its committed
``benchmarks/results/<artifact>``, and that file's name.  ``repro
figure NAME`` and ``benchmarks/test_figures.py`` both call
:func:`run_figure`, so with no overrides the CLI prints the committed
text byte for byte; EXPERIMENTS.md records the measured shapes against
the paper's.

Execution model: each driver first *declares* its full set of scenario
cells (:class:`~repro.parallel.cells.CellSpec` — one per scheduler ×
rate × seed × workload point), hands the whole batch to
:func:`~repro.parallel.run_cells`, then aggregates.  Cells are
independent simulations, so the batch fans out over worker processes
and unchanged cells come back from the content-addressed result cache;
aggregation iterates the driver's own spec list, so the produced series
are bit-identical at any job count.  Drivers take no fabric keywords:
the worker count and the cache come from the installed run context
(built from the CLI's ``--jobs``/``--no-cache`` or the pytest plugin's
options), then ``REPRO_JOBS``.

Scale note: ``scale`` shrinks benchmark iteration counts (a few
simulated seconds instead of the paper's hundreds) and ``seeds``
averages repetitions.  Slowdowns, ratios and distribution shapes are the
reproduction targets, not absolute seconds (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from repro import units
from repro.errors import ConfigurationError
from repro.experiments.runner import (PAPER_RATES, SingleVmResult,
                                      SpecJbbResult)
from repro.metrics.report import format_series
from repro.metrics.runtime import ideal_slowdown
from repro.metrics.throughput import bops_score
from repro.parallel import run_cells
from repro.parallel.cells import (CellSpec, WorkloadSpec, multi_vm_cell,
                                  single_vm_cell, specjbb_cell)
from repro.parallel.executor import CellResults
from repro.workloads.nas import NAS_PROFILES

#: Percent labels for the paper's four online rates.
RATE_LABELS = {1.0: "100", 2.0 / 3.0: "66.7", 0.4: "40", 2.0 / 9.0: "22.2"}


@dataclass
class FigureResult:
    """One reproduced figure: named series of (x, y) points.

    ``fingerprint`` digests the underlying cell results (sorted by cell
    key); a serial and an N-way parallel regeneration of the same figure
    must render the same value — it is the user-visible determinism
    token of the parallel fabric.

    ``scatter`` marks series too large to print (raw per-event points):
    :meth:`render` leaves them to their summary notes, while the JSON
    and CSV exports still carry every point.
    """

    figure: str
    description: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: Dict[str, float] = field(default_factory=dict)
    fingerprint: Optional[str] = None
    scatter: bool = False

    def render(self) -> str:
        parts = [f"=== {self.figure}: {self.description}"]
        for name, points in ({} if self.scatter else self.series).items():
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            parts.append(format_series(name, xs, ys))
        if self.notes:
            parts.append("notes: " + ", ".join(
                f"{k}={v:.3f}" for k, v in self.notes.items()))
        if self.fingerprint is not None:
            parts.append(f"fingerprint: {self.fingerprint}")
        return "\n".join(parts)


# --------------------------------------------------------------------- #
# Cell vocabulary shared by the drivers
# --------------------------------------------------------------------- #
def _nas(name: str, scale: float, rounds: int = 1) -> WorkloadSpec:
    return WorkloadSpec("nas", name, scale=scale, rounds=rounds)


def _single(results: CellResults, spec: CellSpec) -> SingleVmResult:
    value = results.value(spec)
    assert isinstance(value, SingleVmResult)
    return value


def _mean_runtime(results: CellResults,
                  specs: Sequence[CellSpec]) -> float:
    total = 0.0
    for spec in specs:
        total += _single(results, spec).runtime_seconds
    return total / len(specs)


# --------------------------------------------------------------------- #
# Figure 1: LU under the Credit scheduler
# --------------------------------------------------------------------- #
def fig01_lu_runtime(*, scale: float,
                     seeds: Sequence[int]) -> FigureResult:
    """Fig 1(a): LU run time vs VCPU online rate under Credit."""
    result = FigureResult("Figure 1a",
                          "LU run time vs VCPU online rate (Credit)")
    grid = {rate: [single_vm_cell(_nas("LU", scale), "credit",
                                  online_rate=rate, seed=seed)
                   for seed in seeds]
            for rate in PAPER_RATES}
    results = run_cells([c for cells in grid.values() for c in cells])
    pts = []
    for rate in PAPER_RATES:
        rt = _mean_runtime(results, grid[rate])
        pts.append((float(RATE_LABELS[rate]), rt))
    result.series["runtime_s"] = pts
    base = pts[0][1]
    result.series["slowdown"] = [(x, y / base) for x, y in pts]
    result.series["ideal_slowdown"] = [
        (float(RATE_LABELS[r]), ideal_slowdown(r)) for r in PAPER_RATES]
    result.fingerprint = results.combined_fingerprint()
    return result


def fig01_spinlock_counts(*, scale: float, seeds: Sequence[int],
                          window_s: float = 30.0) -> FigureResult:
    """Fig 1(b): number of spinlocks with waits > 2^10 and > 2^20 cycles,
    per VCPU online rate (Credit).

    The paper counts within a fixed 30 s observation window while the
    benchmark runs, so at lower online rates *less of LU executes inside
    the window* and the >2^10 population shrinks, while the >2^20
    population still grows.  Our runs execute fixed work, so counts are
    normalised to the same fixed window (count / runtime * window).
    """
    result = FigureResult(
        "Figure 1b",
        f"spinlock wait counts per {window_s:.0f}s window (Credit)")
    grid = {rate: [single_vm_cell(_nas("LU", scale), "credit",
                                  online_rate=rate, seed=seed)
                   for seed in seeds]
            for rate in PAPER_RATES}
    results = run_cells([c for cells in grid.values() for c in cells])
    over10, over20 = [], []
    for rate in PAPER_RATES:
        c10 = c20 = 0.0
        for spec in grid[rate]:
            r = _single(results, spec)
            norm = window_s / r.runtime_seconds
            c10 += r.spin_summary["over_2^10"] * norm
            c20 += r.spin_summary["over_2^20"] * norm
        x = float(RATE_LABELS[rate])
        over10.append((x, c10 / len(seeds)))
        over20.append((x, c20 / len(seeds)))
    result.series["waits_over_2^10"] = over10
    result.series["waits_over_2^20"] = over20
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figures 2 and 8: per-spinlock wait scatter
# --------------------------------------------------------------------- #
def fig02_wait_details(*, scheduler: str, scale: float,
                       seed: int) -> FigureResult:
    """Fig 2 (Credit) / Fig 8 (ASMan): the detailed per-spinlock waiting
    time — (acquisition index, log2 wait) — at each online rate.

    The scatter is exported whole; the rendering summarises each rate by
    its maximum wait, its point count and its waits above 2^20 cycles.
    """
    fig = "Figure 2" if scheduler == "credit" else "Figure 8"
    result = FigureResult(
        fig, f"per-spinlock wait detail under {scheduler}", scatter=True)
    cells = {rate: single_vm_cell(_nas("LU", scale), scheduler,
                                  online_rate=rate, seed=seed,
                                  collect_scatter=True)
             for rate in PAPER_RATES}
    results = run_cells(cells.values())
    for rate in PAPER_RATES:
        r = _single(results, cells[rate])
        label = f"rate_{RATE_LABELS[rate]}%"
        result.series[label] = [(float(i), w) for i, w in r.spin_scatter]
        result.notes[f"max_log2_{RATE_LABELS[rate]}"] = \
            r.spin_summary["max_log2"]
    for label, points in result.series.items():
        result.notes[f"n_{label}"] = float(len(points))
        result.notes[f"tail_over_2^20_{label}"] = float(
            sum(1 for _, w in points if w > 20.0))
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figure 7: LU run time, Credit vs ASMan
# --------------------------------------------------------------------- #
def fig07_lu_comparison(*, scale: float,
                        seeds: Sequence[int]) -> FigureResult:
    """Fig 7: LU run time per online rate, Credit vs ASMan."""
    result = FigureResult("Figure 7",
                          "LU run time in VM V1: Credit vs ASMan")
    grid = {(sched, rate): [single_vm_cell(_nas("LU", scale), sched,
                                           online_rate=rate, seed=seed)
                            for seed in seeds]
            for sched in ("credit", "asman") for rate in PAPER_RATES}
    results = run_cells([c for cells in grid.values() for c in cells])
    for sched in ("credit", "asman"):
        pts = []
        for rate in PAPER_RATES:
            rt = _mean_runtime(results, grid[(sched, rate)])
            pts.append((float(RATE_LABELS[rate]), rt))
        result.series[sched] = pts
    credit = dict(result.series["credit"])
    asman = dict(result.series["asman"])
    low = float(RATE_LABELS[2.0 / 9.0])
    result.notes["asman_saving_at_22.2%"] = 1.0 - asman[low] / credit[low]
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figure 9: slowdowns of all NAS benchmarks
# --------------------------------------------------------------------- #
def fig09_nas_slowdowns(*, scale: float, seeds: Sequence[int],
                        rates: Sequence[float] = (2 / 3, 0.4, 2 / 9)
                        ) -> FigureResult:
    """Fig 9(a-c): per-benchmark slowdown at each reduced online rate for
    Credit and ASMan; Fig 9(d): the average slowdown."""
    names = list(NAS_PROFILES)
    result = FigureResult("Figure 9", "NAS benchmark slowdowns")
    base_cells = {name: [single_vm_cell(_nas(name, scale), "credit",
                                        online_rate=1.0, seed=seed)
                         for seed in seeds]
                  for name in names}
    grid = {(rate, sched, name): [
        single_vm_cell(_nas(name, scale), sched, online_rate=rate, seed=seed)
        for seed in seeds]
        for rate in rates for sched in ("credit", "asman") for name in names}
    batch = [c for cells in base_cells.values() for c in cells]
    batch += [c for cells in grid.values() for c in cells]
    results = run_cells(batch)
    bases = {name: _mean_runtime(results, base_cells[name])
             for name in names}
    averages: Dict[str, List[Tuple[float, float]]] = {
        "credit": [], "asman": []}
    for rate in rates:
        for sched in ("credit", "asman"):
            series = []
            for name in names:
                rt = _mean_runtime(results, grid[(rate, sched, name)])
                series.append((names.index(name), rt / bases[name]))
            key = f"{sched}_rate_{RATE_LABELS[rate]}%"
            result.series[key] = series
            mean_sd = sum(y for _, y in series) / len(series)
            averages[sched].append((float(RATE_LABELS[rate]), mean_sd))
    result.series["avg_credit"] = averages["credit"]
    result.series["avg_asman"] = averages["asman"]
    result.notes["benchmark_order"] = float(len(names))
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figure 10: SPECjbb throughput
# --------------------------------------------------------------------- #
def fig10_specjbb(*, window_ms: float, seed: int,
                  rates: Sequence[float] = (2 / 3, 0.4, 2 / 9),
                  warehouses: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8)
                  ) -> FigureResult:
    """Fig 10(a-c): throughput vs warehouses per rate; (d): the score
    (mean bops over warehouses >= 4)."""
    result = FigureResult("Figure 10", "SPECjbb2005 throughput (bops)")
    cells = {(rate, sched, w): specjbb_cell(
        w, scheduler=sched, online_rate=rate,
        window_cycles=units.ms(window_ms), seed=seed)
        for rate in rates for sched in ("credit", "asman")
        for w in warehouses}
    results = run_cells(cells.values())
    scores: Dict[str, List[Tuple[float, float]]] = {
        "credit": [], "asman": []}
    for rate in rates:
        for sched in ("credit", "asman"):
            by_w: Dict[int, float] = {}
            for w in warehouses:
                r = results.value(cells[(rate, sched, w)])
                assert isinstance(r, SpecJbbResult)
                by_w[w] = r.bops
            key = f"{sched}_rate_{RATE_LABELS[rate]}%"
            result.series[key] = [(float(w), b) for w, b in by_w.items()]
            scores[sched].append(
                (float(RATE_LABELS[rate]), bops_score(by_w, 4)))
    result.series["score_credit"] = scores["credit"]
    result.series["score_asman"] = scores["asman"]
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figures 11 and 12: multiple VMs
# --------------------------------------------------------------------- #
#: The paper's four VM combinations (Section 5.3): (vm, label, family,
#: profile, concurrent) — declarative so combinations canonicalise.
COMBINATIONS: Dict[str, List[Tuple[str, str, str, str, bool]]] = {
    "fig11a": [
        ("V1", "256.bzip2", "speccpu", "256.bzip2", False),
        ("V2", "176.gcc", "speccpu", "176.gcc", False),
        ("V3", "SP", "nas", "SP", True),
        ("V4", "LU", "nas", "LU", True),
    ],
    "fig11b": [
        ("V1", "LU", "nas", "LU", True),
        ("V2", "LU", "nas", "LU", True),
        ("V3", "SP", "nas", "SP", True),
        ("V4", "SP", "nas", "SP", True),
    ],
    "fig12a": [
        ("V1", "256.bzip2", "speccpu", "256.bzip2", False),
        ("V2", "256.bzip2", "speccpu", "256.bzip2", False),
        ("V3", "176.gcc", "speccpu", "176.gcc", False),
        ("V4", "176.gcc", "speccpu", "176.gcc", False),
        ("V5", "SP", "nas", "SP", True),
        ("V6", "LU", "nas", "LU", True),
    ],
    "fig12b": [
        ("V1", "256.bzip2", "speccpu", "256.bzip2", False),
        ("V2", "176.gcc", "speccpu", "176.gcc", False),
        ("V3", "SP", "nas", "SP", True),
        ("V4", "SP", "nas", "SP", True),
        ("V5", "LU", "nas", "LU", True),
        ("V6", "LU", "nas", "LU", True),
    ],
}


def multi_vm_figure(combination: str, *, scale: float,
                    seeds: Sequence[int],
                    measure_rounds: int = 2,
                    rounds: int = 40) -> FigureResult:
    """Figs 11-12: run one VM combination under Credit, ASMan and CON and
    report each VM's averaged round time (the paper's bar heights)."""
    combo = COMBINATIONS.get(combination)
    if combo is None:
        raise KeyError(f"unknown combination {combination!r}; "
                       f"choose from {sorted(COMBINATIONS)}")
    result = FigureResult(
        combination.replace("fig", "Figure "),
        "per-VM run time under Credit / ASMan / CON")
    deadline = units.seconds(600)
    assignments = tuple(
        (vm, WorkloadSpec(family, profile, scale=scale, rounds=rounds),
         concurrent)
        for vm, _, family, profile, concurrent in combo)
    cells = {(sched, seed): multi_vm_cell(
        assignments, scheduler=sched, seed=seed,
        measure_rounds=measure_rounds, deadline_cycles=deadline)
        for sched in ("credit", "asman", "con") for seed in seeds}
    results = run_cells(cells.values())
    for sched in ("credit", "asman", "con"):
        acc = {vm: 0.0 for vm, _, _, _, _ in combo}
        for seed in seeds:
            r = results.value(cells[(sched, seed)])
            for vm in acc:
                acc[vm] += r.round_seconds[vm]  # type: ignore[attr-defined]
        result.series[sched] = [
            (i, acc[vm] / len(seeds))
            for i, (vm, _, _, _, _) in enumerate(combo)]
    labels = {i: f"{vm}:{label}"
              for i, (vm, label, _, _, _) in enumerate(combo)}
    result.notes.update({f"x{i}": float(i) for i in labels})
    result.description += "  [" + ", ".join(
        labels[i] for i in sorted(labels)) + "]"
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# The registry: one definition per figure
# --------------------------------------------------------------------- #
class Figure(NamedTuple):
    """One registry entry: the driver, the exact keyword arguments that
    produce the committed ``benchmarks/results/<artifact>``, and that
    file's name."""

    driver: Callable[..., FigureResult]
    kwargs: Mapping[str, object]
    artifact: str


FIGURES: Dict[str, Figure] = {
    "fig01a": Figure(fig01_lu_runtime,
                     {"scale": 0.6, "seeds": (1, 2)}, "fig1a.txt"),
    "fig01b": Figure(fig01_spinlock_counts,
                     {"scale": 0.6, "seeds": (1, 2, 3)}, "fig1b.txt"),
    "fig02": Figure(fig02_wait_details,
                    {"scheduler": "credit", "scale": 0.6, "seed": 1},
                    "fig2.txt"),
    "fig07": Figure(fig07_lu_comparison,
                    {"scale": 0.6, "seeds": (1, 2, 3)}, "fig7.txt"),
    "fig08": Figure(fig02_wait_details,
                    {"scheduler": "asman", "scale": 0.6, "seed": 1},
                    "fig8.txt"),
    "fig09": Figure(fig09_nas_slowdowns,
                    {"scale": 0.4, "seeds": (1, 2)}, "fig9.txt"),
    "fig10": Figure(fig10_specjbb,
                    {"window_ms": 1200.0, "seed": 1}, "fig10.txt"),
    "fig11a": Figure(multi_vm_figure,
                     {"combination": "fig11a", "scale": 0.3,
                      "seeds": (1, 2, 3)}, "fig11a.txt"),
    "fig11b": Figure(multi_vm_figure,
                     {"combination": "fig11b", "scale": 0.3,
                      "seeds": (1, 2, 3)}, "fig11b.txt"),
    "fig12a": Figure(multi_vm_figure,
                     {"combination": "fig12a", "scale": 0.25,
                      "seeds": (1, 2)}, "fig12a.txt"),
    "fig12b": Figure(multi_vm_figure,
                     {"combination": "fig12b", "scale": 0.25,
                      "seeds": (1, 2)}, "fig12b.txt"),
}


def run_figure(name: str, scale: Optional[float] = None,
               seeds: Optional[Sequence[int]] = None) -> FigureResult:
    """Run registry entry ``name`` with its own keyword arguments.

    ``scale`` and ``seeds``, when given, replace the entry's values of
    the same name; ``seeds`` sets a single-seed figure's ``seed`` when it
    holds exactly one value.  Any other override raises
    :class:`~repro.errors.ConfigurationError` naming the figure, rather
    than being dropped.
    """
    entry = FIGURES.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown figure {name!r}; try: {' '.join(sorted(FIGURES))}")
    kwargs = dict(entry.kwargs)
    if scale is not None:
        if "scale" not in kwargs:
            raise ConfigurationError(
                f"figure {name} has no scale to override")
        kwargs["scale"] = scale
    if seeds is not None:
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(seeds)
        elif "seed" in kwargs and len(seeds) == 1:
            kwargs["seed"] = seeds[0]
        else:
            raise ConfigurationError(
                f"figure {name} runs one seed; give exactly one")
    return entry.driver(**kwargs)
