"""The paper's figures: Figs 1-2 and 7-12.

``test_figure`` runs every entry of the figure registry
(:data:`repro.experiments.figures.FIGURES`) through the same
:func:`~repro.experiments.figures.run_figure` that ``repro figure NAME``
calls, writes the rendering to ``benchmarks/results/<artifact>``, and
applies that figure's shape check from :data:`SHAPES`.  A run from a
clean checkout must leave ``benchmarks/results/`` unchanged, and so must
a run with fast-forward off (``REPRO_NO_FASTFORWARD=1``) or the
sanitizer on (``REPRO_SANITIZE=1``): both must reproduce every series
of every figure byte for byte.
"""

import pathlib

import pytest

from repro import units
from repro.asman.locality import LocalityAnalyzer
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.runner import run_single_vm
from repro.metrics.runtime import ideal_slowdown
from repro.workloads.nas import NAS_PROFILES, NasBenchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Registry name -> shape check of that figure's result.
SHAPES = {}


def shape(name):
    def register(check):
        SHAPES[name] = check
        return check
    return register


@pytest.mark.parametrize("name", FIGURES)
def test_figure(name, benchmark):
    result = benchmark.pedantic(lambda: run_figure(name),
                                rounds=1, iterations=1)
    text = result.render()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / FIGURES[name].artifact).write_text(text + "\n")
    print(text)
    SHAPES[name](result)


def test_every_figure_has_a_shape_check():
    assert SHAPES.keys() == FIGURES.keys()


def _by_vm(result, sched):
    return {int(x): y for x, y in result.series[sched]}


# --------------------------------------------------------------------- #
# Figure 1: LU under the Credit scheduler.  (a) run time vs VCPU online
# rate; (b) counts of spinlock waits above 2^10 and 2^20 cycles per rate.
# Paper shape: run time grows *faster than 1/rate* as the rate drops
# (2800 s at 22.2% vs 400 s at 100% — slowdown 7 vs ideal 4.5), and the
# fraction of long waits (> 2^20) rises steeply at reduced rates while
# being absent at 100%.
# --------------------------------------------------------------------- #
@shape("fig01a")
def _fig01a(result):
    slowdown = dict(result.series["slowdown"])
    # Shape assertions: monotone growth, super-ideal at the lowest rate.
    values = [slowdown[x] for x in (100.0, 66.7, 40.0, 22.2)]
    assert values == sorted(values)
    assert values[-1] > ideal_slowdown(2 / 9) * 0.98


@shape("fig01b")
def _fig01b(result):
    over20 = dict(result.series["waits_over_2^20"])
    over10 = dict(result.series["waits_over_2^10"])
    # No long waits at 100%; some at the lowest rate.
    assert over20[100.0] == 0
    assert over20[22.2] > 0
    # Measurable (>2^10) waits exist at every rate, and — with a fixed
    # observation window — their count *decreases* with the online rate
    # (paper observation (1)), while the long-wait count increases.
    assert all(v > 0 for v in over10.values())
    assert over10[22.2] < over10[100.0]
    assert over20[22.2] > over20[66.7] or over20[66.7] == 0


# --------------------------------------------------------------------- #
# Figures 2 and 8: per-spinlock waiting-time detail.  Figure 2 (Credit):
# at 100% all waits sit in the 2^10..2^15 band; as the online rate drops,
# a tail above 2^25 appears and the long waits cluster ("occur in some
# neighboring spinlocks").  Figure 8 (ASMan) shows the same workload with
# the tail largely removed.
# --------------------------------------------------------------------- #
@shape("fig02")
def _fig02(result):
    # At 100% the maximum wait stays in the short-contention band.
    assert result.notes["max_log2_100"] < 20.0
    # At 22.2% the tail reaches scheduling timescales (>= 2^24).
    assert result.notes["max_log2_22.2"] >= 24.0


@shape("fig08")
def _fig08(result):
    assert result.notes["max_log2_100"] < 20.0


def _lu_runs_at_22(sched):
    """LU (scale 0.6) at the paper's 22.2% online rate, seeds 1, 3, 5."""
    return [run_single_vm(lambda: NasBenchmark.by_name("LU", scale=0.6),
                          sched, online_rate=2 / 9, seed=seed)
            for seed in (1, 3, 5)]


def test_fig02_long_waits_cluster(benchmark):
    """Paper observation (4): long waits arrive in bursts (localities)."""
    all_times = benchmark.pedantic(
        lambda: [r.over_threshold_times for r in _lu_runs_at_22("credit")],
        rounds=1, iterations=1)
    analyzer = LocalityAnalyzer(split_gap=units.ms(50))
    bursts = [analyzer.burstiness(ts) for ts in all_times if ts]
    assert bursts, "need at least one run with over-threshold waits"
    # Mean events per locality above 1 => clustering exists.
    assert max(bursts) > 1.0


def test_fig08_asman_reduces_tail(benchmark):
    """Comparing Figs 2 and 8: ASMan avoids many over-threshold waits."""
    totals = benchmark.pedantic(
        lambda: {sched: sum(r.spin_summary["over_2^20"]
                            for r in _lu_runs_at_22(sched))
                 for sched in ("credit", "asman")},
        rounds=1, iterations=1)
    assert totals["credit"] > 0
    assert totals["asman"] <= totals["credit"]


# --------------------------------------------------------------------- #
# Figure 7: LU run time in VM V1 — Credit vs ASMan.  Paper shape:
# identical at 100%; as the online rate falls, Credit deteriorates
# super-linearly while ASMan stays close to the expected 1/rate growth,
# saving a substantial fraction of the run time at 22.2%.
# --------------------------------------------------------------------- #
@shape("fig07")
def _fig07(result):
    credit = dict(result.series["credit"])
    asman = dict(result.series["asman"])
    # Same performance at 100% online rate.
    assert abs(asman[100.0] - credit[100.0]) / credit[100.0] < 0.03
    # ASMan no slower anywhere, and strictly better at the lowest rate.
    for rate in (66.7, 40.0, 22.2):
        assert asman[rate] <= credit[rate] * 1.03
    assert asman[22.2] < credit[22.2]
    assert result.notes["asman_saving_at_22.2%"] > 0.0


# --------------------------------------------------------------------- #
# Figure 9: slowdowns of all seven NAS benchmarks.  (a)-(c): per-benchmark
# slowdown at 66.7/40/22.2% for Credit and ASMan; (d): the average
# slowdown.  Paper shape: ASMan outperforms Credit "in all aspects while
# varying benchmarks and the VCPU online rate"; EP (no synchronisation)
# sits near the ideal 1/rate for both; LU suffers most under Credit.
# --------------------------------------------------------------------- #
@shape("fig09")
def _fig09(result):
    names = list(NAS_PROFILES)  # LU SP MG CG BT FT EP
    idx = {n: i for i, n in enumerate(names)}

    # (d) the average slowdown: ASMan <= Credit at every reduced rate.
    avg_credit = dict(result.series["avg_credit"])
    avg_asman = dict(result.series["avg_asman"])
    for rate_label in (66.7, 40.0, 22.2):
        assert avg_asman[rate_label] <= avg_credit[rate_label] * 1.03

    # At the lowest rate: EP near ideal under Credit; LU above EP.
    low_credit = dict(result.series["credit_rate_22.2%"])
    assert low_credit[idx["EP"]] < ideal_slowdown(2 / 9) * 1.10
    assert low_credit[idx["LU"]] > low_credit[idx["EP"]]

    # Slowdowns grow with decreasing rate for every benchmark (Credit).
    for name in names:
        series = [dict(result.series[f"credit_rate_{lbl}%"])[idx[name]]
                  for lbl in ("66.7", "40", "22.2")]
        assert series == sorted(series)


# --------------------------------------------------------------------- #
# Figure 10: SPECjbb2005 throughput in VM V1.  (a)-(c): bops vs warehouse
# count (1..8) at 66.7/40/22.2%; (d): the SPECjbb score (mean bops over
# warehouses >= 4 VCPUs).  Paper shape: throughput rises until the
# warehouse count reaches the VCPU count and then flattens; ASMan's score
# is never below Credit's and improves at low rates (up to ~26% in the
# paper).
# --------------------------------------------------------------------- #
@shape("fig10")
def _fig10(result):
    for rate_label in ("66.7", "40", "22.2"):
        for sched in ("credit", "asman"):
            series = dict(result.series[f"{sched}_rate_{rate_label}%"])
            # Throughput saturates by 4 warehouses: w=8 is within noise
            # of w=4, and w=4 is no worse than w=1.
            assert series[4.0] >= series[1.0] * 0.98
            assert series[8.0] >= series[4.0] * 0.85

    score_credit = dict(result.series["score_credit"])
    score_asman = dict(result.series["score_asman"])
    for rate_label in (66.7, 40.0, 22.2):
        assert score_asman[rate_label] >= score_credit[rate_label] * 0.97


# --------------------------------------------------------------------- #
# Figure 11: four VMs running simultaneously (work-conserving mode).
# (a) two high-throughput VMs (256.bzip2, 176.gcc) + two concurrent VMs
# (SP, LU); (b) four concurrent VMs (LU, LU, SP, SP).  Paper shape: both
# static (CON) and dynamic (ASMan) coscheduling improve the concurrent
# workloads over Credit; ASMan's dynamic policy costs the high-throughput
# neighbours less than CON's always-on coscheduling.
# --------------------------------------------------------------------- #
@shape("fig11a")
def _fig11a(result):
    credit = _by_vm(result, "credit")
    asman = _by_vm(result, "asman")
    # VMs: 0=bzip2, 1=gcc, 2=SP, 3=LU.
    # Concurrent workloads: ASMan at least as good as Credit.
    assert asman[3] <= credit[3] * 1.05
    # High-throughput degradation under ASMan bounded (paper: <8%).
    for i in (0, 1):
        assert asman[i] <= credit[i] * 1.12


@shape("fig11b")
def _fig11b(result):
    credit = _by_vm(result, "credit")
    asman = _by_vm(result, "asman")
    con = _by_vm(result, "con")
    # With all-concurrent VMs, total progress under coscheduling is at
    # least as good as under plain Credit.
    assert sum(asman.values()) <= sum(credit.values()) * 1.05
    assert sum(con.values()) <= sum(credit.values()) * 1.15


# --------------------------------------------------------------------- #
# Figure 12: six VMs running simultaneously (work-conserving mode).
# (a) four high-throughput VMs + SP + LU; (b) two high-throughput VMs +
# SP, SP, LU, LU.  Paper shape: coscheduling saves a large fraction of
# the concurrent benchmarks' run time relative to Credit (up to 45% for
# SP / 70% for LU in (a)), while high-throughput degradation stays below
# 8% for ASMan vs 18% for CON.
# --------------------------------------------------------------------- #
@shape("fig12a")
def _fig12a(result):
    credit = _by_vm(result, "credit")
    asman = _by_vm(result, "asman")
    # VMs: 0-3 high-throughput, 4=SP, 5=LU.
    assert asman[5] <= credit[5] * 1.05  # LU helped (or unharmed)
    for i in range(4):
        assert asman[i] <= credit[i] * 1.12  # bounded collateral cost


@shape("fig12b")
def _fig12b(result):
    credit = _by_vm(result, "credit")
    asman = _by_vm(result, "asman")
    con = _by_vm(result, "con")
    concurrent = (2, 3, 4, 5)
    # Aggregate concurrent progress: dynamic coscheduling helps.
    assert sum(asman[i] for i in concurrent) <= \
        sum(credit[i] for i in concurrent) * 1.05
    # ASMan's high-throughput penalty does not exceed CON's by much
    # (the paper's over-coscheduling argument).
    asman_tp = sum(asman[i] for i in (0, 1))
    con_tp = sum(con[i] for i in (0, 1))
    assert asman_tp <= con_tp * 1.15
