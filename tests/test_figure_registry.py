"""The figure registry: one definition per figure, run by the CLI.

No simulation runs here: each test swaps the registry entry's driver
for a recorder that returns a stub result.
"""

import pathlib

import pytest

from repro import cli
from repro.experiments import figures as F
from repro.metrics import ascii_plot

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" \
    / "results"

STUB = F.FigureResult("Figure X", "stub", series={"s": [(1.0, 2.0)]},
                      fingerprint="0123456789abcdef")


@pytest.fixture
def record(monkeypatch):
    """Swap a figure's driver for a recorder; returns its calls."""

    def install(name):
        calls = []

        def driver(**kwargs):
            calls.append(kwargs)
            return STUB

        monkeypatch.setitem(F.FIGURES, name,
                            F.FIGURES[name]._replace(driver=driver))
        return calls

    return install


@pytest.mark.parametrize("name", sorted(F.FIGURES))
def test_cli_passes_exactly_the_entry_kwargs(name, record, capsys):
    kwargs = dict(F.FIGURES[name].kwargs)
    calls = record(name)
    assert cli.main(["figure", name, "--no-cache"]) == 0
    assert calls == [kwargs]
    assert capsys.readouterr().out == STUB.render() + "\n"


def test_artifacts_are_the_committed_results():
    artifacts = [entry.artifact for entry in F.FIGURES.values()]
    assert len(set(artifacts)) == len(artifacts)
    assert set(artifacts) == {p.name for p in RESULTS_DIR.glob("*.txt")}


@pytest.mark.parametrize("argv, name, expected", [
    (["--scale", "0.1", "--seeds", "4", "5"], "fig07",
     {"scale": 0.1, "seeds": (4, 5)}),
    (["--seeds", "3"], "fig02", {"seed": 3}),
    (["--seeds", "9"], "fig10", {"seed": 9}),
    (["--scale", "0.1"], "fig12b", {"scale": 0.1}),
])
def test_overrides_map_onto_the_entry(argv, name, expected, record):
    kwargs = {**F.FIGURES[name].kwargs, **expected}
    calls = record(name)
    assert cli.main(["figure", name, "--no-cache", *argv]) == 0
    assert calls == [kwargs]


@pytest.mark.parametrize("argv, name", [
    (["--scale", "0.1"], "fig10"),
    (["--scale", "0.01", "--seeds", "9"], "fig10"),
    (["--seeds", "1", "2"], "fig02"),
    (["--seeds", "3", "4"], "fig08"),
])
def test_override_without_a_slot_exits_2(argv, name, record, capsys):
    """An override the figure cannot take fails and names the figure; it
    is not dropped in favour of the default figure."""
    calls = record(name)
    assert cli.main(["figure", name, "--no-cache", *argv]) == 2
    assert calls == []
    assert name in capsys.readouterr().err


def test_scatter_figures_render_their_summary_only():
    result = F.FigureResult("Figure 2", "scatter",
                            series={"rate_100%": [(0.0, 12.0), (1.0, 21.0)]},
                            notes={"n_rate_100%": 2.0}, scatter=True)
    assert result.render().splitlines() == [
        "=== Figure 2: scatter", "notes: n_rate_100%=2.000"]


def test_plot_draws_each_scatter_series(monkeypatch, capsys):
    """Figures 2 and 8 hold raw per-event series: ``--plot`` draws each
    as a scatter instead of skipping them as too long for a line plot."""
    points = [(float(i), float(i % 7)) for i in range(100)]
    stub = F.FigureResult("Figure 2", "stub", scatter=True,
                          series={"rate_50%": points, "rate_100%": points})
    monkeypatch.setitem(F.FIGURES, "fig02", F.FIGURES["fig02"]._replace(
        driver=lambda **kwargs: stub))
    assert cli.main(["figure", "fig02", "--no-cache", "--plot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(stub.render() + "\n")
    for name in stub.series:
        assert ascii_plot.scatter(points, title=f"Figure 2: {name}") in out
