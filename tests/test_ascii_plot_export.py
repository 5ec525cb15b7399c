"""ASCII plotting and export serialisation."""

import json

import pytest

from repro.metrics import ascii_plot
from repro.metrics.export import (figure_from_json, figure_to_csv,
                                  figure_to_json, spinlock_stats_to_csv,
                                  trace_records_to_json, write_text)
from repro.metrics.spinlock_stats import SpinlockStats
from repro.sim.tracing import TraceRecord


class TestScatter:
    def test_renders_grid(self):
        out = ascii_plot.scatter([(0, 0), (10, 10)], width=20, height=5,
                                 title="t")
        assert "t" in out
        assert out.count("*") == 2

    def test_empty_input(self):
        assert "(no data)" in ascii_plot.scatter([], title="x")

    def test_single_point(self):
        out = ascii_plot.scatter([(5, 5)])
        assert "*" in out

    def test_axis_labels(self):
        out = ascii_plot.scatter([(0, 1), (2, 3)], x_label="idx",
                                 y_label="log2")
        assert "idx" in out and "log2" in out


class TestBars:
    def test_bar_chart_proportional(self):
        out = ascii_plot.bar_chart({"a": 1.0, "b": 2.0}, width=20)
        lines = out.splitlines()
        assert lines[0].count("#") < lines[1].count("#")

    def test_bar_chart_values_shown(self):
        out = ascii_plot.bar_chart({"x": 1.234}, unit="s")
        assert "1.234s" in out

    def test_grouped_bars(self):
        out = ascii_plot.grouped_bars(
            {"LU": {"credit": 2.0, "asman": 1.5}}, title="fig")
        assert "LU" in out and "credit" in out and "asman" in out

    def test_empty(self):
        assert "(no data)" in ascii_plot.bar_chart({})
        assert "(no data)" in ascii_plot.grouped_bars({})


class TestLinesAndHistograms:
    def test_line_plot_legend(self):
        out = ascii_plot.line_plot(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]})
        assert "*=a" in out and "o=b" in out

    def test_line_plot_empty(self):
        assert "(no data)" in ascii_plot.line_plot({})

    def test_histogram_counts(self):
        out = ascii_plot.histogram([1, 1, 1, 5], bins=4)
        assert " 3" in out and " 1" in out

    def test_histogram_constant_values(self):
        out = ascii_plot.histogram([2.0, 2.0], bins=3)
        assert "2" in out

    def test_wait_histogram_threshold_marker(self):
        out = ascii_plot.wait_histogram([12.0, 21.0], threshold=20.0)
        assert "<- 2^delta threshold" in out
        assert "2^12" in out and "2^21" in out

    def test_wait_histogram_empty(self):
        assert "(no data)" in ascii_plot.wait_histogram([])


class _FakeFigure:
    figure = "Figure X"
    description = "demo"
    series = {"s": [(1.0, 2.0), (3.0, 4.0)]}
    notes = {"n": 5.0}


class TestExport:
    def test_json_roundtrip(self):
        text = figure_to_json(_FakeFigure())
        back = figure_from_json(text)
        assert back["figure"] == "Figure X"
        assert back["series"]["s"] == [(1.0, 2.0), (3.0, 4.0)]

    def test_json_is_valid(self):
        payload = json.loads(figure_to_json(_FakeFigure()))
        assert payload["notes"]["n"] == 5.0

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            figure_from_json('{"not": "a figure"}')

    def test_csv_long_format(self):
        text = figure_to_csv(_FakeFigure())
        lines = text.strip().splitlines()
        assert lines[0] == "series,x,y"
        assert len(lines) == 3

    def test_spinlock_csv(self, trace):
        stats = SpinlockStats(trace)
        trace.emit(10, "spinlock.wait", vm="v", lock="l", wait=2048)
        text = spinlock_stats_to_csv(stats)
        assert "time_cycles,lock,wait_cycles" in text
        assert "10,l,2048" in text

    def test_trace_json(self):
        recs = [TraceRecord(1, "a", {"k": "v"})]
        payload = json.loads(trace_records_to_json(recs))
        assert payload[0]["category"] == "a"

    def test_write_text_creates_dirs(self, tmp_path):
        target = tmp_path / "deep" / "file.txt"
        write_text(target, "hello")
        assert target.read_text() == "hello"


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "asman" in out

    def test_unknown_figure_errors(self, capsys):
        from repro.cli import main
        assert main(["figure", "fig99"]) == 2

    def test_run_command(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["run", "--workload", "EP", "--scale", "0.05",
                     "--rate", "1.0",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "runtime:" in out

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_run_verbose_validates_the_workload(self, scale, capsys):
        from repro.cli import main
        assert main(["run", "--verbose", "--workload", "LU",
                     "--scale", scale]) == 2
        assert "workload scale must be positive" in capsys.readouterr().err

    def test_run_command_warm_cache_identical(self, tmp_path, capsys):
        from repro.cli import main
        argv = ["run", "--workload", "EP", "--scale", "0.05",
                "--rate", "1.0", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out      # stdout is byte-stable
        assert "1 hit(s)" in warm.err    # ... and served from the cache

    def test_run_command_no_cache(self, capsys):
        from repro.cli import main
        assert main(["run", "--workload", "EP", "--scale", "0.05",
                     "--rate", "1.0", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "runtime:" in captured.out
        assert "cache" not in captured.err

    def test_figure_with_exports(self, tmp_path, capsys):
        from repro.cli import main
        j = tmp_path / "fig.json"
        c = tmp_path / "fig.csv"
        assert main(["figure", "fig01a", "--scale", "0.1",
                     "--seeds", "1", "--json", str(j),
                     "--csv", str(c),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert j.exists() and c.exists()
        figure_from_json(j.read_text())  # parses

    def test_sweep_command(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["sweep", "--workload", "EP", "--scale", "0.05",
                     "--schedulers", "credit",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "slowdown sweep" in out

    def test_specjbb_command(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["specjbb", "--max-warehouses", "2",
                     "--window-ms", "100", "--schedulers", "credit",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "SPECjbb" in out
