"""The perf-regression harness (repro.perf)."""

import json

import pytest

from repro.config import run_config
from repro.errors import ConfigurationError
from repro.perf.harness import (FAIL_THRESHOLD, BenchResult, bench,
                                check_against_baseline, fingerprint_of,
                                load_baseline, registry, write_baseline,
                                write_result)


def result(name="demo", events_per_s=1000.0, fingerprint=None):
    return BenchResult(name=name, wall_s=1.0, events=1000,
                       events_per_s=events_per_s, peak_heap_entries=7,
                       fingerprint=fingerprint)


def baseline_doc(results, calibration=1000.0, config=None):
    return {
        "meta": {"config": run_config() if config is None else config,
                 "calibration_events_per_s": calibration},
        "benches": {r.name: r.to_dict() for r in results},
    }


class TestBenchResult:
    def test_to_dict_schema(self):
        d = result(fingerprint=42).to_dict()
        assert set(d) >= {"name", "wall_s", "events", "events_per_s",
                          "peak_heap_entries", "fingerprint"}

    def test_fingerprint_omitted_when_absent(self):
        assert "fingerprint" not in result().to_dict()

    def test_write_result_emits_bench_json(self, tmp_path):
        path = write_result(result(), tmp_path)
        assert path.name == "BENCH_demo.json"
        doc = json.loads(path.read_text())
        assert doc["events"] == 1000
        assert doc["peak_heap_entries"] == 7


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint_of(1, 2, 3) == fingerprint_of(1, 2, 3)

    def test_order_sensitive(self):
        assert fingerprint_of(1, 2) != fingerprint_of(2, 1)

    def test_value_sensitive(self):
        assert fingerprint_of(1000) != fingerprint_of(1001)


class TestRegistry:
    def test_required_benchmarks_registered(self):
        # The PR contract: at least 4 benchmarks, micro and macro tiers.
        assert len(registry) >= 4
        assert "event_throughput" in registry
        assert "schedule_cancel_churn" in registry
        assert "fig07_lu_testbed" in registry
        assert "fig11a_mix_testbed" in registry

    def test_duplicate_name_rejected(self):
        @bench("test_dummy_unique")
        def dummy():
            return result("test_dummy_unique")

        try:
            with pytest.raises(ConfigurationError):
                bench("test_dummy_unique")(dummy)
        finally:
            del registry["test_dummy_unique"]


class TestBaselineCheck:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline([result(fingerprint=9)], path, calibration=1234.5)
        doc = load_baseline(path)
        assert doc["meta"]["calibration_events_per_s"] == 1234.5
        assert doc["benches"]["demo"]["fingerprint"] == 9

    def test_equal_run_passes(self):
        base = baseline_doc([result(fingerprint=9)])
        got = [result(fingerprint=9)]
        assert check_against_baseline(got, base, calibration=1000.0) == []

    def test_regression_detected(self):
        base = baseline_doc([result(events_per_s=1000.0)])
        got = [result(events_per_s=500.0)]  # 50% drop > 30% threshold
        failures = check_against_baseline(got, base, calibration=1000.0)
        assert len(failures) == 1
        assert "events/s" in failures[0]

    def test_host_speed_normalisation(self):
        # The run is 50% slower in raw events/s, but the host calibrates
        # 50% slower too: not a regression.
        base = baseline_doc([result(events_per_s=1000.0)],
                            calibration=2000.0)
        got = [result(events_per_s=500.0)]
        assert check_against_baseline(got, base, calibration=1000.0) == []

    def test_fingerprint_mismatch_detected(self):
        base = baseline_doc([result(fingerprint=9)])
        got = [result(fingerprint=10)]
        failures = check_against_baseline(got, base, calibration=1000.0)
        assert len(failures) == 1
        assert "fingerprint" in failures[0]

    def test_missing_benchmark_reported(self):
        base = baseline_doc([result(name="gone")])
        failures = check_against_baseline([], base, calibration=1000.0)
        assert failures and "not run" in failures[0]

    def test_threshold_boundary(self):
        assert FAIL_THRESHOLD == 0.30
        base = baseline_doc([result(events_per_s=1000.0)])
        assert check_against_baseline([result(events_per_s=710.0)], base,
                                      calibration=1000.0) == []  # 29% drop
        assert check_against_baseline([result(events_per_s=690.0)], base,
                                      calibration=1000.0) != []  # 31% drop

    def test_config_mismatch_refused(self):
        # A baseline recorded with the opposite fast-forward setting is
        # not performance-comparable: the check must fail loudly instead
        # of reporting a phantom regression (or masking a real one).
        other = dict(run_config())
        other["fastforward"] = not other["fastforward"]
        base = baseline_doc([result(events_per_s=1000.0)], config=other)
        failures = check_against_baseline(
            [result(events_per_s=1000.0)], base, calibration=1000.0)
        assert len(failures) == 1
        assert "config mismatch" in failures[0]

    def test_unstamped_baseline_refused(self):
        base = baseline_doc([result()])
        del base["meta"]["config"]
        failures = check_against_baseline([result()], base,
                                          calibration=1000.0)
        assert failures and "config stamp" in failures[0]

    def test_write_baseline_stamps_config(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline([result()], path, calibration=1.0)
        doc = load_baseline(path)
        assert doc["meta"]["config"] == run_config()


class TestCli:
    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--no-cache"], ["--cache-dir", "x"],
        ["--cell-timeout", "1"], ["--batch-deadline", "1"],
        ["--retries", "1"], ["--resume"], ["--chaos", "kill_rate=0.5"],
    ])
    def test_fabric_flags_are_usage_errors(self, flag, capsys):
        """No bench reads the run context, so ``perf`` takes no fabric
        flag rather than accepting one and ignoring it."""
        from repro import cli
        with pytest.raises(SystemExit) as exc:
            cli.main(["perf", "--list", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_only_with_check_is_a_usage_error(self, capsys):
        """``--check`` reports every baseline bench that did not run, so
        a subset run could never pass; refuse it before running."""
        from repro import cli
        status = cli.main(["perf", "--only", "event_throughput",
                           "--check", "benchmarks/perf_baseline.json"])
        assert status == 2
        captured = capsys.readouterr()
        assert "--only" in captured.err
        assert "running" not in captured.out
