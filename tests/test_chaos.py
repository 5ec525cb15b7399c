"""Chaos harness: deterministic injection, the bit-identity gate under
worker kills/stalls/corruption, and the CLI exit-code contract."""

import pickle

import pytest

from repro.errors import (CacheIntegrityError, CellTimeoutError,
                          ConfigurationError, ExecutionError)
from repro.parallel import (ChaosSpec, ResultCache, SupervisorPolicy,
                            WorkloadSpec, run_supervised, single_vm_cell)
from repro.parallel.chaos import (ChaosError, ChaosKill, ChaosPoisoned,
                                  apply_worker_chaos, chaos_draw,
                                  chaos_fabric, corrupt_cache_entries,
                                  is_poisoned)
from tests.conftest import reference_fingerprints

assert chaos_fabric is not None  # fixture import doubles as the plugin

COMPUTE = WorkloadSpec("synthetic", "compute1", scale=0.2)


def _cells(n=2, rate=0.4):
    return [single_vm_cell(COMPUTE, scheduler="credit", online_rate=rate,
                           seed=seed) for seed in range(1, n + 1)]


# --------------------------------------------------------------------- #
# ChaosSpec
# --------------------------------------------------------------------- #
class TestChaosSpec:
    def test_default_is_noop_and_picklable(self):
        spec = ChaosSpec()
        assert spec.is_noop()
        assert spec.describe() == "none"
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec(kill_rate=1.5)
        with pytest.raises(ConfigurationError):
            ChaosSpec(corrupt_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ChaosSpec(stall_rate=0.5)  # stall_rate needs stall_s > 0
        with pytest.raises(ConfigurationError):
            ChaosSpec(poison_keys=("",))

    def test_parse_round_trip(self):
        spec = ChaosSpec.parse(
            "seed=9,kill_rate=0.5,stall_rate=0.2,stall_s=0.01,"
            'poison_keys="seed":3+"seed":4,spare_final_attempt=false')
        assert spec.seed == 9
        assert spec.kill_rate == 0.5
        assert spec.poison_keys == ('"seed":3', '"seed":4')
        assert spec.spare_final_attempt is False
        reparsed = ChaosSpec.parse(
            f"seed={spec.seed},{spec.describe()}")
        assert reparsed == spec

    def test_parse_empty_and_none(self):
        assert ChaosSpec.parse("").is_noop()
        assert ChaosSpec.parse("none").is_noop()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec.parse("bogus_field=1")
        with pytest.raises(ConfigurationError):
            ChaosSpec.parse("kill_rate=high")
        with pytest.raises(ConfigurationError):
            ChaosSpec.parse("kill_rate=0.1,kill_rate=0.2")
        with pytest.raises(ConfigurationError):
            ChaosSpec.parse("kill_rate")
        with pytest.raises(ConfigurationError):
            ChaosSpec.parse("spare_final_attempt=maybe")


class TestDraws:
    def test_pure_function_of_inputs(self):
        spec = ChaosSpec(seed=3, kill_rate=0.5)
        a = chaos_draw(spec, "kill", "cell-a", 0)
        assert 0.0 <= a < 1.0
        assert a == chaos_draw(spec, "kill", "cell-a", 0)
        assert a != chaos_draw(spec, "kill", "cell-a", 1)
        assert a != chaos_draw(spec, "stall", "cell-a", 0)
        assert a != chaos_draw(spec, "kill", "cell-b", 0)
        assert a != chaos_draw(ChaosSpec(seed=4, kill_rate=0.5),
                               "kill", "cell-a", 0)

    def test_is_poisoned_substring_match(self):
        spec = ChaosSpec(poison_keys=('"seed":3',))
        assert is_poisoned(spec, '{"scheduler":"credit","seed":3}')
        assert not is_poisoned(spec, '{"scheduler":"credit","seed":4}')


class TestApplyWorkerChaos:
    def test_poison_fires_even_on_final_attempt(self):
        spec = ChaosSpec(poison_keys=("victim",))
        with pytest.raises(ChaosPoisoned):
            apply_worker_chaos(spec, "a-victim-cell", 0, final=True,
                               in_process=True)
        # Non-matching cells pass through untouched.
        apply_worker_chaos(spec, "innocent", 0, final=False,
                           in_process=True)

    def test_in_process_kill_is_an_exception(self):
        spec = ChaosSpec(kill_rate=1.0)
        with pytest.raises(ChaosKill):
            apply_worker_chaos(spec, "k", 0, final=False, in_process=True)

    def test_final_attempt_is_spared(self):
        spec = ChaosSpec(kill_rate=1.0, error_rate=1.0)
        apply_worker_chaos(spec, "k", 5, final=True, in_process=True)

    def test_error_injection(self):
        spec = ChaosSpec(error_rate=1.0)
        with pytest.raises(ChaosError):
            apply_worker_chaos(spec, "k", 0, final=False, in_process=True)

    def test_stall_uses_patchable_sleep(self, monkeypatch):
        from repro.parallel import chaos as chaos_mod
        stalls = []
        monkeypatch.setattr(chaos_mod, "_sleep", stalls.append)
        spec = ChaosSpec(stall_rate=1.0, stall_s=0.25)
        apply_worker_chaos(spec, "k", 0, final=False, in_process=True)
        assert stalls == [0.25]


# --------------------------------------------------------------------- #
# Host-side corruption site
# --------------------------------------------------------------------- #
class TestCorruption:
    def test_corrupts_only_existing_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        specs = _cells(2)
        cache.put(specs[0], {"v": 1})  # specs[1] has no entry
        spec = ChaosSpec(corrupt_rate=1.0)
        assert corrupt_cache_entries(spec, cache, specs) == 1
        assert cache.verify()["corrupt"] == [cache.key_for(specs[0])]

    def test_noop_rate_touches_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        cache.put(_cells(1)[0], {"v": 1})
        assert corrupt_cache_entries(ChaosSpec(), cache, _cells(1)) == 0
        assert cache.verify(strict=True)["corrupt"] == []

    def test_supervised_rerun_survives_corruption(self, tmp_path):
        specs = _cells(2)
        cache = ResultCache(tmp_path / "c")
        clean = run_supervised(specs, jobs=1, cache=cache)
        with pytest.warns(Warning):  # CacheIntegrityWarning per entry
            rerun = run_supervised(
                specs, jobs=1, cache=cache,
                chaos=ChaosSpec(corrupt_rate=1.0))
        assert rerun.combined_fingerprint() == clean.combined_fingerprint()
        report = rerun.supervisor
        assert report is not None
        assert report.corrupt_injected == 2
        assert report.executed == 2  # every corrupt entry re-executed
        assert cache.quarantined == 2
        assert cache.stats()["quarantine_entries"] == 2


# --------------------------------------------------------------------- #
# The determinism gate: injected chaos, bit-identical results
# --------------------------------------------------------------------- #
class TestDeterminismGate:
    def test_serial_kills_and_errors_converge(self, tmp_path):
        specs = _cells(3)
        clean = reference_fingerprints(specs)
        chaotic = run_supervised(
            specs, jobs=1, cache=ResultCache(tmp_path / "c"),
            policy=SupervisorPolicy(max_retries=2, backoff_base_ms=0.0),
            chaos=ChaosSpec(seed=11, kill_rate=1.0))
        # Every first attempt dies (in-process ChaosKill); the spared
        # final attempts converge to the clean results.
        assert chaotic.ok
        assert chaotic.fingerprints() == clean
        report = chaotic.supervisor
        assert report is not None
        assert report.retried >= 3

    def test_pool_chaos_bit_identical_to_clean_serial(self, chaos_fabric):
        specs = _cells(4)
        clean = reference_fingerprints(specs)
        chaos = ChaosSpec(seed=7, kill_rate=0.5, error_rate=0.4)
        chaotic = chaos_fabric(specs, chaos=chaos)
        assert chaotic.ok
        assert chaotic.fingerprints() == clean
        report = chaotic.supervisor
        assert report is not None
        assert report.executed == 4
        # The fixed seed makes the schedule reproducible: at least one
        # injection actually fired.
        assert report.pool_rebuilds + report.retried >= 1

    def test_pool_stall_trips_cell_timeout_then_recovers(self, tmp_path):
        specs = _cells(2)
        clean = reference_fingerprints(specs)
        # Every non-final attempt stalls far past the cell budget; the
        # supervisor must kill the pool, charge the timeout, and let the
        # spared final attempts finish.
        chaotic = run_supervised(
            specs, jobs=2, cache=ResultCache(tmp_path / "c"),
            policy=SupervisorPolicy(cell_timeout_s=1.0, max_retries=1,
                                    backoff_base_ms=0.0),
            chaos=ChaosSpec(seed=5, stall_rate=1.0, stall_s=60.0))
        assert chaotic.ok
        assert chaotic.fingerprints() == clean
        report = chaotic.supervisor
        assert report is not None
        assert report.timeouts == 2
        assert report.retried == 2

    def test_poison_in_pool_is_structured_failure(self, chaos_fabric):
        specs = _cells(2)
        chaos = ChaosSpec(poison_keys=('"seed":2',))
        results = chaos_fabric(specs, chaos=chaos)
        assert len(results) == 2
        assert len(results.failures()) == 1
        assert results.failures()[0].key == specs[1].canonical()
        with pytest.raises(ExecutionError):
            results.raise_if_failed()


# --------------------------------------------------------------------- #
# CLI exit-code contract
# --------------------------------------------------------------------- #
class TestCliExitCodes:
    def test_chaos_demo_gate_passes(self, tmp_path, capsys):
        from repro import cli
        code = cli.main(["chaos", "--scale", "0.05",
                         "--schedulers", "credit", "--seeds", "1",
                         "--chaos", "error_rate=0.8",
                         "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos determinism gate OK" in out

    def test_poison_exhaustion_exits_3(self, tmp_path, capsys):
        from repro import cli
        code = cli.main(["chaos", "--scale", "0.05",
                         "--schedulers", "credit", "--seeds", "1",
                         "--chaos", 'poison_keys="seed":1',
                         "--retries", "0", "--jobs", "1",
                         "--cache-dir", str(tmp_path)])
        assert code == 3
        assert "failed" in capsys.readouterr().err

    def test_batch_deadline_exits_4(self, tmp_path, capsys):
        from repro import cli
        code = cli.main(["chaos", "--scale", "0.05",
                         "--schedulers", "credit", "--seeds", "1",
                         "--batch-deadline", "0.0001", "--jobs", "1",
                         "--cache-dir", str(tmp_path)])
        assert code == 4
        assert "timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--workload", "LU", "--scale", "0.05"],
        ["figure", "fig07", "--scale", "0.05"],
    ], ids=["run", "figure"])
    def test_failed_cell_read_exits_4(self, command, capsys):
        """A command that reads a timed-out cell's value exits with the
        timeout code, not an AssertionError traceback."""
        from repro import cli
        code = cli.main(command + ["--no-cache", "--batch-deadline", "1e-9"])
        assert code == 4
        assert "timeout" in capsys.readouterr().err

    def test_zero_timeout_exits_2(self, tmp_path, capsys):
        from repro import cli
        code = cli.main(["chaos", "--cell-timeout", "0",
                         "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "cell_timeout_s" in capsys.readouterr().err

    def test_cache_integrity_exits_5(self, monkeypatch, capsys):
        from repro import cli

        def impound(args):
            raise CacheIntegrityError("entry deadbeef failed its checksum")

        monkeypatch.setattr(cli, "cmd_list", impound)
        assert cli.main(["list"]) == 5
        assert "checksum" in capsys.readouterr().err

    def test_bad_chaos_spec_is_usage_error(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit):
            cli.main(["chaos", "--chaos", "bogus=1",
                      "--cache-dir", str(tmp_path)])

    def test_help_documents_exit_codes(self, capsys):
        from repro import cli
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        for token in ("exit", "3", "4", "5"):
            assert token in out


# --------------------------------------------------------------------- #
# The pytest fixture surface itself
# --------------------------------------------------------------------- #
class TestFixture:
    def test_fixture_exposes_cache_and_journal(self, chaos_fabric):
        specs = _cells(1)
        results = chaos_fabric(specs, jobs=1)
        assert results.ok
        cache = chaos_fabric.cache
        assert cache.stats()["entries"] == 1
        journal_dir = cache.root / "journal"
        assert len(list(journal_dir.glob("*.jsonl"))) == 1
