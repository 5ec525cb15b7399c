"""Supervised execution fabric: policy, journal, retry, resume, cache
integrity hardening, and the KeyboardInterrupt shutdown path."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import (CacheIntegrityError, CellTimeoutError,
                          ConfigurationError, ExecutionError)
from repro.parallel import (BatchJournal, CacheIntegrityWarning, CellFailure,
                            ChaosSpec, ResultCache, RunContext,
                            SupervisorPolicy, WorkloadSpec, get_last_report,
                            run_cells, run_supervised, single_vm_cell,
                            use_context)
from repro.parallel.chaos import chaos_draw
from repro.parallel.supervisor import backoff_ms, batch_key
from tests.conftest import reference_fingerprints

COMPUTE = WorkloadSpec("synthetic", "compute1", scale=0.2)


def _cells(n=2, rate=0.4):
    return [single_vm_cell(COMPUTE, scheduler="credit", online_rate=rate,
                           seed=seed) for seed in range(1, n + 1)]


# --------------------------------------------------------------------- #
# Policy validation
# --------------------------------------------------------------------- #
class TestPolicyValidation:
    def test_zero_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(cell_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(batch_deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(cell_timeout_s=-5.0)

    def test_negative_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(backoff_base_ms=-1.0)

    def test_none_timeouts_mean_unlimited(self):
        p = SupervisorPolicy()
        assert p.cell_timeout_s is None
        assert p.batch_deadline_s is None


class TestBackoffDeterminism:
    def test_pure_function_of_inputs(self):
        p = SupervisorPolicy(seed=3)
        assert backoff_ms(p, "cell-a", 1) == backoff_ms(p, "cell-a", 1)
        assert backoff_ms(p, "cell-a", 1) != backoff_ms(p, "cell-b", 1)
        assert backoff_ms(p, "cell-a", 1) != \
            backoff_ms(SupervisorPolicy(seed=4), "cell-a", 1)

    def test_capped_and_grows(self):
        p = SupervisorPolicy(backoff_base_ms=100.0, backoff_cap_ms=150.0)
        for attempt in range(1, 8):
            assert backoff_ms(p, "k", attempt) <= 150.0
        # Exponential growth drives later attempts into the cap.
        assert backoff_ms(p, "k", 7) == 150.0

    def test_zero_base_is_no_delay(self):
        p = SupervisorPolicy(backoff_base_ms=0.0)
        assert backoff_ms(p, "k", 3) == 0.0

    def test_pinned_draws(self):
        """Backoff jitter and chaos draws name their RNG streams with one
        shared cell-key digest; pinned values keep both unchanged."""
        p = SupervisorPolicy(seed=3, backoff_base_ms=100.0,
                             backoff_cap_ms=1e9)
        assert backoff_ms(p, "cell-a", 1) == 99.73644107415643
        assert backoff_ms(p, "cell-a", 2) == 192.52557832175793
        assert chaos_draw(ChaosSpec(seed=7), "kill", "cell-a", 0) \
            == 0.296162784769329


# --------------------------------------------------------------------- #
# Journal
# --------------------------------------------------------------------- #
class TestBatchJournal:
    def test_batch_key_stable_and_salted(self):
        keys = ["b", "a", "c"]
        assert batch_key(keys, "s") == batch_key(sorted(keys), "s")
        assert batch_key(keys, "s1") != batch_key(keys, "s2")
        assert batch_key(["a"], "s") != batch_key(["a", "b"], "s")

    def test_append_replay_round_trip(self, tmp_path):
        j = BatchJournal(tmp_path, "deadbeef")
        j.append({"key": "a", "status": "done", "fingerprint": 1})
        j.append({"key": "b", "status": "failed", "kind": "error"})
        records = j.replay()
        assert set(records) == {"a", "b"}
        assert records["a"]["status"] == "done"
        assert records["b"]["kind"] == "error"

    def test_latest_record_wins(self, tmp_path):
        j = BatchJournal(tmp_path, "deadbeef")
        j.append({"key": "a", "status": "failed"})
        j.append({"key": "a", "status": "done"})
        assert j.replay()["a"]["status"] == "done"

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        j = BatchJournal(tmp_path, "deadbeef")
        j.append({"key": "a", "status": "done"})
        j.append({"key": "b", "status": "done"})
        # A writer killed mid-append leaves a truncated record.
        with open(j.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "c", "stat')
        records = j.replay()
        assert set(records) == {"a", "b"}

    def test_reset_and_missing_file(self, tmp_path):
        j = BatchJournal(tmp_path, "deadbeef")
        assert j.replay() == {}
        j.append({"key": "a", "status": "done"})
        j.reset()
        assert j.replay() == {}
        j.reset()  # idempotent on a missing file


# --------------------------------------------------------------------- #
# Supervised execution: clean path, failures, deadline
# --------------------------------------------------------------------- #
class TestSupervisedSerial:
    def test_matches_unsupervised_results(self, tmp_path):
        specs = _cells(2)
        sup = run_supervised(specs, jobs=1,
                             cache=ResultCache(tmp_path / "c"))
        assert sup.fingerprints() == reference_fingerprints(specs)
        assert sup.ok and sup.failures() == []
        sup.raise_if_failed()  # no-op on a clean batch
        assert sup.supervisor is not None
        assert sup.supervisor.executed == 2
        assert sup.supervisor.failures == []

    def test_journal_records_every_cell(self, tmp_path):
        specs = _cells(2)
        cache = ResultCache(tmp_path / "c")
        run_supervised(specs, jobs=1, cache=cache)
        j = BatchJournal(cache.root / "journal",
                         batch_key([s.canonical() for s in specs],
                                   cache.salt))
        records = j.replay()
        assert len(records) == 2
        assert all(r["status"] == "done" for r in records.values())

    def test_poison_cell_exhausts_retries_batch_completes(self, tmp_path):
        specs = _cells(3)
        poisoned = specs[0].canonical()
        chaos = ChaosSpec(poison_keys=('"seed":1',))
        results = run_supervised(
            specs, jobs=1, cache=ResultCache(tmp_path / "c"),
            policy=SupervisorPolicy(max_retries=1, backoff_base_ms=0.0),
            chaos=chaos)
        # The batch still completed: one structured failure, two results.
        assert len(results) == 3
        failed = results.failures()
        assert len(failed) == 1
        assert isinstance(failed[0], CellFailure)
        assert failed[0].key == poisoned
        assert failed[0].kind == "error"
        assert failed[0].attempts == 2  # first try + 1 retry
        with pytest.raises(ExecutionError):
            results.raise_if_failed()
        # Failures are never cached: a clean rerun re-executes the cell.
        clean = run_supervised(specs, jobs=1,
                               cache=ResultCache(tmp_path / "c"))
        assert clean.ok

    def test_batch_deadline_drains_to_timeout_failures(self, tmp_path):
        specs = _cells(2)
        results = run_supervised(
            specs, jobs=1, cache=ResultCache(tmp_path / "c"),
            policy=SupervisorPolicy(batch_deadline_s=1e-9))
        assert len(results.failures()) == 2
        assert all(f.kind == "timeout" for f in results.failures())
        with pytest.raises(CellTimeoutError):
            results.raise_if_failed()

    def test_value_of_failed_cell_raises_its_error(self, tmp_path):
        specs = _cells(2)
        errored = run_supervised(
            specs, jobs=1, cache=None,
            policy=SupervisorPolicy(max_retries=0),
            chaos=ChaosSpec(poison_keys=('"seed":1',)))
        with pytest.raises(ExecutionError) as info:
            errored.value(specs[0])
        assert not isinstance(info.value, CellTimeoutError)
        assert errored.value(specs[1]) is errored.outcome(specs[1]).value
        timed_out = run_supervised(
            specs, jobs=1, cache=None,
            policy=SupervisorPolicy(batch_deadline_s=1e-9))
        with pytest.raises(CellTimeoutError):
            timed_out.value(specs[0])
        # The raw failure stays reachable through the outcome.
        assert isinstance(timed_out.outcome(specs[0]).value, CellFailure)

    def test_failure_outcomes_merge_and_fingerprint(self, tmp_path):
        specs = _cells(2)
        chaos = ChaosSpec(poison_keys=('"seed":',))  # everything
        results = run_supervised(
            specs, jobs=1, cache=ResultCache(tmp_path / "c"),
            policy=SupervisorPolicy(max_retries=0), chaos=chaos)
        assert len(results) == 2 and len(results.failures()) == 2
        # A batch of failures still renders a stable fingerprint.
        assert len(results.combined_fingerprint()) == 16


# --------------------------------------------------------------------- #
# Journaled resume
# --------------------------------------------------------------------- #
class TestResume:
    def _interrupt(self, specs, cache):
        """Turn a completed batch into an 'interrupted' one: forget the
        last two cells from both the cache and the journal."""
        keys = sorted(s.canonical() for s in specs)
        spec_by_key = {s.canonical(): s for s in specs}
        lost = keys[-2:]
        for key in lost:
            entry = cache._entry_path(cache.key_for(spec_by_key[key]))
            entry.unlink()
            entry.with_suffix(".json").unlink()
        j = BatchJournal(cache.root / "journal",
                         batch_key(keys, cache.salt))
        kept = [line for line in j.path.read_text().splitlines()
                if json.loads(line)["key"] not in lost]
        j.path.write_text("\n".join(kept) + "\n")
        return lost

    def test_resume_re_executes_only_missing_cells(self, tmp_path):
        specs = _cells(4)
        cache = ResultCache(tmp_path / "c")
        full = run_supervised(specs, jobs=1, cache=cache)
        lost = self._interrupt(specs, cache)
        fresh = ResultCache(tmp_path / "c")  # reset traffic counters
        resumed = run_supervised(specs, jobs=1, cache=fresh, resume=True)
        assert resumed.combined_fingerprint() == full.combined_fingerprint()
        report = resumed.supervisor
        assert report is not None
        # Only the two lost cells re-executed; the rest were resumed.
        assert report.executed == len(lost) == 2
        assert report.resumed == 2
        assert report.cached == 2
        assert fresh.hits == 2 and fresh.misses == 2 and fresh.stores == 2

    def test_resume_survives_torn_journal(self, tmp_path):
        specs = _cells(3)
        cache = ResultCache(tmp_path / "c")
        full = run_supervised(specs, jobs=1, cache=cache)
        j = BatchJournal(cache.root / "journal",
                         batch_key(sorted(s.canonical() for s in specs),
                                   cache.salt))
        with open(j.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn')
        resumed = run_supervised(specs, jobs=1,
                                 cache=ResultCache(tmp_path / "c"),
                                 resume=True)
        assert resumed.combined_fingerprint() == full.combined_fingerprint()

    def test_resume_without_journal_is_config_error(self):
        with pytest.raises(ConfigurationError, match="result cache"):
            run_supervised(_cells(1), jobs=1, cache=None, resume=True)

    def test_context_resume_and_per_call_override(self, tmp_path):
        specs = _cells(2)
        cache = ResultCache(tmp_path / "c")
        run_supervised(specs, jobs=1, cache=cache)
        with use_context(RunContext(cache=cache, resume=True)):
            assert run_cells(specs).supervisor.resumed == 2
            # An explicit keyword beats the context: a fresh run resets
            # the journal, so nothing is counted as resumed.
            assert run_cells(specs, resume=False).supervisor.resumed == 0
            assert run_cells(specs).supervisor.resumed == 0

    def test_cli_resume_reaches_the_supervisor(self, tmp_path, capsys):
        from repro import cli
        argv = ["run", "--workload", "LU", "--scale", "0.05",
                "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        journals = list((tmp_path / "journal").glob("*.jsonl"))
        assert len(journals) == 1
        assert cli.main(argv + ["--resume"]) == 0
        report = get_last_report()
        assert report is not None and report.resumed == 1
        assert journals[0].exists()  # a resumed run keeps its journal
        assert "1 resumed" in capsys.readouterr().err

    def test_fresh_run_resets_stale_journal(self, tmp_path):
        specs = _cells(2)
        cache = ResultCache(tmp_path / "c")
        run_supervised(specs, jobs=1, cache=cache)
        j = BatchJournal(cache.root / "journal",
                         batch_key(sorted(s.canonical() for s in specs),
                                   cache.salt))
        first = len(j.path.read_text().splitlines())
        cache.clear()
        run_supervised(specs, jobs=1, cache=cache)  # resume NOT requested
        assert len(j.path.read_text().splitlines()) == first


# --------------------------------------------------------------------- #
# Cache integrity hardening
# --------------------------------------------------------------------- #
class TestCacheIntegrity:
    def _poisoned_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        spec = _cells(1)[0]
        cache.put(spec, {"v": 1})
        entry = cache._entry_path(cache.key_for(spec))
        entry.write_bytes(b"\xff" + entry.read_bytes()[1:])
        return cache, spec, entry

    def test_corrupt_entry_quarantined_and_counted(self, tmp_path):
        cache, spec, entry = self._poisoned_cache(tmp_path)
        with pytest.warns(CacheIntegrityWarning):
            hit, value = cache.get(spec)
        assert not hit and value is None
        assert not entry.exists()  # moved aside
        qdir = cache.root / "quarantine"
        assert len(list(qdir.glob("*.pkl"))) == 1
        stats = cache.stats()
        assert stats["quarantined"] == 1
        assert stats["quarantine_entries"] == 1
        assert stats["entries"] == 0  # impounded entries don't count
        assert "quarantined" in cache.describe()

        # Beside the quarantined entry: a healthy entry, one corrupted
        # in place (not yet read), a stale temp file from a writer that
        # died mid-write, and a batch journal.
        healthy, rotten = _cells(3)[1:]
        paths = [cache._entry_path(cache.put(s, {"v": s.seed}))
                 for s in (healthy, rotten)]
        paths[1].write_bytes(b"\xff" + paths[1].read_bytes()[1:])
        stale = paths[0].parent / (paths[0].name + ".dead.tmp")
        stale.write_bytes(b"torn")
        journal = cache.root / "journal" / "batch.jsonl"
        journal.parent.mkdir()
        journal.write_text("{}\n")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] == sum(p.stat().st_size for p in paths)
        assert stats["quarantine_entries"] == 1
        assert cache.verify() == {"checked": 2,
                                  "corrupt": [cache.key_for(rotten)]}
        assert cache.clear() == 3  # quarantined entries included
        assert not stale.exists()
        assert not list(cache.root.rglob("*.pkl"))
        assert journal.exists()  # clear() removes entries, not journals
        assert cache.stats()["entries"] == 0

    def test_missing_sidecar_is_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        spec = _cells(1)[0]
        cache.put(spec, {"v": 1})
        cache._sidecar_path(cache.key_for(spec)).unlink()
        with pytest.warns(CacheIntegrityWarning):
            hit, _ = cache.get(spec)
        assert not hit

    def test_unwritable_quarantine_degrades_to_miss(self, tmp_path):
        cache, spec, entry = self._poisoned_cache(tmp_path)
        # A *file* squatting on the quarantine path defeats mkdir even
        # for root, unlike permission bits.
        (cache.root / "quarantine").write_text("not a directory")
        with pytest.warns(CacheIntegrityWarning, match="left in place"):
            hit, _ = cache.get(spec)
        assert not hit
        assert entry.exists()  # left where it was
        assert cache.quarantined == 1

    def test_verify_strict_raises(self, tmp_path):
        cache, spec, entry = self._poisoned_cache(tmp_path)
        audit = cache.verify()
        assert audit["checked"] == 1
        assert audit["corrupt"] == [cache.key_for(spec)]
        assert entry.exists()  # verify never quarantines
        with pytest.raises(CacheIntegrityError):
            cache.verify(strict=True)

    def test_verify_clean_store(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        cache.put(_cells(1)[0], {"v": 1})
        assert cache.verify(strict=True) == {"checked": 1, "corrupt": []}


# --------------------------------------------------------------------- #
# Atomic-write regression (satellite bugfix)
# --------------------------------------------------------------------- #
class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c", salt="s")

        def boom(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError):
            cache.put(_cells(1)[0], {"v": 1})
        assert list((tmp_path / "c").rglob("*.tmp")) == []
        assert list((tmp_path / "c").rglob("*.pkl")) == []

    def test_interrupt_during_replace_cleans_up(self, tmp_path,
                                                monkeypatch):
        cache = ResultCache(tmp_path / "c", salt="s")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.put(_cells(1)[0], {"v": 1})
        assert list((tmp_path / "c").rglob("*.tmp")) == []

    def test_fsync_happens_before_replace(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c", salt="s")
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            os, "replace",
            lambda s, d: (calls.append("replace"), real_replace(s, d))[1])
        cache.put(_cells(1)[0], {"v": 1})
        assert calls[:2] == ["fsync", "replace"]

    def test_clear_sweeps_stale_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        cache.put(_cells(1)[0], {"v": 1})
        stale = cache.root / "ab" / "dead.pkl.12345.tmp"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_bytes(b"half-written")
        removed = cache.clear()
        assert removed == 1
        assert not stale.exists()
        assert list(cache.root.rglob("*.tmp")) == []


# --------------------------------------------------------------------- #
# KeyboardInterrupt does not leak a worker
# --------------------------------------------------------------------- #
_SIGINT_SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
from repro.parallel import ChaosSpec, WorkloadSpec, run_cells, single_vm_cell

if __name__ == "__main__":
    print("READY", flush=True)
    try:
        {call}
    except KeyboardInterrupt:
        print("INTERRUPTED", flush=True)
        sys.exit(130)
    print("FINISHED", flush=True)
"""

#: 64 items of ~2 s queued on 2 workers.  The cells stall 2 s in a
#: chaos-injected first attempt, then finish fast.
_SIGINT_CALLS = {
    "run_cells": (
        "run_cells([single_vm_cell(WorkloadSpec('synthetic', 'compute1', "
        "scale=0.05), seed=s) for s in range(64)], jobs=2, "
        "chaos=ChaosSpec(stall_rate=1.0, stall_s=2.0))"),
}


class TestKeyboardInterrupt:
    @pytest.mark.parametrize("loop", sorted(_SIGINT_CALLS))
    def test_sigint_cancels_queue_and_reraises(self, tmp_path, loop):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        script = tmp_path / "ki_victim.py"
        script.write_text(_SIGINT_SCRIPT.format(src=src,
                                                call=_SIGINT_CALLS[loop]))
        proc = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            start_new_session=True)  # SIGINT hits only this process
        try:
            assert proc.stdout is not None
            assert proc.stdout.readline().strip() == "READY"
            time.sleep(3.0)  # let the pool spawn and start cells
            start = time.monotonic()
            os.kill(proc.pid, signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
            elapsed = time.monotonic() - start
        finally:
            if proc.poll() is None:
                proc.kill()
        assert "INTERRUPTED" in out
        assert proc.returncode == 130
        # 64 items x 2s on 2 workers is ~64s of queued work; a prompt
        # exit proves the loop dropped its queue instead of draining it.
        assert elapsed < 30.0
