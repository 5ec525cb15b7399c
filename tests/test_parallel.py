"""The parallel experiment fabric: specs, cache, executor, determinism."""

import collections
import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SchedulerConfig
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.runner import (SingleVmResult, run_multi_vm,
                                      run_single_vm)
from repro.faults import FaultSpec
from repro.parallel import (CellFailure, CellSpec, ResultCache, RunContext,
                            WorkloadSpec, canonical_value, current_context,
                            execute_cell, multi_vm_cell, pool_map,
                            resolve_jobs, result_fingerprint, run_cells,
                            single_vm_cell, specjbb_cell, use_context)
from repro.parallel import cells as cells_mod

EP = WorkloadSpec("nas", "EP", scale=0.05)
LU = WorkloadSpec("nas", "LU", scale=0.05)


def _double(x):
    # Module-level so it pickles under the spawn start method.
    return x * 2


# --------------------------------------------------------------------- #
# Specs: canonical form and cache keys
# --------------------------------------------------------------------- #
class TestCellSpec:
    def test_canonical_is_stable_json(self):
        a = single_vm_cell(EP, scheduler="credit", online_rate=0.4, seed=1)
        b = single_vm_cell(EP, scheduler="credit", online_rate=0.4, seed=1)
        assert a.canonical() == b.canonical()
        doc = json.loads(a.canonical())
        assert doc["kind"] == "single_vm"
        # The *resolved* SchedulerConfig is embedded, not the None field.
        assert doc["sched_config"]["work_conserving"] is False

    def test_every_parameter_rekeys(self):
        base = single_vm_cell(EP, online_rate=0.4, seed=1)
        variants = [
            single_vm_cell(EP, online_rate=0.4, seed=2),
            single_vm_cell(EP, online_rate=1.0, seed=1),
            single_vm_cell(EP, scheduler="asman", online_rate=0.4, seed=1),
            single_vm_cell(WorkloadSpec("nas", "EP", scale=0.1),
                           online_rate=0.4, seed=1),
            single_vm_cell(EP, online_rate=0.4, seed=1,
                           sched_config=SchedulerConfig(
                               work_conserving=True)),
        ]
        keys = {v.cache_key("salt") for v in variants}
        assert len(keys) == len(variants)
        assert base.cache_key("salt") not in keys

    def test_salt_rekeys(self):
        spec = single_vm_cell(EP)
        assert spec.cache_key("v1") != spec.cache_key("v2")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CellSpec(kind="bogus")
        with pytest.raises(ConfigurationError):
            CellSpec(kind="single_vm")  # needs a workload
        with pytest.raises(ConfigurationError):
            CellSpec(kind="specjbb", warehouses=0)
        with pytest.raises(ConfigurationError):
            single_vm_cell(EP, on_deadline="explode")
        with pytest.raises(ConfigurationError):
            WorkloadSpec("cuda", "LU")

    def test_specs_pickle(self):
        spec = single_vm_cell(EP, scheduler="asman", online_rate=0.4,
                              seed=3, collect_scatter=True)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.canonical() == spec.canonical()

    def test_canonical_value_rejects_exotic(self):
        with pytest.raises(ConfigurationError):
            canonical_value(object())

    @settings(max_examples=25, deadline=None)
    @given(scheduler=st.sampled_from(["credit", "asman", "con"]),
           rate=st.sampled_from([1.0, 2 / 3, 0.4, 2 / 9]),
           seed=st.integers(1, 50),
           scale=st.floats(0.01, 2.0))
    def test_key_is_pure_function_of_spec(self, scheduler, rate, seed,
                                          scale):
        wl = WorkloadSpec("nas", "LU", scale=scale)
        a = single_vm_cell(wl, scheduler=scheduler, online_rate=rate,
                           seed=seed)
        b = single_vm_cell(WorkloadSpec("nas", "LU", scale=scale),
                           scheduler=scheduler, online_rate=rate, seed=seed)
        assert a.cache_key("s") == b.cache_key("s")
        assert a.canonical() == b.canonical()


def _reference_canonical_value(obj):
    """The generic canonicalisation :func:`canonical_value` replaced
    (``is_dataclass`` + ``fields()`` per object); its output is the
    byte-for-byte contract every cache key and fingerprint rests on."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        doc = {"__kind__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            doc[f.name] = _reference_canonical_value(getattr(obj, f.name))
        return doc
    if isinstance(obj, dict):
        return {str(k): _reference_canonical_value(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_canonical_value(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigurationError(f"cannot canonicalise {obj!r}")


def _rich_specs():
    """One spec of each kind, with faults, an explicit SchedulerConfig
    and trace capture where the kind allows them."""
    lu = WorkloadSpec("nas", "LU", scale=0.05, rounds=3)
    ep = WorkloadSpec("nas", "EP", scale=0.05, rounds=3)
    return [
        single_vm_cell(lu, scheduler="asman", online_rate=0.4,
                       collect_scatter=True, collect_timeline=True,
                       collect_trace=("sched.switch", "vcrd.change"),
                       deadline_cycles=units.ms(20), on_deadline="return",
                       faults=FaultSpec(seed=3, hypercall_loss=0.1)),
        multi_vm_cell([("V1", lu, True), ("V2", ep, False)],
                      scheduler="asman", deadline_cycles=units.ms(20),
                      on_deadline="return", collect_trace=("sched.switch",),
                      sched_config=SchedulerConfig(work_conserving=True)),
        specjbb_cell(2, scheduler="asman", window_cycles=units.ms(10),
                     warmup_cycles=units.ms(2),
                     faults=FaultSpec(seed=1, degraded_pcpus=(0,),
                                      degraded_speed=0.5)),
    ]


class TestCanonicalMemo:
    def test_warm_batch_canonicalises_each_spec_once(self, tmp_path,
                                                     monkeypatch):
        rates = (1.0, 2 / 3, 0.4)
        cache = ResultCache(tmp_path)
        run_cells([single_vm_cell(EP, online_rate=r) for r in rates],
                  cache=cache)
        specs = [single_vm_cell(EP, online_rate=r) for r in rates]
        calls = []
        original = cells_mod.canonical_value

        def counting(obj):
            if isinstance(obj, CellSpec):
                calls.append(obj)
            return original(obj)

        monkeypatch.setattr(cells_mod, "canonical_value", counting)
        results = run_cells(specs + specs[:1], jobs=1, cache=cache)
        assert results.cache_hits == len(specs)
        for spec in specs:
            assert isinstance(results.value(spec), SingleVmResult)
        per_spec = collections.Counter(id(spec) for spec in calls)
        assert sorted(per_spec) == sorted(id(spec) for spec in specs)
        assert set(per_spec.values()) == {1}

    def test_replace_yields_the_new_specs_canonical(self):
        spec = single_vm_cell(EP, online_rate=0.4, seed=1)
        before = spec.canonical()
        moved = dataclasses.replace(spec, seed=2)
        assert moved.canonical() == single_vm_cell(
            EP, online_rate=0.4, seed=2).canonical()
        assert moved.canonical() != before
        assert spec.canonical() == before

    def test_memo_survives_pickle(self):
        for spec in _rich_specs():
            text = spec.canonical()
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.canonical() == text
            assert clone == spec
            assert hash(clone) == hash(spec)


class TestCanonicalValueReference:
    @staticmethod
    def _same(value):
        got = json.dumps(canonical_value(value), sort_keys=True)
        want = json.dumps(_reference_canonical_value(value), sort_keys=True)
        assert got == want

    def test_specs_of_every_kind(self):
        for spec in _rich_specs():
            self._same(spec)
            self._same(spec.resolved_sched_config())

    def test_executed_results_of_every_kind(self):
        for spec in _rich_specs():
            self._same(execute_cell(spec))

    def test_cell_failure(self):
        self._same(CellFailure(key="k", kind="timeout", attempts=2,
                               detail="batch deadline exhausted"))

    @pytest.mark.parametrize("value", [{1, 2}, np.int64(3),
                                       np.float32(0.5)])
    def test_unsupported_values_still_raise(self, value):
        with pytest.raises(ConfigurationError):
            canonical_value(value)
        with pytest.raises(ConfigurationError):
            canonical_value({"nested": [value]})


# --------------------------------------------------------------------- #
# Cache: round-trip, invalidation, corruption
# --------------------------------------------------------------------- #
class TestResultCache:
    def test_round_trip_returns_stored_result(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = single_vm_cell(EP, online_rate=0.4)
        hit, _ = cache.get(spec)
        assert not hit
        value = execute_cell(spec)
        cache.put(spec, value)
        hit, got = cache.get(spec)
        assert hit
        assert isinstance(got, SingleVmResult)
        assert got.runtime_seconds == value.runtime_seconds
        assert result_fingerprint(got) == result_fingerprint(value)

    def test_salt_change_misses(self, tmp_path):
        spec = single_vm_cell(EP, online_rate=0.4)
        value = execute_cell(spec)
        old = ResultCache(tmp_path, salt="version-1")
        old.put(spec, value)
        new = ResultCache(tmp_path, salt="version-2")
        hit, _ = new.get(spec)
        assert not hit
        # ... and the old salt still hits: entries coexist per salt.
        hit, _ = ResultCache(tmp_path, salt="version-1").get(spec)
        assert hit

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = single_vm_cell(EP, online_rate=0.4)
        key = cache.put(spec, execute_cell(spec))
        (tmp_path / key[:2] / f"{key}.pkl").write_bytes(b"not a pickle")
        hit, value = cache.get(spec)
        assert not hit and value is None

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = single_vm_cell(EP, online_rate=0.4)
        cache.put(spec, execute_cell(spec))
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["stores"] == 1
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0
        out = cache.write_stats(tmp_path / "stats.json")
        assert json.loads(out.read_text())["stores"] == 1


# --------------------------------------------------------------------- #
# Executor: job resolution, pool map, batch semantics
# --------------------------------------------------------------------- #
class TestJobsResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_beats_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        with use_context(RunContext(jobs=2)):
            assert resolve_jobs() == 2
            assert resolve_jobs(5) == 5
        assert resolve_jobs() == 3  # the context is gone after the block

    def test_auto_and_validation(self):
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)
        with pytest.raises(ConfigurationError):
            resolve_jobs("many")
        with pytest.raises(ConfigurationError):
            RunContext(jobs="bogus")  # rejected when built, not when used

    def test_pool_map_preserves_order(self):
        items = list(range(10))
        assert pool_map(_double, items, jobs=1) == [x * 2 for x in items]
        assert pool_map(_double, items, jobs=2) == [x * 2 for x in items]


class TestRunCells:
    def _batch(self):
        # Fig 1(a) / Fig 7 style cells: LU under both schedulers at the
        # paper rates, one seed, tiny scale.
        return [single_vm_cell(LU, scheduler=sched, online_rate=rate,
                               seed=1, collect_scatter=(rate == 0.4))
                for sched in ("credit", "asman")
                for rate in (1.0, 0.4)]

    def test_serial_and_parallel_runs_are_bit_identical(self):
        cells = self._batch()
        serial = run_cells(cells, jobs=1, cache=None)
        parallel = run_cells(cells, jobs=4, cache=None)
        assert serial.fingerprints() == parallel.fingerprints()
        assert (serial.combined_fingerprint()
                == parallel.combined_fingerprint())
        for spec in cells:
            a = serial.value(spec)
            b = parallel.value(spec)
            assert isinstance(a, SingleVmResult)
            assert isinstance(b, SingleVmResult)
            assert a.runtime_seconds == b.runtime_seconds
            assert a.spin_summary == b.spin_summary
            assert a.spin_scatter == b.spin_scatter

    def test_duplicate_specs_coalesce(self):
        spec = single_vm_cell(EP, online_rate=0.4)
        results = run_cells([spec, spec, single_vm_cell(EP,
                                                        online_rate=0.4)])
        assert len(results) == 1

    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [single_vm_cell(EP, online_rate=r) for r in (1.0, 0.4)]
        cold = run_cells(cells, cache=cache)
        assert cold.cache_hits == 0 and cache.stores == 2
        warm = run_cells(cells, cache=cache)
        assert warm.cache_hits == 2
        assert warm.fingerprints() == cold.fingerprints()
        # A salt bump (new code version) invalidates the whole batch.
        stale = run_cells(cells, cache=ResultCache(tmp_path, salt="next"))
        assert stale.cache_hits == 0
        assert stale.fingerprints() == cold.fingerprints()

    def test_default_cache_is_used(self, tmp_path):
        assert current_context().cache is None
        cache = ResultCache(tmp_path)
        with use_context(RunContext(cache=cache)):
            run_cells([single_vm_cell(EP, online_rate=0.4)])
        assert cache.stores == 1
        assert current_context().cache is None


# --------------------------------------------------------------------- #
# Structured unfinished results (pool workers must not die on deadlines)
# --------------------------------------------------------------------- #
class TestUnfinishedResults:
    def test_single_vm_deadline_returns_structured_result(self):
        r = run_single_vm(lambda: LU.build(), online_rate=0.4, seed=1,
                          deadline_cycles=units.ms(1),
                          on_deadline="return")
        assert not r.finished
        assert r.events_executed > 0
        with pytest.raises(SimulationError):
            r.raise_if_unfinished()
        clone = pickle.loads(pickle.dumps(r))  # pool-friendly
        assert not clone.finished

    def test_multi_vm_deadline_returns_structured_result(self):
        lu = WorkloadSpec("nas", "LU", scale=0.05, rounds=3)
        ep = WorkloadSpec("nas", "EP", scale=0.05, rounds=3)
        assignments = [("V1", lu.build, True), ("V2", ep.build, False)]
        r = run_multi_vm(assignments, deadline_cycles=units.ms(1),
                         on_deadline="return")
        assert not r.finished
        assert set(r.labels) == {"V1", "V2"}
        with pytest.raises(SimulationError):
            r.raise_if_unfinished()
        assert pickle.loads(pickle.dumps(r)).events_executed > 0

    def test_deadline_cell_is_cacheable(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = single_vm_cell(LU, online_rate=0.4,
                              deadline_cycles=units.ms(1),
                              on_deadline="return")
        results = run_cells([spec], cache=cache)
        value = results.value(spec)
        assert isinstance(value, SingleVmResult)
        assert not value.finished
        warm = run_cells([spec], cache=cache)
        assert warm.cache_hits == 1


# --------------------------------------------------------------------- #
# Figure-level determinism (the acceptance criterion's shape)
# --------------------------------------------------------------------- #
class TestFigureDeterminism:
    def test_fig01a_serial_vs_parallel(self):
        from repro.experiments.figures import fig01_lu_runtime
        serial = fig01_lu_runtime(scale=0.05, seeds=(1,), jobs=1,
                                  cache=None)
        parallel = fig01_lu_runtime(scale=0.05, seeds=(1,), jobs=4,
                                    cache=None)
        assert serial.series == parallel.series
        assert serial.fingerprint == parallel.fingerprint
        assert serial.fingerprint is not None
