"""Unit tests for the whole-program analysis substrate: the Project
indexer, the call graph, the taint summaries and the baseline workflow.

The fixture packages under ``tests/fixtures/lint/`` double as targets:
each is a tiny ``repro`` tree the engine indexes exactly like the real
one.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.callgraph import build_call_graph
from repro.analysis.engine import (
    Project,
    analyze,
    fingerprint_violation,
    load_baseline,
    package_root,
    partition_against_baseline,
    stable_rel_path,
    write_baseline,
)
from repro.analysis.simlint import Violation
from repro.analysis.taint import compute_summaries

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
CLEAN = FIXTURES / "clean_pkg" / "repro"
CYCLES = FIXTURES / "cycles_pkg" / "repro"
WALLCLOCK = FIXTURES / "wallclock_pkg" / "repro"


@pytest.fixture(scope="module")
def clean_project():
    return Project.load(CLEAN)


@pytest.fixture(scope="module")
def cycles_project():
    return Project.load(CYCLES)


# --------------------------------------------------------------------- #
# Project indexing and symbol resolution
# --------------------------------------------------------------------- #
class TestProjectIndex:
    def test_modules_named_from_tree(self, clean_project):
        assert {"repro", "repro.vmm.sched", "repro.asman.mon",
                "repro.metrics.fmt"} <= set(clean_project.modules)

    def test_classes_and_methods_indexed(self, clean_project):
        assert "repro.vmm.sched.Scheduler" in clean_project.classes
        assert "repro.vmm.sched.Scheduler.pick" in clean_project.functions
        assert "repro.vmm.sched.wire" in clean_project.functions

    def test_param_types_resolved(self, clean_project):
        init = clean_project.functions["repro.vmm.sched.Scheduler.__init__"]
        assert init.param_types["rng"] == "numpy.random.Generator"
        wire = clean_project.functions["repro.vmm.sched.wire"]
        assert wire.param_types["streams"].endswith("RngStreams")

    def test_attr_type_from_ctor(self, clean_project):
        t = clean_project.attr_type("repro.vmm.sched.Scheduler", "rng")
        assert t == "numpy.random.Generator"

    def test_return_type_resolved(self, clean_project):
        f = clean_project.functions["repro.vmm.sched.report_ms"]
        assert f.return_type == "float"

    def test_bad_root_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            Project.load(tmp_path / "nope")

    def test_subclass_map_and_mro_lookup(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "base.py").write_text(
            "class Base:\n"
            "    def step(self) -> int:\n"
            "        return 0\n"
            "class Mid(Base):\n"
            "    pass\n"
            "class Leaf(Mid):\n"
            "    def step(self) -> int:\n"
            "        return 1\n",
            encoding="utf-8")
        project = Project.load(pkg)
        subs = project.subclasses["repro.base.Base"]
        assert {"repro.base.Mid", "repro.base.Leaf"} <= subs
        # Mid has no step of its own: MRO lookup walks to Base.
        hit = project.lookup_method("repro.base.Mid", "step")
        assert hit is not None and hit.qname == "repro.base.Base.step"


# --------------------------------------------------------------------- #
# Call graph
# --------------------------------------------------------------------- #
class TestCallGraph:
    def test_direct_function_edge(self, clean_project):
        graph = build_call_graph(clean_project)
        callees = {s.callee for s in
                   graph.callees_of("repro.vmm.sched.describe")
                   if not s.external}
        assert "repro.metrics.fmt.fmt_cycles" in callees

    def test_constructor_dispatch(self, clean_project):
        graph = build_call_graph(clean_project)
        callees = {s.callee for s in
                   graph.callees_of("repro.vmm.sched.wire")
                   if not s.external}
        assert "repro.vmm.sched.Scheduler.__init__" in callees
        assert "repro.vmm.sched.arm_in_ms" in callees

    def test_transitive_external_reachability(self):
        project = Project.load(WALLCLOCK)
        graph = build_call_graph(project)
        chains = graph.reachable_externals("repro.vmm.clock.stamp")
        assert "time.time" in chains
        hops = [site.caller for site in chains["time.time"]]
        assert hops == ["repro.vmm.clock.stamp",
                        "repro.metrics.host.hostclock"]

    def test_clean_functions_reach_no_wall_clock(self, clean_project):
        graph = build_call_graph(clean_project)
        chains = graph.reachable_externals("repro.vmm.sched.describe")
        assert "time.time" not in chains and "os.environ.get" not in chains


# --------------------------------------------------------------------- #
# Taint summaries
# --------------------------------------------------------------------- #
class TestTaintSummaries:
    def test_wrapper_param_becomes_cycle_sink(self, cycles_project):
        ctx = compute_summaries(cycles_project)
        arm = ctx.summaries["repro.vmm.timing.arm"]
        # arm(sim, delay): delay (index 1) flows into sim.after inside.
        assert 1 in arm.param_sink
        assert "sim." in arm.param_sink[1]

    def test_float_return_summary(self, cycles_project):
        ctx = compute_summaries(cycles_project)
        js = ctx.summaries["repro.vmm.timing.jitter_scale"]
        assert any(tag[0] == "float" for tag in js.returns)

    def test_ctor_attr_params_collected(self, clean_project):
        ctx = compute_summaries(clean_project)
        attrs = ctx.ctor_attr_params["repro.vmm.sched.Scheduler"]
        assert "rng" in attrs

    def test_summaries_converge(self, cycles_project):
        # A second full fixpoint from scratch lands on identical facts:
        # the iteration is deterministic and actually converged.
        a = compute_summaries(cycles_project)
        b = compute_summaries(cycles_project)
        snap_a = {q: s.snapshot() for q, s in a.summaries.items()}
        snap_b = {q: s.snapshot() for q, s in b.summaries.items()}
        assert snap_a == snap_b


# --------------------------------------------------------------------- #
# Fingerprints and the baseline round-trip
# --------------------------------------------------------------------- #
def _violation(path="/ck/a/repro/vmm/x.py", line=3, rule="cycle-unit-flow",
               message="m"):
    return Violation(path=path, line=line, col=1, rule=rule,
                     message=message)


class TestFingerprints:
    def test_stable_rel_path_strips_checkout_prefix(self):
        assert stable_rel_path("/home/a/src/repro/vmm/x.py") == \
            "repro/vmm/x.py"
        assert stable_rel_path("/other/ck/repro/vmm/x.py") == \
            "repro/vmm/x.py"
        assert stable_rel_path("/tmp/loose.py") == "loose.py"

    def test_line_shift_does_not_change_fingerprint(self):
        lines_a = ["", "", "sim.after(window, None)"]
        lines_b = ["", "", "", "", "sim.after(window, None)"]
        fp_a = fingerprint_violation(_violation(line=3), lines_a)
        fp_b = fingerprint_violation(_violation(line=5), lines_b)
        assert fp_a == fp_b

    def test_checkout_move_does_not_change_fingerprint(self):
        lines = ["", "", "sim.after(window, None)"]
        fp_a = fingerprint_violation(
            _violation(path="/ck1/repro/vmm/x.py"), lines)
        fp_b = fingerprint_violation(
            _violation(path="/somewhere/else/repro/vmm/x.py"), lines)
        assert fp_a == fp_b

    def test_anchor_text_change_does_change_fingerprint(self):
        fp_a = fingerprint_violation(
            _violation(), ["", "", "sim.after(window, None)"])
        fp_b = fingerprint_violation(
            _violation(), ["", "", "sim.after(delay, None)"])
        assert fp_a != fp_b


class TestBaselineRoundTrip:
    def test_round_trip_grandfathers_everything(self, tmp_path):
        v1 = _violation(line=3, message="first")
        v2 = _violation(line=7, rule="rng-provenance", message="second")
        sources = {v1.path: ["x"] * 10}
        out = tmp_path / "baseline.json"
        write_baseline([v1, v2], sources, out)
        baseline = load_baseline(out)
        new, grand, stale = partition_against_baseline(
            [v1, v2], sources, baseline)
        assert new == [] and stale == []
        assert len(grand) == 2

    def test_new_finding_fails_and_removed_goes_stale(self, tmp_path):
        v1 = _violation(line=3)
        sources = {v1.path: ["x"] * 10}
        out = tmp_path / "baseline.json"
        write_baseline([v1], sources, out)
        baseline = load_baseline(out)
        v_new = _violation(line=5, rule="rng-provenance", message="fresh")
        new, grand, stale = partition_against_baseline(
            [v_new], sources, baseline)
        assert new == [v_new] and grand == []
        assert len(stale) == 1
        assert stale[0]["rule"] == "cycle-unit-flow"

    def test_duplicate_anchors_get_distinct_fingerprints(self, tmp_path):
        # Two violations with the same rule/anchor text must not collapse
        # into one baseline entry.
        lines = ["dup()", "dup()"]
        v1 = _violation(line=1, message="a")
        v2 = _violation(line=2, message="b")
        sources = {v1.path: lines}
        out = tmp_path / "baseline.json"
        write_baseline([v1, v2], sources, out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        fps = [f["fingerprint"] for f in doc["findings"]]
        assert len(set(fps)) == 2
        assert all(doc_f["path"] == "repro/vmm/x.py"
                   for doc_f in doc["findings"])

    def test_no_baseline_means_everything_is_new(self):
        v1 = _violation()
        new, grand, stale = partition_against_baseline(
            [v1], {v1.path: ["x"] * 5}, None)
        assert new == [v1] and grand == [] and stale == []

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported baseline"):
            load_baseline(bad)


# --------------------------------------------------------------------- #
# The analyze() driver
# --------------------------------------------------------------------- #
class TestAnalyzeDriver:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown simlint rule"):
            analyze(CLEAN, rules=["not-a-rule"])

    def test_clean_package_is_clean(self):
        report, project, sources = analyze(CLEAN)
        assert report.violations == [] and report.ok
        assert report.files_checked == len(project.modules)
        assert set(sources) == {str(m.path)
                                for m in project.modules.values()}

    def test_diff_mode_filters_reporting_not_indexing(self):
        # Restrict to the innocent wrapper file: the contamination in
        # wire.py / inj.py must not be reported, but the whole project
        # was still indexed (files_checked spans the package).
        rng_pkg = FIXTURES / "rng_pkg" / "repro"
        target = rng_pkg / "asman" / "mon.py"
        report, _, _ = analyze(rng_pkg, changed_files=[target])
        assert {v.path for v in report.violations} == {str(target)}
        assert report.files_checked > 1

    def test_file_root_is_diff_mode_on_its_package(self):
        rng_pkg = FIXTURES / "rng_pkg" / "repro"
        target = rng_pkg / "faults" / "inj.py"
        assert package_root(target) == rng_pkg.resolve()
        report, project, _ = analyze(target)
        assert project.root == rng_pkg.resolve()
        assert [(v.path, v.rule) for v in report.violations] == [
            (str(target.resolve()), "rng-provenance")]

    def test_non_python_file_root_rejected(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("not code\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a Python source file"):
            analyze(notes)
