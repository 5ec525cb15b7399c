"""Unit tests for the whole-program analysis substrate: the Project
indexer, the call graph, the taint summaries and the ``analyze`` driver.

The fixture packages under ``tests/fixtures/lint/`` double as targets:
each is a tiny ``repro`` tree the engine indexes exactly like the real
one.
"""

from pathlib import Path

import pytest

from repro.analysis.callgraph import build_call_graph
from repro.analysis.engine import Project, analyze, package_root
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
# The analyze() driver
# --------------------------------------------------------------------- #
class TestAnalyzeDriver:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown simlint rule"):
            analyze(CLEAN, rules=["not-a-rule"])

    def test_clean_package_is_clean(self):
        report, project = analyze(CLEAN)
        assert report.violations == [] and report.ok
        assert report.files_checked == len(project.modules)

    def test_file_root_filters_reporting_not_indexing(self):
        # Root at the innocent wrapper file: the contamination in
        # wire.py / inj.py must not be reported, but the whole project
        # was still indexed (files_checked spans the package).
        target = FIXTURES / "rng_pkg" / "repro" / "asman" / "mon.py"
        report, _ = analyze(target)
        assert {v.path for v in report.violations} == {
            str(target.resolve())}
        assert report.files_checked > 1

    def test_file_root_indexes_its_package(self):
        rng_pkg = FIXTURES / "rng_pkg" / "repro"
        target = rng_pkg / "faults" / "inj.py"
        assert package_root(target) == rng_pkg.resolve()
        report, project = analyze(target)
        assert project.root == rng_pkg.resolve()
        assert [(v.path, v.rule) for v in report.violations] == [
            (str(target.resolve()), "rng-provenance")]

    def test_non_python_file_root_rejected(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("not code\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a Python source file"):
            analyze(notes)
