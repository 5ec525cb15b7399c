"""repro lint rules: every rule fires on a minimal positive case, stays
quiet on the idiomatic negative case, and no comment waives a finding.
Snippets go through :func:`repro.analysis.engine.analyze`, the
one lint path, as a module of a throwaway ``repro`` package."""

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.analysis import simlint
from repro.analysis.engine import analyze
from repro.analysis.rules_interproc import ALL_RULES
from repro.cli import main as cli_main

FIXTURE = Path(__file__).parent / "fixtures" / "simlint" / "violations.py"


def lint(source, sim_scope=True, hot_module=False, rules=None):
    """Lint a snippet as ``repro/vmm/snippet.py`` (sim scope),
    ``repro/sim/engine.py`` (a hot-path module) or
    ``repro/metrics/snippet.py`` (neither); return the report."""
    sub, name = ("sim", "engine.py") if hot_module else \
        ("vmm" if sim_scope else "metrics", "snippet.py")
    with tempfile.TemporaryDirectory() as tmp:
        pkg = Path(tmp) / "repro"
        (pkg / sub).mkdir(parents=True)
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / sub / "__init__.py").write_text("", encoding="utf-8")
        target = pkg / sub / name
        target.write_text(source, encoding="utf-8")
        report, _ = analyze(target, rules=rules)
    return report


def rules_in(source, **kwargs):
    """The set of rule ids a snippet trips (sim-scoped by default)."""
    return {v.rule for v in lint(source, **kwargs).violations}


# --------------------------------------------------------------------- #
# Rule positives and negatives
# --------------------------------------------------------------------- #
class TestWallClock:
    def test_import_time(self):
        assert "wall-clock" in rules_in("import time\n")

    def test_from_datetime(self):
        assert "wall-clock" in rules_in("from datetime import datetime\n")

    def test_call(self):
        found = lint("import time\nx = time.perf_counter()\n").violations
        assert [(v.line, v.rule) for v in found] == [
            (1, "wall-clock"), (2, "wall-clock")]
        assert "time.perf_counter()" in found[1].message

    def test_out_of_scope_files_may_time(self):
        assert rules_in("import time\n", sim_scope=False) == set()


class TestRandomModule:
    def test_stdlib_import(self):
        assert "rng-provenance" in rules_in("import random\n")

    def test_stdlib_call(self):
        found = lint("import random\nx = random.random()\n").violations
        assert [(v.line, v.rule) for v in found] == [
            (1, "rng-provenance"), (2, "rng-provenance")]

    def test_numpy_legacy_global(self):
        assert "rng-provenance" in rules_in(
            "import numpy as np\nx = np.random.randint(3)\n")

    def test_unseeded_default_rng(self):
        assert "rng-provenance" in rules_in(
            "import numpy as np\ng = np.random.default_rng()\n")

    def test_seeded_default_rng_ok(self):
        # Out of sim scope a constant seed is fine; in it, the seed must
        # come from RngStreams (the ad-hoc seeding case).
        assert rules_in("import numpy as np\n"
                        "g = np.random.default_rng(42)\n",
                        sim_scope=False) == set()

    # -- aliased imports must not defeat detection ---------------------- #
    def test_stdlib_module_alias(self):
        src = "import random as rnd\nx = rnd.gauss(0, 1)\n"
        found = lint(src).violations
        # both the import and the aliased call are caught
        assert [v.rule for v in found] == ["rng-provenance",
                                           "rng-provenance"]
        assert "random.gauss()" in found[1].message

    def test_stdlib_function_alias(self):
        src = "from random import random as _r\nx = _r()\n"
        found = lint(src).violations
        assert [v.rule for v in found] == ["rng-provenance",
                                           "rng-provenance"]
        assert "random.random" in found[1].message

    def test_numpy_submodule_alias(self):
        src = "import numpy.random as npr\nx = npr.randint(3)\n"
        found = lint(src).violations
        assert [v.rule for v in found] == ["rng-provenance"]
        assert "numpy.random.randint()" in found[0].message

    def test_from_numpy_import_random(self):
        src = "from numpy import random as nr\ng = nr.default_rng()\n"
        assert "rng-provenance" in rules_in(src)

    def test_aliased_unseeded_default_rng(self):
        src = "from numpy.random import default_rng\ng = default_rng()\n"
        assert "rng-provenance" in rules_in(src)

    def test_aliased_seeded_default_rng_ok(self):
        src = "from numpy.random import default_rng\ng = default_rng(42)\n"
        assert rules_in(src, sim_scope=False) == set()

    def test_numpy_module_alias_legacy_global(self):
        src = "import numpy as xp\nx = xp.random.rand(3)\n"
        assert "rng-provenance" in rules_in(src)


class TestNondetIter:
    def test_set_literal(self):
        assert "nondet-iter" in rules_in("for x in {1, 2}:\n    pass\n")

    def test_set_call(self):
        assert "nondet-iter" in rules_in("for x in set(y):\n    pass\n")

    def test_local_set_variable(self):
        src = ("def f(xs):\n"
               "    seen = set(xs)\n"
               "    for s in seen:\n"
               "        print(s)\n")
        assert "nondet-iter" in rules_in(src)

    def test_set_annotated_parameter(self):
        src = ("def f(occupied: Set[int]):\n"
               "    for pid in occupied:\n"
               "        print(pid)\n")
        assert "nondet-iter" in rules_in(src)

    def test_sorted_wrapper_ok(self):
        src = ("def f(occupied: Set[int]):\n"
               "    for pid in sorted(occupied):\n"
               "        print(pid)\n")
        assert rules_in(src) == set()

    def test_comprehension(self):
        assert "nondet-iter" in rules_in("y = [x for x in {1, 2}]\n")

    def test_list_iteration_ok(self):
        assert rules_in("for x in [1, 2]:\n    pass\n") == set()


class TestFloatIntoCycles:
    def test_float_literal_in_after(self):
        assert "cycle-unit-flow" in rules_in("sim.after(1.5, fn)\n")

    def test_division_in_every(self):
        assert "cycle-unit-flow" in rules_in("sim.every(n / 4, fn)\n")

    def test_self_sim_receiver(self):
        assert "cycle-unit-flow" in rules_in("self.sim.at(0.5, fn)\n")

    def test_units_producer_blessed(self):
        assert rules_in("sim.after(units.ms(0.5), fn)\n") == set()

    def test_int_wrapper_blessed(self):
        assert rules_in("sim.after(int(n * 1.5), fn)\n") == set()

    def test_floor_division_ok(self):
        assert rules_in("sim.after(n // 4, fn)\n") == set()

    def test_cycle_op_constructor(self):
        assert "cycle-unit-flow" in rules_in("ops.append(Compute(n / 2))\n")

    def test_unrelated_receiver_ignored(self):
        assert rules_in("queue.after(1.5, fn)\n") == set()


class TestSingleFunctionCases:
    """The direct case of each whole-program rule: a chain of length one,
    a value made in the same function, a closure, module-level code."""

    def test_direct_env_and_uuid_calls(self):
        src = ("import os\n"
               "import uuid\n"
               "def tuned():\n"
               "    return os.environ.get('TUNE', '')\n"
               "def tag():\n"
               "    return uuid.uuid4()\n")
        found = lint(src).violations
        assert [(v.line, v.rule) for v in found] == [
            (4, "wall-clock"), (6, "wall-clock")]
        assert "os.environ.get()" in found[0].message

    def test_float_through_a_local(self):
        src = ("def arm(sim, f):\n"
               "    delay = 1.5\n"
               "    sim.after(delay, f)\n")
        found = lint(src).violations
        assert [(v.line, v.rule) for v in found] == [(3, "cycle-unit-flow")]
        assert "float literal" in found[0].message

    def test_ms_value_into_a_sink_inside_a_closure(self):
        src = ("from repro import units\n"
               "def outer(sim, c, f):\n"
               "    def inner():\n"
               "        sim.after(units.to_ms(c), f)\n"
               "    return inner\n")
        found = lint(src).violations
        assert [(v.line, v.rule) for v in found] == [(4, "cycle-unit-flow")]
        assert "millisecond-typed" in found[0].message

    def test_module_level_wall_clock_call(self):
        found = lint("import time\nSTARTED = time.time()\n").violations
        assert [(v.line, v.rule) for v in found] == [
            (1, "wall-clock"), (2, "wall-clock")]
        assert "module-level code" in found[1].message

    def test_lambda_and_comprehension_bodies(self):
        src = ("def build(sim, f, xs):\n"
               "    cb = lambda: sim.after(2.5, f)\n"
               "    return cb, [Compute(x / 2) for x in xs]\n")
        assert [(v.line, v.rule) for v in lint(src).violations] == [
            (2, "cycle-unit-flow"), (3, "cycle-unit-flow")]

    def test_every_redefinition_is_checked(self):
        src = ("import os\n"
               "class Knob:\n"
               "    @property\n"
               "    def level(self):\n"
               "        return os.environ.get('LEVEL')\n"
               "    @level.setter\n"
               "    def level(self, value):\n"
               "        self._level = value\n")
        assert [(v.line, v.rule) for v in lint(src).violations] == [
            (5, "wall-clock")]

    def test_lambda_parameter_shadows_a_float_local(self):
        src = ("def build(sim, f):\n"
               "    delay = 1.5\n"
               "    return lambda delay: sim.after(delay, f)\n")
        assert rules_in(src) == set()


class TestSilentTruncation:
    def test_int_of_division(self):
        assert "silent-truncation" in rules_in("k = int(a / b)\n")

    def test_plain_int_ok(self):
        assert rules_in("k = int(a)\n") == set()


class TestMutableDefault:
    def test_list_literal(self):
        assert "mutable-default" in rules_in("def f(a=[]):\n    pass\n",
                                             sim_scope=False)

    def test_dict_call(self):
        assert "mutable-default" in rules_in("def f(a=dict()):\n    pass\n",
                                             sim_scope=False)

    def test_kwonly_default(self):
        assert "mutable-default" in rules_in(
            "def f(*, a={}):\n    pass\n", sim_scope=False)

    def test_none_default_ok(self):
        assert rules_in("def f(a=None):\n    pass\n",
                        sim_scope=False) == set()


class TestSlotsRequired:
    def test_plain_class_flagged(self):
        src = "class Task:\n    def __init__(self):\n        self.x = 1\n"
        assert "slots-required" in rules_in(src, hot_module=True)

    def test_slotted_class_ok(self):
        src = "class Task:\n    __slots__ = ('x',)\n"
        assert rules_in(src, hot_module=True) == set()

    def test_dataclass_slots_ok(self):
        src = ("@dataclass(frozen=True, slots=True)\n"
               "class Rec:\n    x: int\n")
        assert rules_in(src, hot_module=True) == set()

    def test_enum_exempt(self):
        src = "class Color(enum.Enum):\n    RED = 1\n"
        assert rules_in(src, hot_module=True) == set()

    def test_exception_exempt(self):
        src = "class BoomError(ValueError):\n    pass\n"
        assert rules_in(src, hot_module=True) == set()

    def test_cold_modules_unaffected(self):
        src = "class Config:\n    def __init__(self):\n        self.x = 1\n"
        assert rules_in(src, hot_module=False) == set()


class TestBareExcept:
    def test_bare(self):
        src = "try:\n    f()\nexcept:\n    g()\n"
        assert "bare-except" in rules_in(src, sim_scope=False)

    def test_base_exception_without_reraise(self):
        src = "try:\n    f()\nexcept BaseException:\n    g()\n"
        assert "bare-except" in rules_in(src, sim_scope=False)

    def test_base_exception_with_reraise_ok(self):
        src = "try:\n    f()\nexcept BaseException:\n    raise\n"
        assert rules_in(src, sim_scope=False) == set()

    def test_silent_pass(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert "bare-except" in rules_in(src, sim_scope=False)

    def test_typed_handler_ok(self):
        src = "try:\n    f()\nexcept ValueError:\n    g()\n"
        assert rules_in(src, sim_scope=False) == set()


# --------------------------------------------------------------------- #
# No waivers
# --------------------------------------------------------------------- #
def test_ignore_comment_waives_nothing():
    src = ("sim.after(1.5, fn)  # simlint: ignore\n"
           "sim.after(2.5, fn)  # simlint: ignore[cycle-unit-flow]\n")
    assert [(v.line, v.rule) for v in lint(src).violations] == [
        (1, "cycle-unit-flow"), (2, "cycle-unit-flow")]


# --------------------------------------------------------------------- #
# Scoping, drivers, reporters
# --------------------------------------------------------------------- #
class TestScoping:
    @pytest.mark.parametrize("rel,expect_sim,expect_hot", [
        ("src/repro/vmm/adaptive.py", True, False),
        ("src/repro/sim/engine.py", True, True),
        ("src/repro/guest/task.py", True, True),
        ("src/repro/config.py", False, False),
        ("src/repro/perf/harness.py", False, False),
        ("elsewhere/module.py", False, False),
    ])
    def test_scope_of(self, rel, expect_sim, expect_hot):
        sim, hot = simlint._scope_of(Path(rel), assume_sim=False)
        assert (sim, hot) == (expect_sim, expect_hot)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown simlint rule"):
            lint("x = 1\n", rules=["no-such-rule"])

    def test_rule_subset(self):
        src = "import time\nimport random\n"
        assert rules_in(src, rules=["wall-clock"]) == {"wall-clock"}


class TestDriversAndReporters:
    def test_fixture_trips_every_rule(self):
        report, _ = analyze(FIXTURE, assume_sim=True)
        hit = {v.rule for v in report.violations}
        expected = set(ALL_RULES) - {"slots-required"}
        assert expected <= hit
        assert len(report.violations) == 17
        assert (54, "cycle-unit-flow") in {
            (v.line, v.rule) for v in report.violations}  # no_waiver()

    def test_directory_report(self):
        report, _ = analyze(FIXTURE.parent, assume_sim=True)
        assert report.files_checked == 1
        assert not report.ok

    def test_json_render_round_trips(self, capsys):
        cli_main(["lint", "--assume-sim", "--format", "json",
                  str(FIXTURE)])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"violations", "files_checked", "ok"}
        assert doc["ok"] is False
        assert doc["files_checked"] == 1
        first = doc["violations"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}

    def test_text_render_is_compiler_style(self, capsys):
        cli_main(["lint", "--assume-sim", str(FIXTURE)])
        line = capsys.readouterr().out.splitlines()[0]
        path, lineno, col, rest = line.split(":", 3)
        assert path.endswith("violations.py")
        assert lineno.isdigit() and col.isdigit()


class TestCli:
    def test_lint_src_repro_is_clean(self, capsys):
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        assert cli_main(["lint", str(src)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_fixture_fails(self, capsys):
        assert cli_main(["lint", "--assume-sim", str(FIXTURE)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out and "mutable-default" in out

    def test_lint_json_format(self, capsys):
        code = cli_main(["lint", "--assume-sim", "--format", "json",
                         str(FIXTURE)])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(ALL_RULES) == 8
        for rule in ALL_RULES:
            assert rule in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert cli_main(["lint", "--rules", "bogus", str(FIXTURE)]) == 2

    @pytest.mark.parametrize("retired", ["random-module",
                                         "float-into-cycles",
                                         "transitive-wall-clock"])
    def test_retired_rule_id_is_usage_error(self, retired, capsys):
        assert cli_main(["lint", "--rules", retired, str(FIXTURE)]) == 2

    def test_rule_subset_via_cli(self, capsys):
        code = cli_main(["lint", "--assume-sim", "--rules",
                         "wall-clock", str(FIXTURE)])
        assert code == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out and "mutable-default" not in out

    def test_root_without_python_modules_is_usage_error(self, tmp_path,
                                                        capsys):
        # A gate pointed at the wrong directory must not pass by
        # checking nothing.
        assert cli_main(["lint", str(tmp_path)]) == 2
        assert "lint error: no Python modules under" in \
            capsys.readouterr().err

    def test_closed_stdout_exits_141(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli_main(["lint", "--list-rules"]) == 141


def test_run_path_does_not_load_the_linter():
    src = Path(simlint.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.experiments.setup;"
         "print('repro.analysis.simlint' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
