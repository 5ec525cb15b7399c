"""simlint: every rule fires on a minimal positive case, stays quiet on
the idiomatic negative case, and honours the pragma escape hatch."""

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import simlint
from repro.analysis.engine import analyze
from repro.cli import main as cli_main

FIXTURE = Path(__file__).parent / "fixtures" / "simlint" / "violations.py"


def rules_in(source, **kwargs):
    """Lint a snippet as sim-scoped code; return the set of rule ids hit."""
    kwargs.setdefault("sim_scope", True)
    found, _ = simlint.lint_source(source, **kwargs)
    return {v.rule for v in found}


# --------------------------------------------------------------------- #
# Rule positives and negatives
# --------------------------------------------------------------------- #
class TestWallClock:
    def test_import_time(self):
        assert "wall-clock" in rules_in("import time\n")

    def test_from_datetime(self):
        assert "wall-clock" in rules_in("from datetime import datetime\n")

    def test_call(self):
        assert "wall-clock" in rules_in("x = time.perf_counter()\n")

    def test_out_of_scope_files_may_time(self):
        assert rules_in("import time\n", sim_scope=False) == set()


class TestRandomModule:
    def test_stdlib_import(self):
        assert "random-module" in rules_in("import random\n")

    def test_stdlib_call(self):
        assert "random-module" in rules_in("x = random.random()\n")

    def test_numpy_legacy_global(self):
        assert "random-module" in rules_in("x = np.random.randint(3)\n")

    def test_unseeded_default_rng(self):
        assert "random-module" in rules_in("g = np.random.default_rng()\n")

    def test_seeded_default_rng_ok(self):
        assert rules_in("g = np.random.default_rng(42)\n") == set()

    # -- aliased imports must not defeat detection ---------------------- #
    def test_stdlib_module_alias(self):
        src = "import random as rnd\nx = rnd.gauss(0, 1)\n"
        found, _ = simlint.lint_source(src, sim_scope=True)
        # both the import and the aliased call are caught
        assert [v.rule for v in found] == ["random-module", "random-module"]
        assert "rnd.gauss()" in found[1].message

    def test_stdlib_function_alias(self):
        src = "from random import random as _r\nx = _r()\n"
        found, _ = simlint.lint_source(src, sim_scope=True)
        assert [v.rule for v in found] == ["random-module", "random-module"]
        assert "random.random" in found[1].message

    def test_numpy_submodule_alias(self):
        src = "import numpy.random as npr\nx = npr.randint(3)\n"
        found, _ = simlint.lint_source(src, sim_scope=True)
        assert [v.rule for v in found] == ["random-module"]
        assert "numpy.random.randint()" in found[0].message

    def test_from_numpy_import_random(self):
        src = "from numpy import random as nr\ng = nr.default_rng()\n"
        assert "random-module" in rules_in(src)

    def test_aliased_unseeded_default_rng(self):
        src = "from numpy.random import default_rng\ng = default_rng()\n"
        assert "random-module" in rules_in(src)

    def test_aliased_seeded_default_rng_ok(self):
        src = "from numpy.random import default_rng\ng = default_rng(42)\n"
        assert rules_in(src) == set()

    def test_numpy_module_alias_legacy_global(self):
        src = "import numpy as xp\nx = xp.random.rand(3)\n"
        assert "random-module" in rules_in(src)


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
        assert "float-into-cycles" in rules_in("sim.after(1.5, fn)\n")

    def test_division_in_every(self):
        assert "float-into-cycles" in rules_in("sim.every(n / 4, fn)\n")

    def test_self_sim_receiver(self):
        assert "float-into-cycles" in rules_in("self.sim.at(0.5, fn)\n")

    def test_units_producer_blessed(self):
        assert rules_in("sim.after(units.ms(0.5), fn)\n") == set()

    def test_int_wrapper_blessed(self):
        assert rules_in("sim.after(int(n * 1.5), fn)\n") == set()

    def test_floor_division_ok(self):
        assert rules_in("sim.after(n // 4, fn)\n") == set()

    def test_cycle_op_constructor(self):
        assert "float-into-cycles" in rules_in("ops.append(Compute(n / 2))\n")

    def test_unrelated_receiver_ignored(self):
        assert rules_in("queue.after(1.5, fn)\n") == set()


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
# Pragmas
# --------------------------------------------------------------------- #
class TestPragmas:
    def test_rule_specific_waiver(self):
        src = "sim.after(1.5, fn)  # simlint: ignore[float-into-cycles]\n"
        found, used = simlint.lint_source(src, sim_scope=True)
        assert found == [] and used == 1

    def test_blanket_waiver(self):
        src = "import time  # simlint: ignore\n"
        found, used = simlint.lint_source(src, sim_scope=True)
        assert found == [] and used == 1

    def test_waiver_for_other_rule_does_not_apply(self):
        src = "import time  # simlint: ignore[mutable-default]\n"
        found, _ = simlint.lint_source(src, sim_scope=True)
        assert {v.rule for v in found} == {"wall-clock"}

    def test_waiver_on_other_line_does_not_apply(self):
        src = ("x = 1  # simlint: ignore\n"
               "import time\n")
        found, _ = simlint.lint_source(src, sim_scope=True)
        assert {v.rule for v in found} == {"wall-clock"}

    def test_waivers_counted_per_rule(self):
        src = ("import time  # simlint: ignore\n"
               "sim.after(1.5, fn)  # simlint: ignore[float-into-cycles]\n"
               "sim.after(2.5, fn)  # simlint: ignore[float-into-cycles]\n")
        tree = ast.parse(src)
        found, used, per_rule = simlint.lint_tree(
            tree, src, path="<w>", sim_scope=True, hot_module=False,
            rules=None)
        assert found == [] and used == 3
        assert per_rule == {"wall-clock": 1, "float-into-cycles": 2}

    def test_report_aggregates_waivers_by_rule(self):
        report, _, _ = analyze(FIXTURE, assume_sim=True)
        assert report.waivers_by_rule == {"float-into-cycles": 1}

    def test_json_render_includes_waivers_by_rule(self, capsys):
        cli_main(["lint", "--assume-sim", "--format", "json",
                  str(FIXTURE)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["waivers_by_rule"] == {"float-into-cycles": 1}


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
            simlint.lint_source("x = 1\n", rules=["no-such-rule"])

    def test_rule_subset(self):
        src = "import time\nimport random\n"
        found, _ = simlint.lint_source(src, sim_scope=True,
                                       rules=["wall-clock"])
        assert {v.rule for v in found} == {"wall-clock"}


class TestDriversAndReporters:
    def test_fixture_trips_every_rule(self):
        report, _, _ = analyze(FIXTURE, assume_sim=True)
        hit = {v.rule for v in report.violations}
        expected = set(simlint.RULES) - {"slots-required"}
        assert expected <= hit
        assert report.pragmas_used == 1  # the waived() pragma

    def test_directory_report(self):
        report, _, _ = analyze(FIXTURE.parent, assume_sim=True)
        assert report.files_checked == 1
        assert not report.ok

    def test_json_render_round_trips(self, capsys):
        cli_main(["lint", "--assume-sim", "--format", "json",
                  str(FIXTURE)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["pragmas_used"] == 1
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
        for rule in simlint.RULES:
            assert rule in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert cli_main(["lint", "--rules", "bogus", str(FIXTURE)]) == 2

    def test_rule_subset_via_cli(self, capsys):
        code = cli_main(["lint", "--assume-sim", "--rules",
                         "wall-clock", str(FIXTURE)])
        assert code == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out and "mutable-default" not in out

    def test_max_waivers_within_budget(self, tmp_path, capsys):
        f = tmp_path / "waived.py"
        f.write_text("import time  # simlint: ignore\n", encoding="utf-8")
        assert cli_main(["lint", "--assume-sim", "--max-waivers", "1",
                         str(f)]) == 0

    def test_max_waivers_exceeded_fails(self, tmp_path, capsys):
        f = tmp_path / "waived.py"
        f.write_text("import time  # simlint: ignore\n", encoding="utf-8")
        assert cli_main(["lint", "--assume-sim", "--max-waivers", "0",
                         str(f)]) == 1
        err = capsys.readouterr().err
        assert "exceed the --max-waivers budget" in err

    def test_output_writes_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = cli_main(["lint", "--assume-sim", "--format", "json",
                         "--output", str(out_path), str(FIXTURE)])
        assert code == 1
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["ok"] is False
        assert "wrote" in capsys.readouterr().out

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
