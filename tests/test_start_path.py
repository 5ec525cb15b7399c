"""Start-path guards: what a ``repro`` process and a worker load.

Every CLI invocation and every spawned worker (unpickling
``supervisor._worker`` imports the same package) pays for the modules
on its import path.  Test-only modules (pytest) must never be on it, and
the process-pool modules only load when worker slots are built.

Each check runs in a fresh interpreter via ``python -c``: this process
has pytest loaded already, and so would a spawn child of it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

TEST_ONLY = ("pytest", "_pytest", "pluggy")
#: ``concurrent`` is the parent package of the executor modules: any
#: import of them loads it.
POOL_ONLY = ("multiprocessing", "concurrent")


def loaded_after(code: str, modules) -> list:
    """Run ``code`` in a fresh interpreter, then return which of
    ``modules`` it left in ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    probe = (f"{code}\nimport sys\n"
             f"print('loaded:', *(m for m in {tuple(modules)!r} "
             f"if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1].split()[1:]


def test_cli_import_loads_no_test_or_pool_module():
    assert loaded_after("import repro.cli", TEST_ONLY + POOL_ONLY) == []


def test_worker_import_loads_no_pytest():
    assert loaded_after("import repro.parallel.supervisor", TEST_ONLY) == []


def test_serial_run_builds_no_pool():
    code = ("import repro.cli\n"
            "status = repro.cli.main(['run', '--workload', 'LU', "
            "'--scale', '0.05', '--no-cache', '--jobs', '1'])\n"
            "assert status == 0, status")
    assert loaded_after(code, POOL_ONLY) == []
