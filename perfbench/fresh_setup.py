"""One set-up as every CLI invocation pays it, in a fresh interpreter.

Imports ``repro.cli`` and builds the workload's inputs: the commands of
one pass, each parsed by the CLI's own argument parser.  The benchmark
times this script from process start to exit.

Usage (from the repository root)::

    python3 perfbench/fresh_setup.py --workload figures --seed 1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import repro.cli
    from workloads import commands

    cli_parser = repro.cli.build_parser()
    for command in commands(args.workload, args.seed,
                            cache_dir="cache-not-created"):
        cli_parser.parse_args(list(command.argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
