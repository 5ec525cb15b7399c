"""perfbench: the repository benchmark.

Runs one workload (see ``workloads.py`` and ``README.md``) the way users
run it, through the CLI's own commands with its default supervision
policy, one command awaited before the next starts.  Run from the
repository root::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats passes for ``--seconds`` and reports the
end-to-end metrics: medians over passes, in host seconds scaled to a
reference host speed by probes between commands (``speed.py``) where
the workload runs on one CPU, with the host seconds printed beside
them, and times fresh-interpreter set-ups between the passes.
``--trace 1`` runs an untraced pass and a traced pass, reports the per-layer metrics, the traced pass's
self-time coverage of its wall time and the tracing overhead, and writes
the spans under ``.perfbench-out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Every pass checks its outputs: exit status, pinned or repeated
fingerprints, zero oracle violations, zero supervision failures, the
expected cache traffic, and that no worker process outlives the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from summary import median, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: Environment the program reads that would change what a pass does;
#: the benchmark pins jobs and cache directory on the command line.
PINNED_ENV = ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_SANITIZE",
              "REPRO_NO_FASTFORWARD")

#: Fresh-interpreter set-ups per untraced run, spread between its
#: passes; ``setup_s`` is their median.
SETUP_RUNS = 11
#: Bounded wait for worker processes after each command.
REAP_TIMEOUT_S = 10.0
#: No pass starts once this much measuring time has passed, whatever
#: ``--seconds`` says, so a run ends well inside 180 seconds.
MEASURE_CAP_S = 110.0
#: A speed probe runs once this many host seconds of commands have run
#: since the last one (so after every command of the longer workloads).
PROBE_EVERY_S = 2.5

TMP_DIR = ".perfbench-tmp"
OUT_DIR = ".perfbench-out"

_FINGERPRINT = re.compile(r"^fingerprint: ([0-9a-f]{16})$", re.M)
_VIOLATIONS = re.compile(r"^(\d+) violation\(s\):$", re.M)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def cpu_seconds() -> float:
    """Host CPU time of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Pass:
    """One pass of a workload: its timings and the failures it found."""

    label: str
    #: Position in ``Bench.passes``; the key of its ``SpeedScale`` sample.
    index: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    children_left: int = 0
    reap_s: float = 0.0
    reports: List[object] = field(default_factory=list)
    stats: Optional[Dict[str, object]] = None
    counts: Optional[Dict[str, int]] = None
    tracer: Optional[object] = None


class Bench:
    """Runs passes of one workload in this process and checks them."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        from repro.parallel import supervisor
        from spans import Patcher
        from workloads import pinned_fingerprints

        self.root = root
        self.workload = workload
        self.seed = seed
        #: command key -> fingerprint every pass must print.
        self.expected: Dict[str, str] = pinned_fingerprints(seed)
        self.tmp = root / TMP_DIR
        self.tmp.mkdir(exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                             dir=self.tmp))
        self.warm_cache: Optional[str] = None
        self.passes: List[Pass] = []
        self.extra_problems: List[str] = []
        # Every supervised batch's report, so cells attempted and failed
        # are counted in untraced passes too (a list append per batch).
        self.reports: List[object] = []
        self._patcher = Patcher()
        run_supervised = supervisor.run_supervised

        def collect(*args, **kwargs):
            results = run_supervised(*args, **kwargs)
            self.reports.append(results.supervisor)
            return results

        self._patcher.everywhere("repro", run_supervised, collect)

    # -- passes ---------------------------------------------------------- #
    def fresh_cache(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.run_dir)

    def commands(self, jobs: Optional[str] = None):
        """This pass's commands, and the fresh cache it alone uses."""
        from workloads import commands
        if self.workload == "figures":
            return commands("figures", self.seed), None
        if self.workload == "batch_warm":
            return commands("batch_warm", self.seed, self.warm_cache), None
        cache = self.fresh_cache()
        return commands("batch_cold", self.seed, cache, jobs=jobs), cache

    def fill_warm_cache(self) -> None:
        """Set-up of ``batch_warm``: one checked cold pass into the
        cache every warm pass then reads."""
        from workloads import commands
        self.warm_cache = self.fresh_cache()
        self.run_pass("fill", commands("batch_cold", self.seed,
                                       self.warm_cache), expect="cold")

    def one_pass(self, label: str, tracer=None, jobs: Optional[str] = None,
                 speed=None) -> Pass:
        cmds, cache = self.commands(jobs)
        expect = {"figures": "uncached", "batch_cold": "cold",
                  "batch_warm": "warm"}[self.workload]
        result = self.run_pass(label, cmds, expect, tracer, speed)
        if cache is not None:
            shutil.rmtree(cache)
        return result

    def run_pass(self, label: str, cmds, expect: str, tracer=None,
                 speed=None) -> Pass:
        """Run ``cmds`` in order and check their outputs.

        Each command is timed as one segment, reaping its workers
        included.  With ``speed`` (a ``SpeedScale``) each
        segment is reported to it, and any probe it takes falls between
        segments, outside the pass's time.
        """
        from repro import cli
        from layers import ROOT
        from reaper import reap_children

        result = Pass(label, len(self.passes))
        first_report = len(self.reports)
        outputs: List[Tuple[object, Optional[int], str]] = []
        root_span = (lambda: tracer.span(ROOT)) if tracer is not None \
            else contextlib.nullcontext
        reap_span = (lambda: tracer.span("parallel.reap")) \
            if tracer is not None else contextlib.nullcontext
        for cmd in cmds:
            t0 = time.perf_counter()
            c0 = cpu_seconds()
            out, err = io.StringIO(), io.StringIO()
            status: Optional[int] = None
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err), root_span():
                    status = cli.main(list(cmd.argv))
            except Exception:  # a raising command is a failed operation
                result.problems.append(
                    f"{cmd.key}: raised\n{traceback.format_exc()}")
            # A CLI process waits for its workers at exit, and their CPU
            # time is only counted once they are reaped, so each command's
            # segment ends with reaping them.
            with reap_span():
                _ended, left, reap_s = reap_children(REAP_TIMEOUT_S)
            result.reap_s += reap_s
            result.children_left += left
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            result.wall_s += wall
            result.cpu_s += cpu
            outputs.append((cmd, status, out.getvalue() + err.getvalue()))
            if speed is not None:
                speed.segment(result.index, (wall, cpu))
        result.reports = self.reports[first_report:]
        result.problems += ["worker process alive after reaping"] \
            * result.children_left
        for cmd, status, text in outputs:
            self._check_command(cmd, status, text, result)
        self._check_reports(result, expect)
        self.passes.append(result)
        return result

    def _check_command(self, cmd, status, text: str, result: Pass) -> None:
        if status is None:
            return  # raised: already counted
        if status != 0:
            result.problems.append(f"{cmd.key}: exit status {status}: "
                                   + text.strip()[-400:])
        prints = _FINGERPRINT.findall(text)
        if len(prints) != 1:
            result.problems.append(f"{cmd.key}: expected one fingerprint "
                                   f"line, got {len(prints)}")
        else:
            want = self.expected.setdefault(cmd.key, prints[0])
            if prints[0] != want:
                result.problems.append(f"{cmd.key}: fingerprint "
                                       f"{prints[0]} != {want}")
        if cmd.key == "corpus":
            bad = _VIOLATIONS.search(text)
            if bad:
                result.problems += ["corpus: oracle violation"] * int(
                    bad.group(1))
            elif "all invariants held" not in text:
                result.problems.append("corpus: no oracle verdict printed")

    def _check_reports(self, result: Pass, expect: str) -> None:
        for report in result.reports:
            result.attempted += report.total
            for failure in report.failures:
                result.problems.append(
                    f"cell failure ({failure.kind}): {failure.key}")
            # A retried cell raised or timed out before it succeeded.
            result.problems += ["cell retried"] * report.retried
            if expect == "cold" and report.cached:
                result.problems.append(
                    f"{report.cached} cache hit(s) in a fresh cache")
            if expect == "warm" and report.cached != report.total:
                result.problems += ["cache miss in a filled cache"] * (
                    report.total - report.cached)
        if not result.reports:
            result.problems.append("no supervised batch ran")

    # -- teardown -------------------------------------------------------- #
    def close(self) -> None:
        """Stop every process this run started and remove its caches."""
        from reaper import live_children, reap_children, \
            stop_resource_tracker
        self._patcher.restore()
        _joined, left, _s = reap_children(REAP_TIMEOUT_S)
        stop_resource_tracker()
        for pid in live_children():
            left += 1
            with contextlib.suppress(OSError):
                os.kill(pid, 15)
                os.waitpid(pid, 0)
        if left:
            self.extra_problems += ["process alive at exit"] * left
        shutil.rmtree(self.run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp.rmdir()  # only when no other run is using it
        if self.run_dir.exists():
            self.extra_problems.append(f"could not remove {self.run_dir}")

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def problems(self) -> List[str]:
        return [q for p in self.passes for q in p.problems] \
            + self.extra_problems


# --------------------------------------------------------------------- #
class SetupTimer:
    """Fresh-interpreter set-ups (see fresh_setup.py), each timed
    between two import probes and scaled by their mean
    (``speed.import_probe``)."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        from speed import import_probe
        self.root = root
        self.argv = [sys.executable, str(HERE / "fresh_setup.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.host: List[float] = []
        self.scaled: List[float] = []
        self.problems: List[str] = []
        # Untimed warm-ups: bytecode of the program's modules is written
        # by this import, and the first fresh interpreter reads cold files.
        import repro.cli  # noqa: F401
        import_probe()

    def sample(self) -> None:
        from speed import IMPORT_REFERENCE_S, import_probe
        before = import_probe()
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=self.root, capture_output=True,
                              text=True, timeout=120)
        seconds = time.perf_counter() - t0
        after = import_probe()
        self.host.append(seconds)
        self.scaled.append(seconds * IMPORT_REFERENCE_S * 2.0
                           / (before + after))
        if proc.returncode != 0:
            self.problems.append(f"setup run exit {proc.returncode}: "
                                 + proc.stderr.strip()[-400:])


def run_untraced(bench: Bench, seconds: float) -> Dict[str, Tuple[float, str]]:
    """Timed passes, scaled by speed probes between commands (speed.py)
    where the workload runs on one CPU, with set-ups spread between
    them.  ``seconds`` counts pass time, not set-up time."""
    from speed import SpeedScale
    from workloads import ONE_CPU

    speed = SpeedScale(PROBE_EVERY_S)
    setup = SetupTimer(bench.root, bench.workload, bench.seed)
    setup.sample()
    if bench.workload == "batch_warm":
        bench.fill_warm_cache()
        speed.restart()
    scaled = bench.workload in ONE_CPU
    start = time.monotonic()
    in_setup = 0.0
    timed: List[Pass] = []
    while True:
        timed.append(bench.one_pass(f"pass{len(timed)}",
                                    speed=speed if scaled else None))
        elapsed = time.monotonic() - start - in_setup
        t0 = time.monotonic()
        while len(setup.host) < 1 + (SETUP_RUNS - 1) * min(
                1.0, elapsed / seconds):
            setup.sample()
        in_setup += time.monotonic() - t0
        if elapsed >= seconds or elapsed + timed[-1].wall_s > MEASURE_CAP_S:
            break
    while len(setup.host) < SETUP_RUNS:
        setup.sample()
    speed.flush()
    bench.extra_problems += setup.problems
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host = {"wall_s": [p.wall_s for p in timed],
            "cpu_s": [p.cpu_s for p in timed], "setup_s": setup.host}
    samples = dict(host)
    if scaled:
        samples["wall_s"] = [speed.scaled[p.index][0] for p in timed]
        samples["cpu_s"] = [speed.scaled[p.index][1] for p in timed]
    samples["setup_s"] = setup.scaled
    _print_timings(bench, samples, host, speed.probes)
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MB (main process)")
    out = {name: (median(values), "s") for name, values in samples.items()}
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def _print_timings(bench: Bench, samples, host, probes) -> None:
    from speed import IMPORT_REFERENCE_S, REFERENCE_S
    print(f"{len(samples['wall_s'])} pass(es) of {bench.workload}, seed "
          f"{bench.seed}; {len(probes)} speed probes: median "
          f"{median(probes):.3f} s, range {min(probes):.3f}-"
          f"{max(probes):.3f} s; host s in brackets")
    for name, values in samples.items():
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]:.1f} {tail[1]:.4f}" if tail else
                     "no tail percentile (needs >= 11 samples)")
        if values is host[name]:
            kind = "host s"
        elif name == "setup_s":
            kind = (f"s at reference import speed (import probe = "
                    f"{IMPORT_REFERENCE_S:g} s)")
        else:
            kind = f"s at reference speed (probe = {REFERENCE_S:g} s)"
        print(f"  {name:<8} median {median(values):.4f} "
              f"[{median(host[name]):.4f}] {kind}, {tail_text}, "
              f"{len(values)} samples")


def run_traced(bench: Bench) -> Dict[str, Tuple[float, str]]:
    from layers import INVARIANTS, PER_LAYER_METRICS, SIM_SIDE, \
        layer_metrics
    from speed import SpeedScale
    from workloads import ONE_CPU

    if bench.workload == "batch_warm":
        bench.fill_warm_cache()
    # The workload as defined, untraced then traced, timed like the
    # untraced run's passes (scaled on one-CPU workloads), so that their
    # difference is the tracing overhead rather than host drift.
    speed = SpeedScale(PROBE_EVERY_S) if bench.workload in ONE_CPU \
        else None
    reference = bench.one_pass("untraced", speed=speed)
    main = _traced_pass(bench, "traced", speed=speed)
    if speed is not None:
        speed.flush()
        untraced_s = speed.scaled[reference.index][0]
        traced_s = speed.scaled[main.index][0]
    else:
        untraced_s, traced_s = reference.wall_s, main.wall_s
    reported = [main]
    sim_side = main
    if bench.workload == "batch_cold":
        # Wrappers do not reach spawned workers: the simulator layers of
        # this workload are measured on a --jobs 1 pass.
        sim_side = _traced_pass(bench, "traced-jobs1", jobs="1")
        reported.append(sim_side)
    values = layer_metrics(main.stats, main.counts)
    for key, value in layer_metrics(sim_side.stats, sim_side.counts).items():
        if key.split(".")[0] in SIM_SIDE:
            values[key] = value
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    values.update({
        "parallel.cells": sum(r.total for r in main.reports),
        "parallel.cells_executed": sum(r.executed for r in main.reports),
        "parallel.cells_cached": sum(r.cached for r in main.reports),
        "parallel.retries": sum(r.retried for r in main.reports),
        "parallel.failures": sum(len(r.failures) for r in main.reports),
        "parallel.children_left": sum(p.children_left for p in bench.passes),
        "parallel.reap_s": main.reap_s,
        "parallel.worker_peak_rss_mb": kids,
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    for p in reported:
        coverage, unattributed = _print_coverage(p)
        if coverage < COVERAGE_FLOOR:
            p.problems.append(f"{p.label}: layer self times cover "
                              f"{coverage:.1%} of wall, under "
                              f"{COVERAGE_FLOOR:.0%}")
        if p is main:
            values["trace.coverage"] = coverage
            values["trace.unattributed_s"] = unattributed
    print(f"tracing overhead ({bench.workload}, timed as wall_s): "
          f"traced {traced_s:.3f} - untraced {untraced_s:.3f} = "
          f"{traced_s - untraced_s:+.3f} s (host s: {main.wall_s:.3f} - "
          f"{reference.wall_s:.3f})")
    for p in reported:  # spans stay in memory until the run is done
        path = p.tracer.write(bench.root / OUT_DIR / (
            f"spans-{bench.workload}-seed{bench.seed}-{p.label}.jsonl.gz"))
        print(f"{p.label}: {len(p.tracer)} spans written to "
              f"{path.relative_to(bench.root)}")
    units = dict(PER_LAYER_METRICS)
    print("per-layer metrics:")
    for name, unit in PER_LAYER_METRICS:
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    print("invariants (0 on a correct run; counted as failed operations):")
    for name, unit in INVARIANTS:
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    return {name: (float(values[name]), units[name]) for name, _ in
            PER_LAYER_METRICS}


def _traced_pass(bench: Bench, label: str, jobs: Optional[str] = None,
                 speed=None) -> Pass:
    from layers import Instrumentation
    from spans import Tracer, aggregate

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        result = bench.one_pass(label, tracer, jobs=jobs, speed=speed)
    finally:
        instrumentation.remove()
    result.stats = aggregate(tracer)
    result.counts = dict(instrumentation.counts)
    result.tracer = tracer
    return result


#: Layer self times must sum to at least this share of a traced pass's
#: wall time; less means some work runs in no layer span, and the run
#: fails.
COVERAGE_FLOOR = 0.95


def _print_coverage(p: Pass) -> Tuple[float, float]:
    from layers import BENCH, ROOT, layer_self_seconds
    own = layer_self_seconds(p.stats)
    attributed = sum(v for k, v in own.items() if k != ROOT)
    coverage = attributed / p.wall_s
    bench_s = p.stats[BENCH].self_ns / 1e9 if BENCH in p.stats else 0.0
    print(f"{p.label}: wall {p.wall_s:.3f} s; layer self times "
          f"sum to {attributed:.3f} s = {coverage:.1%} of wall "
          f"({'ok' if coverage >= COVERAGE_FLOOR else 'BELOW'} "
          f"{COVERAGE_FLOOR:.0%}); unattributed {own[ROOT]:.3f} s, "
          f"benchmark bookkeeping {bench_s:.3f} s")
    for layer, seconds in own.items():
        print(f"    {layer:<12} {seconds:9.3f} s {seconds / p.wall_s:7.1%}")
    return coverage, own[ROOT]


# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: src/repro/cli.py not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    cleared = sorted(k for k in PINNED_ENV if os.environ.pop(k, None)
                     is not None)
    sys.path.insert(0, str(root / "src"))
    from repro.perf.harness import run_config
    config = run_config()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"run_config={config} cleared_env={cleared or 'none'}")
    if config != {"sanitize": False, "fastforward": True}:
        print(f"perfbench: refusing to run with {config}; the benchmark "
              f"needs sanitize off and fast-forward on", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics = run_traced(bench)
        else:
            metrics = run_untraced(bench, args.seconds)
    finally:
        bench.close()
    problems = bench.problems
    attempted = max(1, bench.attempted)
    print(f"fail_ratio {len(problems) / attempted:.6f} = {len(problems)} "
          f"failed operation(s) / {attempted} attempted cell(s) over "
          f"{len(bench.passes)} pass(es)")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    doc = {"correct": not problems, "attempted": attempted,
           "failed": len(problems),
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    print(json.dumps(doc))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
