"""Experiment drivers reproducing the paper's evaluation (Section 5).

:mod:`repro.experiments.setup` builds the paper's testbed (8 PCPUs, Xen
credit timing, Domain-0); :mod:`repro.experiments.runner` runs single-VM
and multi-VM scenarios; ``figures.py`` contains one driver per figure of
the paper.  The ``benchmarks/`` tree calls into these drivers and prints
the series each figure plots.
"""

from repro.experiments.setup import Testbed, weight_for_rate, make_scheduler
from repro.experiments.runner import (
    SingleVmResult, MultiVmResult, SpecJbbResult, run_single_vm,
    run_multi_vm, run_specjbb, PAPER_RATES,
)
from repro.experiments.sweeps import Sweep, SweepResult
from repro.experiments.calibration import CalibrationReport, calibrate
from repro.experiments.robustness import (FAULT_CLASSES, RobustnessResult,
                                          robustness_report)

__all__ = [
    "Testbed", "weight_for_rate", "make_scheduler",
    "SingleVmResult", "MultiVmResult", "SpecJbbResult",
    "run_single_vm", "run_multi_vm", "run_specjbb",
    "PAPER_RATES",
    "Sweep", "SweepResult", "CalibrationReport", "calibrate",
    "FAULT_CLASSES", "RobustnessResult", "robustness_report",
]
