"""Static and dynamic analysis tooling for the reproduction.

Two planes, both guarding the same contract (bit-identical determinism
and faithful scheduler mechanics):

* ``python -m repro lint`` — one static checker over one package root:
  the whole-program layer (:mod:`repro.analysis.engine` module indexing,
  :mod:`repro.analysis.callgraph`, :mod:`repro.analysis.taint` forward
  dataflow and the :mod:`repro.analysis.rules_interproc` wall-clock /
  RNG-provenance / cycle-unit rules, one per determinism contract),
  :mod:`repro.analysis.simlint`'s five AST rules.  Any finding fails
  it.  Import those modules directly; this package does not load them,
  so simulation processes never pay for the linter.
* :mod:`repro.analysis.sanitizer` — opt-in runtime invariant checker
  for the VMM scheduler (``--sanitize`` / ``REPRO_SANITIZE=1``), in the
  spirit of ThreadSanitizer: heavy checks after every scheduling
  decision, zero overhead when off.
* :mod:`repro.analysis.parity` — the table tying static rules to
  runtime checks so neither plane grows without the other noticing.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.analysis.sanitizer import (RUNTIME_CHECKS, SanitizerViolation,
                                      SchedulerSanitizer)

__all__ = [
    "RUNTIME_CHECKS",
    "SanitizerViolation",
    "SchedulerSanitizer",
    "sanitize_enabled",
    "set_sanitize",
]

#: Process-wide override set by the CLI's --sanitize flag (None = defer
#: to the REPRO_SANITIZE environment variable).
_SANITIZE_OVERRIDE: Optional[bool] = None


def set_sanitize(enabled: Optional[bool]) -> Optional[bool]:
    """Force sanitizer wiring on/off for this process (None resets to
    the environment default).  Returns the override it replaced, so a
    caller can restore it."""
    global _SANITIZE_OVERRIDE
    previous, _SANITIZE_OVERRIDE = _SANITIZE_OVERRIDE, enabled
    return previous


def sanitize_enabled() -> bool:
    """Should new testbeds attach a scheduler sanitizer?

    Priority: :func:`set_sanitize` override, then the ``REPRO_SANITIZE``
    environment variable (``1``/``true``/``yes``/``on`` enable).
    """
    if _SANITIZE_OVERRIDE is not None:
        return _SANITIZE_OVERRIDE
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on")
