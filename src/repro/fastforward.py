"""Quiescence fast-forward: the process-wide enable flag.

The fast-forward layer (PR 9) lets hot paths replace fine-grained
stepping with analytically equivalent shortcuts — inline Compute/Critical
dispatch in :mod:`repro.guest.kernel`, quiescent credit-tick early-outs
in :mod:`repro.vmm.scheduler_base`, batched workload RNG draws — all of
which are **bit-identical by construction**: every logical event still
fires at the same cycle with the same sequence number, so figure
fingerprints, golden traces and the conformance corpus digest cannot
move.  See ``docs/perf.md`` for the quiescence model and the proof
obligations each shortcut carries.

Because "bit-identical" is a claim that needs a lever to test, the layer
is switchable:

* ``REPRO_NO_FASTFORWARD=1`` (environment) disables every shortcut and
  restores the original step-wise paths — the escape hatch for
  debugging a suspected fingerprint divergence;
* :func:`set_fastforward` overrides the environment for this process
  (used by the parity tests, which run every scenario both ways and
  assert identical fingerprints).

The flag is sampled when simulation objects are *constructed* (kernels
and schedulers cache it), so flip it before building a testbed, not
mid-run.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["fastforward_enabled", "set_fastforward"]

# The escape hatch is sampled ONCE at import time: it selects behaviour
# for the whole process, like the rest of the host-side configuration
# this module sits beside (``repro.config``), so simulation code only
# ever reads the resulting flag.  Runtime flips go through
# :func:`set_fastforward`.
_ENV_DISABLED = os.environ.get("REPRO_NO_FASTFORWARD", "").strip().lower() \
    in ("1", "true", "yes", "on")

#: Process-wide override (None = defer to the environment default).
_FASTFORWARD_OVERRIDE: Optional[bool] = None


def set_fastforward(enabled: Optional[bool]) -> None:
    """Force the fast-forward layer on/off for this process (None resets
    to the environment default)."""
    global _FASTFORWARD_OVERRIDE
    _FASTFORWARD_OVERRIDE = enabled


def fastforward_enabled() -> bool:
    """Should newly built simulation objects use the fast-forward paths?

    Priority: :func:`set_fastforward` override, then the
    ``REPRO_NO_FASTFORWARD`` environment variable sampled at process
    start (``1``/``true``/``yes``/``on`` *disable*; fast-forward is on
    by default).
    """
    if _FASTFORWARD_OVERRIDE is not None:
        return _FASTFORWARD_OVERRIDE
    return not _ENV_DISABLED
