"""Seeded simlint violation fixture.

This file is *parsed*, never imported: it deliberately breaks every
simlint rule so the checker's detection (and the CLI's non-zero exit)
can be asserted against a stable target.  Lint it with ``--assume-sim``
so the simulation-scoped rules apply despite the path.
"""

import random  # one wall of shame per rule below
import time


def wall_clock_leak():
    return time.perf_counter()


def random_leak():
    return random.randint(0, 7)


def nondet_iteration(items):
    out = []
    for x in {3, 1, 2}:
        out.append(x)
    pending = set(items)
    for p in pending:
        out.append(p)
    return out


def float_into_cycles(sim):
    sim.after(1.5, lambda: None)
    sim.every(100 / 3, lambda: None)


def silent_truncation(a, b):
    return int(a / b)


def mutable_default(acc=[]):
    acc.append(1)
    return acc


def swallows():
    try:
        return 1
    except:
        return 0


def no_waiver(sim):
    # Nothing waives a finding in place: this one is reported too.
    sim.after(2.5, lambda: None)


# Aliased RNG imports: renaming the module or the function must not
# defeat the rng-provenance rule.  (Imports live down here so the line
# numbers of the cases above stay put.)
import random as rnd
import numpy.random as npr
from random import random as _r


def aliased_random_leaks():
    a = rnd.gauss(0.0, 1.0)
    b = npr.random()
    c = _r()
    return a + b + c
