"""``python -m repro`` entry point.

Exit codes (also in ``repro --help``): 0 success; 1 run failure
(violations, regressions, drift); 2 usage/configuration error; 3
:class:`~repro.errors.ExecutionError` (supervised cells failed); 4
:class:`~repro.errors.CellTimeoutError` (wall-clock budgets exceeded);
5 :class:`~repro.errors.CacheIntegrityError` (cache checksum
verification failed); 141 stdout closed early.  The mapping lives in
:func:`repro.cli.main`.
"""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
