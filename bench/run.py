"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the last output line
carries the end-to-end metrics, with ``--trace 1`` the per-layer metrics; see
``bench/README.md``.
"""

import os
import sys

# One BLAS thread.  On a shared 2-core virtual machine the cores are contended
# by the estimator's own thread pool and by other tenants, and OpenBLAS's
# spinning worker threads turned that into 3x slowdowns of d = 64 LAPACK calls
# in some runs.  Child processes inherit the setting; a value already set is kept, and
# the run record reports the value in effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
