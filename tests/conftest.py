"""Pin BLAS to one thread for the whole suite.

Small eigensolves slow down badly when a multi-threaded BLAS competes for
the CPU with another process.  The variables take effect only if they are
set before numpy is first imported, which this conftest precedes; a value
already set in the environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
