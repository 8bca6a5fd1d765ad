"""Test-session set-up: single-threaded OpenBLAS, as in perfbench.

The oracle's banded Cholesky makes many small BLAS calls, which run
several times slower with OpenBLAS's default threading.  numpy is not yet
imported when pytest loads this file, so the setting takes effect; an
``OPENBLAS_NUM_THREADS`` already in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
