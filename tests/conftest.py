import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def traced_peak():
    """peak(fn): the peak bytes that tracemalloc sees while fn() runs."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


# the process's own peak resident set size, in bytes.  On Linux it is VmHWM:
# ru_maxrss also carries the peak of the process that spawned this one across
# exec, so under a test session larger than the snippet it hides the growth
PEAK_RSS = """
import resource, sys
def peak_rss():
    if sys.platform.startswith("linux"):
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS
"""


@pytest.fixture
def rss_growth():
    """growth(snippet): the bytes by which running `snippet` raises peak RSS.

    The snippet runs in a fresh `python -c` with one BLAS thread, after
    `import numpy as np` and `import covnet`; the growth is the peak resident
    set size after it less the peak after those imports.  Unlike tracemalloc
    it counts what native code allocates, such as LAPACK's working copies.
    """

    def growth(snippet: str) -> int:
        code = "\n".join(
            [
                PEAK_RSS,
                "import numpy as np",
                "import covnet",
                "base = peak_rss()",
                snippet,
                "print(peak_rss() - base)",
            ]
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return int(out.stdout.split()[-1])

    return growth
