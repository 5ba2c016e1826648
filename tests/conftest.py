import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def second_moment(xi):
    """Xi^T Xi / N, the PSD Lambda that `fit` freezes from its coefficients Xi (N x R)."""
    return xi.T @ xi / len(xi)


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


def run_fresh(code: str) -> str:
    """Stdout of `code` run in a fresh `python -c` with one BLAS thread.

    covnet is imported from this checkout's src; the process fails the
    calling test if it exits nonzero.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


@pytest.fixture
def fresh_python():
    """run(code): the stdout of `code` in a fresh process (see run_fresh)."""
    return run_fresh


@pytest.fixture
def rss_growth():
    """growth(snippet, imports=""): the bytes by which `snippet` raises peak RSS.

    The snippet runs in a fresh `python -c` with one BLAS thread, after
    `import numpy as np`, `import covnet` and `imports`; the growth is the
    peak resident set size after it less the peak after those imports.
    Unlike tracemalloc it counts what native code allocates, such as
    LAPACK's working copies.
    """

    def growth(snippet: str, imports: str = "") -> int:
        code = "\n".join(
            [
                PEAK_RSS,
                "import numpy as np",
                "import covnet",
                imports,
                "base = peak_rss()",
                snippet,
                "print(peak_rss() - base)",
            ]
        )
        return int(run_fresh(code).split()[-1])

    return growth
