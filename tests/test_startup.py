"""Package start-up: ``import algmech`` loads numpy's OpenBLAS with one
thread unless the caller chose a thread count, and leaves the environment
as it found it.

Each case starts a fresh interpreter, since OpenBLAS reads its thread count
once, when it loads.  The pool size is read from numpy's bundled OpenBLAS;
the tests skip where numpy bundles none."""

import ctypes
import glob
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SYMBOL = "scipy_openblas_get_num_threads64_"

# prints the pool size and OPENBLAS_NUM_THREADS after running argv[1]
PROBE = f"""
import ctypes, glob, json, os, sys
exec(sys.argv[1])
import numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
pool = getattr(ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas*"))[0]), "{SYMBOL}")
pool.argtypes, pool.restype = [], ctypes.c_int
print(json.dumps([pool(), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def _bundled_openblas() -> bool:
    """Whether numpy bundles an OpenBLAS that reports its pool size."""
    spec = importlib.util.find_spec("numpy")
    libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas*"))
    return bool(found) and hasattr(ctypes.CDLL(found[0]), SYMBOL)


pytestmark = pytest.mark.skipif(
    not _bundled_openblas(), reason=f"numpy bundles no OpenBLAS with {SYMBOL}"
)


def _start(code: str, **env: str) -> tuple[int, str | None]:
    """(pool size, OPENBLAS_NUM_THREADS) in a fresh interpreter that runs
    ``code``, with no thread variable set but those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, code],
        env={**base, "PYTHONPATH": str(SRC), **env},
        capture_output=True, text=True, check=True,
    ).stdout
    return tuple(json.loads(out.splitlines()[-1]))


def test_import_starts_one_thread_and_restores_the_environment():
    assert _start("import algmech") == (1, None)


def test_a_preset_openblas_variable_wins_and_stays():
    assert _start("import algmech", OPENBLAS_NUM_THREADS="2") == (2, "2")


def test_a_preset_omp_variable_wins():
    assert _start("import algmech", OMP_NUM_THREADS="2") == (2, None)


def test_numpy_imported_first_keeps_its_pool():
    assert _start("import numpy; import algmech") == _start("import numpy")
