"""The in-package standard normal CDF against scipy and the C library."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special
from hypothesis import given, settings, strategies as st

import summand_lab
from summand_lab.normal import ndtr, ndtr_scalar

NORMAL = settings(max_examples=200, deadline=None, derandomize=True, database=None)

#: 0, the far tails, and the subnormal range of Phi (x below -37.5)
CDF_POINTS = [0.0, -0.0, 1e-300, 2.5, -2.5, -8.3, 8.3, -37.5, 38.0, -38.4, -40.0, 40.0]

_x = st.floats(min_value=-40.0, max_value=40.0)


def _check_cdf(x):
    x = np.asarray(x, dtype=np.float64)
    libm = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in x.ravel()]).reshape(x.shape)
    ref = scipy.special.ndtr(x)
    got = ndtr(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - ref) <= 1e-15) and np.array_equal(got, libm)


def test_ndtr_at_zero_and_tails():
    _check_cdf(CDF_POINTS)
    for v in CDF_POINTS:
        _check_cdf(v)  # 0-d input keeps its shape
    _check_cdf(np.reshape(CDF_POINTS, (3, 4)))
    assert ndtr(0.0) == 0.5


@NORMAL
@given(st.lists(_x, min_size=1, max_size=40))
def test_ndtr_matches_scipy(xs):
    _check_cdf(xs)


@NORMAL
@given(_x)
def test_scalar_ndtr_matches_scipy(x):
    assert abs(ndtr_scalar(x) - float(scipy.special.ndtr(x))) <= 2.3e-16


def test_cli_import_loads_no_scipy():
    code = "import sys, summand_lab.cli; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    src = str(Path(summand_lab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
