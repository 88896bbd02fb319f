"""The CLI runs without scipy until a mixture cdf needs it.

``import psl.cli`` loads numpy only: the beta = 1 Gaussian absolute
moment behind every mixture CRPS and energy score uses the C library's
erf (``distributions.erf``), checked here against mpmath at 50 digits.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl.distributions import erf

SRC = str(Path(__file__).resolve().parent.parent / "src")

LOADED_SCIPY = """
import sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules_after(code: str) -> list:
    """The scipy modules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", "import json\n" + code + LOADED_SCIPY],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_parser_load_no_scipy():
    assert _scipy_modules_after(
        "import psl.cli\npsl.cli.build_parser()\n") == []


MIXTURE = {"type": "gaussian_mixture",
           "components": [{"w": 0.3, "mu": -1.0, "sigma": 0.5},
                          {"w": 0.7, "mu": 1.0, "sigma": 2.0}]}
HISTOGRAM = {"type": "piecewise_uniform", "breaks": [-3.0, 0.0, 1.0, 4.0],
             "masses": [0.25, 0.5, 0.25]}


@pytest.mark.parametrize("argv", [
    ["check-proper", "--family", "crps", "--pairs", "5"],
    ["find-witness", "--family", "crps", "--ratio", "2"],
    ["archive-eval", "--archive", "{archive}",
     "--families", "ignorance,crps,power"],
], ids=["check-proper", "find-witness", "archive-eval"])
def test_closed_form_commands_load_no_scipy(argv, tmp_path):
    archive = tmp_path / "archive.jsonl"
    archive.write_text("\n".join(
        json.dumps({"forecasts": {"mix": MIXTURE, "hist": HISTOGRAM},
                    "outcome": y}) for y in (-0.4, 0.5, 2.5)))
    argv = [a.format(archive=archive) for a in argv]
    code = ("import contextlib, io, psl.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert psl.cli.main({argv!r}) == 0\n")
    assert _scipy_modules_after(code) == []


def _ulps_from_exact(x: float, got: float) -> float:
    """|got - erf(x)| in units of the last place of the correctly rounded
    erf(x), from mpmath at 50 digits."""
    with mpmath.workdps(50):
        exact = float(mpmath.erf(mpmath.mpf(x)))
    if got == exact:
        return 0.0
    return abs(got - exact) / math.ulp(exact)


def test_erf_within_one_ulp_on_a_dense_grid():
    xs = np.linspace(-7.0, 7.0, 14_001)
    got = erf(xs)
    assert max(_ulps_from_exact(x, g)
               for x, g in zip(xs.tolist(), got.tolist())) <= 1.0


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_erf_within_one_ulp_on_any_float(x):
    assert _ulps_from_exact(x, float(erf(np.array([x]))[0])) <= 1.0


def test_erf_special_values():
    tiny = 5e-324
    xs = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200,
                   tiny, -tiny, 1e-310, 2.2e-308])
    got = erf(xs)
    assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0
    assert got[1] == 0.0 and math.copysign(1.0, got[1]) == -1.0
    assert got[2:4].tolist() == [1.0, -1.0]
    assert math.isnan(got[4])
    assert got[5:7].tolist() == [1.0, -1.0]
    for x, g in zip(xs[7:].tolist(), got[7:].tolist()):
        assert _ulps_from_exact(x, g) <= 1.0


@pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
def test_erf_keeps_the_shape(shape):
    xs = np.linspace(-3.0, 3.0, int(np.prod(shape))).reshape(shape)
    got = erf(xs)
    assert isinstance(got, np.ndarray)
    assert got.shape == shape and got.dtype == np.float64
    assert got.ravel().tolist() == [math.erf(x) for x in xs.ravel().tolist()]
