import contextlib
import importlib
import io
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ordstat

# the command-line front end is not part of the library namespace
LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(ordstat.__path__) if info.name != "cli"
)


def test_every_public_name_is_listed_once_in_its_own_module():
    owners = {}
    for module_name in LIBRARY_MODULES:
        module = importlib.import_module(f"ordstat.{module_name}")
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    assert {name: len(mods) for name, mods in owners.items() if len(mods) > 1} == {}
    assert sorted(ordstat.__all__) == sorted(["__version__", *owners])
    for name, (module,) in owners.items():
        assert getattr(ordstat, name) is getattr(module, name)
    for name in ("LAWS", "first_observation_leq", "observation_leq", "order_stat_leq",
                 "order_stat_in_window"):
        assert name in ordstat.__all__


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from ordstat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ordstat.__all__)


def test_removed_aliases_are_gone():
    for name in ("Rational", "RngSeed"):
        assert not hasattr(ordstat, name)


# The suite itself imports numpy and scipy, so each check of what the package
# loads runs in a fresh interpreter, and its last stdout line is the answer.
SCIPY_LOADED = "\nimport sys; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
NUMPY_LOADED = "\nimport sys; print(any(m.split('.')[0] == 'numpy' for m in sys.modules))"


def fresh_interpreter(code: str) -> str:
    src = str(Path(ordstat.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.splitlines()[-1]


def test_import_loads_no_scipy():
    assert fresh_interpreter("import ordstat" + SCIPY_LOADED) == "False"


def test_inspection_and_simulation_commands_load_no_scipy():
    code = """
from ordstat.cli import main
assert main(["inspections", "--n", "12", "--r", "7", "--k", "2", "--expected"]) == 0
assert main(["simulate", "--target", "inspections", "--n", "12", "--r", "5", "--k", "3",
             "--model", "exp:1", "--reps", "200", "--seed", "1"]) == 0
"""
    assert fresh_interpreter(code + SCIPY_LOADED) == "False"


def test_oracles_load_no_scipy():
    code = """
from ordstat import Exponential, SystemConfig, exhaustive_inspection_pmf, mc_event_prob
from ordstat import first_observation_leq
cfg = SystemConfig(7, 3)
mc_event_prob(cfg, Exponential(1.0), first_observation_leq(1.0), 200, 1)
exhaustive_inspection_pmf(cfg, 2)
"""
    assert fresh_interpreter(code + SCIPY_LOADED) == "False"


def test_first_tail_loads_scipy_and_gives_its_bits():
    code = """
import sys
from ordstat import Exponential, SystemConfig, order_stat_cdf
value = order_stat_cdf(SystemConfig(40, 17), Exponential(1.0), 0.7)
assert "scipy.special" in sys.modules
from ordstat.special import _sp
assert "__getattr__" not in vars(_sp)  # retired, so later loads are plain ones
from scipy.special import betainc
print(value.hex() == float(betainc(17, 24.0, Exponential(1.0).cdf(0.7))).hex())
"""
    assert fresh_interpreter(code) == "True"


def test_import_loads_no_numpy():
    assert fresh_interpreter("import ordstat" + NUMPY_LOADED) == "False"


def test_inspection_commands_load_no_numpy():
    code = """
from ordstat.cli import main
assert main(["inspections", "--n", "12", "--r", "7", "--k", "2", "--expected"]) == 0
for fmt in ("csv", "json"):
    assert main(["inspections", "--n", "12", "--r", "5", "--k", "3", "--format", fmt]) == 0
"""
    assert fresh_interpreter(code + NUMPY_LOADED) == "False"


def test_exact_inspection_laws_load_no_numpy():
    code = """
from fractions import Fraction
from ordstat import (SystemConfig, exhaustive_inspection_pmf, expected_inspections,
                     inspection_pmf, lambda_coeff)
cfg = SystemConfig(12, 7)
pmf = inspection_pmf(cfg, 2)
assert pmf == exhaustive_inspection_pmf(cfg, 2)
assert expected_inspections(pmf) == Fraction(26, 7)
assert lambda_coeff(cfg, 2) == Fraction(6 * 5, 12 * 11)
"""
    assert fresh_interpreter(code + NUMPY_LOADED) == "False"


LAW_CALL = """
from ordstat import Exponential, SystemConfig, order_stat_cdf
order_stat_cdf(SystemConfig(40, 17), Exponential(1.0), 0.7)
"""


def test_first_law_call_loads_numpy_and_retires_the_hook():
    code = """
import sys
from ordstat import errors
assert "numpy" not in sys.modules and "__getattr__" in vars(errors.np)
""" + LAW_CALL + """
import numpy
assert "__getattr__" not in vars(errors.np)  # retired, so later loads are plain ones
print(errors.np.asarray is numpy.asarray)
"""
    assert fresh_interpreter(code) == "True"


MC_ESTIMATE = """
from ordstat import Exponential, SystemConfig, first_observation_leq, mc_event_prob, order_stat_leq
cfg = SystemConfig(7, 3)
est = mc_event_prob(cfg, Exponential(1.0), first_observation_leq(1.0), 5000, 11,
                    given=order_stat_leq(cfg, 1.5))
print(est.estimate.hex(), est.std_error.hex(), est.conditioned_fraction.hex())
"""


@pytest.mark.parametrize("first", ["", LAW_CALL], ids=["monte_carlo_first", "law_first"])
def test_monte_carlo_gives_its_bits_whatever_reads_numpy_first(first):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(MC_ESTIMATE, {})
    assert fresh_interpreter(first + MC_ESTIMATE) == out.getvalue().strip()
