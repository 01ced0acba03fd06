"""Every demo script runs to the end with its pinned stdout; demo 03 reports no
oracle mismatch."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# sha256 of each demo's stdout, recorded from the implementation that checked
# real arguments by hand, before errors._real and _reals
DEMO_STDOUT_SHA256 = {
    "01_joint_and_conditional_laws": "24abebeb465abc03b5c2a0f18309ee65e5938f43616b9349a4ef2eeb4e3ed71b",
    "02_window_conditioning_and_exact_time": "2d3785a0bd5240493f610b3c3a88cd92e89f0d99e5270ac5b4af2ff22dd2f76a",
    "03_inspection_counts": "79824e9dc644a499432783d495f2665537d5e2176d525acc041293f1e6b0025b",
    "04_mean_residual_life": "69649b943580462ba0e6d8c535592d4571f054c7f43a322cb237657be746f3af",
    "05_monte_carlo_verification": "0735fcca0239914f0ecedaa2f6f756455709ae83102ef7ba4c163442e062f5c4",
}


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.name.startswith("03_"):
        assert "ok" in out and "MISMATCH" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_STDOUT_SHA256[path.stem]
