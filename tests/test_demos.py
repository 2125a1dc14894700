"""Every script in ``demos/`` runs to completion against the package."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    # in-process: a subprocess per demo pays the package import again
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
