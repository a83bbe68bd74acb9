"""Smoke tests: the experiment scripts run in-process and print their tables."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


def test_reproduce_tables_float64(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "reproduce_tables.py", "--mode", "float64")
    assert out.count("(float64) ==") == 3
    assert "| 3 | 3.06147 | 3.1416810168 | 3.1415926509 |" in out


def test_compare_algorithms(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "compare_algorithms.py")
    for family in ("archimedes_pi", "alt_harmonic", "zeta2"):
        assert f"== {family}: |T_k - S| vs |eps_2k - S| ==" in out
    assert out.count("| n | lbq_T0_err | eps_T0_err |") == 3
