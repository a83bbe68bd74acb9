"""Smoke tests: the scripts run in-process and print their tables and digests."""

import runpy
import sys
from pathlib import Path

import pytest

import seqaccel.cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    """Run a script as __main__; returns its exit status and captured output."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code, capsys.readouterr()


def run_ok(monkeypatch, capsys, name, *argv):
    code, out = run_script(monkeypatch, capsys, name, *argv)
    assert code == 0
    assert out.err == ""
    return out.out


def test_reproduce_tables_float64(monkeypatch, capsys):
    out = run_ok(monkeypatch, capsys, "reproduce_tables.py", "--mode", "float64")
    assert out.count("(float64) ==") == 3
    assert "| 3 | 3.06147 | 3.1416810168 | 3.1415926509 |" in out


@pytest.mark.parametrize("mode", ["bigfloat", "rational"])
def test_reproduce_tables_other_modes(monkeypatch, capsys, mode):
    out = run_ok(monkeypatch, capsys, "reproduce_tables.py", "--mode", mode)
    skipped = "== pi from doubling sines: skipped (irrational values) ==" in out
    assert skipped == (mode == "rational")
    assert out.count(f"({mode}) ==") == (2 if skipped else 3)


def test_compare_algorithms(monkeypatch, capsys):
    out = run_ok(monkeypatch, capsys, "compare_algorithms.py")
    for family in ("archimedes_pi", "alt_harmonic", "zeta2"):
        assert f"== {family}: |T_k - S| vs |eps_2k - S| ==" in out
    assert out.count("| n | lbq_T0_err | eps_T0_err |") == 3


def test_cell_digests_are_pinned(monkeypatch, capsys):
    # the digests of a tree whose cells are known good: any change to a cell's
    # key order, status, type or value in the corpus changes its case's line
    out = run_ok(monkeypatch, capsys, "cell_digest.py")
    pinned = (Path(__file__).resolve().parent / "cell_digests.txt").read_text()
    assert out.splitlines() == pinned.splitlines()


@pytest.mark.parametrize("name", ["reproduce_tables.py", "compare_algorithms.py"])
def test_failed_run_sets_exit_status(monkeypatch, capsys, name):
    monkeypatch.setattr(seqaccel.cli, "main", lambda argv: 1)
    code, _ = run_script(monkeypatch, capsys, name)
    assert code not in (0, None)
