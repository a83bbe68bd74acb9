"""Tests of the benchmark itself: failed ops are counted, and its statistics.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from seqaccel import TransformEntry  # noqa: E402
from tracing import NullTracer, Tracer, self_times, summary  # noqa: E402
from loop import Loop  # noqa: E402
from speed import SpeedClock  # noqa: E402

SMALL = {
    "f64_linear": {"n": 60, "k": 6},
    "f64_valid": {"n": 60, "k": 6},
    "bigfloat_paper": {"n": 30, "k": 4},
    "rational_verify": {"count": 2},
}


def nudge_first_valid(table):
    key, entry = next((key, e) for key, e in table.entries.items() if e.ok)
    table.entries[key] = TransformEntry.valid(entry.value * (1 + 1e-6))


def corrupt_lattice(out):
    nudge_first_valid(out.tables[0])


def corrupt_text(out):
    key = next(iter(out.text[1]))
    out.text[1][key] += "0"


def corrupt_paper(out):
    code, text = out.printed[0]
    out.printed[0] = (code, text.replace("3.1415926536", "3.1415926516", 1))


def corrupt_bigfloat_lattice(out):
    nudge_first_valid(out.tables.tables[1])


def corrupt_route(out):
    k, n, value, det, ratio = out.routes[0]
    out.routes[0] = (k, n, value, det + 1, ratio)


def corrupt_residual(out):
    residuals = next(r for r in out.bilinear[0].residuals.values() if r)
    residuals[next(iter(residuals))] = 1


CORRUPTIONS = [
    ("f64_linear", corrupt_lattice),
    ("f64_linear", corrupt_text),
    ("f64_valid", corrupt_lattice),
    ("f64_valid", corrupt_text),
    ("bigfloat_paper", corrupt_paper),
    ("bigfloat_paper", corrupt_bigfloat_lattice),
    ("rational_verify", corrupt_route),
    ("rational_verify", corrupt_residual),
]


def make(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path, **SMALL[name])
    wl.setup()
    wl.prepare_reference()
    return wl


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_ops_pass(name, tmp_path):
    loop = Loop(make(name, tmp_path), SpeedClock())
    for i in range(2):
        _, out = loop.run(NullTracer(), i)
        assert out is not None
    assert (loop.attempted, loop.failed) == (2, 0), loop.errors


@pytest.mark.parametrize("name, corrupt", CORRUPTIONS,
                         ids=[f"{n}-{c.__name__}" for n, c in CORRUPTIONS])
def test_corrupted_output_is_a_failed_op(name, corrupt, tmp_path):
    wl = make(name, tmp_path)
    honest = wl.op

    def op(tr, i):
        out = honest(tr, i)
        corrupt(out)
        return out

    wl.op = op
    loop = Loop(wl, SpeedClock())
    _, out = loop.run(NullTracer(), 0)
    assert out is None
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "CheckFailed" in loop.errors[0]


def test_raising_op_is_a_failed_op(tmp_path):
    wl = make("rational_verify", tmp_path)

    def op(tr, i):
        raise ZeroDivisionError("injected")

    wl.op = op
    loop = Loop(wl, SpeedClock())
    loop.run(NullTracer(), 0)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90)
    value, pct = run.tail(samples[:20])
    assert (value, pct) == (10.0, 50)
    assert sum(s > value for s in samples[:20]) == 10
    assert run.tail(samples[:10]) == (10.0, 100)


def test_self_time_subtracts_children():
    spans = [["op", 0.0, 10.0, None, 1], ["a", 1.0, 4.0, 0, 1], ["b", 5.0, 6.0, 0, 1],
             ["c", 2.0, 3.0, 1, 1]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert summary(spans)["a"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}


def test_tracer_records_parent_and_op():
    tr = Tracer()
    tr.op_id = 3
    with tr.span("op"):
        with tr.span("lbq.transform"):
            pass
    (_, _, _, root_parent, op), (name, start, end, parent, _) = tr.spans
    assert (root_parent, op, name, parent) == (None, 3, "lbq.transform", 0)
    assert start <= end


def test_reference_lattice_matches_paper_pi_row():
    import math

    values = [2**n * math.sin(math.pi / 2**n) for n in range(1, 14)]
    cols = reference.lattice_columns(values, 1, 4, float, 1e-12)
    assert reference.within_last_digit(f"{cols[2][0]:.10f}", "3.1415812622")


def test_speed_clock_divides_each_stretch_by_its_probes():
    clock = SpeedClock()
    clock.starts, clock.ends = [0.0, 5.0, 10.0], [1.0, 6.0, 12.0]
    ref_s, wall_s = clock.measure(2.0, 9.0)
    # 3 s at 1 s a probe, then 3 s at 1.5 s a probe: 5 probes; the probe inside is not wall
    assert ref_s == pytest.approx(5 / 1000)
    assert wall_s == pytest.approx(6.0)
    with pytest.raises(ValueError):
        clock.measure(0.5, 4.0)  # starts inside a probe
    with pytest.raises(ValueError):
        clock.measure(7.0, 13.0)  # no probe after it


def test_probing_brackets_the_block_and_restores_the_handler():
    import signal
    import time

    clock = SpeedClock()
    before = signal.getsignal(signal.SIGALRM)
    with clock.probing(0.005):
        start = time.perf_counter()
        deadline = start + 0.05
        while time.perf_counter() < deadline:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.starts) > 3  # before, after and some during
    ref_s, wall_s = clock.measure(start, end)
    assert 0 < wall_s <= end - start and ref_s > 0
