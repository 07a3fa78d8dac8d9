"""Tests of the benchmark's statistics, tracing and output checks.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from harness import Span  # noqa: E402


# -- percentile rule -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(samples, 99) == 99
    assert harness.percentile(samples, 100) == 100
    assert harness.percentile([3.0], 99) == 3.0
    assert harness.percentile([5, 1, 4, 2, 3], 50) == 3


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 0)


@pytest.mark.parametrize(
    "n, q, resolved",
    [(1000, 99, True), (999, 99, False), (1010, 99, True), (12, 99, False),
     (20, 50, True), (19, 50, False), (100, 90, True), (99, 90, False)],
)
def test_tail_resolved_needs_ten_samples_beyond(n, q, resolved):
    assert harness.tail_resolved(n, q) is resolved
    beyond = sum(1 for x in range(1, n + 1) if x > harness.percentile(range(1, n + 1), q))
    assert (beyond >= harness.TAIL_SAMPLES) is resolved


# -- failed_frac -------------------------------------------------------------------


def test_failed_frac_counts_failures_per_attempt():
    assert harness.failed_frac(1000, 0) == 0.0
    assert harness.failed_frac(1000, 3) == 0.003
    assert harness.failed_frac(4, 4) == 1.0


@pytest.mark.parametrize("attempted, failed", [(0, 0), (5, 6), (5, -1)])
def test_failed_frac_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        harness.failed_frac(attempted, failed)


# -- self time on synthetic spans ----------------------------------------------------


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "r")


def test_self_time_subtracts_children():
    spans = [
        span("a.root", 0.0, 10.0),
        span("b.child", 1.0, 3.0, parent=0),
        span("b.child", 5.0, 6.0, parent=0),
        span("c.grandchild", 1.5, 2.0, parent=1),
    ]
    assert harness.self_times(spans) == pytest.approx([7.0, 1.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("a.root", 0.0, 10.0),
        span("b.x", 2.0, 6.0, parent=0),
        span("b.y", 4.0, 8.0, parent=0),
        span("b.z", 9.0, 12.0, parent=0),
    ]
    assert harness.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_busy_time_does_not_double_count_recursion():
    spans = [
        span("f.rec", 0.0, 4.0),
        span("g.other", 1.0, 3.0, parent=0),
        span("f.rec", 1.5, 2.5, parent=1),
        span("f.rec", 5.0, 6.0),
    ]
    assert harness.busy_time(spans, "f.rec") == pytest.approx(5.0)
    assert harness.busy_time(spans, "g.other") == pytest.approx(2.0)


def fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_tracer_links_spans_to_parents_and_requests():
    tr = harness.Tracer(clock=fake_clock())
    inner = tr.spanned("b.inner", lambda x: x + 1)
    outer = tr.spanned("a.outer", lambda x: inner(x) * 2,
                       on_result=lambda t, r: t.count("a.results", r))
    tr.request = "req-1"
    assert outer(1) == 4
    assert [s.name for s in tr.spans] == ["a.outer", "b.inner"]
    assert tr.spans[1].parent == 0 and tr.spans[0].parent is None
    assert {s.request for s in tr.spans} == {"req-1"}
    assert tr.counts == {"a.outer_calls": 1, "b.inner_calls": 1, "a.results": 4}
    by_layer = tr.self_time_by_layer(lambda name: name.split(".")[0])
    assert by_layer["a"] + by_layer["b"] == pytest.approx(tr.spans[0].end - tr.spans[0].start)


def test_generator_spans_cover_iteration_not_consumer():
    clock = fake_clock()
    tr = harness.Tracer(clock=clock)
    gen = tr.spanned_iteration("c.gen", lambda n: iter(range(n)), "c.yielded")
    # the consumer's clock() call is one tick of work per item outside the generator
    consumer = tr.spanned("a.consumer", lambda: [item for item in gen(3) if clock() >= 0])
    assert consumer() == [0, 1, 2]
    steps = [s for s in tr.spans if s.name == "c.gen"]
    assert len(steps) == 4  # three items and the final StopIteration
    assert all(s.parent == 0 for s in steps)
    assert harness.busy_time(tr.spans, "c.gen") == pytest.approx(4.0)
    own = harness.self_times(tr.spans)
    assert own[0] == pytest.approx(tr.spans[0].end - tr.spans[0].start - 4.0)
    assert tr.counts["c.yielded"] == 3
    assert tr.counts["c.gen_calls"] == 1


def test_unpatch_restores_originals():
    class Owner:
        @staticmethod
        def f():
            return "original"

    original = vars(Owner)["f"]
    tr = harness.Tracer()
    tr.patch(Owner, "f", staticmethod(tr.counted("owner.f_calls", Owner.f)))
    Owner.f()
    Owner().f()
    tr.unpatch_all()
    assert vars(Owner)["f"] is original
    assert Owner().f() == "original"
    assert tr.counts["owner.f_calls"] == 2


# -- reference clock -----------------------------------------------------------------


class ManualClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


def test_reference_clock_scales_wall_time_by_measured_speed():
    wall = ManualClock()

    def slow_loop():  # the host runs at half speed: the loop takes twice nominal
        wall.t += 0.002

    ref = harness.ReferenceClock(nominal=0.001, window=3, clock=wall, loop=slow_loop)
    ref.tick()
    t0 = ref.now()
    wall.t += 1.0
    assert ref.now() - t0 == pytest.approx(0.5)
    ref.tick()  # the loop's own time is not counted
    assert ref.now() - t0 == pytest.approx(0.5)
    assert ref.loop_times == pytest.approx([0.002, 0.002])


def test_reference_clock_uses_median_of_recent_ticks():
    wall = ManualClock()
    durations = iter([0.001, 0.001, 0.010, 0.004, 0.004, 0.004])

    def loop():
        wall.t += next(durations)

    ref = harness.ReferenceClock(nominal=0.002, window=3, clock=wall, loop=loop)
    for _ in range(3):
        ref.tick()  # median of 0.001, 0.001, 0.010: an outlier does not count
    t0 = ref.now()
    wall.t += 1.0
    assert ref.now() - t0 == pytest.approx(2.0)
    for _ in range(3):
        ref.tick()  # only the last three ticks: 0.004
    t1 = ref.now()
    wall.t += 1.0
    assert ref.now() - t1 == pytest.approx(0.5)


def test_reference_clock_ticks_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    ref = harness.ReferenceClock(nominal=0.001, interval=0.005, window=2)
    with ref.running():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(ref.loop_times) > 2 + 10
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- output checks -------------------------------------------------------------------

DIGEST_SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
import workloads as wl
prog = wl.load_program()
wb = prog.workbench.Workbench(prog.workbench.parse_config(
    (wl.ROOT / "configs" / "kpz.json").read_text()))
for i in range(len(wb.basis())):
    print(wl.digest(prog.workbench.report_emit(wb.cmd_renormalize(f"T{{i}}"))))
"""


def test_renormalize_digests_do_not_depend_on_hash_seed():
    import workloads as wl

    expected = wl.load_expected()
    script = DIGEST_SCRIPT.format(bench=str(BENCH))
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        runs.append(out.stdout.split())
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0]) == len(wl.BASIS["kpz"])
    for i, got in enumerate(runs[0]):
        want = expected.get(f"renormalize/kpz/T{i}")
        assert want in (None, got)


def test_kpz_known_answers_hold_for_every_tree():
    """Includes T6 and T7, which the bphz workload leaves out for time."""
    import workloads as wl

    prog = wl.load_program()
    wb = prog.workbench.Workbench(prog.workbench.parse_config(
        (wl.ROOT / "configs" / "kpz.json").read_text()))
    rows = wb.cmd_generate()["trees"]
    assert [(r["tree"], r["homogeneity"]) for r in rows] == wl.BASIS["kpz"]
    for i, t in enumerate(wb.basis()):
        req = wl.Request("bphz", "kpz", f"T{i}")
        assert wl.known_problems(req, prog.hopf.bphz_expansion(t, wb.config.table)) == []


def test_check_reports_a_changed_output():
    import workloads as wl

    req = wl.Request("decompose", "kpz", "T0")
    expected = {req.key: wl.digest("report\n")}
    assert wl.check(req, "report\n", expected) == []
    assert wl.check(req, "other report\n", expected) != []
    assert wl.check(req, "report\n", {}) != []
