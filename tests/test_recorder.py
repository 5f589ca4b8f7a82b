"""The recorder of `algorithms._drive`: a recorded run writes its rows into
one buffer per recorded field (xs, fs and ys), of its exact length when
max_iter is its only stop and growing under a tolerance stop. Row n holds
index n of every lane still running, and each lane's trajectory is its
column: what a run hands back, with the gradients derived from xs, is
bitwise what a plain loop over the same stepper computes, at every length,
for one lane and for lanes that leave a batch at different steps."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitgrad
from splitgrad.algorithms import (
    _CHUNK,
    IterState,
    StoppingRule,
    _drive,
    init_state,
    make_stepper,
    run,
    run_methods,
)
from splitgrad.objectives import f1, f2, quadratic
from splitgrad.schedules import make_schedule

FIELDS = ("xs", "fs", "grads", "ys")
RECORDED = ("xs", "fs", "ys")   # the fields with row buffers; grads are derived


def _loop(stepper, obj, x0, s, max_iter):
    """x_n, f_n, grad_n and y_n for n = 0..max(max_iter, 1), stepped by
    hand from the bootstrap; y_0 is x0, as the engine records it."""
    state = init_state(obj, x0, s)
    rows = [(state.x_prev, state.f_prev, state.grad_prev, state.x_prev)]
    while True:
        rows.append((state.x_curr, state.f_curr, state.grad_curr, state.y_last))
        if state.n >= max_iter:
            break
        state = stepper(state, obj)
    return dict(zip(FIELDS, (np.array(col) for col in zip(*rows))))


def _assert_views_from_row_0(got, rows):
    """`got` views a buffer of `rows` rows from its first row."""
    assert got.base is not None and len(got.base) == rows
    assert got.__array_interface__["data"][0] == got.base.__array_interface__["data"][0]


def test_one_lane_run_is_the_hand_loop_at_every_length():
    # 1 to 300 steps, each a max_iter run that takes its rows at once (a
    # max_iter below 1 is refused); the tolerance-stopped runs below cross
    # the buffer's doublings
    s = 0.1
    sched = make_schedule("e25", s=s, beta=0.5 * np.sqrt(s), b=2.0, mu=0.1)
    want = _loop(make_stepper("lt_s_igahd", s, schedule=sched), f2(), [1.0, -2.0], s, 300)
    assert 300 > 2 * _CHUNK
    for max_iter in range(1, 301):
        traj, res = run(make_stepper("lt_s_igahd", s, schedule=sched), f2(), [1.0, -2.0], s,
                        StoppingRule("max_iter"), max_iter=max_iter, record_y=True)
        rows = max_iter + 1
        assert res.n_final == rows - 1
        for field in FIELDS:
            got, ref = getattr(traj, field), want[field][:rows]
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (max_iter, field)
        for field in RECORDED:
            # a view of the buffer, which a run that reaches max_iter fills exactly
            _assert_views_from_row_0(getattr(traj, field), rows)


def test_tolerance_stopped_run_is_the_hand_loop_across_the_doublings():
    # stops from 39 to about 900 steps: under a tolerance the buffer starts
    # at _CHUNK rows and doubles when full
    s = 0.01
    sched = make_schedule("e25", s=s, beta=0.5 * np.sqrt(s), b=2.0, mu=0.1)
    stepper = make_stepper("lt_s_igahd", s, schedule=sched)
    got = [run(stepper, f2(), [1.0, -2.0], s, StoppingRule("known_min_f", eps), record_y=True)
           for eps in np.geomspace(1e-1, 1e-12, 24)]
    stops = [res.n_final for _, res in got]
    assert all(res.termination == "tolerance_met" for _, res in got)
    assert min(stops) < _CHUNK and max(stops) > 4 * _CHUNK
    want = _loop(stepper, f2(), [1.0, -2.0], s, max(stops))
    for traj, res in got:
        rows = res.n_final + 1
        for field in FIELDS:
            arr, ref = getattr(traj, field), want[field][:rows]
            assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes(), (rows, field)
        for field in RECORDED:
            arr = getattr(traj, field)
            assert rows <= len(arr.base) <= max(_CHUNK, 2 * rows), (rows, field)


def test_diverging_max_iter_run_took_its_rows_at_the_start():
    # pim at s = 16 overflows at n = 84 of a 10^5-step run: its rows view
    # the 10^5 + 1 row buffer the run took before its first step
    with np.errstate(over="ignore", invalid="ignore"):
        traj, res = run(make_stepper("pim", 16.0), f1(), [1.0, -2.0], 16.0,
                        StoppingRule("max_iter"), max_iter=10**5, record_y=True)
    assert res.termination == "diverged" and res.n_final < _CHUNK
    assert traj.xs.shape == (res.n_final + 1, 2)
    for field in RECORDED:
        _assert_views_from_row_0(getattr(traj, field), 10**5 + 1)


@pytest.mark.parametrize("objective", [f1, f2])
def test_max_iter_lanes_with_one_diverging_mid_run_are_their_runs(objective):
    # pim at s = 16 overflows mid-run (n = 84 on f1, 321 on f2); the other
    # lanes then go on writing their columns of the rows the run took at once
    obj = objective()
    ss = [0.01, 0.1, 16.0, 0.2, 0.05]
    rule = StoppingRule("max_iter")
    with np.errstate(over="ignore", invalid="ignore"):
        trajs, results = run_methods(obj, [("pim", s, {}) for s in ss], [1.0, -2.0], rule, 600,
                                     record=True)
        singles = [run(make_stepper("pim", s), obj, [1.0, -2.0], s, rule, 600) for s in ss]
    assert [r.termination for r in results] == ["max_iter"] * 2 + ["diverged"] + ["max_iter"] * 2
    assert 1 < results[2].n_final < 600
    for traj, res, (want_traj, want) in zip(trajs, results, singles):
        assert res == want
        for field in ("xs", "fs", "grads"):
            got, ref = getattr(traj, field), getattr(want_traj, field)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), field


@pytest.mark.parametrize("objective", [f1, f2])
def test_lanes_leaving_at_staggered_indices_are_their_runs(objective):
    # known_min_f stops the lanes one after another, some after the
    # buffer's first doublings; pim at s = 16 grows until it overflows
    obj = objective()
    ss = [0.002, 0.01, 0.02, 0.05, 0.1, 0.2, 16.0 if objective is f2 else 6.25]
    rule = StoppingRule("known_min_f", 1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        trajs, results = run_methods(obj, [("pim", s, {}) for s in ss], [1.0, -2.0], rule, 3000,
                                     record=True)
        singles = [run(make_stepper("pim", s), obj, [1.0, -2.0], s, rule, 3000) for s in ss]
    stops = [r.n_final for r in results]
    assert len(set(stops)) == len(ss) and max(stops) > 2 * _CHUNK
    assert results[-1].termination == "diverged"
    for traj, res, (want_traj, want) in zip(trajs, results, singles):
        assert res == want
        for field in ("xs", "fs", "grads"):
            got, ref = getattr(traj, field), getattr(want_traj, field)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), field


def test_lane_diverging_right_after_another_stops_keeps_its_rows():
    # lane 0 stands still and meets the tolerance at n = 2; lane 1, told
    # apart by its larger start point, is scaled by 1e100 per step, finite
    # at n = 2 and overflowing at n = 3, so it leaves with no row recorded
    # since lane 0 left
    obj = quadratic(np.eye(2))

    def stepper(state, obj):
        scale = np.where(np.abs(state.x_curr[:, :1]) > 5.0, 1e100, 1.0)
        x = state.x_curr * scale
        f, g = obj.eval_grad(x)
        return IterState(state.n + 1, state.x_curr, x, state.grad_curr, g, state.f_curr, f)

    with np.errstate(over="ignore", invalid="ignore"):
        trajs, results = _drive(stepper, obj, np.array([[1.0, 2.0], [10.0, 20.0]]), 0.1,
                                StoppingRule("consecutive_f", 1e-10), 10, True, False)
    assert [(r.termination, r.n_final) for r in results] == [("tolerance_met", 2),
                                                             ("diverged", 2)]
    x1, y1 = np.array([0.9, 1.8]), np.array([9.0, 18.0])   # x0 - 0.1 x0
    assert np.array_equal(trajs[0].xs, [[1.0, 2.0], x1, x1])
    assert np.array_equal(trajs[1].xs, [[10.0, 20.0], y1, 1e100 * y1])


_RSS_PROBE = """
import os
import numpy as np
from splitgrad.algorithms import StoppingRule, make_stepper, run
from splitgrad.objectives import quadratic
obj = quadratic(np.diag(np.geomspace(1e-3, 1.0, 300)), np.ones(300))
stepper = make_stepper("agm2", 0.5)
with open("/proc/self/statm") as fh:
    before = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
traj, _ = run(stepper, obj, np.zeros(300), 0.5, StoppingRule("max_iter"), max_iter=5000)
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))
print((peak - before) / (traj.xs.nbytes + traj.fs.nbytes))
"""


@pytest.fixture(scope="module")
def probe_ratio() -> float:
    """The probe's peak over its trajectory, from one fresh process."""
    src = str(Path(splitgrad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_recorded_run_holds_its_trajectory_about_once(probe_ratio):
    # a recorded 5000-step run on a dim-300 quadratic may raise the peak
    # resident set by at most 1.5 times the xs and fs it records (about 2
    # when the rows were stacked at the stop). The probe runs in a fresh
    # process and reads the peak as VmHWM, without touching traj.grads,
    # which would derive them: ru_maxrss would start from the peak of the
    # process that spawned it, here the test run.
    assert probe_ratio <= 1.5


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_max_iter_run_holds_its_trajectory_once(probe_ratio):
    # the probe's run stops only at max_iter, so it writes its rows into
    # buffers of their exact length, with no copy as they grow
    assert probe_ratio <= 1.1
