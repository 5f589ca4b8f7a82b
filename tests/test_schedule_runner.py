"""`run_schedules`: every cell of a batch, built or rejected, is its own
one-cell call, and a one-cell call is the scalar `run` of its schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad.algorithms import (StoppingRule, default_stop, make_stepper, run,
                                  run_schedules)
from splitgrad.objectives import make_objective
from splitgrad.schedules import make_schedule

X0 = (1.0, -2.0)


@st.composite
def _cell(draw, hi):
    """(label, params, s) on an objective with 1/L = hi. Some cells are
    rejected: s beyond 1/L, mu < 0, beta outside (0, 2 sqrt(s)), a string b."""
    label = draw(st.sampled_from(["e24", "e25", "e26"]))
    s = hi * draw(st.sampled_from([0.05, 0.3, 0.7, 0.95, 1.5]))
    params = {"mu": draw(st.sampled_from([-1.0, 0.0, 0.01, 1.0])),
              "b": draw(st.sampled_from([0.25, 1.0, 10.0, "x"]))}
    if label == "e25":
        params["beta"] = draw(st.sampled_from([0.1, 0.5, 1.2])) * 2.0 * float(np.sqrt(s))
    else:
        params["a"] = draw(st.sampled_from([0.0, 0.5, 4.0]))
    return label, params, s


def _summary(cell_run):
    if cell_run.error is not None:
        return f"{type(cell_run.error).__name__}: {cell_run.error}"
    res = cell_run.result
    return (res.termination, res.n_final, float(res.error_final).hex(),
            cell_run.schedule.s, cell_run.schedule.params)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), objective=st.sampled_from(["f1", "f2"]))
def test_batch_cells_are_one_cell_calls(data, objective):
    hi = 1.0 / make_objective(objective).lipschitz_constant()
    cells = data.draw(st.lists(_cell(hi), min_size=1, max_size=6))
    _, runs = run_schedules(objective, cells, 3.0, X0, 1e-10, 3000)
    assert len(runs) == len(cells)
    for cell, batched in zip(cells, runs):
        _, (alone,) = run_schedules(objective, [cell], 3.0, X0, 1e-10, 3000)
        assert _summary(batched) == _summary(alone)


@pytest.mark.parametrize("objective", ["f1", "f2"])
def test_one_cell_call_is_the_scalar_run(objective):
    s, params = 0.1, {"a": 4.0, "b": 10.0, "mu": 1e-2}
    obj, (cell_run,) = run_schedules(objective, [("e24", params, s)], 3.0, X0, 1e-10, 30000,
                                     record=True)
    sched = make_schedule("e24", s=s, **params)
    traj, res = run(make_stepper("lt_s_igahd", s, schedule=sched), obj, X0, s,
                    StoppingRule(default_stop(obj), 1e-10), max_iter=30000)
    assert cell_run.result == res
    assert cell_run.schedule.params == sched.params
    for name in ("xs", "fs", "grads"):
        assert getattr(cell_run.trajectory, name).tobytes() == getattr(traj, name).tobytes()

