"""`run_methods`: every cell of a batch is its own one-cell call, a cell
that `coefficient_map` rejects fails the batch with its own error, and a
one-cell call is the scalar `run` of its method."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad.algorithms import (StoppingRule, check_stepsize, coefficient_map, default_stop,
                                  make_stepper, run, run_methods)
from splitgrad.objectives import Objective, make_objective, quadratic
from splitgrad.schedules import make_schedule

X0 = (1.0, -2.0)


@st.composite
def _cell(draw, obj):
    """(name, s, keywords) on `obj`, or None for an lt_s_igahd cell that the
    command line would report as an error row: s beyond 1/L, mu < 0, beta
    outside (0, 2 sqrt(s)), a string b. Some other cells are rejected by
    `coefficient_map`: alpha <= 1, a negative gamma or beta."""
    hi = 1.0 / obj.lipschitz
    s = hi * draw(st.sampled_from([0.05, 0.3, 0.7, 0.95, 1.5]))
    name = draw(st.sampled_from(["lt_s_igahd", "lt_s_igahd", "agm2", "pim", "igahd"]))
    if name == "agm2":
        return name, s, {"alpha": draw(st.sampled_from([3.0, 5.0, 0.5]))}
    if name == "pim":
        return name, s, {"gamma": draw(st.sampled_from([0.5, 1.0, -1.0]))}
    if name == "igahd":
        return name, s, {"beta": draw(st.sampled_from([0.5, 1.0, -1.0]))}
    label = draw(st.sampled_from(["e24", "e25", "e26"]))
    params = {"mu": draw(st.sampled_from([-1.0, 0.0, 0.01, 1.0])),
              "b": draw(st.sampled_from([0.25, 1.0, 10.0, "x"]))}
    if label == "e25":
        params["beta"] = draw(st.sampled_from([0.1, 0.5, 1.2])) * 2.0 * float(np.sqrt(s))
    else:
        params["a"] = draw(st.sampled_from([0.0, 0.5, 4.0]))
    try:
        check_stepsize(s, obj)
        return name, s, {"schedule": make_schedule(label, s=s, **params)}
    except (TypeError, ValueError):
        return None


def _rejection(cell):
    try:
        coefficient_map(cell[0], cell[1], **cell[2])
    except ValueError as e:
        return str(e)
    return None


def _summary(res):
    return res.termination, res.n_final, float(res.error_final).hex()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), objective=st.sampled_from(["f1", "f2"]))
def test_batch_cells_are_one_cell_calls(data, objective):
    obj = make_objective(objective)
    rule = StoppingRule(default_stop(obj), 1e-10)
    cells = [c for c in data.draw(st.lists(_cell(obj), min_size=1, max_size=6)) if c]
    errors = [e for e in map(_rejection, cells) if e is not None]
    if errors:   # the first rejected cell fails the batch, as it fails alone
        with pytest.raises(ValueError, match=f"^{re.escape(errors[0])}$"):
            run_methods(obj, cells, X0, rule, 3000)
    cells = [c for c in cells if _rejection(c) is None]
    _, results = run_methods(obj, cells, X0, rule, 3000)
    assert len(results) == len(cells)
    with np.errstate(over="ignore", invalid="ignore"):
        for cell, batched in zip(cells, results):
            _, (alone,) = run_methods(obj, [cell], X0, rule, 3000)
            assert _summary(batched) == _summary(alone)


def _quad50():
    """A seeded dim-50 quadratic and its start, on which a (1, dim) stack's
    matrix product may round otherwise than the (dim,) point's."""
    rng = np.random.default_rng(50)
    m = rng.standard_normal((50, 50))
    return quadratic(m @ m.T / 50.0 + 0.1 * np.eye(50), rng.standard_normal(50)), \
        rng.standard_normal(50)


@pytest.mark.parametrize("objective", ["f1", "f2", "quad50"])
def test_one_cell_call_is_the_scalar_run(objective):
    # a lone cell steps its (dim,) point, as `run` does, so its bits are
    # run's on every objective
    if objective == "quad50":
        obj, x0 = _quad50()
        s = 0.5 / obj.lipschitz
    else:
        obj, x0, s = make_objective(objective), X0, 0.1
    params = {"a": 4.0, "b": 10.0, "mu": 1e-2}
    rule = StoppingRule(default_stop(obj), 1e-10)
    for name, kw in (("lt_s_igahd", {"schedule": make_schedule("e24", s=s, **params)}),
                     ("agm2", {}), ("lt_se1", {}), ("pim", {})):
        (cell_traj,), (cell_res,) = run_methods(obj, [(name, s, kw)], x0, rule, 30000,
                                                record=True)
        traj, res = run(make_stepper(name, s, **kw), obj, x0, s, rule, max_iter=30000)
        assert cell_res == res, name
        for field in ("xs", "fs", "grads"):
            assert getattr(cell_traj, field).tobytes() == getattr(traj, field).tobytes(), name


@pytest.mark.parametrize("cells", [1, 2])
def test_run_methods_rejects_an_unbatched_objective(cells):
    one_point = Objective(name="plain", dim=2, value=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x, lipschitz=2.0)
    with pytest.raises(ValueError, match="objective 'plain' takes one point at a time"):
        run_methods(one_point, [("agm2", 0.1, {}), ("pim", 0.1, {})][:cells], X0,
                    StoppingRule(), 100)
