"""The lane engine: coefficient maps give the same bits over an array of
indices as one index at a time, and every lane of `run_methods` reproduces
the scalar `run` of its own method, stepsize and schedule."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad import algorithms, schedules
from splitgrad.algorithms import (
    _CHUNK,
    _FIRST_CHUNK,
    ALGORITHM_NAMES,
    StoppingRule,
    coefficient_map,
    make_stepper,
    run,
    run_methods,
)
from splitgrad.cases import all_cases
from splitgrad.objectives import Objective, f1, f2, make_objective, quadratic
from splitgrad.schedules import FAMILY_LABELS, Schedule, coeffs_of, make_schedule
from splitgrad.verify import X0

N_ALL = np.arange(1, 10_001, dtype=float)
# every index up to 60, then a log-spaced sample up to 10^4
N_SAMPLE = np.unique(np.concatenate([np.arange(1, 61),
                                     np.geomspace(61, 10_000, 60).astype(int)]))


def _scan_stepsizes(objective, n_grid=60):
    """The stepsizes `table --infer-s` scans for a row on `objective`."""
    hi = 1.0 / make_objective(objective).lipschitz
    return [hi * k / (n_grid + 1) for k in range(1, n_grid + 1)]


def _assert_vector_is_scalar(coeffs_at, ns):
    vector = np.stack([np.broadcast_to(np.asarray(v, dtype=float), N_ALL.shape)
                       for v in coeffs_at(N_ALL)], axis=1)[np.asarray(ns, dtype=int) - 1]
    scalar = np.array([coeffs_at(float(n)) for n in ns], dtype=float)
    if scalar.tobytes() != vector.tobytes():
        bad = np.flatnonzero((scalar.view(np.int64) != vector.view(np.int64)).any(axis=1))
        raise AssertionError(f"vector and scalar coefficients differ at n = {ns[bad[0]]}")


def _row_schedules():
    """(label, params, objective) for each schedule label: the first
    recorded row of each family, and e25 (also at its default b and mu)
    on the stepsizes of a recorded row."""
    rows = {}
    for case in all_cases():
        rows.setdefault(case.schedule, case)
    out = [(c.schedule, lambda s, c=c: c.schedule_params(), c.objective)
           for c in rows.values()]
    out += [("e25", lambda s: {"beta": 0.5 * np.sqrt(s), "b": 2.0, "mu": 0.1}, "f1"),
            ("e25", lambda s: {"beta": 0.5 * np.sqrt(s)}, "f2")]
    return out


@pytest.mark.parametrize("label,params,objective", _row_schedules())
def test_schedule_coeffs_at_vector_is_scalar(label, params, objective):
    for k, s in enumerate(_scan_stepsizes(objective)):
        sched = make_schedule(label, s=s, **params(s))
        # the whole range at one stepsize, a sample of it at the others
        _assert_vector_is_scalar(sched.coeffs_at, N_ALL if k == 29 else N_SAMPLE)


@pytest.mark.parametrize("name", [n for n in ALGORITHM_NAMES if n != "lt_s_igahd"])
def test_coefficient_map_vector_is_scalar(name):
    # lt_se3 includes the theta_{n-1} term
    for s in (0.01, 0.1, 0.23):
        _assert_vector_is_scalar(coefficient_map(name, s, beta=0.7, gamma=1.3), N_ALL)


def _lane_schedule(name, label, s, beta, mu):
    if name != "lt_s_igahd":
        return None
    params = {"e24": {"a": 1.0, "b": 2.0, "mu": mu}, "e26": {"a": 1.0, "b": 2.0, "mu": mu},
              "e25": {"beta": beta * np.sqrt(s), "b": 2.0, "mu": mu}}[label]
    return make_schedule(label, s=s, **params)


def _assert_cells_are_runs(obj, cells, x0, rule, max_iter=5000, rel=None):
    """Run the cells through `run_methods`, recorded and not, and each cell
    on its own `run`: each cell's RunResult, and with recording its xs, fs
    and grads, must be those of its own run byte for byte, or within `rel`
    where the lanes share a matrix product. Returns the cells' RunResults."""
    with np.errstate(over="ignore", invalid="ignore"):
        trajs, recorded = run_methods(obj, cells, x0, rule, max_iter, record=True)
        _, plain = run_methods(obj, cells, x0, rule, max_iter)
        singles = [run(make_stepper(name, s, **kw), obj, x0, s, rule, max_iter)
                   for name, s, kw in cells]
    assert len(trajs) == len(recorded) == len(plain) == len(cells)
    for traj, rec, res, (want_traj, want) in zip(trajs, recorded, plain, singles):
        for got in (rec, res):
            assert (got.termination, got.n_final) == (want.termination, want.n_final)
            if rel is None:
                assert (np.float64(got.error_final).tobytes()
                        == np.float64(want.error_final).tobytes())
            else:
                assert got.error_final == pytest.approx(want.error_final, rel=1e-9, abs=1e-12,
                                                        nan_ok=True)
        for field in ("xs", "fs", "grads"):
            got, ref = getattr(traj, field), getattr(want_traj, field)
            assert got.shape == ref.shape, field
            if rel is None:
                assert got.tobytes() == ref.tobytes(), field
            else:
                assert np.all(np.abs(got - ref) <= rel * np.maximum(1.0, np.abs(ref))), field
    return plain


def _lane_cells(name, ss, scheds):
    """One cell of `name` per stepsize, with its schedule."""
    return [(name, s, {"schedule": sch, "beta": 0.8, "gamma": 1.1}) for s, sch in zip(ss, scheds)]


_RULES = st.sampled_from([StoppingRule("consecutive_f", 1e-10),
                          StoppingRule("known_min_f", 1e-8),
                          StoppingRule("consecutive_f", 1e-12, n_threshold=20),
                          StoppingRule("max_iter")])
_LANE = st.tuples(st.floats(0.02, 0.98),                               # s L
                  st.sampled_from(["e24", "e25", "e26"]),
                  st.floats(0.1, 1.9),                                 # beta / sqrt(s)
                  st.sampled_from([0.0, 0.05, 1.0]))                   # mu


@settings(max_examples=60, deadline=None, derandomize=True)
@given(objective=st.sampled_from(["f1", "f2"]), name=st.sampled_from(ALGORITHM_NAMES),
       lanes=st.lists(_LANE, min_size=1, max_size=5), rule=_RULES,
       x0=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       extra=st.sampled_from([(), ("diverge",), ("stop_at_1",), ("diverge", "stop_at_1")]))
def test_lanes_are_scalar_runs_on_f1_f2(objective, name, lanes, rule, x0, extra):
    obj = make_objective(objective)
    lip = obj.lipschitz
    ss = [sl / lip for sl, *_ in lanes]
    scheds = [_lane_schedule(name, label, s, beta, mu)
              for s, (_, label, beta, mu) in zip(ss, lanes)]
    if "diverge" in extra and objective == "f1":   # s = 10 runs off to infinity
        ss.append(10.0)
        scheds.append(_lane_schedule(name, "e24", 10.0, 1.0, 0.0))
    if "stop_at_1" in extra and objective == "f1":   # a step too small to change f
        ss.insert(0, 1e-13)
        scheds.insert(0, _lane_schedule(name, "e25", 1e-13, 1.0, 0.1))
    _assert_cells_are_runs(obj, _lane_cells(name, ss, scheds), x0, rule, max_iter=150)


def _pd_quadratic(seed, dim):
    rng = np.random.default_rng([seed, dim])
    m = rng.standard_normal((dim, dim))
    a = m @ m.T / dim + 0.1 * np.eye(dim)
    return quadratic(a, a @ rng.standard_normal(dim)), rng


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
       name=st.sampled_from(ALGORITHM_NAMES), n_lanes=st.integers(1, 5), rule=_RULES)
def test_lanes_match_scalar_runs_on_quadratics(seed, dim, name, n_lanes, rule):
    obj, rng = _pd_quadratic(seed, dim)
    ss = list(rng.uniform(0.02, 0.98, n_lanes) / obj.lipschitz)
    x0 = rng.standard_normal(dim) * 3.0
    scheds = [_lane_schedule(name, "e25", s, 0.5, 0.1) for s in ss]
    _assert_cells_are_runs(obj, _lane_cells(name, ss, scheds), x0, rule, max_iter=150,
                           rel=1e-12)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_stopped_and_diverged_lanes_freeze_beside_running_ones(name):
    # lane 0's step is too small to change f past the tolerance, so it stops
    # at n = 1; lane 2 diverges, lanes 1 and 3 run to the end
    ss = [1e-13, 0.1, 10.0, 0.05]
    scheds = [_lane_schedule(name, "e25", s, 1.0, 0.1) for s in ss]
    results = _assert_cells_are_runs(f1(), _lane_cells(name, ss, scheds), [1.0, -2.0],
                                     StoppingRule("consecutive_f", 1e-10), max_iter=400)
    assert results[0].termination == "tolerance_met" and results[0].n_final == 1
    if name == "agm2":
        assert results[2].termination == "diverged"


def test_unrecorded_lanes_give_the_same_results():
    cells = [("agm2", s, {}) for s in (0.05, 0.1, 0.2)]
    rule = StoppingRule("known_min_f", 1e-9)
    trajs, rec = run_methods(f2(), cells, [1.0, -2.0], rule, record=True)
    none, plain = run_methods(f2(), cells, [1.0, -2.0], rule)
    assert none is None and plain == rec
    assert [t.n_final for t in trajs] == [r.n_final for r in rec]


def test_lane_inputs_are_checked():
    sch = make_schedule("e25", s=0.1, beta=0.1, b=2.0)
    cells = [("agm2", 0.1, {}), ("lt_s_igahd", 0.1, {"schedule": sch})]
    with pytest.raises(ValueError):   # lane 1 disagrees with its schedule's s
        run_methods(f1(), [("agm2", 0.1, {}), ("lt_s_igahd", 0.2, {"schedule": sch})],
                    [1.0, -2.0], StoppingRule())
    with pytest.raises(ValueError):   # one start point for every cell, not a stack
        run_methods(f1(), cells, [[1.0, -2.0], [0.5, 0.5]], StoppingRule())
    with pytest.raises(ValueError):
        run_methods(f1(), cells, [np.inf, 0.0], StoppingRule())
    with pytest.raises(ValueError):
        run(make_stepper("agm2", 0.2), f1(), [1.0, -2.0], 0.1, StoppingRule())
    one_point = Objective(name="plain", dim=2, value=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x, lipschitz=2.0)
    with pytest.raises(ValueError):   # written for one point, not for a stack
        run_methods(one_point, cells, [1.0, -2.0], StoppingRule())


def test_run_takes_one_point():
    with pytest.raises(ValueError):
        run(make_stepper("agm2", 0.1), f1(), [[1.0, -2.0]], 0.1, StoppingRule())


def test_stacks_evaluate_row_by_row():
    # on a stack of points the built-in objectives give each point's value
    # and gradient bit for bit; the Hessian product and objectives written
    # for one point take one point only
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    for obj in (f1(), f2(), quadratic(a @ a.T + np.eye(3), rng.standard_normal(3))):
        xs = rng.standard_normal((5, obj.dim)) * 2.0
        f, g = obj.eval_grad(xs)
        assert f.shape == (5,) and g.shape == (5, obj.dim)
        stacked = (f, g, obj.eval(xs), obj.grad(xs))
        rows = tuple(np.array(r) for r in (
            [obj.eval(x) for x in xs], [obj.grad(x) for x in xs], [obj.eval(x) for x in xs],
            [obj.grad(x) for x in xs]))
        for got, want in zip(stacked, rows):
            if obj.name == "quadratic":   # a matrix product over a stack may sum otherwise
                assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
            else:
                assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            obj.hess_vec(xs, xs)
    with pytest.raises(ValueError):
        f2().grad(np.zeros((2, 2, 2)))
    one_point = Objective(name="plain", dim=3, value=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x, lipschitz=2.0)
    with pytest.raises(ValueError):
        one_point.eval_grad(np.zeros((5, 3)))


@pytest.mark.parametrize("objective", [f1, f2])
@pytest.mark.parametrize("max_iter", [1, 2, 1000])
def test_mixed_method_lane_batch_is_each_methods_run(objective, max_iter):
    obj, s = objective(), 0.01
    e25 = make_schedule("e25", s=s, beta=0.1, b=2.0, mu=0.1)
    step_at_y = [("igahd", {"beta": 1.0}), ("lt_s_igahd", {"schedule": e25}), ("ardm", {}),
                 ("lt_se1", {}), ("lt_sv2", {}), ("lt_se3", {})]
    # one batch at y_n; the construction suite's steppers, where pim is
    # alone at x_n; and agm2 with pim, each alone at its gradient point
    for methods in (step_at_y, step_at_y + [("pim", {"gamma": 1.0})],
                    [("agm2", {}), ("pim", {"gamma": 1.0})]):
        batched, results = run_methods(obj, [(name, s, kw) for name, kw in methods], X0,
                                       StoppingRule("max_iter"), max_iter, record=True)
        for (name, kw), traj, res in zip(methods, batched, results):
            want, want_res = run(make_stepper(name, s, **kw), obj, X0, s,
                                 StoppingRule("max_iter"), max_iter=max_iter)
            assert res == want_res, name
            for field in ("xs", "fs", "grads"):
                got, ref = getattr(traj, field), getattr(want, field)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (name, field)


def _worst_case_quadratic(d: int = 101):
    """Nesterov's worst-case function (1/4)(x'Ax/2 - x_1), A = tridiag(-1, 2, -1)."""
    a = 2.0 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)
    return quadratic(a / 4.0, -np.eye(d)[0] / 4.0)


@pytest.mark.parametrize("objective", ["worst-case", "f1", "f2"])
def test_run_methods_mixes_kernels_at_a_stepsize_per_cell(objective):
    # both gradient points in one call, each cell at its own s: within 1e-12
    # of its own run on the worst-case quadratic from 0, and its bits on f1
    # and f2
    if objective == "worst-case":
        obj = _worst_case_quadratic()
        x0 = np.zeros(obj.dim)
    else:
        obj, x0 = make_objective(objective), np.array(X0)
    hi = 1.0 / obj.lipschitz
    ss = [hi * k for k in (0.5, 0.45, 0.4, 0.35, 0.3)]
    e25 = dict(beta=0.1 * 2.0 * float(np.sqrt(ss[3])), b=1.0, mu=0.1)
    cells = [("agm2", ss[0], {}), ("pim", ss[1], {"gamma": 1.0})]
    cells += [("lt_s_igahd", s, {"schedule": make_schedule(label, s=s, **params)})
              for s, (label, params) in zip(ss[2:], [("e24", dict(a=4.0, b=10.0, mu=1e-2)),
                                                     ("e25", e25),
                                                     ("e26", dict(a=1.25, b=5.5, mu=1e-3))])]
    rule = StoppingRule("max_iter")
    trajs, results = run_methods(obj, cells, x0, rule, 400, record=True)
    for (name, s, kw), traj, res in zip(cells, trajs, results):
        want, want_res = run(make_stepper(name, s, **kw), obj, x0, s, rule, 400)
        assert (res.termination, res.n_final) == (want_res.termination, want_res.n_final)
        for field in ("xs", "fs", "grads"):
            got, ref = getattr(traj, field), getattr(want, field)
            assert got.shape == ref.shape, (name, field)
            if objective == "worst-case":
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (name, field)
            else:
                assert got.tobytes() == ref.tobytes(), (name, field)


_TIGHT = StoppingRule("consecutive_f", 1e-12)


@pytest.mark.parametrize("objective", [f1, f2])
@pytest.mark.parametrize("name", ["agm2", "nag", "lt_se3", "lt_s_igahd"])
def test_lanes_that_leave_at_many_indices_are_their_runs(objective, name):
    obj = objective()
    cells = [(name, s, {"schedule": make_schedule("e25", s=s, beta=0.5 * np.sqrt(s), b=2.0,
                                                  mu=0.1) if name == "lt_s_igahd" else None})
             for s in _scan_stepsizes(obj.name, 30)]
    results = _assert_cells_are_runs(obj, cells, [1.0, -2.0], _TIGHT)
    stops = [r.n_final for r in results]
    # lanes leave one by one, some of them in a later chunk of the tables
    assert len(set(stops)) > len(cells) // 2 and max(stops) > _CHUNK


@pytest.mark.parametrize("objective", [f1, f2])
@pytest.mark.parametrize("rule,ss", [(StoppingRule("max_iter"), [0.05, 0.1, 0.15, 0.2]),
                                     (_TIGHT, [0.1] * 4)], ids=["max_iter", "tolerance"])
def test_lanes_that_all_stop_at_one_step_are_their_runs(objective, rule, ss):
    # four lanes meet max_iter together, or four like lanes meet the tolerance
    results = _assert_cells_are_runs(objective(), [("agm2", s, {}) for s in ss], [1.0, -2.0],
                                     rule, max_iter=150)
    assert len({(r.termination, r.n_final) for r in results}) == 1


@pytest.mark.parametrize("objective,s_off", [(f1, 6.25), (f2, 16.0)])
def test_last_running_lane_diverging_is_its_run(objective, s_off):
    # pim's momentum 1 - sqrt(s) is below -1 at s_off, so that lane grows
    # until it overflows, after the other two have met the tolerance
    results = _assert_cells_are_runs(objective(), [("pim", s, {}) for s in (0.1, s_off, 0.2)],
                                     [1.0, -2.0], _TIGHT)
    assert [r.termination for r in results] == ["tolerance_met", "diverged", "tolerance_met"]
    assert results[1].n_final > max(results[0].n_final, results[2].n_final)


def _box_bowl():
    """x @ x on the square |x_i| <= 1 and +inf outside it, batched."""
    def value(x):
        return np.where(np.abs(x).max(axis=-1) <= 1.0, (x * x).sum(axis=-1), np.inf)

    return Objective(name="box_bowl", dim=2, value=value, gradient=lambda x: 2.0 * x,
                     lipschitz=2.0, f_min=0.0, batched=True)


@pytest.mark.parametrize("kind", ["known_min_f", "consecutive_f"])
def test_lane_whose_x1_is_not_finite_leaves_at_n_0(kind):
    # lane 0 steps out of the box at once: f(x1) = inf
    obj, rule, x0 = _box_bowl(), StoppingRule(kind, 1e-12), [0.9, 0.9]
    results = _assert_cells_are_runs(obj, [("agm2", 1.5, {}), ("agm2", 0.1, {})], x0, rule)
    assert results[0].termination == "diverged" and results[0].n_final == 0
    assert results[1].termination == "tolerance_met"
    traj, res = run(make_stepper("agm2", 1.5), obj, x0, 1.5, rule)
    assert traj.xs.tolist() == [x0] and traj.fs.tolist() == [1.62]
    if kind == "known_min_f":
        assert res.error_final == 1.62
    else:   # no value before x0, so no difference to take
        assert np.isnan(res.error_final)


def test_f_not_finite_at_x0_is_rejected():
    with pytest.raises(ValueError, match=r"x0 = \[1e\+200, -2.0\]"):
        run(make_stepper("agm2", 0.1), f1(), [1e200, -2.0], 0.1, StoppingRule())
    with pytest.raises(ValueError, match=r"x0 = \[2.0, 2.0\]"):   # outside the box
        run_methods(_box_bowl(), [("agm2", 0.1, {}), ("agm2", 0.2, {})], [2.0, 2.0],
                    StoppingRule())


def _counting(obj):
    """obj with every row that eval_grad evaluates counted in rows[0]."""
    rows = [0]

    def value_and_gradient(x):
        rows[0] += 1 if x.ndim == 1 else x.shape[0]
        return obj.value(x), obj.gradient(x)

    return dataclasses.replace(obj, value_and_gradient=value_and_gradient), rows


def _chunk_starts(last: int) -> list:
    """The first index of each chunk a Stepper tabulates for a run whose
    last lane stops at `last`: the chunks from n = 1 double in length from
    _FIRST_CHUNK up to _CHUNK."""
    starts, length = [1], _FIRST_CHUNK
    while starts[-1] < last:
        starts.append(starts[-1] + length)
        length = min(2 * length, _CHUNK)
    return starts


def _watch_tables(monkeypatch) -> list:
    """The (first index, columns) of each table a Stepper builds from now on."""
    tables, coeffs_of = [], schedules.coeffs_of

    def watched(maps, ns):
        tables.append((int(ns[0]), len(maps)))
        return coeffs_of(maps, ns)

    monkeypatch.setattr(schedules, "coeffs_of", watched)
    return tables


@pytest.mark.parametrize("record", [False, True])
def test_stopped_lanes_cost_nothing(record, monkeypatch):
    obj, rows = _counting(f2())
    ss = _scan_stepsizes("f2", 30)
    starts = [[] for _ in ss]   # the first index of each chunk a lane's map tabulates

    def counted(i, coeffs_at):
        def at(n):
            starts[i].append(int(n[0]))
            return coeffs_at(n)
        return at

    # agm2's maps, as the lt_s_igahd schedules of no family
    cells = [("lt_s_igahd", s, {"schedule": Schedule(
        "custom", 3.0, s, counted(i, coefficient_map("agm2", s)))}) for i, s in enumerate(ss)]
    tables = _watch_tables(monkeypatch)
    _, results = run_methods(obj, cells, [1.0, -2.0], _TIGHT, record=record)
    assert rows[0] == sum(r.n_final + 1 for r in results)
    chunk_starts = _chunk_starts(max(r.n_final for r in results))
    # a lane steps from n = 1 to its last index; so do the chunks it is tabulated for
    for got, res in zip(starts, results):
        assert got == [n for n in chunk_starts if n < res.n_final]
    # and each table holds a column for every lane still running, and for no other
    assert tables == [(n, sum(r.n_final > n for r in results))
                      for n in chunk_starts[:-1]]
    assert len({cols for _, cols in tables}) > 2 and len(tables) > 6


def _family_schedules(s: float) -> list:
    """A schedule of each family at stepsize s, at mu = 0 and at mu > 0."""
    return [make_schedule("e24", s=s), make_schedule("e24", s=s, a=4.0, b=10.0, mu=1e-2),
            make_schedule("e25", s=s, beta=0.5 * np.sqrt(s)),
            make_schedule("e25", s=s, beta=0.5 * np.sqrt(s), b=2.0, mu=0.1),
            make_schedule("e26", s=s, b=1.0), make_schedule("e26", s=s, a=1.25, b=5.5, mu=1e-3)]


def test_stopped_family_lanes_cost_one_call_per_family_and_chunk(monkeypatch):
    calls = []   # (label, first index, lanes) of each call of a family body
    for label, (body, names) in list(schedules._FAMILIES.items()):
        def counted(n, s, *params, label=label, body=body):
            calls.append((label, int(n[0]), np.size(s)))
            return body(n, s, *params)
        monkeypatch.setitem(schedules._FAMILIES, label, (counted, names))
    scheds = [sch for s in _scan_stepsizes("f2", 10) for sch in _family_schedules(s)]
    custom_starts = []   # a map of no family is called lane by lane

    def custom(n):
        custom_starts.append(int(n[0]))
        return coefficient_map("igahd", scheds[0].s, beta=0.5)(n)

    cells = [("lt_s_igahd", sch.s, {"schedule": sch}) for sch in scheds]
    cells.append(("lt_s_igahd", scheds[0].s,
                  {"schedule": Schedule("custom", 3.0, scheds[0].s, custom)}))
    tables = _watch_tables(monkeypatch)
    _, results = run_methods(f2(), cells, [1.0, -2.0], _TIGHT)
    chunk_starts = _chunk_starts(max(r.n_final for r in results))[:-1]
    labels = [sch.label for sch in scheds]
    # each chunk calls each family once, over the running lanes of that family
    want = [(label, n, sum(r.n_final > n for r, lab in zip(results, labels) if lab == label))
            for n in chunk_starts for label in ("e24", "e25", "e26")]
    assert sorted(calls) == sorted(c for c in want if c[2])
    assert custom_starts == [n for n in chunk_starts if n < results[-1].n_final]
    assert tables == [(n, sum(r.n_final > n for r in results)) for n in chunk_starts]
    assert len({cols for _, cols in tables}) == len(tables) > 3
    # and the grouped tables step every lane as its own run does
    for sch, res in zip(scheds, results):
        _, own = run(make_stepper("lt_s_igahd", sch.s, schedule=sch), f2(), [1.0, -2.0],
                     sch.s, _TIGHT)
        assert own == res


@st.composite
def _family_map(draw):
    """A family schedule of random parameters, mu = 0 or mu > 0."""
    label = draw(st.sampled_from(FAMILY_LABELS))
    s = draw(st.floats(1e-3, 0.24))
    mu = draw(st.sampled_from([0.0, draw(st.floats(1e-6, 5.0))]))
    b = draw(st.floats(1e-3, 20.0) if mu > 0.0 or label == "e25" else st.floats(0.0, 20.0))
    if label == "e25":
        beta = draw(st.floats(0.01, 0.99)) * 2.0 * np.sqrt(s)
        return make_schedule(label, s=s, alpha=draw(st.floats(3.0, 10.0)), beta=beta, b=b,
                             mu=mu)
    return make_schedule(label, s=s, alpha=draw(st.floats(3.0, 10.0)),
                         a=draw(st.floats(0.0, 20.0)), b=b, mu=mu)


@st.composite
def _method_map(draw, names):
    """The map of one of the methods `names` of random s, alpha, beta and
    gamma."""
    return coefficient_map(draw(st.sampled_from(names)), draw(st.floats(1e-3, 0.24)),
                           draw(st.floats(1.5, 10.0)), None, draw(st.floats(0.1, 2.0)),
                           draw(st.floats(0.1, 3.0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(maps=st.lists(st.one_of(_family_map().map(lambda sch: sch.coeffs_at),
                               _method_map(sorted(name for name, row in algorithms._METHODS.items()
                                                  if row.body is not None))),
                     min_size=1, max_size=12),
       custom_at=st.integers(0, 12), start=st.integers(1, 5000), width=st.integers(1, 40),
       data=st.data())
def test_coeffs_of_is_each_schedules_own_coeffs_at(maps, custom_at, start, width, data):
    # a map that is not a CoefficientMap is called lane by lane
    custom = Schedule("custom", 3.0, 0.1, lambda n: coefficient_map("lt_se3", 0.1)(n))
    maps.insert(min(custom_at, len(maps)), custom.coeffs_at)
    ns = np.arange(start, start + width, dtype=float)
    # a row of indices that every lane shares
    table = coeffs_of(maps, ns)
    for i, m in enumerate(maps):
        own = np.stack(np.broadcast_arrays(*m(ns)), axis=1)
        assert table[:, :, i].tobytes() == own.tobytes()
    # a column of each lane's own index
    col = np.array([[data.draw(st.integers(1, 10_000))] for _ in maps], dtype=float)
    table = coeffs_of(maps, col)
    for i, m in enumerate(maps):
        own = np.array(m(float(col[i, 0])))
        assert table[0, :, i].tobytes() == own.tobytes()


@pytest.mark.parametrize("three_first", [True, False], ids=["three-first", "four-first"])
@pytest.mark.parametrize("beside", ["builtin", "wrapped"])
def test_coeffs_of_rejects_a_map_of_three_coefficients(beside, three_first):
    # a custom map giving three coefficients, batched beside a built-in
    # (grouped) four-coefficient map or a wrapped (lane-by-lane) one
    three = Schedule("custom", 3.0, 0.1, lambda n: (n * 0 + 0.5, 0.0, 0.0)).coeffs_at
    four = coefficient_map("lt_se3", 0.1)
    if beside == "wrapped":
        four = (lambda n, m=four: m(n))
    maps = [three, four] if three_first else [four, three]
    for n in (np.arange(1.0, 9.0), np.array([[3.0], [5.0]])):
        with pytest.raises(ValueError, match="^a coefficient map must give 4 coefficients, got 3$"):
            coeffs_of(maps, n)


def test_run_methods_call_each_method_body_once_per_chunk(monkeypatch):
    calls = []   # (method, first index, lanes) of each call of a method body
    for name, row in list(algorithms._METHODS.items()):
        if row.body is None:   # lt_s_igahd steps by its Schedule's map
            continue
        def counted(n, s, *params, name=name, body=row.body):
            calls.append((name, int(n[0]), np.size(s)))
            return body(n, s, *params)
        monkeypatch.setitem(algorithms._METHODS, name, row._replace(body=counted))
    # the methods stepping at y_n run as one batch, and pim with polyak_igahd as another
    methods = [("agm2", {}), ("lt_se1", {}), ("lt_sv2", {}), ("ardm", {}), ("lt_se3", {}),
               ("igahd", {"beta": 0.5}), ("igahd", {"beta": 0.9}), ("pim", {"gamma": 1.2}),
               ("polyak_igahd", {"beta": 0.5}), ("polyak_igahd", {"beta": 0.9})]
    n_steps = 300
    trajs, _ = run_methods(f2(), [(name, 0.1, kw) for name, kw in methods], X0,
                           StoppingRule("max_iter"), n_steps, record=True)
    starts = [n for n in _chunk_starts(n_steps) if n < n_steps]
    lanes = {"agm2": 1, "lt_se1": 1, "lt_sv2": 1, "ardm": 1, "lt_se3": 1, "igahd": 2,
             "pim": 1, "polyak_igahd": 2}   # each method's lanes
    assert sorted(calls) == sorted((name, n, k) for name, k in lanes.items() for n in starts)
    # and each lane steps as its own run does
    for (name, kw), traj in zip(methods, trajs):
        want, _ = run(make_stepper(name, 0.1, **kw), f2(), X0, 0.1,
                      StoppingRule("max_iter"), max_iter=n_steps)
        assert traj.xs.tobytes() == want.xs.tobytes()


@pytest.mark.parametrize("wrap", [False, True], ids=["family-map", "function"])
def test_schedule_with_a_replaced_map_steps_by_it(wrap):
    sched = make_schedule("e24", s=0.1, b=1.0)
    other = make_schedule("e24", s=0.1, a=4.0, b=10.0, mu=0.5)
    new = dataclasses.replace(sched, coeffs_at=(lambda n: other.coeffs_at(n)) if wrap
                              else other.coeffs_at)
    trajs, _ = run_methods(f2(), [("lt_s_igahd", 0.1, {"schedule": new}),
                                  ("lt_s_igahd", 0.1, {"schedule": sched})],
                           [1.0, -2.0], _TIGHT, record=True)
    want, _ = run(make_stepper("lt_s_igahd", 0.1, schedule=other), f2(), [1.0, -2.0], 0.1,
                  _TIGHT)
    assert trajs[0].xs.tobytes() == want.xs.tobytes()
    assert trajs[1].xs.shape != want.xs.shape or trajs[1].xs.tobytes() != want.xs.tobytes()
