"""Array forms of the inequality checks and of the Hamiltonian energy: a
stack gives, row by row, what one-point calls give, a bad row is named,
and the suites built on them keep their verdicts and output lines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad import algorithms, constructions, verify
from splitgrad.analysis import check_descent_lemma, check_quadratic_lemma
from splitgrad.objectives import quadratic
from splitgrad.splitting import HamiltonianSystem, symplectic_euler


def _pd_quadratic(rng, dim):
    m = rng.standard_normal((dim, dim))
    a = m @ m.T / dim + 0.1 * np.eye(dim)
    return quadratic(a, rng.standard_normal(dim))


def _triples(seed, dim, rows):
    rng = np.random.default_rng([seed, dim, rows])
    obj = _pd_quadratic(rng, dim)
    lip = obj.lipschitz
    x, y, z = rng.normal(scale=2.0, size=(3, rows, dim))
    s = rng.uniform(0.05, 1.0, rows) / lip
    return obj, x, y, z, s, rng.uniform(0.0, s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), rows=st.integers(1, 70),
       variant=st.sampled_from(["dl", "edl", "eedl"]), per_row=st.booleans())
def test_descent_lemma_stack_rows_match_one_point_calls(seed, dim, rows, variant, per_row):
    obj, x, y, z, s, gam = _triples(seed, dim, rows)
    if not per_row:   # one stepsize and one gamma for the whole stack
        s, gam = np.full(rows, s[0]), np.full(rows, gam[0])
    kw = {"dl": {}, "edl": {"s": s}, "eedl": {"s": s, "gamma": gam, "z": z}}[variant]
    if not per_row and kw:
        kw = dict(kw, s=float(s[0]), gamma=float(gam[0]))
    r = check_descent_lemma(obj, x, y, variant, **kw)
    assert isinstance(r, np.ndarray) and r.shape == (rows,)
    lip = obj.lipschitz
    for i in range(rows):
        one = check_descent_lemma(obj, x[i], y[i], variant, s=float(s[i]),
                                  gamma=float(gam[i]), z=z[i])
        assert isinstance(one, float)
        scale = max(1.0, abs(obj.eval(x[i])), abs(obj.eval(y[i])), abs(obj.eval(z[i])),
                    lip * float(x[i] @ x[i] + y[i] @ y[i] + z[i] @ z[i]))
        assert abs(r[i] - one) <= 1e-12 * scale


def _sign_samples(seed, rows, variant):
    """Samples from the distributions `verify.suite_lemmas` draws from,
    here from numpy's generator rather than the suite's seeded standard
    library one, with boundary cases mixed in: for l17 the double root
    (x - r)^2 with x next to r, for l18 x on a root."""
    rng = np.random.default_rng([seed, rows])
    a = rng.uniform(0.1, 5.0, rows)
    b = rng.normal(scale=2.0, size=rows)
    edge = rng.random(rows) < 0.25
    if variant == "l17":
        c = b * b / (4.0 * a) + rng.uniform(0.0, 5.0, rows)
        x = rng.normal(scale=3.0, size=rows)
        r = np.round(4.0 * x) / 4.0   # dyadic, so r^2 and -2r are exact
        return (np.where(edge, 1.0, a), np.where(edge, -2.0 * r, b),
                np.where(edge, r * r, c), np.where(edge, r + 1e-9 * x, x))
    c = b * b / (4.0 * a) - rng.uniform(1e-12, 5.0, rows)
    root = np.sqrt(b * b - 4.0 * a * c)
    off = np.where(edge, 0.0, rng.uniform(0.0, 3.0, rows))
    x = np.where(rng.random(rows) < 0.5, (-b + root) / (2.0 * a) + off,
                 (-b - root) / (2.0 * a) - off)
    return a, b, c, x


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 70),
       variant=st.sampled_from(["l17", "l18"]))
def test_quadratic_lemma_array_matches_scalar_calls(seed, rows, variant):
    a, b, c, x = _sign_samples(seed, rows, variant)
    ok = check_quadratic_lemma(a, b, c, x, variant)
    assert ok.dtype == bool and ok.shape == (rows,)
    for i in range(rows):
        one = check_quadratic_lemma(float(a[i]), float(b[i]), float(c[i]), float(x[i]),
                                    variant)
        assert type(one) is bool and one == ok[i]


@pytest.mark.parametrize("bad_row", [0, 3, 6])
def test_one_bad_row_is_named(bad_row):
    obj, x, y, z, s, gam = _triples(7, 3, 7)
    s_bad = s.copy()
    s_bad[bad_row] = 1.5 / obj.lipschitz
    for variant in ("edl", "eedl"):
        with pytest.raises(ValueError, match=f"at index {bad_row}$"):
            check_descent_lemma(obj, x, y, variant, s=s_bad, gamma=gam, z=z)

    ones = np.ones(7)
    cases = (
        ("l17", ones, np.zeros(7), ones, ones, "leading coefficient", (0, -1.0)),
        ("l17", ones, np.zeros(7), ones, ones, "discriminant", (2, -1.0)),  # b^2 - 4ac = 4
        ("l18", ones, np.zeros(7), -ones, 2.0 * ones, "discriminant", (2, 1.0)),
        ("l18", ones, np.zeros(7), -ones, 2.0 * ones, "inside the root", (3, 0.5)),
    )
    for variant, a, b, c, xs, msg, (arg, value) in cases:
        args = [a.copy(), b.copy(), c.copy(), xs.copy()]
        args[arg][bad_row] = value
        with pytest.raises(ValueError, match=f"{msg}.* at index {bad_row}$"):
            check_quadratic_lemma(*args, variant)


def test_array_inputs_are_checked():
    obj, x, y, z, s, gam = _triples(3, 2, 5)
    with pytest.raises(ValueError):     # y is not a stack like x
        check_descent_lemma(obj, x, y[0], "dl")
    with pytest.raises(ValueError):     # z has fewer rows
        check_descent_lemma(obj, x, y, "eedl", s=s, gamma=gam, z=z[:4])
    with pytest.raises(ValueError):     # per-row stepsizes for one point
        check_descent_lemma(obj, x[0], y[0], "edl", s=s)
    with pytest.raises(ValueError):     # one stepsize too few
        check_descent_lemma(obj, x, y, "edl", s=s[:4])
    with pytest.raises(ValueError):
        check_quadratic_lemma(np.ones(3), np.zeros(3), np.ones(3), np.zeros(2), "l17")


def _stack_oscillator(dim):
    w = np.arange(1.0, dim + 1.0)
    return HamiltonianSystem(potential=lambda x: 0.5 * np.sum(w * x * x, axis=-1),
                             grad_potential=lambda x: w * x)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), rows=st.integers(1, 70))
def test_energy_of_a_stack_is_the_per_row_energies(seed, dim, rows):
    hs = _stack_oscillator(dim)
    rng = np.random.default_rng([seed, dim, rows])
    xs, vs = rng.normal(scale=2.0, size=(2, rows, dim))
    e = hs.energy(xs, vs)
    assert e.shape == (rows,)
    assert all(e[i] == hs.energy(xs[i], vs[i]) for i in range(rows))


def test_energy_stack_contracts():
    one_point = HamiltonianSystem(potential=lambda x: 0.5 * float(np.dot(x, x)),
                                  grad_potential=lambda x: x)
    with pytest.raises(ValueError):     # written for one point, not for a stack
        one_point.energy(np.ones((3, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        _stack_oscillator(2).energy(np.ones((3, 2)), np.ones((2, 2)))


@pytest.mark.parametrize("n_steps", [1, 7, 1000, 2345])
def test_symplectic_drift_is_the_per_step_band(n_steps):
    hs = _stack_oscillator(2)
    x, v = np.array([1.0, -0.5]), np.array([0.0, 0.3])
    e0 = hs.energy(x, v)
    want = 0.0
    state = (x, v)
    for _ in range(n_steps):
        state = symplectic_euler(hs, state, 0.05, "se2")
        want = max(want, abs(hs.energy(*state) - e0))
    assert verify.symplectic_drift(hs, (x, v), 0.05, n_steps) == want


@pytest.mark.parametrize("n_steps", [1, 7, 1000, 2345])
def test_symplectic_drift_of_a_scalar_state_is_that_of_one_element(n_steps):
    # a 0-d state is stored as a one-element row, so a block is still a stack
    hs = HamiltonianSystem(potential=lambda x: 1.5 * np.sum(x * x, axis=-1),
                           grad_potential=lambda x: 3.0 * x)
    want = verify.symplectic_drift(hs, (np.array([1.0]), np.array([-0.5])), 0.05, n_steps)
    assert verify.symplectic_drift(hs, (1.0, -0.5), 0.05, n_steps) == want
    assert verify.symplectic_drift(hs, (np.array(1.0), np.array(-0.5)), 0.05,
                                   n_steps) == want
    with pytest.raises(ValueError):
        verify.symplectic_drift(hs, (np.ones((1, 1)), np.zeros((1, 1))), 0.05, 10)


def test_symplectic_suite_lines_are_unchanged():
    # recorded before the energy band was taken over stored states
    results = verify.suite_symplectic()
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("symplectic/bounded-band", True,
         "max |H - H0| = 2.513e-03 (0.50% of H0) over 100000 steps"),
        ("symplectic/euler-grows", True, "explicit Euler energy grew 22015x"),
    ]
    hs = HamiltonianSystem(potential=lambda x: 0.5 * np.sum(x * x, axis=-1),
                           grad_potential=lambda x: x)
    drift = verify.symplectic_drift(hs, (np.array([1.0]), np.array([0.0])), 0.01, 100_000)
    assert repr(drift) == "0.0025125628140267864"


_GAP = "max relative gap {} over 1000 steps"

# recorded before the direct steppers ran as lane batches and the ode
# route recovered v in one call
SUITE_LINES = {
    "constructions": [
        (f"construction/{name}/{tag}", True, _GAP.format(gap))
        for tag, gaps in (("f1", ["1.924e-15", "3.257e-15", "2.961e-15", "1.924e-15",
                                  "4.145e-15", "4.589e-15", "3.405e-15"]),
                          ("f2", ["8.882e-16", "1.275e-15", "2.165e-15", "1.665e-15",
                                  "3.386e-15", "2.608e-15", "1.596e-15"]))
        for name, gap in zip(["igahd", "lt_s_igahd", "pim", "ardm", "lt_se1", "lt_sv2",
                              "lt_se3"], gaps)],
    "rate": [
        ("rate/slope/agm2", True, "log-log slope -10.058 over n in [50, 2000]"),
        ("rate/tail-bound/agm2", True,
         "fgap(n) <= 9.789e+01*(alpha-1)^2/(n-1)^2 from n=3: holds"),
        ("rate/slope/lt_s_igahd", True, "log-log slope -10.527 over n in [50, 2000]"),
        ("rate/tail-bound/lt_s_igahd", True,
         "fgap(n) <= 9.907e+01*(alpha-1)^2/(n-1)^2 from n=5: holds"),
    ],
    "ode": [
        ("ode/gaps-shrink", True, "sup gaps 2.626e-09 -> 1.623e-10 -> 1.009e-11"),
        ("ode/order", True, "observed orders 4.02, 4.01"),
    ],
    # the Lie-Trotter gaps were recorded before both suites read verify.ROUTES
    "nesterov-split": [
        ("nesterov-split/f1", True, "max relative gaps 1.628e-15 (nesterov_lie_trotter), "
                                    "1.628e-15 (nesterov_velocity_form) over 1000 steps"),
        ("nesterov-split/f2", True, "max relative gaps 6.661e-16 (nesterov_lie_trotter), "
                                    "4.660e-16 (nesterov_velocity_form) over 1000 steps"),
    ],
}


@pytest.mark.parametrize("suite", sorted(SUITE_LINES))
def test_suite_lines_are_unchanged(suite):
    results = verify.SUITES[suite]()
    assert [(r.name, r.passed, r.detail) for r in results] == SUITE_LINES[suite]


def test_route_table_names_each_construction_once():
    want = ["nesterov_lie_trotter", "nesterov_velocity_form"] + [
        name for name in dir(constructions) if name.endswith("_construction")]
    assert len(want) == 9
    assert sorted(route.construction for route in verify.ROUTES) == sorted(want)


def test_route_suites_look_each_construction_up_when_they_run(monkeypatch):
    # a row that bound its construction at import would bypass the wrapper
    calls = {route.construction: 0 for route in verify.ROUTES}
    for name in calls:
        def counted(*args, name=name, fn=getattr(constructions, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(constructions, name, counted)
    results = verify.suite_nesterov_split() + verify.suite_constructions()
    assert all(r.passed for r in results)
    assert calls == {name: 2 for name in calls}   # once per test objective


def test_route_suites_run_each_direct_method_once(monkeypatch):
    # agm2's two rows compare their constructions with one direct run
    batches = []
    run_methods = algorithms.run_methods
    def counted(obj, cells, *args, **kwargs):
        batches.append([name for name, _, _ in cells])
        return run_methods(obj, cells, *args, **kwargs)
    monkeypatch.setattr(algorithms, "run_methods", counted)
    assert all(r.passed for r in verify.suite_nesterov_split() + verify.suite_constructions())
    others = [route.method for route in verify.ROUTES if route.method != "agm2"]
    assert batches == [["agm2"]] * 2 + [others] * 2


def test_nesterov_split_fails_when_either_construction_misses_agm2(monkeypatch):
    # a velocity form 1e-11 off agm2 fails both checks, and the detail
    # still reports the Lie-Trotter gap beside it
    exact = constructions.nesterov_velocity_form
    monkeypatch.setattr(constructions, "nesterov_velocity_form",
                        lambda *args, **kwargs: exact(*args, **kwargs) * (1.0 + 1e-11))
    results = verify.suite_nesterov_split()
    assert [(r.name, r.passed) for r in results] == [("nesterov-split/f1", False),
                                                     ("nesterov-split/f2", False)]
    assert results[0].detail.startswith("max relative gaps 1.628e-15 (nesterov_lie_trotter), ")
    gap = float(results[0].detail.split(", ")[1].split(" ")[0])
    assert 1e-12 < gap < 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_lemma_suite_passes_at_seed(seed):
    results = verify.suite_lemmas(seed)
    assert [r.name for r in results] == ["lemmas/descent-family", "lemmas/sign-family"]
    assert all(r.passed for r in results), [r.detail for r in results]
    assert results[0].detail.startswith("10500 samples, 0 violations")
    assert results[1].detail == "100000 samples, 0 violations"
