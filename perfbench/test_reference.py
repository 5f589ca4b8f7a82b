"""Tests of the reference code against values computed by hand.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import reference as ref  # noqa: E402

R2 = math.sqrt(2.0)


# ---------------------------------------------------------------- coefficients


def test_e24_closed_form():
    # s = 0.1, n = 1, no shifts: gamma = 0.1 sqrt(2), lambda = 0, omega = gamma + 0.1
    assert ref.coeffs_e24(1, 0.1, 0.0, 0.0, 0.0) == pytest.approx(
        (-2.0, 0.0, 0.1 * R2 + 0.1, 0.1 * R2), abs=1e-15)
    # n = 2, mu = 1, b = 1: gamma = 0.1, lambda = 0.05 + 1/4,
    # omega = 0.1 + 0.05 + (1/3 - 1/4)
    assert ref.coeffs_e24(2, 0.1, 0.0, 1.0, 1.0) == pytest.approx(
        (-0.5, 0.3, 0.15 + 1.0 / 12.0, 0.1), abs=1e-15)


def test_e25_closed_form():
    # s = 0.25, beta = 0.5: beta sqrt(s) = 0.25; mu = 0.5, b = 1, n = 2:
    # lambda = 0.25 + 0.5/2, omega = 0.125 + 0.5 (3/6 - 1/2) = 0.125
    assert ref.coeffs_e25(2, 0.25, 0.5, 1.0, 0.5) == pytest.approx(
        (-0.5, 0.5, 0.125, 0.0), abs=1e-15)
    assert ref.coeffs_e25(4, 0.25, 0.5, 1.0, 0.0) == pytest.approx(
        (0.25, 0.25, 0.0625, 0.0), abs=1e-15)


def test_e26_closed_form():
    # s = 0.1, a = 1, n = 1: gamma = -0.05, lambda = 0, omega = -0.05 + 0.1
    assert ref.coeffs_e26(1, 0.1, 1.0, 0.0, 0.0) == pytest.approx(
        (-2.0, 0.0, 0.05, -0.05), abs=1e-15)


@pytest.mark.parametrize("label,params", [
    ("e24", {"a": 4.0, "b": 10.0, "mu": 0.01}),
    ("e24", {"a": 2.0, "b": 1.75, "mu": 1.5}),
    ("e25", {"beta": 0.2, "b": 2.0, "mu": 0.1}),
    ("e26", {"a": 21.0, "b": 24.0, "mu": 2.0}),
])
def test_coupling_identity(label, params):
    # gamma_n = (lambda_n + omega_n) - ((n+1)/n) lambda_{n+1} for every family
    c = ref.coeffs(label, params, 0.1)
    for n in (1, 2, 3, 10, 1000):
        _, lam, om, gam = c(n)
        lam_next = c(n + 1)[1]
        assert gam == pytest.approx((lam + om) - (n + 1) / n * lam_next, abs=1e-15)


# ---------------------------------------------------------------- thresholds


def test_n_prime_e24_against_recorded_row():
    # row t1-A1 (f1, s = 0.1, L = 4, a = 4, b = 10, mu = 0.01), recorded N' = -3.56
    p = {"a": 4.0, "b": 10.0, "mu": 0.01}
    alt = 2.0 * 0.16 + 2.0 * 0.01 * 4.0 * R2 + 0.01 - 4.0
    assert ref.n_prime_alt("e24", p, 0.1, 4.0) == pytest.approx(alt, abs=1e-15)
    assert round(alt, 2) == -3.56
    assert ref.n_prime("e24", p, 0.1, 4.0) == pytest.approx(alt + 2.0, abs=1e-15)


def test_n_prime_e24_floor_branch():
    # b - a <= 1/4: the floor (1 - 2b + sqrt(4(a-b) + 1))/2 wins; recorded 2.17
    p = {"a": 3.0, "b": 0.1, "mu": 1e-5}
    want = (1.0 - 0.2 + math.sqrt(12.6)) / 2.0
    assert ref.n_prime_alt("e24", p, 0.1, 4.0) == pytest.approx(want, abs=1e-15)
    assert round(want, 2) == 2.17


def test_n_prime_e25_and_e26():
    # e25, s = 0.25, beta = 0.5, b = 1, mu = 0: p = 0.5, q = 0, c = 0.5 -> N' = 1
    assert ref.n_prime("e25", {"beta": 0.5, "b": 1.0, "mu": 0.0}, 0.25, 1.0) == \
        pytest.approx(1.0, abs=1e-15)
    p = {"a": 0.25, "b": 3.5, "mu": 0.0}
    assert ref.n_prime("e26", p, 0.1, 4.0) == pytest.approx(math.sqrt(3.0) - 0.25, abs=1e-15)
    # curvature-aware: sqrt(0.16 + 1) - 0.25; recorded 0.83
    assert ref.n_prime_alt("e26", p, 0.1, 4.0) == pytest.approx(
        math.sqrt(1.16) - 0.25, abs=1e-15)


def test_ghi_and_n2():
    # gamma = 0, s = 0.1, lambda + omega = 0.1: G = H = I = 0.01, N2 = 1 + sqrt(5)
    g, h, i = ref.ghi(0.1, 4.0, 0.0, 0.05, 0.05)
    assert (g, h, i) == pytest.approx((0.01, 0.01, 0.01), abs=1e-15)
    assert ref.n2(g, h, i) == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-12)
    # gamma = 0.05: -G = (gamma^2 - s^2) + [(s + gamma (1 - L s)) - w]^2 = -0.0075 + 0.0009
    g, _, _ = ref.ghi(0.1, 4.0, 0.05, 0.05, 0.05)
    assert g == pytest.approx(0.0066, abs=1e-15)


def test_n2_at_needs_positive_g():
    with pytest.raises(ValueError):
        ref.n2_at(lambda n: (0.0, 0.0, 0.0, 0.0), 0.1, 4.0, 5)


# ---------------------------------------------------------------- recursions


def test_agm2_on_f1_by_hand():
    # x0 = (1, -2), s = 0.1: x1 = (1.2, -1.8); y1 = x1 - 2 (x1 - x0) = (0.8, -2.2);
    # grad f1(y1) = (-2.8, -2.8), x2 = (1.08, -1.92); |f(x2) - f(x1)| = 0.7056 - 0.36
    term, n, err, x = ref.planar_run("f1", lambda n: ((n - 3.0) / n, 0.0, 0.0, 0.0),
                                     0.1, (1.0, -2.0), 0.0, 2)
    assert (term, n) == ("max_iter", 2)
    assert x == pytest.approx([1.08, -1.92], abs=1e-15)
    assert err == pytest.approx(0.3456, abs=1e-15)


def test_four_coefficient_step_on_f1_by_hand():
    # alpha_1 = -2, lambda = 0.1, omega = 0.05, gamma = 0.02:
    # y1 = x1 - 2 (0.2, 0.2) - 0.1 (0.8, 0.8) - 0.05 (-1.2, -1.2) = (0.78, -2.22)
    # x2 = y1 - 0.1 (-2.88) + 0.02 (-1.2) = (1.044, -1.956)
    _, _, _, x = ref.planar_run("f1", lambda n: (-2.0, 0.1, 0.05, 0.02),
                                0.1, (1.0, -2.0), 0.0, 2)
    assert x == pytest.approx([1.044, -1.956], abs=1e-15)


def test_f2_bootstrap_and_stop():
    # x1 = x0 - 0.1 (1/sqrt 2, -2/sqrt 5); the error on f2 is f(x) - 2
    term, n, err, x = ref.planar_run("f2", lambda n: ((n - 3.0) / n, 0.0, 0.0, 0.0),
                                     0.1, (1.0, -2.0), 0.0, 1)
    want = [1.0 - 0.1 / R2, -2.0 + 0.2 / math.sqrt(5.0)]
    assert (term, n) == ("max_iter", 1)
    assert x == pytest.approx(want, abs=1e-15)
    assert err == pytest.approx(math.sqrt(1 + want[0] ** 2) + math.sqrt(1 + want[1] ** 2) - 2.0,
                                abs=1e-15)
    # a loose tolerance stops at once
    assert ref.planar_run("f2", lambda n: ((n - 3.0) / n, 0.0, 0.0, 0.0),
                          0.1, (1.0, -2.0), 10.0, 100)[:2] == ("tolerance_met", 1)


def test_agm2_dense_by_hand():
    # A = diag(1, 2), b = (-1, 0), x0 = (0, 1), s = 0.25: grad = (x1 - 1, 2 x2)
    # x1 = (0.25, 0.5); y1 = (-0.25, 1.5); x2 = y1 - 0.25 (-1.25, 3) = (0.0625, 0.75)
    a, b = np.diag([1.0, 2.0]), np.array([-1.0, 0.0])
    xs = ref.agm2_dense(a, b, np.array([0.0, 1.0]), 0.25, 2)
    assert xs == pytest.approx(np.array([[0.0, 1.0], [0.25, 0.5], [0.0625, 0.75]]), abs=1e-15)


def test_max_rel_gap():
    ref_xs = np.array([[0.5, 0.0], [4.0, -2.0]])
    xs = ref_xs + np.array([[1e-3, 0.0], [0.0, 2e-3]])
    assert ref.max_rel_gap(xs, ref_xs) == pytest.approx(1e-3, abs=1e-15)


# ---------------------------------------------------------------- energy


def test_dense_minimum_and_gaps():
    a, b = np.diag([1.0, 2.0]), np.array([-1.0, 0.0])
    x_star, f_star = ref.dense_minimum(a, b)
    assert x_star == pytest.approx([1.0, 0.0], abs=1e-15)
    assert f_star == pytest.approx(-0.5, abs=1e-15)
    # f(0, 1) = 1, so the gap is 1.5
    assert ref.dense_gaps(a, np.array([[0.0, 1.0]]), x_star) == pytest.approx([1.5], abs=1e-15)


def test_energy_by_hand():
    # agm2 iterates of test_agm2_on_f1_by_hand, x* = 0, s = 0.1, alpha = 3:
    # E_1 = ||x0||^2/0.2 = 25; z_2 = x1 + (x2 - x1)/2 = (1.14, -1.86),
    # E_2 = 0.25 f1(x2) + ||z_2||^2/0.2 = 0.1764 + 23.796
    xs = np.array([[1.0, -2.0], [1.2, -1.8], [1.08, -1.92]])
    grads = 2.0 * xs.sum(axis=1, keepdims=True) * np.ones((1, 2))
    gaps = xs.sum(axis=1) ** 2
    e = ref.energy(xs, grads, gaps, [0.0, 0.0], np.zeros(2), 0.1)
    assert e == pytest.approx([25.0, 23.9724], abs=1e-12)
    # lambda_2 = 0.1 adds lambda_2 t_3 grad f1(x1) = (-0.12, -0.12) to z_2
    e = ref.energy(xs, grads, gaps, [0.0, 0.1], np.zeros(2), 0.1)
    assert e[1] == pytest.approx(0.1764 + (1.02 ** 2 + 1.98 ** 2) / 0.2, abs=1e-12)


# ---------------------------------------------------------------- inputs


def test_quad_problem_spectrum_and_seed():
    a, b, x0 = inputs.quad_problem(3)
    assert a.shape == (inputs.QUAD_DIM, inputs.QUAD_DIM)
    assert np.array_equal(a, a.T)
    eig = np.linalg.eigvalsh(a)
    want = np.geomspace(inputs.QUAD_EIG_MIN, inputs.QUAD_EIG_MAX, inputs.QUAD_DIM)
    assert eig == pytest.approx(want, rel=1e-9, abs=1e-13)
    assert np.linalg.norm(b) > 0.0 and not x0.any()
    a2, b2, _ = inputs.quad_problem(3)
    assert np.array_equal(a, a2) and np.array_equal(b, b2)
    assert not np.array_equal(b, inputs.quad_problem(4)[1])
