import warnings

import numpy as np
import pytest

from splitgrad.objectives import f1, f2, make_objective, quadratic


def numerical_gradient(obj, x):
    """Central-difference gradient with step cbrt(eps)*(1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    delta = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + float(np.linalg.norm(x)))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = delta
        g[i] = (obj.eval(x + e) - obj.eval(x - e)) / (2.0 * delta)
    return g


def test_f1_values_and_gradient():
    obj = f1()
    assert obj.eval([1.0, -2.0]) == 1.0
    assert np.array_equal(obj.grad([1.0, -2.0]), [-2.0, -2.0])
    # any point on the line x1 + x2 = 0 is a minimizer
    assert obj.eval([1.5, -1.5]) == 0.0
    assert np.array_equal(obj.grad([1.5, -1.5]), [0.0, 0.0])
    assert obj.lipschitz_constant() == 4.0
    assert obj.argmin_kind == "affine"
    assert obj.f_min == 0.0


def test_f1_hessian_vector_product():
    obj = f1()
    # constant Hessian [[2, 2], [2, 2]]
    assert np.array_equal(obj.hess_vec([3.0, 7.0], [1.0, 0.0]), [2.0, 2.0])
    assert np.array_equal(obj.hess_vec([0.0, 0.0], [1.0, 1.0]), [4.0, 4.0])


def test_f2_values_and_gradient():
    obj = f2()
    assert obj.eval([0.0, 0.0]) == 2.0
    assert obj.f_min == 2.0
    assert np.array_equal(obj.grad([0.0, 0.0]), [0.0, 0.0])
    assert obj.eval([1.0, -2.0]) == 3.6502815398728847
    g = obj.grad([1.0, -2.0])
    assert g[0] == 0.7071067811865475
    assert g[1] == -0.8944271909999159
    assert obj.lipschitz_constant() == np.sqrt(2.0)
    assert obj.argmin_kind == "unique"


def test_f2_hessian_vector_product_at_origin():
    obj = f2()
    v = np.array([0.3, -0.4])
    assert np.allclose(obj.hess_vec([0.0, 0.0], v), v, rtol=0.0, atol=0.0)


def test_gradients_match_finite_differences():
    rng = np.random.RandomState(3517)
    for obj in (f1(), f2()):
        for _ in range(25):
            x = rng.randn(2) * 2.0
            num = numerical_gradient(obj, x)
            assert np.max(np.abs(num - obj.grad(x))) < 1e-6


def test_quadratic_basics():
    obj = quadratic([[2.0, 0.0], [0.0, 4.0]], [1.0, -1.0])
    assert obj.lipschitz_constant() == 4.0
    assert np.allclose(obj.argmin_point, [-0.5, 0.25])
    assert obj.f_min == pytest.approx(-0.375, abs=1e-15)
    assert obj.argmin_kind == "unique"
    x = np.array([1.0, 2.0])
    assert obj.eval(x) == pytest.approx(0.5 * (2.0 + 16.0) + (1.0 - 2.0))
    assert np.allclose(obj.grad(x), [3.0, 7.0])
    assert np.allclose(obj.hess_vec(x, [1.0, 1.0]), [2.0, 4.0])


def test_quadratic_singular_but_consistent():
    # rank-1 matrix, b in its range: affine set of minimizers
    obj = quadratic([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
    assert obj.argmin_kind == "affine"
    assert np.allclose(obj.grad(obj.argmin_point), 0.0, atol=1e-12)


def test_quadratic_rejects_bad_input():
    with pytest.raises(ValueError):
        quadratic([[1.0, 2.0], [0.0, 1.0]])            # not symmetric
    with pytest.raises(ValueError):
        quadratic([[-1.0, 0.0], [0.0, 1.0]])           # negative eigenvalue
    with pytest.raises(ValueError):
        quadratic([[1.0, 1.0], [1.0, 1.0]], [1.0, -1.0])  # unbounded below


@pytest.mark.parametrize("a,b,needle", [
    ([[1.0, np.nan], [np.nan, 1.0]], None, "quadratic matrix"),
    ([[1.0, 2.0], [0.0, np.nan]], None, "quadratic matrix"),   # also not symmetric
    ([[1.0, np.inf], [np.inf, 1.0]], None, "quadratic matrix"),
    ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0], "linear term"),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, -np.inf], "linear term"),
], ids=["a-nan", "a-nan-asymmetric", "a-inf", "b-nan", "b-inf"])
def test_quadratic_rejects_non_finite_entries_first(a, b, needle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{needle} entries must be finite$"):
            quadratic(a, b)


def test_dimension_check():
    obj = f2()
    with pytest.raises(ValueError):
        obj.eval([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        obj.grad([1.0])


def test_make_objective():
    assert make_objective("f1").name == "f1"
    assert make_objective("quadratic", a_matrix=[[1.0]]).dim == 1
    with pytest.raises(ValueError):
        make_objective("rosenbrock")
