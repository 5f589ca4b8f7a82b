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
    assert obj.lipschitz == 4.0
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
    assert obj.lipschitz == np.sqrt(2.0)
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
    assert obj.lipschitz == 4.0
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
    for b in ([1.0, -1.0], [1e-6, -1e-6]):   # unbounded below, however small b is
        with pytest.raises(ValueError, match="unbounded below"):
            quadratic([[1.0, 1.0], [1.0, 1.0]], b)
    # a small kept eigenvalue makes |x*| = 1e8, which must not widen the
    # range check: b's 1e-3 on the null space leaves f unbounded below
    with pytest.raises(ValueError, match="unbounded below"):
        quadratic(np.diag([1.0, 1e-8, 0.0]), [0.0, 1.0, 1e-3])
    with pytest.raises(ValueError, match=r"^quadratic matrix must be at least 1 x 1$"):
        quadratic(np.zeros((0, 0)))


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


def _psd_problem(rng, dim):
    """A and b drawn as tests/test_constructions.py's _psd_quadratic draws
    them: some eigenvalues may be 0, and b lies in the range of A."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(0.0, 1.0, dim) * (rng.random(dim) < 0.8)
    eigs[0] = 1.0
    a = (q * (10.0 ** rng.uniform(0.0, 1.0) * eigs)) @ q.T
    a = 0.5 * (a + a.T)
    return a, a @ rng.standard_normal(dim)


def _eigh_reference(a, b):
    """(L, argmin_kind, minimum-norm minimizer) from the full
    eigendecomposition and its pseudo-inverse at tolerance 1e-12 max(1, L)."""
    eigs, vecs = np.linalg.eigh(a)
    kept = eigs > 1e-12 * max(1.0, eigs[-1])
    coords = np.zeros(len(b))
    coords[kept] = (vecs.T @ -b)[kept] / eigs[kept]
    return eigs[-1], "unique" if kept.all() else "affine", vecs @ coords


def test_quadratic_matches_the_eigendecomposition():
    problems = [_psd_problem(np.random.default_rng([seed, dim]), dim)
                for dim in range(1, 9) for seed in range(6)]
    rng = np.random.default_rng(200)
    m = rng.standard_normal((200, 200))
    problems.append((m @ m.T / 200.0 + 0.1 * np.eye(200), rng.standard_normal(200)))
    kinds = set()
    for a, b in problems:
        obj = quadratic(a, b)
        lip, kind, x_star = _eigh_reference(a, b)
        # the two LAPACK routes round apart by up to a few eps times the
        # dimension: 8.9 eps on the dim-200 matrix, whose eigvalsh value is
        # the farther of the two from its Rayleigh quotient in long double
        rel = max(8, len(b)) * np.finfo(float).eps
        assert abs(obj.lipschitz - lip) <= rel * lip
        assert obj.argmin_kind == kind
        assert np.linalg.norm(obj.argmin_point - x_star) <= 1e-9 * (1.0 + np.linalg.norm(x_star))
        kinds.add(kind)
    assert kinds == {"unique", "affine"}


def test_quadratic_builds_an_ill_conditioned_definite_matrix():
    # condition 1e10: the range check is relative to |b| + L |x*|, so the
    # solve's residual, about 8e-8 here, does not read as unbounded below
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    a = (q * np.geomspace(1e-10, 1.0, 20)) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(20)
    obj = quadratic(a, b)
    x_star = obj.argmin_point
    assert obj.argmin_kind == "unique"
    scale = 1.0 + np.linalg.norm(b) + obj.lipschitz * np.linalg.norm(x_star)
    assert np.linalg.norm(a @ x_star + b) <= 1e-9 * scale
    assert np.linalg.norm(x_star - _eigh_reference(a, b)[2]) <= 1e-4 * np.linalg.norm(x_star)


def test_quadratic_takes_eigenvectors_only_for_a_singular_matrix(monkeypatch):
    class EighCalled(Exception):
        pass

    def eigh(a):
        raise EighCalled

    rng = np.random.default_rng(50)
    m = rng.standard_normal((50, 50))
    definite = m @ m.T / 50.0 + 0.1 * np.eye(50)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert quadratic(definite, rng.standard_normal(50)).argmin_kind == "unique"
    with pytest.raises(EighCalled):
        quadratic([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])


def _singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("solve", [_singular_solve, lambda a, b: np.zeros_like(b)],
                         ids=["solve-raises", "solve-misses-range-check"])
def test_quadratic_falls_back_to_the_pseudo_inverse(monkeypatch, solve):
    a, b = np.diag([1.0, 4.0]), np.array([1.0, 2.0])
    monkeypatch.setattr(np.linalg, "solve", solve)
    obj = quadratic(a, b)
    assert obj.argmin_kind == "unique"
    assert np.array_equal(obj.argmin_point, _eigh_reference(a, b)[2])


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
