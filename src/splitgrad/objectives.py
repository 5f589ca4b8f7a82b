"""Smooth convex test objectives with analytic derivatives.

Two fixed benchmark functions plus parameterized positive-semidefinite
quadratics. "f1" is a degenerate quadratic whose minimizers form the line
x1 = -x2; "f2" is coercive with a unique minimizer at the origin. The
quadratics widen the corpus for property tests, since the inequalities we
verify are quantified over all smooth convex functions, not just the two
benchmarks.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

Array = np.ndarray

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Objective:
    """A smooth convex function with analytic gradient and a stored
    gradient-Lipschitz constant.

    `hessian_vec` maps (x, v) to the Hessian-vector product and may be
    absent. `value_and_gradient` maps x to (value, gradient) in one call
    that shares their common work; it may be absent, and when present it
    must agree bitwise with (value(x), gradient(x)). `argmin_kind` is
    "unique" when `argmin_point` is the only minimizer and "affine" when the
    minimizers form an affine set, in which case `argmin_point` is one
    representative.
    """

    name: str
    dim: int
    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    lipschitz: float
    hessian_vec: Optional[Callable[[Array, Array], Array]] = None
    argmin_kind: str = "unique"
    argmin_point: Optional[Array] = None
    f_min: Optional[float] = None
    value_and_gradient: Optional[Callable[[Array], Tuple[float, Array]]] = None

    def _as_point(self, x, label: str = "x") -> Array:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"{label} has shape {x.shape}, expected ({self.dim},) for objective {self.name!r}"
            )
        return x

    def eval(self, x) -> float:
        return float(self.value(self._as_point(x)))

    def grad(self, x) -> Array:
        return np.asarray(self.gradient(self._as_point(x)), dtype=float)

    def eval_grad(self, x) -> Tuple[float, Array]:
        """(eval(x), grad(x)), from the fused `value_and_gradient` when the
        objective supplies one."""
        if self.value_and_gradient is None:
            return self.eval(x), self.grad(x)
        f, g = self.value_and_gradient(self._as_point(x))
        return float(f), np.asarray(g, dtype=float)

    def hess_vec(self, x, v) -> Array:
        if self.hessian_vec is None:
            raise NotImplementedError(
                f"objective {self.name!r} does not provide a Hessian-vector product"
            )
        return np.asarray(
            self.hessian_vec(self._as_point(x), self._as_point(v, "v")), dtype=float
        )

    def lipschitz_constant(self) -> float:
        return self.lipschitz


def f1() -> Objective:
    """f(x) = (x1 + x2)^2 with gradient Lipschitz constant 4."""

    def value(x):
        return (x[0] + x[1]) ** 2

    def gradient(x):
        g = 2.0 * (x[0] + x[1])
        return np.array([g, g])

    def hessian_vec(x, v):
        # constant Hessian [[2, 2], [2, 2]]
        w = 2.0 * (v[0] + v[1])
        return np.array([w, w])

    return Objective(
        name="f1",
        dim=2,
        value=value,
        gradient=gradient,
        lipschitz=4.0,
        hessian_vec=hessian_vec,
        argmin_kind="affine",
        argmin_point=np.zeros(2),
        f_min=0.0,
    )


def f2() -> Objective:
    """f(x) = sqrt(1 + x1^2) + sqrt(1 + x2^2), minimized at the origin.

    The stored Lipschitz constant is sqrt(2), the conservative value in use
    throughout; per coordinate the curvature (1 + x^2)^(-3/2) never exceeds 1.
    """

    def value(x):
        return float(np.sqrt(1.0 + x[0] ** 2) + np.sqrt(1.0 + x[1] ** 2))

    def gradient(x):
        return x / np.sqrt(1.0 + x * x)

    def hessian_vec(x, v):
        # diagonal Hessian with entries (1 + x_i^2)^(-3/2)
        return v / np.sqrt(1.0 + x * x) ** 3

    return Objective(
        name="f2",
        dim=2,
        value=value,
        gradient=gradient,
        lipschitz=float(np.sqrt(2.0)),
        hessian_vec=hessian_vec,
        argmin_kind="unique",
        argmin_point=np.zeros(2),
        f_min=2.0,
    )


def quadratic(a_matrix, b_vector=None) -> Objective:
    """f(x) = x'Ax/2 + b'x for symmetric positive-semidefinite A.

    The Lipschitz constant is the largest eigenvalue of A. Rejects matrices
    with a negative eigenvalue and linear terms outside the range of A
    (those make f unbounded below).
    """
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"quadratic matrix must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + float(np.abs(a).max()))):
        raise ValueError("quadratic matrix must be symmetric")
    dim = a.shape[0]
    b = np.zeros(dim) if b_vector is None else np.asarray(b_vector, dtype=float)
    if b.shape != (dim,):
        raise ValueError(f"linear term has shape {b.shape}, expected ({dim},)")

    eigs, vecs = np.linalg.eigh(a)
    tol = 1e-12 * max(1.0, float(eigs[-1]))
    if eigs[0] < -tol:
        raise ValueError(f"quadratic matrix has negative eigenvalue {eigs[0]}")
    lip = float(max(eigs[-1], 0.0))

    # minimum-norm minimizer through the pseudo-inverse of A at tolerance tol
    kept = eigs > tol
    coords = np.zeros(dim)
    coords[kept] = (vecs.T @ -b)[kept] / eigs[kept]
    x_star = vecs @ coords
    if not np.allclose(a @ x_star + b, 0.0, atol=1e-9 * (1.0 + float(np.linalg.norm(b)))):
        raise ValueError("quadratic is unbounded below: linear term outside the matrix range")

    def value(x):
        return 0.5 * float(x @ (a @ x)) + float(b @ x)

    def gradient(x):
        return a @ x + b

    def value_and_gradient(x):
        # value and gradient above, sharing the one product A x
        ax = a @ x
        return 0.5 * float(x @ ax) + float(b @ x), ax + b

    def hessian_vec(x, v):
        return a @ v

    return Objective(
        name="quadratic",
        dim=dim,
        value=value,
        gradient=gradient,
        lipschitz=lip,
        hessian_vec=hessian_vec,
        argmin_kind="unique" if kept.all() else "affine",
        argmin_point=x_star,
        f_min=0.5 * float(x_star @ (a @ x_star)) + float(b @ x_star),
        value_and_gradient=value_and_gradient,
    )


_BUILTIN = {"f1": f1, "f2": f2, "quadratic": quadratic}


def make_objective(name: str, **params) -> Objective:
    """Build a built-in objective by name: "f1", "f2", or "quadratic"
    (the latter takes a_matrix and optional b_vector)."""
    try:
        factory = _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown objective {name!r}; choose from {sorted(_BUILTIN)}") from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as e:
        raise ValueError(f"objective {name!r}: {e}") from None
    return factory(**params)


def numerical_gradient(obj: Objective, x) -> Array:
    """Central-difference gradient with step cbrt(eps)*(1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    delta = _EPS ** (1.0 / 3.0) * (1.0 + float(np.linalg.norm(x)))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = delta
        g[i] = (obj.eval(x + e) - obj.eval(x - e)) / (2.0 * delta)
    return g
