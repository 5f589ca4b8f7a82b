"""Smooth convex test objectives with analytic derivatives.

Two fixed benchmark functions plus parameterized positive-semidefinite
quadratics. "f1" is a degenerate quadratic whose minimizers form the line
x1 = -x2; "f2" is coercive with a unique minimizer at the origin. The
quadratics widen the corpus for property tests, since the inequalities we
verify are quantified over all smooth convex functions, not just the two
benchmarks.

The built-in objectives evaluate over the last axis: a stack of B points of
shape (B, dim) gives B values and a (B, dim) stack of gradients. On f1 and
f2 each row is bitwise the same point evaluated on its own; the quadratic
takes one matrix product for the whole stack, whose sums may round
otherwise than the one-point product. That is what lets
`algorithms.run_methods` step many trajectories in one loop.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class Objective:
    """A smooth convex function with analytic gradient and a stored
    gradient-Lipschitz constant, the field `lipschitz`.

    `hessian_vec` maps (x, v) to the Hessian-vector product and may be
    absent. `value_and_gradient` maps x to (value, gradient) in one call
    that shares their common work; it may be absent, and when present it
    must agree bitwise with (value(x), gradient(x)). `argmin_kind` is
    "unique" when `argmin_point` is the only minimizer and "affine" when the
    minimizers form an affine set, in which case `argmin_point` is one
    representative.

    `affine_gradient` declares that the gradient is affine, g(x) = A x + b,
    which lets `algorithms` take a gradient at a combination of cached
    points as the same combination of their cached gradients instead of a
    new evaluation. Declare it only for an affine gradient. Iterates then
    agree with the direct recursion to rounding, not bitwise. Only
    `quadratic` declares it; f1 has an affine gradient too but is
    deliberately undeclared, so that its iterates keep their bits.

    The methods take one point of shape (dim,). When `batched` is set,
    `value`, `gradient` and `value_and_gradient` also take B points stacked
    as (B, dim) and evaluate over the last axis, and so do `eval` (B
    values), `grad` and `eval_grad`; `hess_vec` takes one point.

    The methods `eval`, `grad`, `eval_grad` and `hess_vec` are the checked
    calls: they refuse a point of the wrong shape, and `grad`, `eval_grad`
    and `hess_vec` refuse a gradient or product that is not a float array
    of the point's shape, naming the objective. A run makes them once, at
    its entry, where `start_point` also refuses a start point that is not
    finite. Its loop then calls the fields `gradient`,
    `value_and_gradient` (or `value` and `gradient`) and `hessian_vec`
    themselves on the points it makes, with the bits the checked calls
    give.
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
    batched: bool = False
    affine_gradient: bool = False

    def _as_point(self, x, label: str = "x", stack: bool = True) -> Array:
        """x as one point, or as a stack of points when `stack` is allowed
        and the objective is batched."""
        x = np.asarray(x, dtype=float)
        stack = stack and self.batched
        if x.shape != (self.dim,) and not (stack and x.ndim == 2 and x.shape[1] == self.dim):
            expected = f"({self.dim},) or (lanes, {self.dim})" if stack else f"({self.dim},)"
            raise ValueError(
                f"{label} has shape {x.shape}, expected {expected} for objective {self.name!r}"
            )
        return x

    def _as_returned(self, out, x: Array, what: str) -> Array:
        """out, what the objective's own `what` returned at x, when it is a
        float array of x's shape; ValueError naming the objective otherwise."""
        if not (isinstance(out, np.ndarray) and out.dtype == np.float64
                and out.shape == x.shape):
            got = (f"a {out.dtype} array of shape {out.shape}" if isinstance(out, np.ndarray)
                   else f"a {type(out).__name__}")
            raise ValueError(f"the {what} of objective {self.name!r} returned {got}, "
                             f"expected a float array of shape {x.shape}")
        return out

    def start_point(self, x, label: str = "x0") -> Array:
        """x as one finite point of shape (dim,), else ValueError naming
        `label`: a run's check of its start, made once at its entry."""
        x = self._as_point(x, label, stack=False)
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{label} must be finite")
        return x

    def eval(self, x):
        x = self._as_point(x)
        f = self.value(x)
        return float(f) if x.ndim == 1 else np.asarray(f, dtype=float)

    def grad(self, x) -> Array:
        x = self._as_point(x)
        return self._as_returned(self.gradient(x), x, "gradient")

    def eval_grad(self, x):
        """(eval(x), grad(x)), from the fused `value_and_gradient` when the
        objective supplies one."""
        if self.value_and_gradient is None:
            return self.eval(x), self.grad(x)
        x = self._as_point(x)
        f, g = self.value_and_gradient(x)
        return (float(f) if x.ndim == 1 else np.asarray(f, dtype=float),
                self._as_returned(g, x, "gradient"))

    def hess_vec(self, x, v) -> Array:
        if self.hessian_vec is None:
            raise NotImplementedError(
                f"objective {self.name!r} does not provide a Hessian-vector product"
            )
        x, v = self._as_point(x, stack=False), self._as_point(v, "v", stack=False)
        return self._as_returned(self.hessian_vec(x, v), v, "Hessian-vector product")


def _square(u):
    """u ** 2 as a lone float takes it, through the C library's pow. On an
    array the operator ** multiplies instead, which can differ in the last
    bit, so an array is squared element by element with np.float_power."""
    if isinstance(u, np.ndarray):
        return np.float_power(u, 2.0)
    return u ** 2


def _row_dot(u, v):
    """u @ v for one point; for a stack, the dot product of each row of u
    with the same row of v, summed as the one-point u @ v sums."""
    if u.ndim == 1:
        return u @ v
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def f1() -> Objective:
    """f(x) = (x1 + x2)^2 with gradient Lipschitz constant 4."""

    # x.T[i] is coordinate i of one point, a number (which keeps its
    # arithmetic cheap), or of every point of a stack
    def value(x):
        xt = x.T
        return _square(xt[0] + xt[1])

    def gradient(x):
        xt = x.T
        g = 2.0 * (xt[0] + xt[1])
        return np.array([g, g]).T

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
        batched=True,
    )


def f2() -> Objective:
    """f(x) = sqrt(1 + x1^2) + sqrt(1 + x2^2), minimized at the origin.

    The stored Lipschitz constant is sqrt(2), the conservative value in use
    throughout; per coordinate the curvature (1 + x^2)^(-3/2) never exceeds 1.
    """

    def value(x):
        xt = x.T
        return np.sqrt(1.0 + _square(xt[0])) + np.sqrt(1.0 + _square(xt[1]))

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
        batched=True,
    )


def quadratic(a_matrix, b_vector=None) -> Objective:
    """f(x) = x'Ax/2 + b'x for symmetric positive-semidefinite A.

    Rejects, in this order, an A that is not square or is empty and a b of
    the wrong length, a NaN or infinite entry of A or b, an A that is not
    symmetric or has a negative eigenvalue, and a b outside the range of A
    (that makes f unbounded below): the minimizer x* must satisfy
    max_i |(A x* + b)_i| <= 1e-9 (1 + |b|), or, for a definite A, whose
    range is all of R^d, 1e-9 (1 + |b| + L |x*|), so that a definite A of
    any condition builds.

    A build takes the eigenvalues of A from `np.linalg.eigvalsh`, which
    gives the Lipschitz constant (the largest eigenvalue; it may differ
    from `eigh`'s in its last bits), the tolerance and `argmin_kind`. For a
    definite A the minimizer is one `np.linalg.solve`. Only a singular A,
    or a solve that raises or misses the range check, pays for the
    eigenvectors of `np.linalg.eigh`, whose pseudo-inverse gives the
    minimum-norm minimizer. On the dim-1000 matrix of the quad1000
    benchmark `eigvalsh` takes about 0.11 s and the solve 0.03 s, against
    0.23 s for `eigh` (2 CPUs, one BLAS thread).
    """
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"quadratic matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("quadratic matrix must be at least 1 x 1")
    dim = a.shape[0]
    b = np.zeros(dim) if b_vector is None else np.asarray(b_vector, dtype=float)
    if b.shape != (dim,):
        raise ValueError(f"linear term has shape {b.shape}, expected ({dim},)")
    for label, arr in (("quadratic matrix", a), ("linear term", b)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{label} entries must be finite")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + float(np.abs(a).max()))):
        raise ValueError("quadratic matrix must be symmetric")

    eigs = np.linalg.eigvalsh(a)
    tol = 1e-12 * max(1.0, float(eigs[-1]))
    if eigs[0] < -tol:
        raise ValueError(f"quadratic matrix has negative eigenvalue {eigs[0]}")
    lip = float(max(eigs[-1], 0.0))

    def stationary(x, definite):
        # only a definite A adds its own scale L |x|: on a singular one a small
        # kept eigenvalue makes |x| large, and L |x| would pass a b with a
        # component on the null space, along which f is unbounded below
        scale = 1.0 + float(np.linalg.norm(b)) + definite * lip * float(np.linalg.norm(x))
        return float(np.max(np.abs(a @ x + b))) <= 1e-9 * scale

    kept = eigs > tol
    definite = bool(kept.all())
    x_star = None
    if definite:
        try:
            x_star = np.linalg.solve(a, -b)
        except np.linalg.LinAlgError:   # singular to working precision
            pass
    # a solve that misses the range check (an ill-conditioned A) leaves the
    # verdict to the pseudo-inverse, so no A that it accepts is refused
    if x_star is None or not stationary(x_star, definite):
        # minimum-norm minimizer through the pseudo-inverse of A at tolerance tol
        eigs, vecs = np.linalg.eigh(a)
        kept = eigs > tol
        coords = np.zeros(dim)
        coords[kept] = (vecs.T @ -b)[kept] / eigs[kept]
        x_star = vecs @ coords
        if not stationary(x_star, definite and kept.all()):
            raise ValueError("quadratic is unbounded below: linear term outside the matrix range")

    # x @ a_t is A x for each point (row) of x; for one point it computes
    # a @ x with the same BLAS call and bits
    a_t = a.T

    def value(x):
        return 0.5 * _row_dot(x, x @ a_t) + x @ b

    def gradient(x):
        return x @ a_t + b

    def value_and_gradient(x):
        # value and gradient above, sharing the one product A x
        ax = x @ a_t
        return 0.5 * _row_dot(x, ax) + x @ b, ax + b

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
        batched=True,
        affine_gradient=True,
    )


_BUILTIN = {"f1": f1, "f2": f2, "quadratic": quadratic}


def make_objective(name: str, **params) -> Objective:
    """Build a built-in objective by name: "f1", "f2", or "quadratic"
    (the latter takes a_matrix and optional b_vector)."""
    try:
        factory = _BUILTIN[name]
    except (KeyError, TypeError):   # TypeError: a name that cannot be a key
        raise ValueError(f"unknown objective {name!r}; choose from {sorted(_BUILTIN)}") from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as e:
        raise ValueError(f"objective {name!r}: {e}") from None
    return factory(**params)

