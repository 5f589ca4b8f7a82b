"""Reference computations for the benchmark's correctness checks.

Everything here is written from the formulas themselves and imports nothing
from `splitgrad`, so a check that compares the program's output with these
functions compares two independent routes:

- the e24, e25 and e26 coefficient closed forms;
- the thresholds N1, N' and N2 = (alpha-1)(H + sqrt(H^2 + 4 G I))/(2 G);
- the four-coefficient recursion and agm2 on f1, f2 and a dense quadratic;
- the discrete energy E_n = t_n^2 (f(x_n) - f*) + ||z_n||^2 / (2 s).
"""

from __future__ import annotations

import math

import numpy as np

ALPHA = 3.0

# ---------------------------------------------------------------- objectives
# f1(x) = (x1 + x2)^2, L = 4, minimum 0 on the line x1 = -x2.
# f2(x) = sqrt(1 + x1^2) + sqrt(1 + x2^2), L = sqrt(2), minimum 2 at 0.

LIPSCHITZ = {"f1": 4.0, "f2": math.sqrt(2.0)}
F_MIN = {"f1": 0.0, "f2": 2.0}


def f1_value(x):
    u = x[0] + x[1]
    return u * u


def f1_grad(x):
    g = 2.0 * (x[0] + x[1])
    return [g, g]


def f2_value(x):
    return math.sqrt(1.0 + x[0] * x[0]) + math.sqrt(1.0 + x[1] * x[1])


def f2_grad(x):
    return [x[0] / math.sqrt(1.0 + x[0] * x[0]), x[1] / math.sqrt(1.0 + x[1] * x[1])]


PLANAR = {"f1": (f1_value, f1_grad), "f2": (f2_value, f2_grad)}


# ---------------------------------------------------------------- coefficients
# Each family gives (alpha_n, lambda_n, omega_n, gamma_n) at a scalar n >= 1.
# lambda_n is the lambda_{n+1} recurrence of the paper shifted down by one.


def coeffs_e24(n, s, a, b, mu, alpha=ALPHA):
    """gamma_n = s sqrt((alpha-1)/(n+a));
    lambda_n = s (n-1)/n + mu (n-1)/(n (n+b-1));
    omega_n = gamma_n + s/n + mu [1/(n+b) - (n-1)/(n (n+b-1))]."""
    n = float(n)
    gamma = s * math.sqrt((alpha - 1.0) / (n + a))
    lam = s * (n - 1.0) / n
    omega = gamma + s / n
    if mu > 0.0:
        lam = lam + mu * (n - 1.0) / (n * (n + b - 1.0))
        omega = omega + mu * (1.0 / (n + b) - (n - 1.0) / (n * (n + b - 1.0)))
    return (n - alpha) / n, lam, omega, gamma


def coeffs_e25(n, s, beta, b, mu, alpha=ALPHA):
    """gamma_n = 0; lambda_n = beta sqrt(s) + mu/(n+b-1);
    omega_n = beta sqrt(s)/n + mu [(n+1)/(n (n+b)) - 1/(n+b-1)]."""
    n = float(n)
    root_s = math.sqrt(s)
    lam = beta * root_s
    omega = beta * root_s / n
    if mu > 0.0:
        lam = lam + mu / (n + b - 1.0)
        omega = omega + mu * ((n + 1.0) / (n * (n + b)) - 1.0 / (n + b - 1.0))
    return (n - alpha) / n, lam, omega, 0.0


def coeffs_e26(n, s, a, b, mu, alpha=ALPHA):
    """gamma_n = -s/(n+a); lambda_n as in e24;
    omega_n = gamma_n + s/n + mu [1/(n+b) - (n-1)/(n (n+b-1))]."""
    n = float(n)
    gamma = -s / (n + a)
    lam = s * (n - 1.0) / n
    omega = gamma + s / n
    if mu > 0.0:
        lam = lam + mu * (n - 1.0) / (n * (n + b - 1.0))
        omega = omega + mu * (1.0 / (n + b) - (n - 1.0) / (n * (n + b - 1.0)))
    return (n - alpha) / n, lam, omega, gamma


def coeffs(label, params, s, alpha=ALPHA):
    """Bind a family label and its parameters to a function of n."""
    if label == "e24":
        return lambda n: coeffs_e24(n, s, params["a"], params["b"], params["mu"], alpha)
    if label == "e25":
        return lambda n: coeffs_e25(n, s, params["beta"], params["b"], params["mu"], alpha)
    if label == "e26":
        return lambda n: coeffs_e26(n, s, params["a"], params["b"], params["mu"], alpha)
    raise ValueError(f"no reference coefficients for {label!r}")


# ---------------------------------------------------------------- thresholds


def n1(alpha=ALPHA):
    return alpha - 1.0


def n_prime(label, params, s, lipschitz, alpha=ALPHA):
    """Closed-form N'.

    e24: (alpha-1)(s^2 L^2 + 1) + 2 mu L sqrt(alpha-1) + (mu/s)^2 - a, and
         when b - a <= 1/4 at least (1 - 2b + sqrt(4(a-b) + 1))/2;
    e25: the positive root of the quadratic in n set by beta, b and mu;
    e26: sqrt(3 + (mu/s)^2) - min(a, b).
    """
    if label == "e24":
        a, b, mu = params["a"], params["b"], params["mu"]
        val = ((alpha - 1.0) * (s * s * lipschitz * lipschitz + 1.0)
               + 2.0 * mu * lipschitz * math.sqrt(alpha - 1.0) + (mu / s) ** 2 - a)
        return _e24_floor(val, a, b)
    if label == "e25":
        beta, b, mu = params["beta"], params["b"], params["mu"]
        r = math.sqrt(s)
        p = 2.0 * r - beta
        q = beta * (b + 1.0) + mu / r - 2.0 * r * b
        c = beta * b + mu / r
        return (q + math.sqrt(q * q + 4.0 * p * c)) / (2.0 * p)
    if label == "e26":
        return math.sqrt(3.0 + (params["mu"] / s) ** 2) - min(params["a"], params["b"])
    raise ValueError(f"no reference N' for {label!r}")


def n_prime_alt(label, params, s, lipschitz, alpha=ALPHA):
    """The variant that matches the recorded tables at s = 0.1: e24 without
    the additive (alpha-1) term, e26 with the curvature-aware root
    sqrt((sL)^2 + 1 + (mu/s)^2) - min(a, b)."""
    if label == "e24":
        a, b, mu = params["a"], params["b"], params["mu"]
        val = ((alpha - 1.0) * (s * lipschitz) ** 2
               + 2.0 * mu * lipschitz * math.sqrt(alpha - 1.0) + (mu / s) ** 2 - a)
        return _e24_floor(val, a, b)
    if label == "e26":
        return (math.sqrt((s * lipschitz) ** 2 + 1.0 + (params["mu"] / s) ** 2)
                - min(params["a"], params["b"]))
    return n_prime(label, params, s, lipschitz, alpha)


def _e24_floor(val, a, b):
    if b - a > 0.25:
        return val
    return max(val, (1.0 - 2.0 * b + math.sqrt(4.0 * (a - b) + 1.0)) / 2.0)


def ghi(s, lipschitz, gamma, lam, omega):
    """(G_n, H_n, I_n) of the energy-decrease condition, from the descent
    coefficients A2 = -s, A3 = -gamma (1 - L s), A4 = s/2,
    A5 = -gamma^2/(2s) and w = lambda + omega. Works on arrays."""
    a2 = -s
    a3 = -gamma * (1.0 - lipschitz * s)
    a4 = s / 2.0
    a5 = -gamma * gamma / (2.0 * s)
    w = lam + omega
    g = -(a2 + a3) ** 2 + 2.0 * s * (a4 + a5) - w * w - 2.0 * w * (a2 + a3)
    h = -2.0 * a2 * a2 - 2.0 * a2 * a3 - 2.0 * w * a2 + 2.0 * s * a4
    return g, h, a2 * a2


def n2(g, h, i, alpha=ALPHA):
    """N2 = (alpha-1)(H + sqrt(H^2 + 4 G I))/(2 G); needs G > 0."""
    return (alpha - 1.0) * (h + np.sqrt(h * h + 4.0 * g * i)) / (2.0 * g)


def n2_at(coeff_fn, s, lipschitz, n, alpha=ALPHA):
    _, lam, omega, gamma = coeff_fn(n)
    g, h, i = ghi(s, lipschitz, gamma, lam, omega)
    if not g > 0.0:
        raise ValueError(f"G_n = {g} <= 0 at n = {n}")
    return float(n2(g, h, i, alpha))


def threshold(coeff_fn, label, params, s, lipschitz, n_max, alpha=ALPHA):
    """max(N1, N', N2) with N2 the largest per-n value over the scanned
    n in (max(N1, ceil(N')), n_max] where G_n > 0."""
    npr = n_prime(label, params, s, lipschitz, alpha)
    lo = max(n1(alpha), math.ceil(npr))
    vals = []
    for n in range(int(math.floor(lo)) + 1, n_max + 1):
        _, lam, omega, gamma = coeff_fn(n)
        g, h, i = ghi(s, lipschitz, gamma, lam, omega)
        if g > 0.0:
            vals.append(float(n2(g, h, i, alpha)))
    return max([n1(alpha), npr] + vals)


# ---------------------------------------------------------------- recursions


def planar_run(objective, coeff_fn, s, x0, epsilon, max_iter):
    """The four-coefficient recursion on f1 or f2, in plain floats:

        x_1 = x_0 - s grad(x_0)
        y_n = x_n + alpha_n (x_n - x_{n-1}) - lambda_n [grad(x_n) - grad(x_{n-1})]
              - omega_n grad(x_n)
        x_{n+1} = y_n - s grad(y_n) + gamma_n grad(x_n)

    stopped at the first n with |f(x_n) - f(x_{n-1})| <= epsilon on f1 and
    f(x_n) - f* <= epsilon on f2. Returns (termination, n_final, error, x_final)."""
    value, grad = PLANAR[objective]
    f_min = F_MIN[objective]

    def error(f_prev, f_curr):
        return abs(f_curr - f_prev) if objective == "f1" else f_curr - f_min

    xp = [float(x0[0]), float(x0[1])]
    gp = grad(xp)
    xc = [xp[0] - s * gp[0], xp[1] - s * gp[1]]
    gc = grad(xc)
    fp, fc = value(xp), value(xc)
    n = 1
    while True:
        err = error(fp, fc)
        if err <= epsilon:
            return "tolerance_met", n, err, xc
        if n >= max_iter:
            return "max_iter", n, err, xc
        a_n, lam, om, gam = coeff_fn(n)
        y = [xc[k] + a_n * (xc[k] - xp[k]) - lam * (gc[k] - gp[k]) - om * gc[k]
             for k in range(2)]
        gy = grad(y)
        xn = [y[k] - s * gy[k] + gam * gc[k] for k in range(2)]
        fn = value(xn)
        if not all(math.isfinite(v) for v in xn + [fn]):
            return "diverged", n, err, xc
        xp, gp, fp = xc, gc, fc
        xc, gc, fc = xn, grad(xn), fn
        n += 1


def agm2_dense(a, b, x0, s, n_steps, alpha=ALPHA):
    """agm2 on f(x) = x'Ax/2 + b'x: x_1 = x_0 - s grad(x_0),
    y_n = x_n + ((n - alpha)/n)(x_n - x_{n-1}), x_{n+1} = y_n - s grad(y_n).
    Returns x_0 .. x_{n_steps} as rows."""
    xs = np.empty((n_steps + 1, len(x0)))
    xs[0] = x0
    xs[1] = x0 - s * (a @ x0 + b)
    for n in range(1, n_steps):
        y = xs[n] + ((n - alpha) / n) * (xs[n] - xs[n - 1])
        xs[n + 1] = y - s * (a @ y + b)
    return xs


def max_rel_gap(xs, ref):
    """Largest per-iterate sup-norm gap, relative to max(1, |ref iterate|)."""
    d = np.max(np.abs(xs - ref), axis=1)
    return float(np.max(d / np.maximum(1.0, np.max(np.abs(ref), axis=1))))


# ---------------------------------------------------------------- energy


def dense_minimum(a, b):
    """x* and f* of x'Ax/2 + b'x for positive-definite A, by a dense solve."""
    x_star = np.linalg.solve(a, -b)
    return x_star, float(0.5 * x_star @ (a @ x_star) + b @ x_star)


def dense_gaps(a, xs, x_star):
    """f(x_n) - f* = (x_n - x*)' A (x_n - x*)/2, free of the cancellation in
    f(x_n) - f*. One row per iterate."""
    d = xs - x_star
    return 0.5 * np.einsum("ij,ij->i", d @ a, d)


def energy(xs, grads, gaps, lams, x_star, s, alpha=ALPHA):
    """E_n for n = 1 .. len(xs)-1:

        E_n = t_n^2 (f(x_n) - f*) + ||z_n||^2 / (2s),
        z_n = (x_{n-1} - x*) + t_n (x_n - x_{n-1}) + lambda_n t_{n+1} grad f(x_{n-1}),

    on the clock t_n = (n-1)/(alpha-1). lams[k] is lambda_{k+1}. Entry k of
    the result is E_{k+1}."""
    ns = np.arange(1, len(xs))
    t_n = (ns - 1.0) / (alpha - 1.0)
    t_next = ns / (alpha - 1.0)
    z = ((xs[:-1] - x_star) + t_n[:, None] * (xs[1:] - xs[:-1])
         + (np.asarray(lams) * t_next)[:, None] * grads[:-1])
    return t_n ** 2 * gaps[1:] + np.einsum("ij,ij->i", z, z) / (2.0 * s)
