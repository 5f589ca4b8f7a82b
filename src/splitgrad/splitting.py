"""Operator splitting and geometric one-step integrators on phase space.

Phase-space states are plain (x, v) pairs of arrays. Vector fields have the
signature field(t, x, v) -> (dx, dv); autonomous fields simply ignore t.
An advance map (t, x, v, h) -> (x, v) moves one summand of a split field
over a step h from time t: its exact flow when that has a closed form, or
any one-step integrator, such as `euler_advance(field)`. A split is a
sequence of advance maps, in application order; `lie_trotter(split)` and
`strang(split)` turn it into a table of stages (map, fraction of h, start
offset in units of h) that `compose` steps through (McLachlan and Quispel,
"Splitting methods", Acta Numerica 2002). A `HamiltonianSystem` is
separable with unit mass, so it names only its potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .schedules import check_step

Array = np.ndarray
Phase = Tuple[Array, Array]
Field = Callable[[float, Array, Array], Phase]
Advance = Callable[[float, Array, Array, float], Phase]
Stage = Tuple[Advance, float, float]


def euler_advance(field: Field) -> Advance:
    """One explicit Euler step of a phase-space field."""

    def advance(t: float, x: Array, v: Array, h: float) -> Phase:
        dx, dv = field(t, x, v)
        return x + h * dx, v + h * dv

    return advance


def compose(stages: Sequence[Stage], state: Phase, t_n: float, h: float) -> Phase:
    """One composite step: each stage (advance, fraction, offset) in turn
    advances by fraction * h from t_n + offset * h (t_n itself at offset 0)."""
    if not stages:
        raise ValueError("a split needs at least one advance map")
    check_step(h)
    x, v = state
    for advance, fraction, offset in stages:
        x, v = advance(t_n + offset * h if offset else t_n, x, v, fraction * h)
    return x, v


def lie_trotter(split: Sequence[Advance]) -> Tuple[Stage, ...]:
    """Each map for a full step from t_n; the reversed split is the adjoint."""
    return tuple((advance, 1.0, 0.0) for advance in split)


def strang(split: Sequence[Advance]) -> Tuple[Stage, ...]:
    """Half-steps of the leading maps from t_n around a full step of the
    last from t_n, then the half-steps in reverse from t_n + h/2."""
    leading = split[:-1]
    return (tuple((advance, 0.5, 0.0) for advance in leading)
            + tuple((advance, 1.0, 0.0) for advance in split[-1:])
            + tuple((advance, 0.5, 0.5) for advance in reversed(leading)))


@dataclass(frozen=True)
class HamiltonianSystem:
    """Separable unit-mass H(x, v) = |v|^2/2 + U(x): the evolution is
    x' = v, v' = -grad U(x)."""

    potential: Callable[[Array], float]
    grad_potential: Callable[[Array], Array]

    def energy(self, x: Array, v: Array):
        """H(x, v) for one state, a float, or for B states stacked as
        (B, dim) arrays, an array of B values. Stacks need a `potential`
        that evaluates over the last axis."""
        x, v = np.asarray(x), np.asarray(v)
        kinetic = 0.5 * np.sum(v * v, axis=-1)
        if x.ndim < 2:
            return float(kinetic + self.potential(x))
        if v.shape != x.shape:
            raise ValueError(f"x has shape {x.shape} but v has shape {v.shape}")
        e = np.asarray(kinetic + self.potential(x), dtype=float)
        if e.shape != x.shape[:1]:
            raise ValueError(f"energy of a {x.shape} stack has shape {e.shape}; the "
                             "potential must evaluate over the last axis")
        return e

    def field(self, t: float, x: Array, v: Array) -> Phase:
        """The Hamiltonian vector field; t is unused (autonomous)."""
        return v, -self.grad_potential(x)


def symplectic_euler(hs: HamiltonianSystem, state: Phase, h: float,
                     variant: str = "se1") -> Phase:
    """The two explicit symplectic Euler maps of a separable system:

    se1: x+ = x + h v;   v+ = v - h grad U(x+)
    se2: v+ = v - h grad U(x);   x+ = x + h v+

    Damped systems are handled by splitting the friction into its own
    sub-flow.
    """
    x, v = state
    if variant == "se1":
        x_new = x + h * v
        v_new = v - h * hs.grad_potential(x_new)
    elif variant == "se2":
        v_new = v - h * hs.grad_potential(x)
        x_new = x + h * v_new
    else:
        raise ValueError(f"unknown symplectic Euler variant {variant!r}")
    return x_new, v_new


def stormer_verlet(hs: HamiltonianSystem, state: Phase, h: float,
                   variant: str = "sv1") -> Phase:
    """Stormer-Verlet, second order:

    sv1 (drift-kick-drift): half drift in x, full kick in v, half drift.
    sv2 (kick-drift-kick): half kick in v, full drift in x, half kick.
    """
    x, v = state
    if variant == "sv1":
        x_half = x + 0.5 * h * v
        v_new = v - h * hs.grad_potential(x_half)
        x_new = x_half + 0.5 * h * v_new
    elif variant == "sv2":
        v_half = v - 0.5 * h * hs.grad_potential(x)
        x_new = x + h * v_half
        v_new = v_half - 0.5 * h * hs.grad_potential(x_new)
    else:
        raise ValueError(f"unknown Stormer-Verlet variant {variant!r}")
    return x_new, v_new


def forward_euler_hamiltonian(hs: HamiltonianSystem, state: Phase, h: float) -> Phase:
    """Non-symplectic comparator: explicit Euler on the Hamiltonian field.
    On the oscillator its energy error grows without bound, unlike the
    symplectic maps."""
    x, v = state
    dx, dv = hs.field(0.0, x, v)
    return x + h * dx, v + h * dv


def rk4_step(field: Field, t: float, x: Array, v: Array, dt: float) -> Phase:
    """Classical 4-stage one-step method on a phase-space field. Used as
    the high-accuracy reference for the continuous systems."""
    k1x, k1v = field(t, x, v)
    k2x, k2v = field(t + 0.5 * dt, x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
    k3x, k3v = field(t + 0.5 * dt, x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
    k4x, k4v = field(t + dt, x + dt * k3x, v + dt * k3v)
    x_new = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x_new, v_new
