"""Objective.eval_grad agrees bitwise with separate eval and grad calls,
on the fused quadratic path and on the fallback of f1 and f2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad.objectives import f1, f2, quadratic


def _bits(f, g):
    assert type(f) is float and g.dtype == np.float64
    return np.float64(f).tobytes() + g.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(x=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
def test_eval_grad_falls_back_bitwise_on_f1_f2(x):
    for obj in (f1(), f2()):
        assert obj.value_and_gradient is None
        assert _bits(*obj.eval_grad(x)) == _bits(obj.eval(x), obj.grad(x))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
def test_eval_grad_fused_is_bitwise_on_quadratics(seed, dim):
    rng = np.random.default_rng([seed, dim])
    m = rng.standard_normal((dim, dim))
    a = m @ m.T / dim + 0.1 * np.eye(dim)
    obj = quadratic(a, a @ rng.standard_normal(dim))
    x = rng.standard_normal(dim)
    assert obj.value_and_gradient is not None
    assert _bits(*obj.eval_grad(x)) == _bits(obj.eval(x), obj.grad(x))


def test_eval_grad_checks_shape():
    obj = quadratic(np.eye(3))
    with pytest.raises(ValueError):
        obj.eval_grad([1.0, 2.0])
    with pytest.raises(ValueError):
        f2().eval_grad([1.0, 2.0, 3.0])
