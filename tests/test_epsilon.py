"""Tests for the complex epsilon maps z -> |z|**alpha * z / |z| (or its
conjugate): refusals, multiplicativity and the inverse parameter."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nearfields.epsilon import epsilon_inverse_param, eval_epsilon
from nearfields.errors import DomainError


def test_epsilon_basics():
    rng = np.random.default_rng(41)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        if z == 0:
            continue
        assert eval_epsilon(1, z) == pytest.approx(z)
    assert eval_epsilon(2.5 + 1j, 1) == pytest.approx(1)
    assert eval_epsilon(2.5 + 1j, 0) == 0
    with pytest.raises(DomainError):
        eval_epsilon(1j, 2.0)
    with pytest.raises(DomainError):
        epsilon_inverse_param(3j)
    for alpha, z in ((math.nan, 1), (1, math.inf), (complex(1, math.nan), 2), (2, complex(1, -math.inf))):
        with pytest.raises(DomainError, match="not finite"):
            eval_epsilon(alpha, z)
    with pytest.raises(DomainError, match="alpha is not finite"):
        epsilon_inverse_param(math.nan)
    # 1 / 1e-320 overflows, so the inverse map has no finite parameter.
    assert eval_epsilon(1e-320, 2) == pytest.approx(1)
    for conj in (False, True):
        with pytest.raises(DomainError, match="beta is not finite"):
            epsilon_inverse_param(1e-320, conjugate=conj)
    # r**alpha past the float range is refused, not raised as OverflowError.
    with pytest.raises(DomainError, match="not finite"):
        eval_epsilon(1000, 1e10)
    # An infinite exponent with an infinite angle has no value at all
    # (cmath.exp raises ValueError); it is refused the same way. With a
    # real part of -inf the value is 0, which is finite and kept.
    with pytest.raises(DomainError, match=r"^epsilon_alpha\(z\) is not finite: \(nan\+nanj\)$"):
        eval_epsilon(1e308 + 1e308j, 1e308)
    assert eval_epsilon(1e308 + 1e308j, 1e-308) == 0


def test_epsilon_multiplicative_and_inverse():
    rng = np.random.default_rng(7)
    alphas = [2, -1, 0.5 + 1j, 3 - 2j, -1.25 + 0.5j]
    for alpha in alphas:
        for conj in (False, True):
            beta = epsilon_inverse_param(alpha, conjugate=conj)
            for _ in range(40):
                z = complex(rng.normal(), rng.normal())
                w = complex(rng.normal(), rng.normal())
                if abs(z) < 1e-6 or abs(w) < 1e-6:
                    continue
                lhs = eval_epsilon(alpha, z * w, conjugate=conj)
                rhs = eval_epsilon(alpha, z, conjugate=conj) * eval_epsilon(
                    alpha, w, conjugate=conj
                )
                assert abs(lhs - rhs) < 1e-9
                back = eval_epsilon(beta, eval_epsilon(alpha, z, conjugate=conj), conjugate=conj)
                assert abs(back - z) < 1e-9


def test_epsilon_real_restriction_is_signed_power():
    for x in (0.5, 2.0, -3.0, -0.25):
        got = eval_epsilon(3, x)
        want = abs(x) ** 3 * (1 if x > 0 else -1)
        assert got.imag == pytest.approx(0)
        assert got.real == pytest.approx(want)
