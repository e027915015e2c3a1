"""Cross-checks against sympy, an implementation independent of this package.

These pin integer factorization and the prime correspondence so that a
rewrite of either has an outside reference to agree with.
"""

import random

import pytest
import sympy

from nearfields import rationals
from nearfields.maps import PrimeCorrespondence
from nearfields.rationals import factor_int

CORR_NORM = 10**5


def _as_dict(f):
    d = dict(f.exponents)
    if f.sign < 0:
        d[-1] = 1
    return d


def _count_rho_splits(monkeypatch):
    calls = []
    real = rationals._brent_rho
    monkeypatch.setattr(rationals, "_brent_rho", lambda n: calls.append(n) or real(n))
    return calls


def test_factor_int_matches_sympy_factorint(monkeypatch):
    rho_calls = _count_rho_splits(monkeypatch)
    rng = random.Random(20221117)
    cases = [rng.randint(-(10**12), 10**12) or 1 for _ in range(300)]
    cases += [rng.randint(1, 10**18) for _ in range(40)]
    # Semiprimes with both factors above the 10**6 trial cap: the cofactor
    # exceeds cap**2, so factor_int has to split it with Brent's rho.
    for _ in range(12):
        p = sympy.nextprime(rng.randint(10**6, 10**8))
        q = sympy.nextprime(rng.randint(10**6, 10**8))
        cases.append(p * q)
        cases.append(-p * q * rng.choice([1, 2, 9, 1001]))
    for n in cases:
        assert _as_dict(factor_int(n)) == sympy.factorint(n), n
    assert len(rho_calls) >= 12


def test_factor_int_rho_path_with_small_trial_cap(monkeypatch):
    rho_calls = _count_rho_splits(monkeypatch)
    rng = random.Random(5)
    for _ in range(40):
        n = sympy.nextprime(rng.randint(10**3, 10**6)) * sympy.nextprime(rng.randint(10**3, 10**6))
        n *= rng.choice([1, 7, 7**2 * 101])
        assert _as_dict(factor_int(n, trial_cap=50)) == sympy.factorint(n), n
    assert len(rho_calls) >= 40


@pytest.fixture(scope="module")
def corr():
    c = PrimeCorrespondence()
    c.extend_to_norm(CORR_NORM)
    return c


def test_correspondence_rational_side_is_the_prime_sequence(corr):
    rational = [p for p, _ in corr.pairs()]
    assert rational == list(sympy.primerange(2, rational[-1] + 1))


def test_correspondence_pair_count_from_splitting_law(corr):
    # Over Q(sqrt(-19)) a rational prime p splits into two canonical primes
    # of norm p when (-19/p) = 1, stays inert with norm p**2 when it is -1,
    # and 19 ramifies into one prime of norm 19.
    split = sum(
        1 for p in sympy.primerange(2, CORR_NORM + 1) if sympy.kronecker_symbol(-19, p) == 1
    )
    inert = sum(
        1 for q in sympy.primerange(2, sympy.integer_nthroot(CORR_NORM, 2)[0] + 1)
        if sympy.kronecker_symbol(-19, q) == -1
    )
    assert corr.pair_count == 2 * split + inert + 1
    assert max(a.norm() for _, a in corr.pairs()) <= CORR_NORM
