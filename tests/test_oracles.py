"""Cross-checks against sympy, an implementation independent of this package.

These pin integer factorization, the splitting of rational primes in Z[w]
and the prime correspondence so that a rewrite of any of them has an
outside reference to agree with.
"""

import random

import pytest
import sympy
from sympy.solvers.diophantine.diophantine import cornacchia

from nearfields import rationals
from nearfields.errors import ResourceLimitError
from nearfields.maps import DEFAULT_CORRESPONDENCE_CEILING, PrimeCorrespondence
from nearfields.quadratic import QuadInt, norm_equation, primes_above
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


def test_factor_int_with_a_raised_trial_cap_needs_no_rho(monkeypatch):
    rho_calls = _count_rho_splits(monkeypatch)
    rng = random.Random(9)
    cases = []
    for _ in range(6):
        p = sympy.nextprime(rng.randint(10**6, 19 * 10**5))
        q = sympy.nextprime(rng.randint(10**6, 19 * 10**5))
        cases.append(p * q)
    for n in cases:
        assert _as_dict(factor_int(n, trial_cap=2 * 10**6)) == sympy.factorint(n), n
    assert rho_calls == []
    # the same inputs do need rho under the default cap of 10**6
    assert _as_dict(factor_int(cases[0])) == sympy.factorint(cases[0])
    assert rho_calls


def test_factor_int_with_trial_caps_of_one_and_two():
    rng = random.Random(11)
    cases = [1, -1, 2, 4, 9, 12, 25, 2**20, 3**5 * 7, 999_983 * 8, 999_983**2]
    cases += [rng.randint(-(10**9), 10**9) or 1 for _ in range(50)]
    for cap in (1, 2):
        for n in cases:
            assert _as_dict(factor_int(n, trial_cap=cap)) == sympy.factorint(n), (cap, n)


def test_primes_upto_matches_sympy_primerange():
    for n in (0, 1, 2, 3, 4, 10**6, 10**6 + 3):
        assert rationals.primes_upto(n) == list(sympy.primerange(n + 1)), n


def test_nth_prime_matches_sympy_prime():
    # k >= 6 sieves to the Rosser-Schoenfeld bound; 78,498 is pi(10**6)
    for k in (1, 2, 3, 4, 5, 6, 7, 78_498, 10**5):
        assert rationals.nth_prime(k) == sympy.prime(k), k


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
    assert corr.pair_count == _splitting_law_count(CORR_NORM)
    assert max(a.norm() for _, a in corr.pairs()) <= CORR_NORM


def _splitting_law_count(ceiling):
    """Canonical primes of norm <= ceiling: two per split p, one per inert
    q with q**2 <= ceiling, and one for 19."""
    split = sum(1 for p in sympy.primerange(2, ceiling + 1) if sympy.kronecker_symbol(-19, p) == 1)
    inert = sum(
        1 for q in sympy.primerange(2, sympy.integer_nthroot(ceiling, 2)[0] + 1)
        if sympy.kronecker_symbol(-19, q) == -1
    )
    return 2 * split + inert + 1


def test_rational_side_outruns_the_norm_range():
    # At norm 65537 there are 63 more canonical primes than rational primes
    # up to 65537, so the rational side has to be sieved past the norm range.
    ceiling = 65537
    corr = PrimeCorrespondence(max_norm=ceiling)
    corr.extend_to_norm(ceiling)
    assert corr.pair_count == _splitting_law_count(ceiling)
    assert corr.pair_count > sympy.primepi(ceiling)
    rational = [p for p, _ in corr.pairs()]
    assert rational == list(sympy.primerange(2, rational[-1] + 1))
    assert corr.image_of_prime(rational[-1]).norm() <= ceiling
    with pytest.raises(ResourceLimitError):
        corr.image_of_prime(sympy.nextprime(rational[-1]))


def test_round_trip_and_refusal_at_the_default_ceiling():
    corr = PrimeCorrespondence()
    corr.extend_to_norm(DEFAULT_CORRESPONDENCE_CEILING)
    assert corr.pair_count == 3_000_526
    last = sympy.prime(corr.pair_count)
    below = list(sympy.primerange(last - 20_000, last))
    for p in random.Random(50).sample(below, 40) + [last]:
        pi = corr.image_of_prime(p)
        assert pi.norm() <= DEFAULT_CORRESPONDENCE_CEILING
        assert corr.preimage_of_prime(pi) == p
    with pytest.raises(ResourceLimitError) as exc:
        corr.image_of_prime(sympy.nextprime(last))
    assert exc.value.ceiling == DEFAULT_CORRESPONDENCE_CEILING


def _canonical(a, b):
    return (a, b) if b > 0 or (b == 0 and a > 0) else (-a, -b)


def test_primes_above_matches_norm_equation_search():
    for p in sympy.primerange(2, 2 * 10**4):
        sol = norm_equation(p)
        if sol is None:
            want = ("inert", [(p, 0)])
        else:
            # the conjugate of a + b*w is (a + b) - b*w
            pair = sorted({_canonical(sol.a, sol.b), _canonical(sol.a + sol.b, -sol.b)})
            want = ("ramified" if len(pair) == 1 else "split", pair)
        s = primes_above(p)
        assert (s.kind, [(pi.a, pi.b) for pi in s.primes]) == want, p


def _cornacchia_4p(p):
    """The x, y >= 0 with x**2 + 19y**2 = 4p. sympy finds primitive
    solutions only, so an even pair comes from x**2 + 19y**2 = p."""
    sols = cornacchia(1, 19, 4 * p) or {(2 * x, 2 * y) for x, y in cornacchia(1, 19, p)}
    assert len(sols) == 1, (p, sols)
    return sols.pop()


def test_primes_above_matches_sympy_kronecker_and_cornacchia():
    rng = random.Random(20221118)
    sample = set()
    while len(sample) < 40:
        sample.add(sympy.nextprime(rng.randint(5 * 10**7 - 10**6, 5 * 10**7)))
    near = list(sympy.primerange(5 * 10**7, 5 * 10**7 + 2000))
    sample |= {next(p for p in near if p % 19 == r) for r in range(1, 19)}
    sample |= {2, 19}
    assert {p % 19 for p in sample} == set(range(19))
    kinds = {1: "split", -1: "inert", 0: "ramified"}
    for p in sorted(sample):
        s = primes_above(p)
        assert s.kind == kinds[sympy.kronecker_symbol(-19, p)], p
        if s.kind == "inert":
            assert s.primes == (QuadInt(p, 0),)
            continue
        x, y = _cornacchia_4p(p)
        want = sorted({((-x - y) // 2, y), ((x - y) // 2, y)})
        assert [(pi.a, pi.b) for pi in s.primes] == want, p
