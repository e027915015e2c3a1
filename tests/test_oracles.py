"""Cross-checks against sympy, an implementation independent of this package.

These pin integer factorization, the splitting of rational primes in Z[w]
and the prime correspondence so that a rewrite of any of them has an
outside reference to agree with.
"""

import hashlib
import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.solvers.diophantine.diophantine import cornacchia

from nearfields import maps, quadratic, rationals
from nearfields.errors import IntegrityError, ResourceLimitError
from nearfields.induced import DEFAULT_SUM_NORM_CEILING
from nearfields.maps import (
    DEFAULT_CORRESPONDENCE_CEILING,
    PrimeCorrespondence,
    default_correspondence,
    sigma_apply,
)
from nearfields.quadratic import (
    KFactorization,
    QuadInt,
    QuadRat,
    factor_quad,
    is_canonical_prime,
    primes_above,
    rebuild_quad,
)
from nearfields.rationals import factor_int, factor_rat, is_prime

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


def test_factor_rat_matches_sympy_factorrat(monkeypatch):
    rho_calls = _count_rho_splits(monkeypatch)
    built = []
    real = rationals.SignedFactorization
    monkeypatch.setattr(
        rationals, "SignedFactorization", lambda *a: built.append(a) or real(*a)
    )
    rng = random.Random(61)
    cases = [Fraction(1), Fraction(-1), Fraction(-1, 2), Fraction(19**5, 2**64)]
    cases += [
        Fraction(rng.randint(-(10**12), 10**12) or 1, rng.randint(1, 10**12))
        for _ in range(300)
    ]
    # Past the trial cap: a prime cofactor, and semiprimes that need rho,
    # on either side of the fraction bar.
    for _ in range(8):
        p = sympy.nextprime(rng.randint(10**6, 10**8))
        q = sympy.nextprime(rng.randint(10**6, 10**8))
        r = sympy.nextprime(rng.randint(10**6, 10**12))
        cases.append(Fraction(-p * q * rng.choice([1, 6, 49]), r))
        cases.append(Fraction(r * rng.choice([1, 5, 11**3]), p * q))
    for x in cases:
        built.clear()
        assert _as_dict(factor_rat(x)) == sympy.factorrat(sympy.Rational(x.numerator, x.denominator)), x
        assert len(built) == 1, x
    assert len(rho_calls) >= 16


# The factoring loop behind factor_int and factor_rat, on either side of
# TRIAL_CAP**2, where trial division hands over to Miller-Rabin and rho.
_exponents = rationals._exponents


def test_factor_int_rho_path_past_the_trial_cap(monkeypatch):
    # both factors above TRIAL_CAP put the cofactor past TRIAL_CAP**2
    rho_calls = _count_rho_splits(monkeypatch)
    rng = random.Random(5)
    for _ in range(40):
        n = sympy.nextprime(rng.randint(10**6, 2 * 10**6 - 200))
        n *= sympy.nextprime(rng.randint(10**6, 2 * 10**6 - 200))
        n *= rng.choice([1, 7, 7**2 * 101])
        assert n > rationals.TRIAL_CAP**2
        assert _exponents(n) == sympy.factorint(n), n
    assert len(rho_calls) >= 40


def test_factor_int_on_small_inputs_and_prime_powers():
    rng = random.Random(11)
    cases = [1, -1, 2, 4, 9, 12, 25, 2**20, 3**5 * 7, 999_983 * 8, 999_983**2]
    cases += [rng.randint(-(10**9), 10**9) or 1 for _ in range(50)]
    for n in cases:
        assert _exponents(abs(n)) == sympy.factorint(abs(n)), n


def test_factor_table_holds_the_least_prime_factor():
    # zero exactly at the odd primes from 3 to the cap, and at a nonzero
    # slot the least prime factor of its odd number
    cap = rationals.TRIAL_CAP
    table = np.asarray(rationals._factor_table())
    assert table.dtype == np.uint16 and len(table) == (cap + 1) // 2
    zeros = (2 * np.flatnonzero(table[1:] == 0) + 3).tolist()
    assert zeros == rationals.primes_upto(cap)[1:]
    rng = random.Random(1000)
    sample = [k for k in rng.sample(range(1, len(table)), 20_000) if table[k]]
    sample += [k for k in range(1, 200) if table[k]]
    assert len(sample) > 10_000
    for k in sample:
        assert table[k] == min(sympy.factorint(2 * k + 1)), 2 * k + 1


def _primes_near(n, count=3):
    """count primes just below n, and count from n up."""
    below = [sympy.prevprime(n)]
    while len(below) < count:
        below.append(sympy.prevprime(below[-1]))
    above = [sympy.nextprime(n - 1)]
    while len(above) < count:
        above.append(sympy.nextprime(above[-1]))
    return below + above


def _cube_edge_cases(rng):
    """P*Q with P just above and just below the cube root of P*Q (Q just
    under or just over P**2), and with P just below the square root."""
    cases = []
    for size in (20, 10**3, 10**4, 10**5 - 10, 10**6 - 100):
        for p in _primes_near(size, 2):
            cases += [p * sympy.prevprime(p * p), p * sympy.nextprime(p * p)]
            cases += [p * sympy.nextprime(p), p * sympy.nextprime(p + rng.randint(1, p))]
            cases.append(p * sympy.nextprime(rng.randint(p * p, p**3)))
    return cases


def test_exponents_matches_sympy_at_every_branch_edge(monkeypatch):
    # the table (n <= TRIAL_CAP), the trial run to the cube root, the one
    # primality test, the resumed trial and, past the table, rho, across
    # each edge between them
    rho_calls = _count_rho_splits(monkeypatch)
    cap = rationals.TRIAL_CAP
    rng = random.Random(28)
    cases = [*range(1, 20_001), *range(cap - 300, cap + 301)]
    cases += _cube_edge_cases(rng)
    for size in (10**3, 10**4, 10**6):
        cases += [p**k for p in _primes_near(size) for k in (2, 3)]
    big = [sympy.nextprime(rng.randint(cap, 2 * 10**7)) for _ in range(24)]
    semiprimes = [p * q for p, q in zip(big[::2], big[1::2])]
    assert all(cap**2 < n < 10**18 for n in semiprimes)
    cases += semiprimes
    cases += [2**63 - 1, 2**63, 2**63 + 1, 2**64 + 1, 3**40 * 5]
    cases += [sympy.nextprime(rng.randint(2**44, 2**48)) * p for p in big[:4]]  # past 2**63
    cases += [rng.randint(1, 10 ** rng.randint(7, 12)) for _ in range(1_000)]
    for n in cases:
        got = _exponents(n)
        assert got == sympy.factorint(n), n
        if n <= cap**2:
            assert list(got) == sorted(got), n
    assert len(rho_calls) >= len(semiprimes)
    # seeded primitive norms, over the split primes and 19 alone
    table = quadratic._norm_primes()
    for _ in range(1_500):
        a, b = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
        if math.gcd(a, b) == 1:
            n = QuadInt(a, b).norm()
            got = _exponents(n, table)
            assert got == sympy.factorint(n), (a, b)
            if n <= cap**2:
                assert list(got) == sorted(got), n


def test_one_primality_test_settles_what_the_cube_root_leaves(monkeypatch):
    # past the cap, a cofactor whose cube root the trial run has passed is
    # a prime or P*Q: one is_prime call decides which, unless p**2 passes
    # it too; a cofactor at or under the cap takes none
    calls = []
    monkeypatch.setattr(rationals, "is_prime", lambda n: calls.append(n) or is_prime(n))
    p, q = 10_007, 99_999_989  # p just above the cube root of p*q
    r = sympy.nextprime(1009**2)  # 1009 * r drops to r, and 1013**2 > r
    assert p**3 > p * q and r < 1013**2 and sympy.isprime(q)
    for n, tests in [
        (999_983, 0),  # read off the table
        (2**10 * 999_983, 0),  # the cofactor drops to the table
        (q, 1),
        (999_999_999_989, 1),
        (p * q, 1),  # composite: the trial resumes and finds p
        (1009 * 1013 * 1019, 1),  # 1013 * 1019 is left past its cube root
        (1009 * r, 0),  # r is left past 1013**2: prime without a test
    ]:
        calls.clear()
        assert _exponents(n) == sympy.factorint(n), n
        assert len(calls) == tests, (n, calls)


def test_primes_upto_matches_sympy_primerange():
    seg = rationals._SEGMENT
    for n in (0, 1, 2, 3, 4, 10**6, 10**6 + 3, seg - 1, seg, seg + 1, seg + 2):
        assert rationals.primes_upto(n) == list(sympy.sieve.primerange(n + 1)), n


def _read_off(lo: int, hi: int) -> list[list[int]]:
    """The odd primes in (lo, hi] as numbers, one list per segment of
    rationals._prime_masks."""
    return [(2 * np.flatnonzero(mask) + first).tolist() for first, mask in rationals._prime_masks(lo, hi)]


def test_prime_masks_match_sympy_at_segment_edges():
    # The sieve, segment by segment, read off as primes_upto reads it,
    # against sympy: empty and one-number ranges from small and from even
    # and odd starts, a range across a segment boundary, and segments that
    # start or end at the square of a prime. From lo = 0, primes_upto gives
    # the same primes.
    seg = rationals._SEGMENT
    p = sympy.nextprime(10**6 + seg)
    ranges = [(lo, hi) for lo in (0, 1, 2, 3, 1000, 1001, 10**6) for hi in (lo, lo + 1)]
    ranges += [(lo, lo + 100) for lo in (0, 1, 2, 7, 8)]
    ranges += [
        (seg - 1000, seg + 1000),  # one segment whose middle is 2**22
        (p - 1 - seg, p + 1000),  # two segments, the second starting at p
        (p - seg, p + 1000),  # two segments, the first ending at p
        (1009**2 - 1, 1009**2 + 5000),  # a segment starting at 1009**2
        (1009**2 - 5000, 1009**2),  # one ending there
    ]
    for lo, hi in ranges:
        parts = _read_off(lo, hi)
        got = [2] * (lo < 2 <= hi) + [q for part in parts for q in part]
        assert got == list(sympy.sieve.primerange(lo + 1, hi + 1)), (lo, hi)
        assert len(parts) == -(-(hi - max(lo, 1)) // seg), (lo, hi)
        if lo == 0:
            assert rationals.primes_upto(hi) == got, hi


def test_prime_mask_covers_the_odd_numbers_only():
    # mask[k] stands for (lo | 1) + 2k, from even and odd starts, a start
    # of 2 (whose one even prime the mask leaves out) and one at 1009**2.
    for lo in (2, 3, 4, 9, 1000, 1001, 1009**2, 1009**2 + 1):
        for n in (lo, lo + 1, lo + 500):
            mask = rationals.prime_mask(n, lo)
            first = lo | 1
            assert len(mask) == len(range(first, n + 1, 2)), (lo, n)
            assert mask.tolist() == [sympy.isprime(first + 2 * k) for k in range(len(mask))], (lo, n)


def test_primes_upto_adds_two_once():
    for hi in (2, 3, 100, rationals._SEGMENT + 10):
        found = rationals.primes_upto(hi)
        assert found.count(2) == 1 and found[0] == 2, hi
    for lo in (0, 1, 2, 3, 4):  # the masks hold the odd numbers only
        assert 2 not in [q for part in _read_off(lo, lo + 100) for q in part], lo


def test_prime_mask_finds_its_striking_primes_itself(monkeypatch):
    # one prime_mask call sieves one segment: it reaches no other sieve
    def refuse(*args):
        raise AssertionError("prime_mask called another sieve")

    monkeypatch.setattr(rationals, "primes_upto", refuse)
    monkeypatch.setattr(rationals, "_prime_masks", refuse)
    for lo, n in ((10**6 + 1, 10**6 + 20_000), (1009**2, 1009**2 + 3000), (2, 3000)):
        mask = rationals.prime_mask(n, lo)
        first = lo | 1
        assert mask.tolist() == [sympy.isprime(first + 2 * k) for k in range(len(mask))], (lo, n)


def test_held_norms_match_the_splitting_law_at_every_cut():
    # The canonical norms the bitmaps and extras give up to a limit are what
    # the splitting law lists, whether grown to the limit at once or from a
    # cut below it: cuts that fall on an inert square (2, 3 and 97 are
    # inert) or on 19, and at random.
    top = 10**6
    primes = list(sympy.sieve.primerange(top + 1))
    law = sorted(
        [p for p in primes if sympy.kronecker_symbol(-19, p) == 1 for _ in range(2)]
        + [19]
        + [q * q for q in primes if q * q <= top and sympy.kronecker_symbol(-19, q) == -1]
    )
    rng = random.Random(19)
    cuts = [(3, 4), (4, 5), (8, 9), (9, 10), (18, 19), (19, 20), (97**2 - 1, 97**2), (97**2, 10**4)]
    cuts += [tuple(sorted(rng.randint(2, top) for _ in range(2))) for _ in range(50)]
    for lo, hi in cuts:
        whole = PrimeCorrespondence(max_norm=hi)
        whole.extend_to_norm(hi)
        stepped = PrimeCorrespondence(max_norm=hi)
        stepped.extend_to_norm(lo)  # grows to min(max(lo, 10,000), hi)
        stepped.extend_to_norm(hi)
        want = law[: bisect_right(law, hi)]
        assert whole._pair_arrays()[1].tolist() == want, (lo, hi)
        assert stepped._pair_arrays()[1].tolist() == want, (lo, hi)
        assert whole.pair_count == stepped.pair_count == len(want), (lo, hi)


def _edges(limit):
    """Numbers around the 512-slot block edges (1024m + 1) and the sieve
    segment edges (2 + k * 2**22, for a step grown from nothing) below
    limit, around 2, 19 and the first inert squares."""
    xs = {2, 3, 4, 5, 9, 19, 20, 169, 529, 841}
    for m in (1, 2, 3, 977, 4096, 4097, 8192):
        xs.update(1024 * m + d for d in range(-5, 6))
    for k in range(1, limit // rationals._SEGMENT + 1):
        xs.update(2 + k * rationals._SEGMENT + d for d in range(-300, 301))
    return sorted(x for x in xs if 2 <= x <= limit)


def test_rank_and_select_match_primepi_and_prime_at_the_edges():
    limit = 2 * rationals._SEGMENT + 10_000
    corr = PrimeCorrespondence()
    corr.extend_to_norm(limit)  # one step from nothing: segments start at 2 + k * 2**22
    held = corr._data
    xs = _edges(limit)
    split_upto, count, i = {}, 0, 0  # odd split primes up to x, by Euler's criterion
    for p in sympy.sieve.primerange(3, xs[-1] + 1):
        while p > xs[i]:
            split_upto[xs[i]] = count
            i += 1
        count += pow(p, 9, 19) == 1
    split_upto.update((x, count) for x in xs[i:])
    primes_seen = split_seen = 0
    for x in xs:
        pi_x = int(sympy.primepi(x))
        assert 1 + maps._rank(held.primes, held.prime_counts, (x + 1) // 2) == pi_x, x
        assert maps._rank(held.splits, held.split_counts, (x + 1) // 2) == split_upto[x], x
        if x == 2 or not sympy.isprime(x):
            continue
        primes_seen += 1
        assert 2 * maps._select(held.primes, held.prime_counts, pi_x - 2) + 1 == x == sympy.prime(pi_x)
        if pow(x, 9, 19) != 1:
            continue
        split_seen += 1
        assert 2 * maps._select(held.splits, held.split_counts, split_upto[x] - 1) + 1 == x
        # the canonical primes of norm x come after two per smaller split
        # prime, 19 and the inert squares below x
        inert = [q for q in sympy.primerange(2, math.isqrt(x - 1) + 1) if sympy.kronecker_symbol(-19, q) == -1]
        rank = 2 * (split_upto[x] - 1) + (x > 19) + len(inert)
        for place, pi in enumerate(quadratic._primes_of_norm(x)):
            p = sympy.prime(rank + place + 1)
            assert corr.image_of_prime(p) == pi, x
            assert corr.preimage_of_prime(pi) == p, x
    assert primes_seen >= 80 and split_seen >= 40  # measured 87 and 47


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


# SHA-256 of repr([(p, a, b), ...]) over the pairs grown to a limit in one
# step, and at the default ceiling of the int32 bytes of the pairs'
# rational primes and canonical norms, as computed from the int32 arrays
# the correspondence held before its bitmaps.
PAIR_DIGESTS = {
    10**4: (1_223, "398c477316bd6b73d75a938e8d7364a40ba613bc5fb110a726418e520dc990d6"),
    123_457: (11_608, "ae7f81aa6b217c61d6956b3319857d9e0adc1a8f522e117452adfc130d923f43"),
}
CEILING_DIGESTS = (
    3_000_526,
    "f09fdd6f90981e4ff0b1ceba3d66da67e0536339936b13f62271bbed840ee5f1",
    "e3a2b959f9140b216be589556b660d69855ea5dd90eb47da476b5c9daa38a14c",
)


@pytest.fixture(scope="module")
def full():
    c = PrimeCorrespondence()
    c.extend_to_norm(DEFAULT_CORRESPONDENCE_CEILING)
    return c


def test_pairs_hash_to_the_digests_of_the_int32_layout(full):
    for limit, (count, digest) in PAIR_DIGESTS.items():
        corr = PrimeCorrespondence()
        corr.extend_to_norm(limit)
        assert corr.pair_count == count
        assert hashlib.sha256(repr([(p, pi.a, pi.b) for p, pi in corr.pairs()]).encode()).hexdigest() == digest
    rat, norms = full._pair_arrays()
    count, rat_digest, norm_digest = CEILING_DIGESTS
    assert full.pair_count == len(rat) == len(norms) == count
    assert hashlib.sha256(rat.astype(np.int32).tobytes()).hexdigest() == rat_digest
    assert hashlib.sha256(norms.astype(np.int32).tobytes()).hexdigest() == norm_digest
    # (a, b) is the norm's prime at its place; the rank lookups agree with
    # the arrays at random ranks and at both ends
    rng = random.Random(25)
    for i in rng.sample(range(count), 2000) + [0, 1, count - 2, count - 1]:
        p, n = int(rat[i]), int(norms[i])
        pi = quadratic._primes_of_norm(n)[int(i > 0 and norms[i - 1] == n)]
        assert full.image_of_prime(p) == pi, i
        assert full.preimage_of_prime(pi) == p, i


def test_bitmaps_at_the_default_ceiling_hold_under_7_mb(full):
    # The int32 arrays held 24.0 MB there: 3,000,526 norms and 3,001,134
    # rational primes. The bitmaps and counts hold their written prefixes.
    held = full._data
    assert sum(view.nbytes for view in held[:4]) < 7 * 10**6


def norm_equation(m):
    """Smallest-b solution of a**2 + ab + 5b**2 = m with b >= 1, or None.

    Bounded search: 4m = (2a+b)**2 + 19 b**2 caps |b| at isqrt(4m/19).
    O(sqrt(m)) steps. The package splits primes by Cornacchia's reduction
    instead (see primes_above); this search is an independent reference.
    """
    if m < 5:
        return None
    for b in range(1, math.isqrt(4 * m // 19) + 1):
        disc = 4 * m - 19 * b * b
        if disc < 0:
            break
        c = math.isqrt(disc)
        if c * c != disc:
            continue
        if (c - b) % 2 == 0:
            return QuadInt((-b + c) // 2, b)
    return None


def test_norm_equation_bounds():
    assert norm_equation(5) == QuadInt(0, 1)
    assert norm_equation(2) is None
    assert norm_equation(19) == QuadInt(-1, 2)
    # 19 needs b = 2, the inclusive endpoint of the |b| bound.
    assert norm_equation(4) is None


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


# psi_k, the least strong pseudoprime to each of the first k prime bases
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86 (2017); OEIS A014233). psi_8 = psi_7 and psi_10 = psi_11 = psi_9.
PSI = {
    1: 2_047,
    2: 1_373_653,
    3: 25_326_001,
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    7: 341_550_071_728_321,
    9: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,
    13: 3_317_044_064_679_887_385_961_981,
}


def _strong_probable_prime(n, a):
    """Whether odd n > a passes the strong (Miller-Rabin) test to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_rejects_each_strong_pseudoprime_psi_k():
    bases = list(sympy.primerange(2, 42))
    for k, psi in PSI.items():
        # psi_k is composite, yet passes the strong test to the first k bases
        assert not sympy.isprime(psi)
        assert all(_strong_probable_prime(psi, a) for a in bases[:k]), k
        if psi < rationals._MR_VALID_BELOW:
            assert is_prime(psi) is False, k
    # psi_13 is where the 13 bases stop being deterministic
    assert PSI[13] == rationals._MR_VALID_BELOW
    with pytest.raises(ResourceLimitError):
        is_prime(PSI[13])


def test_factor_int_splits_psi_12():
    assert _as_dict(factor_int(PSI[12])) == {399_165_290_221: 1, 798_330_580_441: 1}
    assert _as_dict(factor_int(PSI[12])) == sympy.factorint(PSI[12])


def test_is_prime_matches_sympy_isprime():
    rng = random.Random(20240229)
    cases = [rng.randint(-3, 10 ** rng.randint(1, 24)) for _ in range(20_000)]
    # both sides of each switch to a longer prefix of bases
    for psi in list(PSI.values())[:-1]:
        cases += range(psi - 300, psi + 300)
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_table_path_matches_sympy():
    cap = rationals.TRIAL_CAP
    cases = [-7, 0, 1, 2, *range(20_001), *range(cap - 300, cap + 301)]
    want = [sympy.isprime(n) for n in cases]
    assert [is_prime(n) for n in cases] == want
    # dropping the sieved table and the factor table struck from it, as in
    # a fresh process: the first call builds both again and every answer
    # stays the same
    rationals._trial_primes.cache_clear()
    rationals._factor_table.cache_clear()
    assert is_prime(cap - 17) == sympy.isprime(cap - 17)
    assert rationals._trial_primes.cache_info().currsize == 1
    assert rationals._factor_table.cache_info().currsize == 1
    assert [is_prime(n) for n in cases] == want


def _exact_div(x, y):
    """x / y when it lands in Z[w], else None."""
    n = y.norm()
    z = x * y.conj()
    if z.a % n or z.b % n:
        return None
    return QuadInt(z.a // n, z.b // n)


def _sympy_primes_above(p):
    """Canonical primes over p from sympy's Kronecker symbol and Cornacchia."""
    if sympy.kronecker_symbol(-19, p) == -1:
        return [QuadInt(p, 0)]
    x, y = _cornacchia_4p(p)
    return [QuadInt(a, b) for a, b in sorted({((-x - y) // 2, y), ((x - y) // 2, y)})]


def _division_factor(z):
    """unit, exponents of z in Z[w] by trial division: every prime over a
    rational prime of the norm (factored by sympy) is divided out while it
    divides, and what is left must be a unit."""
    out = {}
    for p in sorted(sympy.factorint(z.norm())):
        for pi in _sympy_primes_above(p):
            while (q := _exact_div(z, pi)) is not None:
                z = q
                out[pi] = out.get(pi, 0) + 1
    assert z.norm() == 1, z
    return z.a, out


def _oracle_factor_quad(x):
    """Norm-guided division, numerator and denominator apart."""
    unit, exps = _division_factor(x.num)
    du, dexps = _division_factor(QuadInt(x.den, 0))
    for pi, e in dexps.items():
        exps[pi] = exps.get(pi, 0) - e
    return KFactorization(unit * du, {pi: e for pi, e in exps.items() if e})


def _check_factor_quad(x):
    f = factor_quad(x)
    assert f == _oracle_factor_quad(x), x
    assert rebuild_quad(f) == x
    assert all(is_canonical_prime(pi) for pi in f.exponents), x
    return f


PI19 = QuadInt(-1, 2)


def _random_primitive(rng, bound):
    while True:
        z = QuadInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if z.content() == 1:
            return z


def test_factor_quad_matches_division_on_contents_and_denominators():
    rng = random.Random(20221119)
    squares = {x * x % 19 for x in range(1, 19)}
    primes = list(sympy.primerange(3, 2000))
    split = [p for p in primes if p != 19 and p % 19 in squares]
    inert = [2] + [p for p in primes if p != 19 and p % 19 not in squares]
    dens = [d for d in range(1, 501) if d % 19]
    over_pi19 = 0
    for _ in range(150):
        p, q, k = rng.choice(split), rng.choice(inert), rng.randint(1, 3)
        # the content holds a split p, so both primes over it, an inert q and 19**k
        c = p * q * 19**k
        f = _check_factor_quad(QuadRat(_random_primitive(rng, 10**4) * c, rng.randint(1, 500)))
        pi, pi2 = primes_above(p).primes
        assert f.exponents.get(pi, 0) != 0 or f.exponents.get(pi2, 0) != 0
        # a denominator with a split, an inert and a 19 factor, over a
        # numerator prime to 19
        num = _random_primitive(rng, 10**4)
        if num.norm() % 19:
            _check_factor_quad(QuadRat(num, p * q * 19 * rng.randint(1, 50)))
        # a primitive numerator over pi19
        z = PI19 * _random_primitive(rng, 10**4)
        if z.content() == 1:
            f = _check_factor_quad(QuadRat(z, rng.choice(dens)))
            assert f.exponents[PI19] == 1
            over_pi19 += 1
    assert over_pi19 > 100


def test_factor_quad_units_and_signs():
    for x in (QuadRat(-1), QuadRat(1), QuadRat(-1, 7), QuadRat(-1, 19), QuadRat(-19, 4)):
        _check_factor_quad(x)
    assert factor_quad(QuadInt(-1, 0)) == KFactorization(-1, {})
    rng = random.Random(3)
    negatives = 0
    for _ in range(300):
        z = _random_primitive(rng, 10**5) * rng.choice([1, 2, 3, 19, 5 * 7])
        f = _check_factor_quad(QuadRat(-z))
        assert f.unit == -factor_quad(z).unit
        negatives += f.unit == -1
    assert 50 < negatives < 250


def _qsum_inputs(seed, count):
    """The first count input pairs of the qsum-h1e4 benchmark workload."""
    height = 10**4
    rng = np.random.default_rng(seed)
    nums = rng.integers(-height, height + 1, size=(4000, 2))
    dens = rng.integers(1, height + 1, size=(4000, 2))
    pairs = [
        (Fraction(int(n0), int(d0)), Fraction(int(n1), int(d1)))
        for (n0, n1), (d0, d1) in zip(nums.tolist(), dens.tolist())
    ]
    return pairs[:count]


def test_factor_quad_matches_division_on_sum_images():
    # every one of these images has a norm within the sum-norm ceiling, so
    # exotic_add_q would factor each of them
    corr = default_correspondence()
    for a, b in _qsum_inputs(0, 2000):
        image = sigma_apply(corr, a) + sigma_apply(corr, b)
        norm = image.norm()
        assert abs(norm.numerator) <= DEFAULT_SUM_NORM_CEILING and norm.denominator <= DEFAULT_SUM_NORM_CEILING
        _check_factor_quad(image)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-(10**7), 10**7),
    st.integers(-(10**7), 10**7),
    st.integers(1, 10**6),
    st.sampled_from([1, 2, 3, 5, 19, 361, 7 * 11]),
)
def test_factor_quad_property(a, b, den, c):
    if a == 0 and b == 0:
        return
    _check_factor_quad(QuadRat(QuadInt(a * c, b * c), den))


def test_factor_quad_refuses_a_factorization_it_cannot_rebuild(monkeypatch):
    z = QuadInt(3, 2)  # primitive, norm 5 * 7
    assert sympy.factorint(z.norm()) == {5: 1, 7: 1}
    real = quadratic._exponents
    # a norm factorization that loses a prime leaves a product short of z
    monkeypatch.setattr(
        quadratic, "_exponents",
        lambda m, primes=None: {p: e for p, e in real(m, primes).items() if p != 7},
    )
    with pytest.raises(IntegrityError):
        factor_quad(z)
    monkeypatch.setattr(quadratic, "_exponents", real)
    # an inert prime over the norm of a primitive element is impossible
    real_above = quadratic.primes_above
    monkeypatch.setattr(quadratic, "primes_above", lambda p: quadratic.Splitting("inert", (QuadInt(p, 0),)))
    with pytest.raises(IntegrityError):
        factor_quad(z)
    monkeypatch.setattr(quadratic, "primes_above", real_above)
    # a split table and a factor table that both lack the split prime 5
    # leave composite cofactors such as 35 = N(z) or 25 = N(w**2) behind:
    # each such norm is refused, and any answer that does come back is the
    # true one. The factor table struck without 5 holds 35 and 25 as primes
    # (7**2 > 35), which is how norms up to TRIAL_CAP meet the lost prime.
    rng = random.Random(15)
    cases = [z, QuadInt(-5, 1)]  # QuadInt(-5, 1) = w**2
    while len(cases) < 300:
        a, b = rng.randint(-(10**4), 10**4), rng.randint(-(10**4), 10**4)
        if math.gcd(a, b) == 1:
            cases.append(QuadInt(a, b))
    want = [factor_quad(x) for x in cases]
    table = tuple(p for p in quadratic._norm_primes() if p != 5)
    monkeypatch.setattr(quadratic, "_norm_primes", lambda: table)
    lossy = rationals._least_factors(tuple(p for p in sympy.primerange(3, 1000) if p != 5))
    assert lossy[35 >> 1] == lossy[25 >> 1] == 0 and lossy[45 >> 1] == 3
    monkeypatch.setattr(rationals, "_factor_table", lambda: lossy)
    # rationals.is_prime reads the same table; primes_above tests by sympy
    # instead, so it refuses 35 and 25 and its cache keeps no composite
    monkeypatch.setattr(quadratic, "is_prime", sympy.isprime)
    refused = 0
    for x, f in zip(cases, want):
        try:
            got = factor_quad(x)
        except IntegrityError:
            refused += 1
            continue
        assert got == f, x
    assert refused >= 2
    for x in cases[:2]:
        with pytest.raises(IntegrityError):
            factor_quad(x)


@pytest.mark.parametrize(
    "z",
    [QuadInt(3, 2), QuadInt(-5, 1)],  # norm 5 * 7, e = 1; w**2, norm 5**2, e = 2
)
def test_factor_quad_rebuild_refuses_the_conjugate_primes(monkeypatch, z):
    # The rebuild multiplied out inside the residue-test loop is the proof:
    # a split table that offers only the prime over p not dividing z passes
    # the residue test in both slots, so only the rebuild can refuse it.
    real_above = quadratic.primes_above
    held = factor_quad(z).exponents

    def conjugate_only(p):
        s = real_above(p)
        if s.kind != "split":
            return s
        (wrong,) = (pi for pi in s.primes if pi not in held)
        return quadratic.Splitting("split", (wrong, wrong))

    monkeypatch.setattr(quadratic, "primes_above", conjugate_only)
    with pytest.raises(IntegrityError, match="rebuild"):
        factor_quad(z)


def _prime_over_split(rng, lo, hi):
    """One of the two canonical primes over a seeded split prime in [lo, hi]."""
    while True:
        p = sympy.nextprime(rng.randint(lo, hi))
        if sympy.jacobi_symbol(-19, p) == 1:
            s = primes_above(p)
            assert s.kind == "split"
            return s.primes[rng.randint(0, 1)]


def _split_prime_next_to(n, step):
    """A canonical prime over the first split prime that step (sympy's
    prevprime or nextprime) reaches from n."""
    p = step(n)
    while sympy.jacobi_symbol(-19, p) != 1:
        p = step(p)
    return primes_above(p).primes[0]


def test_split_table_factors_primitive_norms_as_factor_int_does(monkeypatch):
    # The norm of a primitive element holds no inert prime, so factoring it
    # over the split primes and 19 alone must agree with the full table.
    rho_calls = _count_rho_splits(monkeypatch)
    rng = random.Random(1915)
    pi19 = primes_above(19).primes[0]
    small, cap = 10**5, rationals.TRIAL_CAP
    cases = []
    for _ in range(20):
        p = _prime_over_split(rng, 3, small)
        q = _prime_over_split(rng, 3, cap)
        r = _prime_over_split(rng, 1000, 10**4)
        cases += [
            (pi19 * p * q, True),  # 19 once
            (p**2 * q, True),  # a square split factor
            (p**3 * q**2 * pi19, True),
            # 19**2 never divides a primitive norm (pi19**2 = -19), so it is
            # checked on the norm of 19 * p, whose content is a norm prime too
            (19 * p, False),
            (19 * pi19 * p**2, False),
            # cofactors past TRIAL_CAP**2: a product of two primes for rho,
            # and one prime for Miller-Rabin
            (_prime_over_split(rng, cap, 2 * cap) * _prime_over_split(rng, cap, 2 * cap) * p, True),
            (_prime_over_split(rng, cap**2, 10 * cap**2) * q, True),
            # a norm the factor table answers, and the norms r * s with r
            # just above and just below the cube root (s just under and
            # just over r**2), where the trial resumes or finds r itself
            (_prime_over_split(rng, 3, 400) * _prime_over_split(rng, 500, 1000), True),
            (r * _split_prime_next_to(r.norm() ** 2, sympy.prevprime), True),
            (r * _split_prime_next_to(r.norm() ** 2, sympy.nextprime), True),
        ]
    table = quadratic._norm_primes()
    for z, primitive in cases:
        assert (math.gcd(z.a, z.b) == 1) is primitive, z
        n = z.norm()
        got = rationals._exponents(n, table)
        assert got == factor_int(n).exponents == sympy.factorint(n), z
    assert len(rho_calls) >= 2 * 20  # both tables split each semiprime cofactor
    # the table itself: 19 and the odd primes p up to the cap with -19 a
    # square mod p (Euler's criterion)
    assert table[:6] == (5, 7, 11, 17, 19, 23)
    assert table == tuple(
        p for p in sympy.primerange(3, cap + 1) if p == 19 or pow(-19 % p, (p - 1) // 2, p) == 1
    )
