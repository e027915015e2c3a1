import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
import sympy

from nearfields import rationals
from nearfields.errors import DomainError, ResourceLimitError
from nearfields.rationals import (
    _MR_BASES,
    _MR_VALID_BELOW,
    SignedFactorization,
    _trial_primes,
    factor_int,
    factor_rat,
    is_prime,
    prime_mask,
    primes_upto,
)


def test_factor_int_small():
    assert factor_int(12) == SignedFactorization(1, {2: 2, 3: 1})
    assert factor_int(-1) == SignedFactorization(-1, {})
    assert factor_int(1) == SignedFactorization(1, {})
    assert factor_int(19) == SignedFactorization(1, {19: 1})
    assert factor_int(-360) == SignedFactorization(-1, {2: 3, 3: 2, 5: 1})


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factor_int(0)
    with pytest.raises(DomainError):
        factor_rat(Fraction(0))


def test_factor_rat_examples():
    assert factor_rat(Fraction(6, 35)) == SignedFactorization(1, {2: 1, 3: 1, 5: -1, 7: -1})
    assert factor_rat(Fraction(-9, 4)) == SignedFactorization(-1, {2: -2, 3: 2})
    assert factor_rat(1) == SignedFactorization(1, {})
    assert factor_rat(-1) == SignedFactorization(-1, {})


def test_rebuild_round_trip_examples():
    for q in [Fraction(6, 35), Fraction(-9, 4), Fraction(1), Fraction(19), Fraction(-1, 360)]:
        assert factor_rat(q).value() == q


def test_primes_upto_matches_nth():
    ps = primes_upto(100)
    assert ps[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(ps) == 25
    assert primes_upto(1) == []


def test_prime_mask_refuses_outside_its_range():
    # 1 is no prime, and a segment that ends before it starts is no segment
    with pytest.raises(DomainError):
        prime_mask(10, 1)
    with pytest.raises(DomainError):
        prime_mask(5, 10)
    assert prime_mask(10, 10).tolist() == []  # no odd number in [10, 10]
    assert "prime_mask" not in rationals.__all__


def test_is_prime_small():
    primes = set(primes_upto(500))
    for n in range(-3, 500):
        assert is_prime(n) == (n in primes)


def test_is_prime_refuses_past_deterministic_bound():
    small = _MR_BASES
    bound = _MR_VALID_BELOW
    # Inputs with a factor among the bases are settled before the bound applies.
    assert is_prime(small[-1] * bound) is False
    n = bound
    while any(n % p == 0 for p in small):
        n += 1
    with pytest.raises(ResourceLimitError) as exc:
        is_prime(n)
    assert exc.value.ceiling == bound
    assert str(bound) in str(exc.value)
    below = bound - 1
    while any(below % p == 0 for p in small):
        below -= 1
    assert is_prime(below) == sympy.isprime(below)


def test_round_trip_random():
    rng = random.Random(0)
    for _ in range(300):
        num = rng.randint(1, 10**6) * rng.choice([1, -1])
        den = rng.randint(1, 10**6)
        q = Fraction(num, den)
        f = factor_rat(q)
        assert f.value() == q
        assert all(e != 0 for e in f.exponents.values())
        assert all(is_prime(p) for p in f.exponents)
        assert f.sign == (1 if q > 0 else -1)


def test_value_matches_fraction_arithmetic():
    # exponents all positive (no denominator), all negative, and mixed
    rng = random.Random(29)
    primes = primes_upto(60)
    for _ in range(300):
        picked = rng.sample(primes, rng.randint(0, 5))
        signs = rng.choice([(1,), (-1,), (1, -1)])
        exps = {p: rng.choice(signs) * rng.randint(1, 4) for p in picked}
        sign = rng.choice([1, -1])
        want = Fraction(sign)
        for p, e in exps.items():
            want *= Fraction(p) ** e
        got = SignedFactorization(sign, exps).value()
        assert type(got) is Fraction and type(got.numerator) is int
        assert got == want, exps
        assert got.denominator == 1 or any(e < 0 for e in exps.values())


def test_factorization_is_multiplicative():
    rng = random.Random(1)
    for _ in range(200):
        q = Fraction(rng.randint(1, 9999) * rng.choice([1, -1]), rng.randint(1, 9999))
        r = Fraction(rng.randint(1, 9999) * rng.choice([1, -1]), rng.randint(1, 9999))
        fq, fr, fqr = factor_rat(q), factor_rat(r), factor_rat(q * r)
        assert fqr.sign == fq.sign * fr.sign
        merged = dict(fq.exponents)
        for p, e in fr.exponents.items():
            merged[p] = merged.get(p, 0) + e
        merged = {p: e for p, e in merged.items() if e != 0}
        assert fqr.exponents == merged


def test_factor_int_beyond_trial_cap():
    # Both factors sit far above the 1e6 trial cap, so the rho path must split.
    p, q = 10_000_000_019, 10_000_000_033
    assert is_prime(p) and is_prime(q)
    assert factor_int(p * q) == SignedFactorization(1, {p: 1, q: 1})
    assert factor_int(-(p**2)) == SignedFactorization(-1, {p: 2})


def test_factor_int_near_cap_boundary():
    # Cofactor below cap**2 after exhausting the cap is prime by construction.
    n = 999_983 * 999_979  # two primes just under 1e6
    assert factor_int(n).exponents == {999_979: 1, 999_983: 1}


def test_signed_factorization_validates():
    with pytest.raises(DomainError):
        SignedFactorization(2, {})
    with pytest.raises(DomainError):
        SignedFactorization(1, {2: 0})
    with pytest.raises(DomainError):
        SignedFactorization(1, {2: 1, 3: 0})
    # a sign that equals 1 or -1 but is not the int is refused on
    # construction, not later by .value()
    for sign in (1.0, -1.0, Fraction(1), True):
        with pytest.raises(DomainError):
            SignedFactorization(sign, {2: 1})


def test_signed_factorization_record_contract():
    f = SignedFactorization(-1, {2: -2, 3: 2})
    assert f == SignedFactorization(-1, {3: 2, 2: -2})
    assert f != SignedFactorization(1, {2: -2, 3: 2})
    assert f != SignedFactorization(-1, {2: -2})
    assert f != (-1, {2: -2, 3: 2})
    with pytest.raises(TypeError):
        hash(f)
    assert repr(f) == "SignedFactorization(sign=-1, exponents={2: -2, 3: 2})"
    assert SignedFactorization(1).exponents == {}
    assert SignedFactorization(1) == factor_rat(1)


def test_json_shape():
    f = factor_rat(Fraction(-9, 4))
    assert f.to_json() == {"sign": -1, "factors": [[2, -2], [3, 2]]}


def test_cache_under_threads():
    # start from no trial table and no factor table, so the threads race
    # on their first build
    _trial_primes.cache_clear()
    rationals._factor_table.cache_clear()
    results = []

    def work(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(50):
            q = Fraction(rng.randint(1, 10**5), rng.randint(1, 10**5))
            out.append(factor_rat(q).value() == q)
        results.append(all(out))

    threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the builds interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 8


def test_entry_points_refuse_floats():
    # A float is refused, not factored or tested as the number it rounds to
    # (factor_int(2.0) gave {2.0: 1}), nor taken as the binary fraction it
    # holds (factor_rat(0.5) factored Fraction(0.5)).
    for call in (factor_int, is_prime):
        for x in (2.0, 7.0, 2.5):
            with pytest.raises(TypeError):
                call(x)
    for q in (0.5, 2.0, 0.1):
        with pytest.raises(TypeError):
            factor_rat(q)
    # Python and numpy ints pass, and come out as Python ints
    assert factor_int(np.int64(-360)) == factor_int(-360)
    assert is_prime(np.int32(7)) and not is_prime(np.int64(9))
    f = factor_rat(np.int64(-12))
    assert f == factor_rat(-12) and all(type(p) is int for p in f.exponents)
    assert factor_rat(Fraction(-9, 4)) == SignedFactorization(-1, {2: -2, 3: 2})
