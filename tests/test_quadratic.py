import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nearfields.errors import DomainError
from nearfields.quadratic import (
    KFactorization,
    QuadInt,
    QuadRat,
    _extra_norms,
    _place_in_norm,
    _primes_of_norm,
    factor_quad,
    is_canonical_prime,
    primes_above,
    rebuild_quad,
    _split_bits,
)
from nearfields.rationals import _SEGMENT, SignedFactorization, primes_upto

W = QuadInt(0, 1)


def test_ring_relations():
    assert W * W == W - 5  # w**2 = w - 5
    assert W * QuadInt(1, -1) == QuadInt(5, 0)  # w * (1 - w) = 5
    assert W.conj() == QuadInt(1, -1)
    assert QuadInt(2, 1) + QuadInt(0, -1) == QuadInt(2, 0)
    assert (2 * W - 1) ** 2 == QuadInt(-19, 0)


def test_norms():
    assert W.norm() == 5
    assert QuadInt(2, 0).norm() == 4
    assert QuadInt(-1, 2).norm() == 19  # 2w - 1
    assert QuadRat(W, 2).norm() == Fraction(5, 4)


def test_norm_multiplicative_random():
    rng = random.Random(2)
    for _ in range(400):
        x = QuadInt(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        y = QuadInt(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        assert (x * y).norm() == x.norm() * y.norm()


def test_norm_form_positive_definite():
    # 4*norm is a sum of two squares weighted by the field discriminant,
    # so any b != 0 forces norm >= 5: the only units are -1 and 1.
    rng = random.Random(3)
    for _ in range(200):
        x = QuadInt(rng.randint(-50, 50), rng.randint(-50, 50))
        assert 4 * x.norm() == (2 * x.a + x.b) ** 2 + 19 * x.b**2
    units = [
        (a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if QuadInt(a, b).norm() == 1
    ]
    assert sorted(units) == [(-1, 0), (1, 0)]


def test_is_canonical_prime():
    assert is_canonical_prime(W)
    assert not is_canonical_prime(-W)
    assert not is_canonical_prime(QuadInt(4, 0))  # composite
    assert not is_canonical_prime(QuadInt(5, 0))  # 5 splits, not prime here
    assert not is_canonical_prime(QuadInt(0, 0))


def test_primes_above_examples():
    s2 = primes_above(2)
    assert (s2.kind, s2.primes) == ("inert", (QuadInt(2, 0),))
    s5 = primes_above(5)
    assert s5.kind == "split"
    assert s5.primes == (QuadInt(-1, 1), QuadInt(0, 1))  # (norm, a, b) order
    s19 = primes_above(19)
    assert (s19.kind, s19.primes) == ("ramified", (QuadInt(-1, 2),))
    s23 = primes_above(23)
    assert s23.primes == (QuadInt(-3, 2), QuadInt(1, 2))
    with pytest.raises(DomainError):
        primes_above(4)
    with pytest.raises(DomainError):
        primes_above(15)


def test_primes_above_caches_primes_only():
    assert 0 < primes_above.cache_info().maxsize < 2**20
    for p in (2, 5, 19, 23, 1_000_003):
        assert primes_above(p) == primes_above(p)
    hits = primes_above.cache_info().hits
    primes_above(23)
    assert primes_above.cache_info().hits == hits + 1
    # a warm cache still refuses non-primes, on either side of TRIAL_CAP,
    # and keeps none of them
    held = primes_above.cache_info().currsize
    for n in (4, 15, 1_000_003 * 1_000_033):
        with pytest.raises(DomainError):
            primes_above(n)
    assert primes_above.cache_info().currsize == held


def _outcome(call, arg):
    try:
        return call(arg)
    except Exception as exc:  # compared by type, below
        return type(exc)


def test_primes_above_same_outcome_fresh_and_warm():
    # The cache is keyed by type, and p goes through operator.index on a
    # miss, so a call gets the same answer or refusal whatever was asked
    # before it. np.int64(7) used to raise TypeError from pow, and 2.0 and
    # Fraction(2) used to answer from the cache once np.int64(2) had warmed it.
    cases = [
        (np.int64(7), 7, primes_above(7)),
        (np.int64(2), 2, primes_above(2)),
        (2.0, 2, TypeError),
        (Fraction(2), 2, TypeError),
    ]
    for arg, valid, expected in cases:
        primes_above.cache_clear()
        assert _outcome(primes_above, arg) == expected, arg
        primes_above(valid)
        primes_above(np.int64(valid))
        assert _outcome(primes_above, arg) == expected, arg


def test_k_factorization_validates():
    with pytest.raises(DomainError):
        KFactorization(2, {})
    with pytest.raises(DomainError):
        KFactorization(1, {W: 0})
    with pytest.raises(DomainError):
        KFactorization(-1, {W: 2, QuadInt(-1, 1): 0, QuadInt(2, 0): -1})
    for unit in (1.0, -1.0, Fraction(-1), True):
        with pytest.raises(DomainError):
            KFactorization(unit, {W: 1})


def test_k_factorization_record_contract():
    f = factor_quad(QuadInt(7, 3))
    assert f == KFactorization(-1, {QuadInt(-3, 2): 1, QuadInt(-1, 1): 1})
    assert f != KFactorization(1, {QuadInt(-3, 2): 1, QuadInt(-1, 1): 1})
    assert f != (-1, {QuadInt(-3, 2): 1, QuadInt(-1, 1): 1})
    with pytest.raises(TypeError):
        hash(f)
    assert repr(f) == "KFactorization(unit=-1, exponents={QuadInt(-1, 1): 1, QuadInt(-3, 2): 1})"
    # equal fields, other class: the two records never compare equal
    assert KFactorization(1, {}) != SignedFactorization(1, {})
    assert SignedFactorization(1, {}) != KFactorization(1, {})


def test_ring_elements_refuse_non_integral_inputs():
    for a, b in ((1.5, 2.9), (Fraction(7, 2), 0), (0, 2.0), (3, Fraction(4, 1))):
        with pytest.raises(TypeError):
            QuadInt(a, b)
    for den in (2.5, 2.0, Fraction(5, 2)):
        with pytest.raises(TypeError):
            QuadRat(QuadInt(3, 1), den)
    for num in (2.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            QuadRat(num)
    # Python and numpy ints still pass, as Python ints
    x = QuadInt(np.int64(3), np.int32(-2))
    assert x == QuadInt(3, -2) and type(x.a) is int and type(x.b) is int
    assert QuadRat(QuadInt(3, 1), np.int64(2)) == QuadRat(QuadInt(3, 1), 2)
    assert type(QuadRat(QuadInt(3, 1), np.int64(2)).den) is int
    assert QuadRat(np.int64(3)) == QuadRat(3)


def test_from_rat_takes_rationals_only():
    # QuadRat.from_rat(0.1) took the float's binary fraction, 3602879701896397/2**55
    for q in (0.1, 2.0):
        with pytest.raises(TypeError):
            QuadRat.from_rat(q)
    assert QuadRat.from_rat(np.int64(3)) == QuadRat(3)
    assert QuadRat.from_rat(Fraction(-1, 3)) == QuadRat(QuadInt(-1, 0), 3)


def test_splitting_trichotomy_first_100_primes():
    # Independent oracle: an odd prime q != 19 splits iff q is a nonzero
    # square mod 19 (quadratic reciprocity for discriminant -19); 2 needs the
    # same rule via its residue. Also checks that the two split primes are
    # conjugates; tests/test_oracles.py holds the independent references.
    squares = {x * x % 19 for x in range(1, 19)}
    for p in primes_upto(542):  # first 100 primes
        s = primes_above(p)
        assert s.kind in ("inert", "split", "ramified")
        if p == 19:
            assert s.kind == "ramified"
            assert len(s.primes) == 1
        elif p % 19 in squares:
            assert s.kind == "split", p
            pi, pibar = s.primes
            assert pi != pibar
            assert pibar in (pi.conj(), -pi.conj())
            assert pi.norm() == pibar.norm() == p
        else:
            assert s.kind == "inert", p
            assert s.primes == (QuadInt(p, 0),)
        assert all(is_canonical_prime(pi) for pi in s.primes)


def _packed_odd_primes(limit):
    """Bytes of a bitmap over the odd numbers up to limit (slot k for 2k + 1,
    bit k % 8 of byte k // 8), set for each odd prime."""
    mask = np.zeros((limit + 1) // 2, dtype=bool)
    mask[[p // 2 for p in primes_upto(limit)[1:]]] = True
    return np.packbits(mask, bitorder="little")


def _odd_numbers(packed, limit):
    return [2 * k + 1 for k in np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist() if 2 * k + 1 <= limit]


def test_norm_helpers_agree_with_primes_above():
    # The correspondence's view of the splitting law (the split primes
    # packed from a prime bitmap, the extra norms, a prime back from its
    # norm and place) against primes_above, prime by prime, for every
    # canonical prime of norm up to 10**4.
    limit = 10**4
    canonical = sorted(
        ((pi.norm(), pi.a, pi.b), pi)
        for p in primes_upto(limit)
        for pi in primes_above(p).primes
        if pi.norm() <= limit
    )
    packed = _packed_odd_primes(limit)
    split = _odd_numbers(_split_bits(packed, 0), limit)
    norms = sorted([p for p in split for _ in range(2)] + _extra_norms(limit))
    assert norms == [key[0] for key, _ in canonical]
    assert _extra_norms(limit) == sorted(key[0] for key, _ in canonical if key[0] not in split)
    # a bitmap that starts at any byte reads the pattern at its own phase
    for byte in range(40):
        assert np.array_equal(_split_bits(packed[byte:], byte), _split_bits(packed, 0)[byte:]), byte
    # the extras up to just under 97**2 (97 inert) leave that norm out
    assert _extra_norms(97**2 - 1) == _extra_norms(97**2)[:-1]
    assert _extra_norms(97**2)[-1] == 97**2
    for (n, _, _), pi in canonical:
        assert _primes_of_norm(n)[_place_in_norm(pi)] == pi


def test_split_bits_slices_its_pattern_in_place():
    # A whole segment's bits (2**18 bytes) cost one array: the residue
    # pattern tiled to their length, sliced at their phase and ANDed with
    # them in place; np.resize of the pattern per segment would build a
    # second pattern, and cost 23 ms a segment.
    packed = np.full(_SEGMENT // 16 + 1, 0xFF, dtype=np.uint8)
    _split_bits(packed, 0)
    tracemalloc.start()
    try:
        split = _split_bits(packed, 12_345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.dtype == np.uint8 and len(split) == len(packed)
    assert peak < len(packed) + 4096, peak
    # set exactly where 2k + 1 is a nonzero square mod 19, k the global slot
    slots = 8 * 12_345 + np.arange(8 * len(packed))
    want = np.isin((2 * slots + 1) % 19, [x * x % 19 for x in range(1, 19)])
    assert np.array_equal(np.unpackbits(split, bitorder="little").astype(bool), want)


def test_split_bits_reads_a_bitmap_of_any_length_at_any_phase():
    # the correspondence masks its whole bitmap at once to read its pairs
    # off, and the blocks a sieve segment completes from the phase of the
    # first: 262,144 bytes at phase 18 in the worst case
    for length, byte in ((0, 3), (1, 18), (262_144, 18), (262_145, 64 * 103), (3_125_000, 12_345)):
        split = _split_bits(np.full(length, 0xFF, dtype=np.uint8), byte)
        slots = 8 * byte + np.arange(8 * length)
        want = ((2 * slots + 1) % 19) ** 9 % 19 == 1
        assert split.dtype == np.uint8 and len(split) == length
        assert np.array_equal(np.unpackbits(split, bitorder="little").astype(bool), want), (length, byte)


def test_factor_quad_examples():
    f5 = factor_quad(QuadInt(5, 0))
    # w * (-1+w) = -5, so the canonical-prime factorization of 5 carries
    # unit -1; rebuilding must reproduce 5 exactly.
    assert f5.unit == -1
    assert f5.exponents == {QuadInt(0, 1): 1, QuadInt(-1, 1): 1}
    assert rebuild_quad(f5) == QuadRat(QuadInt(5, 0))

    assert factor_quad(QuadInt(-1, 0)) == KFactorization(-1, {})
    assert factor_quad(QuadInt(2, 0)) == KFactorization(1, {QuadInt(2, 0): 1})
    f19 = factor_quad(QuadInt(19, 0))
    assert f19.unit == -1 and f19.exponents == {QuadInt(-1, 2): 2}
    with pytest.raises(DomainError):
        factor_quad(QuadInt(0, 0))


def test_factor_quad_rational_input():
    x = QuadRat(W, 5)  # w/5 = 1/(-(-1+w)) up to sign bookkeeping
    f = factor_quad(x)
    assert rebuild_quad(f) == x
    assert f.exponents == {QuadInt(-1, 1): -1}
    assert f.unit == -1


def test_rebuild_quad_negative_exponents():
    pi, pi_bar = primes_above(5).primes  # one split p
    (pi19,) = primes_above(19).primes
    (q,) = primes_above(2).primes  # inert
    cases = [
        KFactorization(-1, {pi: -2, pi_bar: -1}),
        KFactorization(1, {pi: 3, pi_bar: -2}),
        KFactorization(1, {pi19: -3}),
        KFactorization(-1, {q: -2, pi: 1}),
    ]
    for f in cases:
        want = QuadRat(f.unit)
        for p, e in f.exponents.items():
            for _ in range(abs(e)):
                want = want * p if e > 0 else want / p
        assert rebuild_quad(f) == want, f
        assert factor_quad(want) == f


def test_factor_round_trip_random():
    rng = random.Random(4)
    done = 0
    while done < 200:
        x = QuadInt(rng.randint(-60000, 60000), rng.randint(-25000, 25000))
        if x.is_zero() or x.norm() > 10**10:
            continue
        assert rebuild_quad(factor_quad(x)) == QuadRat(x)
        done += 1


def test_factor_round_trip_quadrat():
    rng = random.Random(5)
    for _ in range(100):
        num = QuadInt(rng.randint(-500, 500), rng.randint(-500, 500))
        den = rng.randint(1, 500)
        if num.is_zero():
            continue
        x = QuadRat(num, den)
        f = factor_quad(x)
        assert rebuild_quad(f) == x
        assert all(is_canonical_prime(pi) for pi in f.exponents)
        assert all(e != 0 for e in f.exponents.values())


def test_factor_round_trip_content_and_denominator_share_split_primes():
    # z, a product of one prime over each of some split p, is primitive;
    # the content c and the denominator d draw from the same p, so their
    # exponents land on keys the primitive part already stored, and a
    # denominator may cancel one to zero
    rng = random.Random(29)
    split = [p for p in primes_upto(60) if primes_above(p).kind == "split"]
    for _ in range(200):
        z, want = QuadInt(1, 0), {}
        for p in rng.sample(split, rng.randint(1, 3)):
            pi = rng.choice(primes_above(p).primes)
            e = rng.randint(1, 3)
            z = z * pi**e
            want[pi] = e
        shared = rng.sample(split, 2) + [2, 3, 19]
        c = d = 1
        for p in shared:
            k = rng.randint(0, 2)
            if rng.random() < 0.5:
                c *= p**k
            else:
                d *= p**k
            for pi in primes_above(p).primes:
                step = k if d % p else -k
                want[pi] = want.get(pi, 0) + (2 * step if p == 19 else step)
        x = QuadRat(QuadInt(c * z.a, c * z.b), d)
        f = factor_quad(x)
        assert rebuild_quad(f) == x
        assert f.exponents == {pi: e for pi, e in want.items() if e}, (z, c, d)


def test_quadrat_normal_form():
    x = QuadRat(QuadInt(2, 4), -6)
    assert (x.num, x.den) == (QuadInt(-1, -2), 3)
    assert QuadRat(QuadInt(3, 0), 3) == QuadRat(QuadInt(1, 0), 1)
    with pytest.raises(DomainError):
        QuadRat(W, 0)


def test_hash_agrees_with_equality():
    # Equal values must hash alike, or a set holds one value twice.
    rng = random.Random(7)
    for _ in range(100):
        a, b, d = rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(1, 99)
        equal = [(QuadInt(a, 0), a), (QuadRat(QuadInt(a, 0), d), Fraction(a, d)),
                 (QuadRat(QuadInt(a, b)), QuadInt(a, b)), (QuadRat(QuadInt(a, 0)), a),
                 (QuadInt(a, 0), Fraction(a)), (Fraction(a), QuadInt(a, 0))]
        for x, y in equal:
            assert x == y and not x != y and hash(x) == hash(y), (x, y)
    assert len({5, QuadInt(5, 0), QuadRat(QuadInt(5, 0)), Fraction(5)}) == 1
    assert len({QuadInt(3, 0), Fraction(3), QuadRat(QuadInt(3, 0))}) == 1
    assert len({Fraction(3), QuadRat(QuadInt(3, 0)), QuadInt(3, 0)}) == 1
    # A non-integral Fraction is no element of Z[w].
    assert QuadInt(3, 0).__eq__(Fraction(7, 2)) is NotImplemented
    assert QuadInt(3, 0) != Fraction(7, 2) and Fraction(7, 2) != QuadInt(3, 0)
    assert len({Fraction(1, 2), QuadRat(QuadInt(1, 0), 2)}) == 1
    assert len({QuadRat(QuadInt(3, 1)), QuadInt(3, 1), QuadRat(QuadInt(3, 1), 2)}) == 2
    # components past 2**64, and negative b
    for a, b in ((2**64 + 3, -5), (-(2**70), 2**65 + 1), (7, -(2**64)), (2**64, 0), (-(2**80), 0)):
        x, y = QuadInt(a, b), QuadInt(a, b)
        assert x is not y and x == y and hash(x) == hash(y), (a, b)
        assert QuadRat(x) == x and hash(QuadRat(x)) == hash(x)
        if b == 0:
            assert hash(x) == hash(a) and len({x, a}) == 1
    # and unequal small values do not collide: a hash that reduced to
    # a + 8b (the step 2**64, mod 2**61 - 1) would send (8, 0) to (0, 1).
    # (-1, 0) is left out, since hash(-1) == hash(-2) for ints too.
    small = [QuadInt(a, b) for a in range(-40, 41) for b in range(-40, 41)]
    assert len({hash(x) for x in small if x != -1}) == len(small) - 1


def test_quadrat_field_ops():
    rng = random.Random(6)
    for _ in range(150):
        x = QuadRat(QuadInt(rng.randint(-99, 99), rng.randint(-99, 99)), rng.randint(1, 99))
        y = QuadRat(QuadInt(rng.randint(-99, 99), rng.randint(-99, 99)), rng.randint(1, 99))
        z = QuadRat(QuadInt(rng.randint(-99, 99), rng.randint(-99, 99)), rng.randint(1, 99))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - y == -(y - x)
        if not y.is_zero():
            assert (x / y) * y == x
    one = QuadRat(QuadInt(1, 0))
    assert one / QuadRat(W) * QuadRat(W) == one


def test_json_shapes():
    assert W.to_json() == [0, 1]
    assert QuadRat(W, 2).to_json() == [0, 1, 2]
    f = factor_quad(QuadInt(10, 0))
    js = f.to_json()
    assert js["unit"] == -1
    assert js["factors"] == [[[2, 0], 1], [[-1, 1], 1], [[0, 1], 1]]
