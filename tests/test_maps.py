"""Tests for the prime correspondence, sigma, and the multiplicative-map
calculus: endobijections of Q, quasi-multiplicative checks, epsilon maps."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nearfields import maps, quadratic, rationals
from nearfields.errors import DomainError, IntegrityError, ResourceLimitError
from nearfields.maps import (
    DEFAULT_CORRESPONDENCE_CEILING,
    EndoBijectionSpecQ,
    PrimeCorrespondence,
    default_correspondence,
    endo_q_apply,
    sigma_apply,
    sigma_invert,
)
from nearfields.quadratic import QuadInt, QuadRat, factor_quad, primes_above
from nearfields.rationals import TRIAL_CAP, factor_int, is_prime, primes_upto

# First thirteen pairs, fixed as regression anchors. The same list is
# recomputed below by brute force, with no shared code.
FROZEN_PAIRS = [
    (2, (2, 0)),
    (3, (-1, 1)),
    (5, (0, 1)),
    (7, (-2, 1)),
    (11, (1, 1)),
    (13, (3, 0)),
    (17, (-3, 1)),
    (19, (2, 1)),
    (23, (-4, 1)),
    (29, (3, 1)),
    (31, (-1, 2)),
    (37, (-3, 2)),
    (41, (1, 2)),
]


def _sieve(n):
    flags = [False, False] + [True] * (n - 1)
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return [i for i, f in enumerate(flags) if f]


def _brute_pairs(norm_limit):
    """Independent enumeration: scan the whole (a, b) box, keep canonical
    representatives whose ideal is prime, sort, and zip with the primes."""
    primes = set(_sieve(norm_limit))
    found = []
    bound = int(norm_limit**0.5) + 2
    for a in range(-2 * bound, 2 * bound + 1):
        for b in range(0, bound + 1):
            if b == 0 and a <= 0:
                continue
            n = a * a + a * b + 5 * b * b
            if n > norm_limit:
                continue
            if n in primes:
                found.append((n, a, b))
            elif b == 0 and a in primes:
                # inert candidate: a prime with no norm-a solution at all
                if not any(
                    x * x + x * y + 5 * y * y == a
                    for y in range(0, int((4 * a / 19) ** 0.5) + 2)
                    for x in range(-2 * int(a**0.5) - 2, 2 * int(a**0.5) + 3)
                ):
                    found.append((n, a, b))
    found.sort()
    rat = _sieve(10 * norm_limit)
    return [(rat[i], (a, b)) for i, (n, a, b) in enumerate(found)]


def test_frozen_prefix_and_brute_force_agree():
    corr = PrimeCorrespondence()
    corr.extend_to_norm(200)
    got = [(p, (pi.a, pi.b)) for p, pi in corr.pairs()[:13]]
    assert got == FROZEN_PAIRS
    brute = _brute_pairs(200)
    assert len(brute) > 40
    got_all = [(p, (pi.a, pi.b)) for p, pi in corr.pairs()]
    assert got_all[: len(brute)] == brute


def test_extension_is_append_only():
    corr = PrimeCorrespondence()
    corr.extend_to_norm(500)
    before = corr.pairs()
    corr.extend_to_norm(20_000)
    after = corr.pairs()
    assert after[: len(before)] == before
    assert len(after) > len(before)


def test_image_and_preimage_round_trip():
    corr = default_correspondence()
    assert corr.image_of_prime(2) == QuadInt(2, 0)
    assert corr.image_of_prime(3) == QuadInt(-1, 1)
    assert corr.image_of_prime(13) == QuadInt(3, 0)
    for p, (a, b) in FROZEN_PAIRS:
        assert corr.preimage_of_prime(QuadInt(a, b)) == p
    for p in (101, 997, 7919):
        assert corr.preimage_of_prime(corr.image_of_prime(p)) == p
    with pytest.raises(DomainError):
        corr.image_of_prime(10)
    with pytest.raises(DomainError):
        corr.preimage_of_prime(QuadInt(4, 0))


def test_image_of_prime_refuses_non_primes(monkeypatch):
    tested = []
    monkeypatch.setattr(maps, "is_prime", lambda n: tested.append(n) or is_prime(n))
    corr = PrimeCorrespondence(max_norm=10**4)
    # nothing is sieved yet (sieved is 1): the range test refuses 0, 1 and
    # -3 on its own, and a primality test decides 10, which is past it
    for n in (0, 1, -3, 10):
        with pytest.raises(DomainError):
            corr.image_of_prime(n)
    assert tested == [10]
    corr.extend_to_norm(10**4)
    tested.clear()
    # up to the last sieved prime the rank lookup decides on its own; 9971 =
    # 13**2 * 59 lies between the last paired prime, 9923, and the last
    # sieved one, 9973
    for n in (0, 1, -3, 10, 9971):
        with pytest.raises(DomainError):
            corr.image_of_prime(n)
    assert corr.image_of_prime(9923).norm() <= 10**4
    assert tested == []
    with pytest.raises(ResourceLimitError):
        corr.image_of_prime(9973)
    # past what the ceiling can reach: a composite is still not a prime,
    # while a prime is refused at the ceiling
    with pytest.raises(DomainError):
        corr.image_of_prime(10**6 + 1)  # 101 * 9901
    with pytest.raises(ResourceLimitError):
        corr.image_of_prime(1_000_003)


class _CountingLock:
    """Stands in for a correspondence's lock and counts entries."""

    def __init__(self, lock):
        self.lock, self.entered = lock, 0

    def __enter__(self):
        self.entered += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_preimage_of_prime_refusals_below_capacity(monkeypatch):
    corr = PrimeCorrespondence(max_norm=10**4)
    corr.extend_to_norm(10**4)
    back = {a: p for p, a in corr.pairs()}
    pi, other = primes_above(43).primes  # 43 splits, and 43**2 <= 10**4
    square = pi * pi
    if square.b < 0:
        square = -square  # the canonical form of pi**2, so its norm is looked up
    assert square.b > 0
    tested, grown = [], []
    counting = lambda n: tested.append(n) or is_prime(n)  # noqa: E731
    monkeypatch.setattr(maps, "is_prime", counting)
    monkeypatch.setattr(quadratic, "is_prime", counting)
    monkeypatch.setattr(corr, "extend_to_norm", grown.append)
    corr._lock = _CountingLock(corr._lock)
    refused = [
        QuadInt(4, 0),  # norm 16 = 2**4, 2 inert
        QuadInt(-2, 0),  # the negated associate of the inert prime 2
        QuadInt(0, 0),
        QuadInt(1, 0),  # a unit
        QuadInt(5, 0),  # 5 splits, so 25 is no stored norm
        -pi,  # the negated associate
        pi.conj(),  # the conjugate, an associate of the other prime over 43
        square,
    ]
    for x in refused:
        with pytest.raises(DomainError):
            corr.preimage_of_prime(x)
    # both primes over 43, the inert 2 and the ramified prime over 19
    # still map back, on the same lookup
    assert other == -pi.conj()
    for x in (pi, other, QuadInt(2, 0), QuadInt(-1, 2)):
        assert corr.preimage_of_prime(x) == back[x]
    assert tested == [] and grown == [] and corr._lock.entered == 0


def test_preimage_of_prime_past_capacity(monkeypatch):
    # 101 splits, so QuadInt(101, 0) is in canonical form but composite,
    # of norm 10201. Past the capacity and under the ceiling it is tested
    # and is not a prime; past the ceiling growth refuses it untested, as
    # it refuses a prime there, so a refused sum proves its norm once.
    tested = []
    monkeypatch.setattr(maps, "is_canonical_prime", lambda pi: tested.append(pi) or quadratic.is_canonical_prime(pi))
    roomy = PrimeCorrespondence(max_norm=10**5)
    roomy.extend_to_norm(10**4)
    assert roomy._data.capacity == 10**4
    with pytest.raises(DomainError):
        roomy.preimage_of_prime(QuadInt(101, 0))
    assert tested == [QuadInt(101, 0)]
    corr = PrimeCorrespondence(max_norm=10**4)
    corr.extend_to_norm(10**4)
    big = primes_above(10037)  # 10037 = 5 mod 19 splits
    assert big.kind == "split"
    for pi in (QuadInt(101, 0), big.primes[0]):
        with pytest.raises(ResourceLimitError) as exc:
            corr.preimage_of_prime(pi)
        assert exc.value.ceiling == 10**4
    assert tested == [QuadInt(101, 0)]
    # out of canonical form, it is no canonical prime at any norm
    with pytest.raises(DomainError):
        corr.preimage_of_prime(QuadInt(-101, 0))


def test_resource_ceiling():
    # extend_to_norm raises the one refusal, whichever path reaches it
    corr = PrimeCorrespondence(max_norm=10**4)
    calls = [
        lambda: corr.extend_to_norm(10**5),
        lambda: corr.image_of_prime(9973),  # paired past the last norm under 10**4
        lambda: corr.preimage_of_prime(primes_above(10037).primes[0]),  # norm 10037
        # 103 is inert (103 = 8 mod 19), so its norm 103**2 tops the ceiling
        lambda: corr.preimage_of_prime(QuadInt(103, 0)),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ResourceLimitError) as exc:
            call()
        assert exc.value.ceiling == 10**4
        messages.add(str(exc.value))
    assert messages == {"correspondence needs norms past its ceiling 10000"}
    assert corr._data.capacity == 10**4


def test_sigma_examples():
    corr = default_correspondence()
    assert sigma_apply(corr, 0).is_zero()
    assert sigma_apply(corr, 1) == 1
    assert sigma_apply(corr, -1) == -1
    assert sigma_apply(corr, 2) == QuadRat(QuadInt(2, 0))
    assert sigma_apply(corr, Fraction(6, 5)) == QuadRat(QuadInt(8, 2), 5)
    assert sigma_invert(corr, QuadRat(QuadInt(8, 2), 5)) == Fraction(6, 5)


def _sigma_by_quadrat(corr, q):
    """sigma(q) as a product of QuadRat powers of prime images: a negative
    exponent divides, and exponents are spent one factor at a time."""
    out = QuadRat(-1 if q < 0 else 1)
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        for p, e in factor_int(n).exponents.items():
            pi = QuadRat(corr.image_of_prime(p))
            for _ in range(e):
                out = out * pi if sign > 0 else out / pi
    return out


def test_sigma_apply_matches_a_product_of_quadrat_powers():
    corr = default_correspondence()
    F = Fraction
    cases = [
        F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 4),  # 2 is inert
        F(19), F(1, 19), F(-19**3, 7), F(7, 19**2),  # 19 ramifies
        F(3 * 5 * 7, 11), F(-11**2, 3**3 * 5), F(43**4, 47**2),  # split primes
        F(2**3 * 3, 19 * 5**2), F(-(13**2) * 19, 2**5 * 23),  # inert 13 and 23
        F(2**200, 3**150), F(-(3**150), 2**200), F(19**90, 7**121),
        F(999_983, 999_979**3),  # the last primes under the trial cap
    ]
    rng = np.random.default_rng(23)
    for _ in range(150):
        cases.append(F(int(rng.integers(-10**6, 10**6)) or 1, int(rng.integers(1, 10**6))))
    for q in cases:
        assert sigma_apply(corr, q) == _sigma_by_quadrat(corr, q), q
        assert sigma_invert(corr, sigma_apply(corr, q)) == q, q


def test_image_of_prime_memo_holds_only_small_primes_it_found():
    corr = PrimeCorrespondence(max_norm=10**4)
    corr.extend_to_norm(10**4)
    pi = corr.image_of_prime(9923)
    assert corr._images == {9923: pi}
    # refusals are never kept: each repeat asks again and refuses again
    for n, error in ((9971, DomainError), (10, DomainError), (9973, ResourceLimitError)):
        for _ in range(3):
            with pytest.raises(error):
                corr.image_of_prime(n)
        assert n not in corr._images
    with pytest.raises(ResourceLimitError):
        corr.image_of_prime(1_000_003)
    assert corr._images == {9923: pi}
    # a prime past the trial cap is answered but not kept
    big = PrimeCorrespondence()
    pi = big.image_of_prime(1_000_003)
    assert big.image_of_prime(1_000_003) == pi
    assert 1_000_003 not in big._images
    assert big.image_of_prime(999_983) == big._images[999_983]


def test_memoized_images_equal_a_fresh_correspondence(monkeypatch):
    primes = primes_upto(TRIAL_CAP)
    rng = np.random.default_rng(31)
    sample = [primes[i] for i in rng.choice(len(primes), size=300, replace=False)]
    sample += [2, 3, 19, primes[-1]]
    corr = PrimeCorrespondence()
    first = [corr.image_of_prime(p) for p in sample]
    lookups = []
    real = maps._canonical_at
    monkeypatch.setattr(maps, "_canonical_at", lambda *a: lookups.append(a) or real(*a))
    assert [corr.image_of_prime(p) for p in sample] == first
    assert lookups == []  # all served from the memo
    fresh = PrimeCorrespondence()
    assert [fresh.image_of_prime(p) for p in sample] == first
    assert len(lookups) == len(sample)
    for p, pi in zip(sample, first):
        assert fresh.preimage_of_prime(pi) == p


def test_preimage_memo_answers_like_the_rank_lookup(monkeypatch):
    corr = PrimeCorrespondence(max_norm=10**4)
    corr.extend_to_norm(10**4)
    pairs = corr.pairs()
    lookups = []
    real = maps._place_in_norm
    monkeypatch.setattr(maps, "_place_in_norm", lambda pi: lookups.append(pi) or real(pi))
    # every canonical prime of norm <= 10**4: a miss, then a hit
    for p, pi in pairs:
        assert corr.preimage_of_prime(pi) == p
        assert corr.preimage_of_prime(QuadInt(pi.a, pi.b)) == p
    assert lookups == [pi for _, pi in pairs]
    assert corr._preimages == {pi: p for p, pi in pairs}
    # a memoized prime's associates and conjugate are still refused
    for p, pi in pairs:
        wrong = [-pi] if pi.b == 0 else [-pi, pi.conj()]
        for x in wrong:
            with pytest.raises(DomainError):
                corr.preimage_of_prime(x)
    assert len(corr._preimages) == len(pairs)


def test_preimage_memo_holds_only_primes_up_to_the_trial_cap():
    corr = PrimeCorrespondence()
    small, big = corr.image_of_prime(999_983), corr.image_of_prime(1_000_003)
    assert 999_983 <= TRIAL_CAP < 1_000_003
    for _ in range(2):
        assert corr.preimage_of_prime(small) == 999_983
        assert corr.preimage_of_prime(big) == 1_000_003
    assert corr._preimages == {small: 999_983}


def test_sigma_round_trips_random():
    corr = default_correspondence()
    rng = np.random.default_rng(17)
    for _ in range(120):
        q = Fraction(int(rng.integers(-400, 401)), int(rng.integers(1, 400)))
        img = sigma_apply(corr, q)
        assert sigma_invert(corr, img) == q
        # multiplicativity against a second sample
        r = Fraction(int(rng.integers(1, 200)), int(rng.integers(1, 200)))
        assert sigma_apply(corr, q * r) == img * sigma_apply(corr, r)


def test_sigma_invert_of_a_quadint_is_an_integer():
    # every exponent of a QuadInt is positive, so sigma^-1 multiplies out
    # with no denominator; the oracle multiplies the preimages as Fractions
    corr = default_correspondence()
    rng = np.random.default_rng(29)
    for _ in range(200):
        x = QuadInt(int(rng.integers(-3000, 3001)), int(rng.integers(-1000, 1001)))
        if x.is_zero():
            continue
        f = factor_quad(x)
        want = Fraction(f.unit)
        for pi, e in f.exponents.items():
            want *= Fraction(corr.preimage_of_prime(pi)) ** e
        got = sigma_invert(corr, x)
        assert type(got) is Fraction and got.denominator == 1
        assert type(got.numerator) is int
        assert got == want and sigma_apply(corr, got) == QuadRat(x)


def test_correspondence_thread_safety():
    corr = PrimeCorrespondence()
    results = []

    def work(p):
        results.append((p, corr.image_of_prime(p)))

    threads = [threading.Thread(target=work, args=(p,)) for p in (2, 3, 5, 7, 11, 13) * 4]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    lookup = dict(FROZEN_PAIRS)
    for p, pi in results:
        assert (pi.a, pi.b) == lookup[p]


class _Recording(PrimeCorrespondence):
    """Records each published snapshot, with the capacity it holds."""

    def __setattr__(self, name, value):
        if name == "_data":
            vars(self).setdefault("published", []).append((value.capacity, value))
        super().__setattr__(name, value)

    @property
    def capacities(self) -> list[int]:
        return [c for c, _ in self.published[1:]]  # after the 0 set on construction


def test_growth_publishes_capacity_with_the_arrays():
    # Readers skip the lock once the capacity covers what they need, so the
    # snapshot holding a new capacity must hold the bitmaps for it: filled
    # past it, with its pairs counted.
    corr = _Recording()
    for limit in (10_000, 50_000, 10**6):
        corr.extend_to_norm(limit)
        capacity, data = corr.published[-1]
        assert capacity == corr._data.capacity >= limit
        assert data is corr._data
        assert data.sieved >= capacity and data.extras[-1] <= capacity
        fresh = PrimeCorrespondence()
        fresh.extend_to_norm(capacity)
        assert data.pair_count == fresh.pair_count


def test_growth_steps():
    # an image doubles the capacity, from 10,000, until its prime is paired
    corr = _Recording()
    corr.image_of_prime(1_000_003)
    assert corr.capacities == [10_000 * 2**k for k in range(8)]  # up to 1,280,000
    assert corr.pair_count == 98_532
    # a preimage asks for its prime's norm at once
    pi = primes_above(1_000_033).primes[0]
    assert pi.norm() == 1_000_033
    corr = _Recording()
    corr.preimage_of_prime(pi)
    assert corr.capacities == [1_000_033]
    assert corr.pair_count == 78_443


def test_default_correspondence_is_one_object_across_threads():
    start = threading.Barrier(8, timeout=60)
    got = []

    def work():
        start.wait()
        got.append(default_correspondence())

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(got) == 8
    assert all(c is default_correspondence() for c in got)
    assert default_correspondence().max_norm == DEFAULT_CORRESPONDENCE_CEILING


def test_concurrent_growth_matches_serial_build():
    ceiling = 2 * 10**6
    serial = PrimeCorrespondence(max_norm=ceiling)
    serial.extend_to_norm(ceiling)
    pairs = serial.pairs()
    rng = np.random.default_rng(4)
    # the last pair forces growth to the ceiling, whichever thread gets it
    picks = [pairs[int(i)] for i in rng.integers(0, len(pairs), 200)] + [pairs[-1]]
    shared = PrimeCorrespondence(max_norm=ceiling)
    start = threading.Barrier(4, timeout=60)
    found, errors = [], []

    def work(k):
        start.wait()
        try:
            for p, pi in picks[k::4]:
                # half the threads grow through preimages first, half through images
                if k % 2:
                    p_back = shared.preimage_of_prime(pi)
                    pi_back = shared.image_of_prime(p)
                else:
                    pi_back = shared.image_of_prime(p)
                    p_back = shared.preimage_of_prime(pi)
                found.append((p, pi, p_back, pi_back))
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so growth steps interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(found) == len(picks)
    for p, pi, p_back, pi_back in found:
        assert (p_back, pi_back) == (p, pi)
    assert shared._preimages == {pi: p for p, pi in picks if p <= TRIAL_CAP}
    assert shared.pair_count == serial.pair_count
    assert shared.pairs() == pairs


def test_uneven_growth_matches_one_step():
    q = 173  # inert (173 = 2 mod 19), with q**2 past the first doubling
    stepped = PrimeCorrespondence()
    for limit in (500, 361, q * q - 1, q * q, 19, 2 * 10**5, 10**6):
        stepped.extend_to_norm(limit)
    whole = PrimeCorrespondence()
    whole.extend_to_norm(10**6)
    assert stepped.pair_count == whole.pair_count
    got = stepped.pairs()
    assert got == whole.pairs()
    assert [pi for _, pi in got].count(QuadInt(q, 0)) == 1


@pytest.mark.parametrize("ceiling", [10, 10**4, 2 * 10**6, DEFAULT_CORRESPONDENCE_CEILING])
def test_buffers_hold_growth_to_the_ceiling(ceiling):
    # the bounds of _buffer_sizes hold on every step, through the top-ups
    # of the rational side (at ceiling 10 there are 6 pairs but 4 primes).
    # One bitmap, of the odd primes, and two int32 counts per 512-slot
    # block: of its primes, and of its split primes; no split bitmap.
    nbytes, ncounts, top = maps._buffer_sizes(ceiling)
    corr = PrimeCorrespondence(max_norm=ceiling)
    bufs = (corr._prime_buf, corr._prime_count_buf, corr._split_count_buf)
    assert [len(b) for b in bufs] == [nbytes, ncounts, ncounts]
    assert not hasattr(corr, "_split_buf")
    assert maps._Held._fields[:3] == ("primes", "prime_counts", "split_counts")
    while corr._data.capacity < ceiling:
        corr.extend_to_norm(corr._data.capacity + 1)
        held = corr._data
        assert held.prime_count >= held.pair_count
        assert len(held.primes) == (held.sieved + 15) // 16 <= nbytes
        assert len(held.prime_counts) == len(held.split_counts) == (held.sieved + 1) // 1024 + 1 <= ncounts
        assert held.capacity <= held.sieved < top <= 2**31 - 1
    # each count is the running total over the whole blocks of the odd
    # primes, and of those that split by Euler's criterion mod 19
    slots = np.flatnonzero(np.unpackbits(np.asarray(held.primes), bitorder="little"))
    split = slots[((2 * slots + 1) % 19) ** 9 % 19 == 1]
    blocks = len(held.prime_counts) - 1
    for counts, marked in ((held.prime_counts, slots), (held.split_counts, split)):
        per_block = np.bincount(marked // 512, minlength=blocks + 1)[:blocks]
        assert np.array_equal(np.asarray(counts), np.concatenate(([0], per_block.cumsum())))
    # the published views read the buffers themselves, not copies
    assert corr._prime_buf.dtype == np.uint8
    assert corr._prime_count_buf.dtype == corr._split_count_buf.dtype == np.int32
    for view, buf in zip(held[:3], bufs):
        assert np.shares_memory(np.asarray(view), buf)
    if ceiling == DEFAULT_CORRESPONDENCE_CEILING:
        assert corr.pair_count == 3_000_526


def test_correspondence_takes_integers_only():
    # PrimeCorrespondence(max_norm=1.5e7) used to fail later, inside range();
    # extend_to_norm(2.5) returned silently; image_of_prime(7.0) answered.
    for bad in (1.5e7, 10_000.0, Fraction(10**4)):
        with pytest.raises(TypeError):
            PrimeCorrespondence(max_norm=bad)
    for low in (1, 0, -5):
        with pytest.raises(DomainError):
            PrimeCorrespondence(max_norm=low)
    corr = PrimeCorrespondence(max_norm=np.int64(10**4))
    assert corr.max_norm == 10**4 and type(corr.max_norm) is int
    for bad in (2.5, 10_000.0):
        with pytest.raises(TypeError):
            corr.extend_to_norm(bad)
    assert corr._data.capacity == 0
    with pytest.raises(TypeError):
        corr.image_of_prime(7.0)
    assert corr.image_of_prime(np.int64(7)) == QuadInt(-2, 1)
    assert list(corr._images) == [7] and type(next(iter(corr._images))) is int
    corr.extend_to_norm(np.int32(10**4))
    assert corr._data.capacity == 10**4
    for q in (0.5, 0.0):
        with pytest.raises(TypeError):
            sigma_apply(corr, q)
    with pytest.raises(TypeError):
        endo_q_apply(EndoBijectionSpecQ(), 0.5)
    assert sigma_apply(corr, np.int64(6)) == sigma_apply(corr, 6)


def _outcome(call, arg):
    try:
        return call(arg)
    except Exception as exc:  # compared by type, below
        return type(exc)


def test_same_call_same_outcome_fresh_and_warm():
    # Each lookup validates its argument before its memo, so a call gets the
    # same answer or the same refusal whatever was asked before it. These
    # calls used to raise on a fresh correspondence and answer from the
    # memo once the valid call had warmed it.
    cases = [
        ("image_of_prime", 7.0, 7, TypeError),
        ("image_of_prime", np.int64(7), 7, QuadInt(-2, 1)),
        ("preimage_of_prime", 2, QuadInt(2, 0), TypeError),
        ("preimage_of_prime", QuadRat(QuadInt(2, 0)), QuadInt(2, 0), TypeError),
    ]
    for name, arg, valid, expected in cases:
        corr = PrimeCorrespondence(max_norm=10**4)
        assert _outcome(getattr(corr, name), arg) == expected, (name, arg)
        getattr(corr, name)(valid)
        assert _outcome(getattr(corr, name), arg) == expected, (name, arg)


def test_z_w_entry_points_refuse_other_types():
    # these raised AttributeError from inside, on .is_zero, ._b or ._num
    corr = PrimeCorrespondence(max_norm=10**4)
    calls = [
        (factor_quad, 5, "QuadInt or QuadRat"),
        (quadratic.is_canonical_prime, 5, "QuadInt"),
        (lambda x: sigma_invert(corr, x), 5, "QuadRat or QuadInt"),
        (lambda x: sigma_invert(corr, x), Fraction(1, 2), "QuadRat or QuadInt"),
    ]
    for call, arg, expected in calls:
        with pytest.raises(TypeError, match=f"expected a {expected}, got {type(arg).__name__}"):
            call(arg)
    assert sigma_invert(corr, QuadInt(8, 2)) == -18 and factor_quad(QuadInt(5, 0)).unit == -1


def test_cold_growth_sieves_each_segment_once(monkeypatch):
    # one prime_mask call per 2**22-number segment up to the ceiling, and
    # one for the inert primes of _extra_norms (a sieve to its square root)
    calls = []
    sieve = rationals.prime_mask

    def counted(n, lo):
        calls.append((lo, n))
        return sieve(n, lo)

    monkeypatch.setattr(rationals, "prime_mask", counted)
    corr = PrimeCorrespondence()
    corr.extend_to_norm(DEFAULT_CORRESPONDENCE_CEILING)
    segments = -(-(DEFAULT_CORRESPONDENCE_CEILING - 1) // rationals._SEGMENT)
    assert segments == 12 and len(calls) == segments + 1 == 13
    assert (2, math.isqrt(DEFAULT_CORRESPONDENCE_CEILING)) in calls
    corr.extend_to_norm(DEFAULT_CORRESPONDENCE_CEILING)  # held: nothing sieved again
    assert len(calls) == 13


def test_cold_growth_builds_no_trial_prime_table():
    # the inert q of the extra norms come from a sieve to sqrt(limit), not
    # from the 78,498-prime factoring table, which limited them to 10**12;
    # nor does growth build the factor table struck from it
    rationals._trial_primes.cache_clear()
    rationals._factor_table.cache_clear()
    PrimeCorrespondence().extend_to_norm(10**6)
    assert rationals._trial_primes.cache_info().currsize == 0
    assert rationals._factor_table.cache_info().currsize == 0
    q = 1_000_003  # inert (14 mod 19), and past TRIAL_CAP
    assert quadratic._is_inert(q) and q > TRIAL_CAP
    assert quadratic._extra_norms(q * q)[-1] == q * q


def test_ceilings_whose_primes_pass_int32_are_refused():
    PrimeCorrespondence(max_norm=10**8)  # twice the default is still stored
    with pytest.raises(ResourceLimitError) as exc:
        PrimeCorrespondence(max_norm=10**9)
    assert exc.value.ceiling == 2**31 - 1
    assert "2147483647" in str(exc.value)


def test_int32_threshold_of_the_stored_ceiling():
    # the largest ceiling whose proven bound on stored values fits int32
    t = 861_189_598
    assert maps._buffer_sizes(t)[2] <= 2**31 - 1 < maps._buffer_sizes(t + 1)[2]
    with pytest.raises(ResourceLimitError):
        PrimeCorrespondence(max_norm=t + 1)


def test_nth_prime_bound_holds():
    # every n up to 50,000, across Dusart's switch at 39,017
    primes = primes_upto(620_000)
    assert len(primes) > 50_000
    for n in range(1, 50_001):
        assert maps._nth_prime_bound(n) >= primes[n - 1], n
    # every 997th n up to the rational primes of the default ceiling
    masks = rationals._prime_masks(0, DEFAULT_CORRESPONDENCE_CEILING)
    rat = np.concatenate([[2]] + [2 * np.flatnonzero(mask) + first for first, mask in masks])
    assert len(rat) == 3_001_134
    for n in range(1, len(rat) + 1, 997):
        assert maps._nth_prime_bound(n) >= rat[n - 1], n


def test_growth_refuses_a_short_rational_side(monkeypatch):
    # at ceiling 10 the 6 norms outnumber the 4 primes up to 10, so growth
    # tops up to the bound on the 6th prime; a bound below it is refused
    corr = PrimeCorrespondence(max_norm=10)
    monkeypatch.setattr(maps, "_nth_prime_bound", lambda n: 12)
    with pytest.raises(IntegrityError):
        corr.extend_to_norm(10)
    assert corr._data.capacity == corr.pair_count == 0
    monkeypatch.undo()
    corr.extend_to_norm(10)
    assert (corr.pair_count, corr._data.sieved) == (6, maps._nth_prime_bound(6))
    assert corr._data.prime_count == 6
    assert corr._pair_arrays()[0].tolist() == [2, 3, 5, 7, 11, 13]


def test_growth_refuses_to_write_past_a_buffer():
    # 10**4 needs 5,000 slots: more than 100 bytes of bits (800 slots) or 3
    # counts of either kind (1,536 slots) hold; the refusal comes before
    # any write
    bufs = ("_prime_buf", "_prime_count_buf", "_split_count_buf")
    for buf, size in zip(bufs, (100, 3, 3)):
        corr = PrimeCorrespondence(max_norm=10**4)
        setattr(corr, buf, getattr(corr, buf)[:size])
        with pytest.raises(IntegrityError):
            corr.extend_to_norm(10**4)
        assert corr._data.capacity == corr.pair_count == 0
        assert not any(getattr(corr, name).any() for name in bufs), buf


def test_split_masks_follow_eulers_criterion():
    # Mask j covers a block that starts at byte j mod 19, whose slot k is
    # an odd number n = 16j + 2k + 1 mod 19: its bit is set exactly when n
    # is a nonzero square mod 19, so 19 itself, which ramifies, is never set.
    masks = maps._SPLIT_MASKS
    assert len(masks) == 19
    for j, mask in enumerate(masks):
        assert mask >> 512 == 0
        for k in range(512):
            assert mask >> k & 1 == (pow(16 * j + 2 * k + 1, 9, 19) == 1), (j, k)
    # block b starts at byte 64b and takes mask (64b) % 19: under it are
    # the block's split primes, as many as its split count says
    corr = PrimeCorrespondence()
    corr.extend_to_norm(10**5)
    held = corr._data
    for b in range(len(held.split_counts) - 1):
        block = int.from_bytes(held.primes[64 * b : 64 * b + 64], "little")
        numbers = [1024 * b + 2 * k + 1 for k in range(512) if block >> k & 1]
        split = [n for n in numbers if pow(n, 9, 19) == 1]
        assert numbers == [n for n in range(1024 * b + 1, 1024 * b + 1024, 2) if is_prime(n)], b
        assert (block & masks[64 * b % 19]).bit_count() == len(split), b
        assert held.split_counts[b + 1] - held.split_counts[b] == len(split), b


def test_a_full_segment_after_a_held_block_at_phase_18_matches_one_step():
    # The first step sieves to L, which ends in slot 505 of block 103, at
    # byte phase 64 * 103 % 19 == 18; the second sieves one whole segment
    # of 2**21 odd numbers from there, so the split counts of its 4,096
    # completed blocks read the residue pattern from phase 18 on, past the
    # held partial block.
    L = 2 * (512 * 103 + 505)
    stepped = PrimeCorrespondence()
    stepped.extend_to_norm(L)
    assert stepped._data.sieved == L and 64 * 103 % 19 == 18
    stepped.extend_to_norm(L + rationals._SEGMENT)
    whole = PrimeCorrespondence()
    whole.extend_to_norm(L + rationals._SEGMENT)
    a, b = stepped._data, whole._data
    assert (a.sieved, a.capacity) == (b.sieved, b.capacity)
    for name in ("prime_counts", "split_counts"):
        assert np.array_equal(np.asarray(getattr(a, name)), np.asarray(getattr(b, name))), name
    assert stepped.pair_count == whole.pair_count
    assert stepped.pairs() == whole.pairs()


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lookups_allocate_almost_nothing():
    # A lookup that cast the int32 arrays (np.searchsorted with a Python int
    # key does) would copy 149,003 primes, about 1.2 MB, on every call.
    corr = PrimeCorrespondence()
    corr.extend_to_norm(2 * 10**6)
    rat = corr._pair_arrays()[0].tolist()
    p, q = rat[corr.pair_count - 1], rat[corr.pair_count - 7]
    assert p > q > TRIAL_CAP  # past the memo, so the rank lookup runs
    pi = corr.image_of_prime(q)
    assert _traced_peak(corr.image_of_prime, p) < 4096  # measured 400 bytes
    assert _traced_peak(corr.preimage_of_prime, pi) < 4096  # measured 124 bytes


def test_growth_step_peak_stays_near_its_new_segment():
    # Measured 1.5 MiB for 10**6 -> 2*10**6: the sieve of the new segment
    # and its primes. Copying the held arrays took 3.4 MiB.
    corr = PrimeCorrespondence()
    corr.extend_to_norm(10**6)
    assert _traced_peak(corr.extend_to_norm, 2 * 10**6) < 2.5 * 2**20
    assert corr._data.capacity == 2 * 10**6


def test_big_growth_step_peak_stays_near_one_segment():
    # Measured 6.1 MiB for 2.5*10**6 -> 5*10**7, written one 2**22-number
    # segment of norms at a time; building the step's norms whole took 24.2.
    corr = PrimeCorrespondence()
    corr.extend_to_norm(2_500_000)
    assert _traced_peak(corr.extend_to_norm, 5 * 10**7) < 8 * 2**20
    assert corr.pair_count == 3_000_526


def test_endo_bijection_examples():
    ident = EndoBijectionSpecQ()
    assert endo_q_apply(ident, Fraction(7, 3)) == Fraction(7, 3)
    swap = EndoBijectionSpecQ(perm={2: 3, 3: 2})
    assert endo_q_apply(swap, Fraction(4, 3)) == Fraction(9, 2)
    assert endo_q_apply(swap, -1) == -1
    assert endo_q_apply(swap, 0) == 0
    twist = EndoBijectionSpecQ(eta={2: -1}, nu={3: -1})
    assert endo_q_apply(twist, 12) == Fraction(4, 3)
    assert endo_q_apply(twist, 2) == -2
    assert endo_q_apply(twist, 4) == 4


def test_endo_bijection_validation():
    with pytest.raises(DomainError):
        EndoBijectionSpecQ(perm={4: 2, 2: 4})
    with pytest.raises(DomainError):
        EndoBijectionSpecQ(perm={2: 3})
    with pytest.raises(DomainError):
        EndoBijectionSpecQ(eta={2: 2})


def test_endo_bijection_is_multiplicative():
    spec = EndoBijectionSpecQ(perm={2: 5, 5: 2}, eta={3: -1}, nu={7: -1})

    def sample(rng):
        return Fraction(int(rng.integers(-300, 300)) or 1, int(rng.integers(1, 300)))

    f = lambda q: endo_q_apply(spec, q)  # noqa: E731
    assert f(1) == 1
    rng = np.random.default_rng(5)
    for _ in range(300):
        a, b = sample(rng), sample(rng)
        assert f(a * b) == f(a) * f(b), (a, b)


def test_endo_bijection_matches_fraction_arithmetic():
    # p**e goes to eta_p**e * perm(p)**(nu_p * e), multiplied out here as
    # Fractions; nu turns numerator primes into denominator ones and back,
    # so integers and fractions land on both sides
    spec = EndoBijectionSpecQ(
        perm={2: 5, 5: 2, 3: 7, 7: 3}, eta={3: -1, 11: -1}, nu={2: -1, 7: -1, 13: -1}
    )
    rng = np.random.default_rng(31)
    for _ in range(300):
        num = int(rng.integers(-5000, 5001)) or 1
        q = Fraction(num, int(rng.integers(1, 5001)) if rng.integers(2) else 1)
        want = Fraction(1 if q > 0 else -1)
        for side, n in ((1, q.numerator), (-1, q.denominator)):
            for p, e in factor_int(n).exponents.items():
                e *= side
                want *= Fraction(spec.eta.get(p, 1)) ** e
                want *= Fraction(spec.perm.get(p, p)) ** (spec.nu.get(p, 1) * e)
        got = endo_q_apply(spec, q)
        assert type(got) is Fraction and type(got.numerator) is int
        assert got == want, q
