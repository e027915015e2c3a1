"""Multiplicative maps between scalar groups.

The centerpiece is the prime correspondence: the k-th rational prime paired
with the k-th canonical prime of Z[w] in (norm, a, b) order, held as one
bitmap of the odd primes with two int32 counts per 512-slot block, of its
primes and of its split primes (see PrimeCorrespondence). The split primes
are not stored: a block's are its primes ANDed with one of quadratic's
split masks, chosen by the block's phase. quadratic supplies those masks,
lists the other norms (19 and the inert squares), and recovers each prime
from its norm and its place within that norm; how Z[w] splits a rational
prime is known there only. Growth, its doubling rule, its top-up of the
rational side and the refusal at the norm ceiling all live in
PrimeCorrespondence.extend_to_norm. Extending the pairing multiplicatively
and fixing 0 and the signs gives sigma, a bijection from Q onto the
subfield of Q(sqrt(-19)) generated by the canonical primes, and sigma is
what induces the exotic addition on Q elsewhere in the package. The
images of the rational primes up to rationals.TRIAL_CAP, and the
preimages of their canonical primes, are memoized per correspondence as
they are found (refusals are not, so a ceiling is asked again each time).
The default correspondence's odd-prime bitmap also answers
rationals.is_prime between TRIAL_CAP and where it has sieved: maps hands
it over once, right after building the default, through
rationals._shared_sieve, which reads one snapshot per call.
sigma and sigma^-1 are mirror images: factor, map each prime, multiply back
out, sigma through the product loop of Z[w] (quadratic._product, on plain
integers) and sigma^-1 through the one of Q (rationals._value). The exotic
sum in induced does not go through sigma_apply: it images each operand
prime once, inline, and multiplies with the ring product itself.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IntegrityError, ResourceLimitError
# Unused here: it lives in nvs, but the benchmark's tracer names it under maps.
from .nvs import check_qmc_equivalence  # noqa: F401
from .quadratic import (
    QuadInt,
    QuadRat,
    _extra_norms,
    _in_canonical_form,
    _place_in_norm,
    _primes_of_norm,
    _product,
    _split_bits,
    _split_block_masks,
    _splits,
    factor_quad,
    is_canonical_prime,
)
from . import rationals
from .rationals import (
    TRIAL_CAP,
    Rat,
    _as_rat,
    _lazy,
    _odd_bit,
    _prime_masks,
    _value,
    factor_rat,
    is_prime,
)

__all__ = [
    "PrimeCorrespondence",
    "default_correspondence",
    "sigma_apply",
    "sigma_invert",
    "EndoBijectionSpecQ",
    "endo_q_apply",
    "DEFAULT_CORRESPONDENCE_CEILING",
]

DEFAULT_CORRESPONDENCE_CEILING = 50_000_000

_INT32_MAX = 2**31 - 1

_BLOCK = 512  # bitmap slots per counted block
_BLOCK_BYTES = _BLOCK // 8
# The descent through a block to one byte: at each width, the mask of the
# low half; then the place of each set bit of that byte, by rank.
_HALVES = tuple((w, (1 << w) - 1) for w in (256, 128, 64, 32, 16, 8))
_BYTE_SELECT = tuple(tuple(k for k in range(8) if i >> k & 1) for i in range(256))
_BYTE_BITS = np.array([len(places) for places in _BYTE_SELECT], dtype=np.uint8)  # set bits per byte
_SPLIT_MASKS = _split_block_masks(_BLOCK_BYTES)  # a block's split primes: its primes & its mask


def _nth_prime_bound(n: float) -> int:
    """At least p_n, the n-th prime: p_n < n (ln n + ln ln n) for n >= 6
    (Rosser and Schoenfeld, Illinois J. Math. 6, 1962, (3.13)), less
    0.9484 n for n >= 39,017 (Dusart, Math. Comp. 68, 1999); p_5 = 11."""
    if n < 6:
        return 11
    t = math.log(n) + math.log(math.log(n)) - (0.9484 if n >= 39_017 else 0)
    return int(n * t)


def _buffer_sizes(max_norm: int) -> tuple[int, int, int]:
    """Sizes for a correspondence with this ceiling: the bytes of the
    bitmap, the int32 counts of each kind kept with it, and a bound on
    every number it sieves.

    With x = max_norm, P(y) = 1.25506 y / ln y > pi(y) for y > 1 (Rosser
    and Schoenfeld, (3.6)) and p^ = _nth_prime_bound:
    - The canonical primes of norm <= x are two per split p <= x, one over
      19 and one per inert q <= sqrt(x): fewer than
      N = 2 P(x) + P(sqrt(x)) + 1 of them.
    - Growth sieves to a limit <= x, or to p^(n) for the n < N pairs held.
      As p^ rises on either side of 39,017, every number sieved stays
      below top = max(x, p^(N), p^(min(N, 39,016))) + 1, and the bitmap
      holds one bit per odd number below top, in whole blocks, with one
      count of each kind before each block and one after the last.
    """

    def bound(y: float) -> float:  # P(y)
        return 1.25506 * y / math.log(y)

    x = max(max_norm, 2)
    n = max(2 * bound(x) + bound(math.sqrt(x)) + 1, 6)
    top = max(x, _nth_prime_bound(n), _nth_prime_bound(min(n, 39_016))) + 1
    blocks = -(-((top + 1) // 2) // _BLOCK)
    return blocks * _BLOCK // 8, blocks + 1, top


def _rank(bits: memoryview, counts: memoryview, k: int, masks: tuple[int, ...] = ()) -> int:
    """How many of the slots 0 .. k - 1 are set (under the mask of k's
    block, if masks): the count before the block, and its set bits below k."""
    b, r = divmod(k, _BLOCK)
    if not r:
        return counts[b]
    start = b * _BLOCK_BYTES
    x = int.from_bytes(bits[start : start + (r + 7) // 8], "little")
    if masks:
        x &= masks[start % len(masks)]
    return counts[b] + (x & ((1 << r) - 1)).bit_count()


def _select(bits: memoryview, counts: memoryview, s: int, masks: tuple[int, ...] = ()) -> int:
    """The slot of the set bit of rank s (from 0), as _rank counts them:
    its block by bisecting the counts, then its byte by halving the
    block's bits, then its place in the byte from a table."""
    b = bisect_right(counts, s) - 1
    s -= counts[b]
    start = b * _BLOCK_BYTES
    x = int.from_bytes(bits[start : start + _BLOCK_BYTES], "little")
    if masks:
        x &= masks[start % len(masks)]
    slot = b * _BLOCK
    for width, low in _HALVES:
        c = (x & low).bit_count()
        if s < c:
            x &= low
        else:
            s -= c
            x >>= width
            slot += width
    return slot + _BYTE_SELECT[x & 0xFF][s]


class _Held(NamedTuple):
    """What a correspondence holds, published as one tuple: the bitmap of
    the odd primes up to sieved, slot k for 2k + 1 (bit k % 8 of byte
    k // 8), and the counts of its primes and split primes before each
    block. Growth writes only past these prefixes."""

    primes: memoryview  # bytes of the odd-prime bitmap
    prime_counts: memoryview  # int32 counts
    split_counts: memoryview  # int32 counts of the odd primes that split
    extras: tuple[int, ...]  # quadratic._extra_norms(capacity)
    extra_ranks: tuple[int, ...]  # the rank of each extra's canonical prime
    sieved: int  # every number up to sieved is in the bitmap
    capacity: int  # every canonical prime of norm up to capacity is paired
    pair_count: int

    @property
    def prime_count(self) -> int:
        """The rational primes held: 2 and the odd primes up to sieved."""
        return (self.sieved >= 2) + _rank(self.primes, self.prime_counts, (self.sieved + 1) // 2)


def _canonical_at(held: _Held, r: int) -> QuadInt:
    """The canonical prime of rank r: the prime of the extra norm of that
    rank, if there is one; else, with the j extras ranked below r skipped,
    rank r - j among the split primes' canonical primes, two per split
    prime in turn."""
    j = bisect_right(held.extra_ranks, r)
    if j and held.extra_ranks[j - 1] == r:
        extras = held.extras
        n = extras[j - 1]
        return _primes_of_norm(n)[int(j > 1 and extras[j - 2] == n)]
    s = r - j
    n = 2 * _select(held.primes, held.split_counts, s >> 1, _SPLIT_MASKS) + 1
    return _primes_of_norm(n)[s & 1]


class PrimeCorrespondence:
    """The rank pairing between rational primes and canonical primes.

    The canonical primes of norm up to the capacity, in (norm, a, b) order,
    are two for each odd split prime p (of norm p), merged with a short
    sorted list of the others (19, the inert squares; quadratic's
    _extra_norms). So one bitmap over the odd numbers, the primes, holds
    both sides: a prime splits by its residue alone, so a block's split
    primes are its primes under one of quadratic's split masks. Two int32
    counts per 512-slot block, of its primes and of its split primes, make
    the rank of a number a count and one block's popcount, and the number
    of a rank a bisection of the counts and a descent in one block.
    image_of_prime takes p's rank among the primes and selects that rank
    among the canonical primes; preimage_of_prime counts the canonical
    primes before its own and selects that rank among the primes.

    The bitmap and counts are allocated once, at a proven bound on what is
    sieved (see _buffer_sizes; pages never written cost no memory). Growth
    is append-only: raising the norm ceiling sieves only the new segment
    of integers and packs it after the held bits, and never reorders the
    existing pairs, because canonical primes are ordered by norm first.
    Growth holds a lock and publishes one _Held snapshot: the memoryviews
    of the filled prefixes, which growth never changes, and the capacity
    they cover. A lookup reads it once and validates its argument before
    its memo, so it answers from its argument and that snapshot alone, the
    same on a fresh correspondence and a warm one; safe under threads.
    """

    def __init__(self, *, max_norm: int = DEFAULT_CORRESPONDENCE_CEILING):
        max_norm = index(max_norm)
        if max_norm < 2:
            raise DomainError(f"correspondence ceiling must be at least 2, got {max_norm}")
        nbytes, ncounts, top = _buffer_sizes(max_norm)
        if top > _INT32_MAX:
            raise ResourceLimitError(
                f"correspondence ceiling {max_norm} could store primes past the"
                f" int32 ceiling {_INT32_MAX}",
                ceiling=_INT32_MAX,
            )
        self.max_norm = max_norm
        self._lock = threading.Lock()
        self._prime_buf = _lazy(nbytes, np.uint8)
        self._prime_count_buf = _lazy(ncounts, np.int32)
        self._split_count_buf = _lazy(ncounts, np.int32)
        self._data = self._publish(1, 0, ())
        self._images: dict[int, QuadInt] = {}  # p -> image, for primes p <= TRIAL_CAP
        self._preimages: dict[QuadInt, int] = {}  # the reverse, for the same p

    @property
    def pair_count(self) -> int:
        return self._data.pair_count

    def _publish(self, sieved: int, capacity: int, extras: list[int] | tuple[int, ...]) -> _Held:
        """The held state once the bitmap is filled to sieved, for the
        canonical primes of norm up to capacity, whose extra norms are
        extras: the filled prefixes, each extra's rank, and the pair count."""
        slots = (sieved + 1) // 2
        primes = memoryview(self._prime_buf[: (slots + 7) // 8])
        prime_counts = memoryview(self._prime_count_buf[: slots // _BLOCK + 1])
        split_counts = memoryview(self._split_count_buf[: slots // _BLOCK + 1])
        # an extra n comes after the two primes of each odd split prime below n
        ranks = tuple(
            2 * _rank(primes, split_counts, n // 2, _SPLIT_MASKS) + i for i, n in enumerate(extras)
        )
        pairs = 2 * _rank(primes, split_counts, (capacity + 1) // 2, _SPLIT_MASKS) + len(extras)
        return _Held(primes, prime_counts, split_counts, tuple(extras), ranks, sieved, capacity, pairs)

    def _sieve(self, lo: int, hi: int) -> None:
        """Pack the primes in (lo, hi] into the bitmap after the held bits, a
        sieve segment at a time, and count its primes and split primes in each
        block a segment completes. Held bits in a segment's first byte stay
        set, so a reader of the published prefix never sees a bit drop.
        Refuses rather than write past a buffer."""
        bits = self._prime_buf
        counts = (self._prime_count_buf, self._split_count_buf)
        for first, mask in _prime_masks(lo, hi):
            start = first // 2  # the slot of first
            end, byte = start + len(mask), start // 8
            if start % 8:  # pad to the byte that holds start
                mask = np.concatenate((np.zeros(start % 8, dtype=bool), mask))
            new = np.packbits(mask, bitorder="little")
            if byte + len(new) > len(bits) or end // _BLOCK >= min(map(len, counts)):
                raise IntegrityError("bitmap past its proven buffer bound")
            if len(new):
                new[0] |= bits[byte]
            bits[byte : byte + len(new)] = new
            b0, b1 = start // _BLOCK, end // _BLOCK  # the blocks b0 .. b1 - 1 are now whole
            if b1 > b0:
                whole = bits[b0 * _BLOCK_BYTES : b1 * _BLOCK_BYTES]
                for c, marked in zip(counts, (whole, _split_bits(whole, b0 * _BLOCK_BYTES))):
                    per = _BYTE_BITS[marked].reshape(-1, _BLOCK_BYTES).sum(axis=1, dtype=np.int64)
                    c[b0 + 1 : b1 + 1] = per.cumsum() + int(c[b0])

    def _pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The rational primes and the canonical norms of the held pairs, in
        rank order, read off the whole bitmap at once, and off its split
        primes."""
        held = self._data
        n = held.pair_count
        primes = np.asarray(held.primes)

        def odd(bits: np.ndarray, count: int) -> np.ndarray:  # the first count set slots, as numbers
            return 2 * np.flatnonzero(np.unpackbits(bits, bitorder="little"))[:count] + 1

        rat = np.concatenate(([2], odd(primes, max(n - 1, 0))))[:n]
        split = np.repeat(odd(_split_bits(primes, 0), (n - len(held.extras)) // 2), 2)
        return rat, np.insert(split, np.searchsorted(split, held.extras), held.extras)

    def pairs(self) -> list[tuple[int, QuadInt]]:
        rat, norms = self._pair_arrays()
        out, prev = [], 0
        for p, n in zip(rat.tolist(), norms.tolist()):
            of_norm = of_norm if n == prev else _primes_of_norm(n)  # one call per norm
            out.append((p, of_norm[n == prev]))  # the second of its norm, if a repeat
            prev = n
        return out

    def extend_to_norm(self, limit: int) -> None:
        """Store every canonical prime of norm <= limit, growing to at least
        twice the capacity (and 10,000) at a time, never past the ceiling;
        refuse a limit past the ceiling. The only place that grows."""
        limit = index(limit)
        if limit > self.max_norm:
            raise ResourceLimitError(
                f"correspondence needs norms past its ceiling {self.max_norm}",
                ceiling=self.max_norm,
            )
        with self._lock:
            held = self._data
            if limit <= held.capacity:
                return
            limit = min(max(limit, 2 * held.capacity, 10_000), self.max_norm)
            sieved = held.sieved
            if limit > sieved:
                self._sieve(sieved, limit)
                sieved = limit
            held = self._publish(sieved, limit, _extra_norms(limit))
            n = held.pair_count
            if held.prime_count < n:  # the n-th prime is at most _nth_prime_bound(n)
                top = _nth_prime_bound(n)
                self._sieve(sieved, top)
                held = self._publish(top, limit, held.extras)
                if held.prime_count < n:
                    raise IntegrityError("rational primes short of the pairs")
            self._data = held

    def image_of_prime(self, p: int) -> QuadInt:
        """The canonical prime paired with the rational prime p.

        Grows the correspondence one extend_to_norm step at a time until p
        is paired; that step refuses at the ceiling. Images of the primes up
        to TRIAL_CAP, which are the ones factoring everyday rationals yields
        again and again, are kept once found: at most 78,498 entries, and
        valid for good since growth only appends.
        A refusal is not kept, so a repeat call asks the rank lookup again
        and refuses again, or answers once the correspondence has grown.
        Threads that miss on the same p together store equal images.
        """
        p = index(p)
        pi = self._images.get(p)
        if pi is not None:
            return pi
        held = self._data
        if p > held.sieved:  # past the sieve, or none yet: a primality test decides
            if not is_prime(p):
                raise DomainError(f"{p} is not a rational prime")
        elif p != 2 and (p < 3 or not p & 1 or not _odd_bit(held.primes, p)):
            raise DomainError(f"{p} is not a rational prime")
        while True:  # p's rank among the primes, once sieved: 2 first, then the odd ones
            if p <= held.sieved:
                r = 0 if p == 2 else 1 + _rank(held.primes, held.prime_counts, p >> 1)
                if r < held.pair_count:
                    break
            self.extend_to_norm(held.capacity + 1)  # not paired yet: grow one step, or refuse
            held = self._data
        pi = _canonical_at(held, r)
        if p <= TRIAL_CAP:
            self._images[p] = pi
        return pi

    def preimage_of_prime(self, pi: QuadInt) -> int:
        """The rational prime paired with a canonical prime pi.

        Up to the capacity one formula ranks every canonical-form pi of norm
        n, as growth ranks the extras: r = 2 * (odd split primes below n) + k,
        k the extras below n plus pi's place in its norm. Unless n is an odd
        split prime, the extra at index k must be n (the inert q has norm
        q**2, and nothing else of that norm is canonical), or pi is not a
        canonical prime. Only a pi past the capacity is tested for
        primality, before growth, and not one in canonical form past the
        ceiling, which growth refuses untested: a refused sum's factoring
        has already proved that norm prime.
        A canonical prime found to pair with a p <= TRIAL_CAP is kept, like
        image_of_prime's answers: the memo holds canonical primes only, so
        any other pi misses it and is refused as before. A non-QuadInt is
        refused first: an int or a QuadRat can equal a key.
        """
        if not isinstance(pi, QuadInt):
            raise TypeError(f"expected a QuadInt, got {type(pi).__name__} {pi!r}")
        p = self._preimages.get(pi)
        if p is not None:
            return p
        held = self._data
        n = pi.norm()
        if n > held.capacity:
            # past the ceiling, growth refuses a canonical-form pi untested
            if (n <= self.max_norm or not _in_canonical_form(pi)) and not is_canonical_prime(pi):
                raise DomainError(f"{pi!r} is not a canonical prime")
            self.extend_to_norm(n)
            held = self._data
        elif not _in_canonical_form(pi):
            raise DomainError(f"{pi!r} is not a canonical prime")
        primes, prime_counts, split_counts, extras, _, _, _, _ = held
        k = bisect_left(extras, n) + _place_in_norm(pi)
        split = n & 1 and _splits(n) and _odd_bit(primes, n)
        if not split and (k >= len(extras) or extras[k] != n):
            raise DomainError(f"{pi!r} is not a canonical prime")
        r = 2 * _rank(primes, split_counts, n >> 1, _SPLIT_MASKS) + k
        p = 2 if r == 0 else 2 * _select(primes, prime_counts, r - 1) + 1
        if p <= TRIAL_CAP:
            self._preimages[pi] = p
        return p


_default = PrimeCorrespondence()


def _default_sieve() -> tuple[memoryview, int]:
    """The default correspondence's odd-prime bitmap and how far it is
    sieved, from one snapshot: rationals.is_prime answers from it above
    TRIAL_CAP. No other correspondence is shared, so no private one's
    buffers are kept alive."""
    held = _default._data
    return held.primes, held.sieved


rationals._shared_sieve = _default_sieve


def default_correspondence() -> PrimeCorrespondence:
    """The shared correspondence with the default ceiling, built at import;
    its buffers cost memory only once growth writes them."""
    return _default


def sigma_apply(corr: PrimeCorrespondence, q: Rat | int) -> QuadRat:
    """sigma(q): multiplicative extension of the prime pairing; fixes 0, 1, -1.

    Factor over Z, image each prime, multiply out in Z[w]; sigma_invert is
    the mirror image. The numerator a + b*w and the denominator are carried
    as plain integers and become one QuadRat at the end. A float, 0.0
    included, raises TypeError.
    """
    q = q if isinstance(q, Fraction) else _as_rat(q)
    if q == 0:
        return QuadRat(QuadInt(0, 0))
    f = factor_rat(q)
    a, b, den = _product(f.unit, f.exponents, corr.image_of_prime)
    return QuadRat(QuadInt(a, b), den)


def sigma_invert(corr: PrimeCorrespondence, x: QuadRat | QuadInt) -> Rat:
    """sigma^-1(x) for x in the image subfield: factor in Z[w], take each
    prime's preimage, multiply out in Q."""
    if not isinstance(x, (QuadRat, QuadInt)):
        raise TypeError(f"expected a QuadRat or QuadInt, got {type(x).__name__} {x!r}")
    if x.is_zero():
        return Fraction(0)
    f = factor_quad(x)
    return _value(f.unit, f.exponents, corr.preimage_of_prime)


@dataclass(frozen=True)
class EndoBijectionSpecQ:
    """Multiplicative endobijection of Q from finitely many prime twists.

    perm permutes finitely many primes (it must map its support onto
    itself), eta flips the sign contributed per occurrence of a prime, and
    nu inverts a prime's exponent. Everything not mentioned is fixed.
    """

    perm: dict[int, int] = field(default_factory=dict)
    eta: dict[int, int] = field(default_factory=dict)
    nu: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for p in (*self.perm, *self.perm.values(), *self.eta, *self.nu):
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
        if sorted(self.perm) != sorted(set(self.perm.values())):
            raise DomainError("perm must be a bijection of its support")
        if any(v not in (1, -1) for v in (*self.eta.values(), *self.nu.values())):
            raise DomainError("eta and nu values must be +1 or -1")


def endo_q_apply(spec: EndoBijectionSpecQ, q: Rat | int) -> Rat:
    """Apply the endobijection: p**e goes to eta_p**e * perm(p)**(nu_p * e).

    Whether eta is applied before or after the nu-inversion makes no
    difference since signs commute with inversion; the convention above is
    fixed for definiteness.
    """
    q = q if isinstance(q, Fraction) else _as_rat(q)
    if q == 0:
        return q
    f = factor_rat(q)
    flips = sum(e % 2 for p, e in f.exponents.items() if spec.eta.get(p, 1) == -1)
    exps = {p: spec.nu.get(p, 1) * e for p, e in f.exponents.items()}
    return _value((-1) ** flips * f.unit, exps, lambda p: spec.perm.get(p, p))
