"""Exact rational arithmetic in prime-exponent coordinates.

Rational values are carried by fractions.Fraction, which already maintains
the lowest-terms, positive-denominator normal form everything here relies
on. This module adds the multiplicative view of a nonzero rational: a sign
together with a finite map from primes to nonzero integer exponents, held
in SignedFactorization, which with quadratic.KFactorization is the one
validated record of a factorization, _Factorization.

Factoring is one loop, _exponents, behind both factor_int and factor_rat.
Up to TRIAL_CAP = 1e6 it reads a table of least prime factors over the odd
numbers (uint16, 0 for a prime, 1 MB), struck once on first use by the
primes up to 1,000. Above the cap it trial-divides by a fixed table of the
primes up to TRIAL_CAP, sieved once on first use, never grown, and held as
uint32 (314 KB rather than 3 MB of Python ints), but only while p**3 is at
most the cofactor: what is left then is a prime, which one primality test
settles, or a product of two primes, the smaller of which further trial
division finds. Past that, when both primes exceed the cap, a deterministic
Miller-Rabin test and Brent's rho splitter take over, both exponential-time
methods. is_prime answers from three sources: the factor table up to
TRIAL_CAP; above it, up to where the default correspondence of maps has
sieved, one bit of that correspondence's odd-prime bitmap, which maps
hands over through _shared_sieve (this module never imports maps); and
Miller-Rabin past that. Every prime, here and in maps, comes off the one sieve,
prime_mask, in segments of 2**22 numbers cut by _prime_masks: primes_upto
reads them off as primes, adding the one even prime, and the correspondence
in maps packs them into its bitmap. One call sieves one segment, by its own
small sieve to the square root of its end, and holds its odd numbers only,
one byte each.

The entry points take integers through operator.index and rationals as
numbers.Rational, so a float raises TypeError rather than being factored
as the binary fraction it holds.
"""

from __future__ import annotations

import math
import mmap
import numbers
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import index
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError

Rat = Fraction

__all__ = [
    "Rat",
    "SignedFactorization",
    "factor_int",
    "factor_rat",
    "primes_upto",
    "is_prime",
]

TRIAL_CAP = 10**6

# Numbers sieved per prime_mask call, so no read-off holds a mask the size
# of its whole range: 2 MiB of mask, one byte per odd number.
_SEGMENT = 1 << 22

# Deterministic Miller-Rabin. psi_k, the least strong pseudoprime to each of
# the first k prime bases, bounds where those k bases settle primality
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86 (2017)); each n is tested to the shortest prefix with n < psi_k.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PREFIXES = tuple(
    (psi, _MR_BASES[:k])
    for psi, k in (
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),  # = psi_8
        (3_825_123_056_546_413_051, 9),  # = psi_10 = psi_11
        (318_665_857_834_031_151_167_461, 12),
        (3_317_044_064_679_887_385_961_981, 13),
    )
)
_MR_VALID_BELOW = _MR_PREFIXES[-1][0]
_MR_BASES_PRODUCT = math.prod(_MR_BASES)


def _lazy(count: int, dtype: type) -> np.ndarray:
    """A zeroed buffer in an anonymous mapping of its own, whose pages cost
    memory only once written. (numpy asks for huge pages on large arrays,
    so there the first write would fault in 2 MB at once.) A long-lived
    buffer mapped apart also pins no pages of the malloc heap: held there,
    the 1 MB factor table raised the RSS of 4,000 warm exotic sums by
    2.3 MB in all."""
    return np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype=dtype)


@lru_cache(maxsize=1)
def _trial_primes() -> array:
    """The primes up to TRIAL_CAP, ascending, as uint32; sieved once and
    then shared. Reading one makes an int of it, so a loop that scans them
    on every call keeps its own tuple (quadratic._norm_primes)."""
    return array("I", primes_upto(TRIAL_CAP))


@lru_cache(maxsize=1)
def _factor_table() -> memoryview:
    """The least prime factor of each odd number up to TRIAL_CAP, 0 for a
    prime (and for 1): slot k for 2k + 1, as uint16 (1 MB). Built once,
    from the 167 odd primes up to isqrt(TRIAL_CAP), so the trial primes
    are sieved only when a number past TRIAL_CAP needs them."""
    return _least_factors(primes_upto(math.isqrt(TRIAL_CAP))[1:])


def _least_factors(primes: Sequence[int]) -> memoryview:
    """The table of _factor_table, struck by the given odd primes, ascending:
    slot k holds the least of them whose square is at most 2k + 1 and which
    divides it, else 0. Larger primes strike first, so smaller ones
    overwrite them."""
    table = _lazy((TRIAL_CAP + 1) // 2, np.uint16)
    for p in reversed(primes):
        table[p * p >> 1 :: p] = p  # p**2, p**2 + 2p, ...: odd multiples from p**2
    return memoryview(table)


def _odd_bit(bits: Sequence[int], n: int) -> int:
    """The bit of the odd number n in an odd-number bitmap: slot k for
    2k + 1, bit k % 8 of byte k // 8."""
    return bits[n >> 4] >> (n >> 1 & 7) & 1


def _no_sieve() -> tuple[bytes, int]:
    return b"", 0


# () -> (bits, sieved): an odd-prime bitmap (see _odd_bit) that holds every
# odd number up to sieved, read from one snapshot per call. maps points it
# at its default correspondence once, when it builds it.
_shared_sieve: Callable[[], tuple[Sequence[int], int]] = _no_sieve


def _value(lead: int, exponents: dict, base: Callable[[Any], int]) -> Rat:
    """lead * prod(base(k)**e) over the items k, e of exponents, as one
    Fraction. The one product loop on Q: factorizations, sigma^-1 and the
    endobijections multiply out through it. With no negative exponent, as
    for sigma^-1 of every QuadInt, the Fraction is built without a gcd."""
    num = den = 1
    for k, e in exponents.items():
        if e > 0:
            num *= base(k) ** e
        else:
            den *= base(k) ** -e
    if den == 1:
        return Fraction(lead * num)
    return Fraction(lead * num, den)


class _Factorization:
    """unit * prod(k**e), nonzero exponents, in a ring whose units are +-1:
    the one factorization record, validated on construction (unit the int
    1 or -1, no zero exponent). Not frozen, since a frozen record's
    per-field setattr is most of its build cost on the sum, and not
    hashable: it equals only a record of its own class with equal fields.
    _unit_name names the unit in the repr and the refusal."""

    __slots__ = ("unit", "exponents")
    _unit_name = "unit"

    def __init__(self, unit: int, exponents: dict | None = None):
        if unit.__class__ is not int or (unit != 1 and unit != -1):
            raise DomainError(f"{self._unit_name} must be +1 or -1, got {unit!r}")
        if exponents is None:
            exponents = {}
        elif 0 in exponents.values():
            raise DomainError("zero exponents are not stored")
        self.unit = unit
        self.exponents = exponents

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.unit == other.unit and self.exponents == other.exponents

    def __repr__(self):
        return f"{type(self).__qualname__}({self._unit_name}={self.unit!r}, exponents={self.exponents!r})"


class SignedFactorization(_Factorization):
    """A nonzero rational as sign * prod(p**e), the unit called its sign."""

    __slots__ = ()
    _unit_name = "sign"

    @property
    def sign(self) -> int:
        return self.unit

    def value(self) -> Rat:
        return _value(self.unit, self.exponents, lambda p: p)

    def to_json(self) -> dict:
        return {
            "sign": self.unit,
            "factors": [[p, e] for p, e in sorted(self.exponents.items())],
        }


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24.

    Three ranges, three sources: n <= TRIAL_CAP is read off the table of
    least prime factors; n up to the bound that the default correspondence
    of maps has sieved is one bit of its odd-prime bitmap; larger n gets
    Miller-Rabin. Inputs with a prime factor up to 41 are settled at any
    size; any other input at or above the bound raises ResourceLimitError.
    A float is refused with TypeError, not truncated.
    """
    n = index(n)
    if n <= TRIAL_CAP:
        if n & 1:
            return n > 1 and not _factor_table()[n >> 1]
        return n == 2
    bits, sieved = _shared_sieve()
    if n <= sieved:
        return n & 1 == 1 and _odd_bit(bits, n) == 1
    if math.gcd(n, _MR_BASES_PRODUCT) != 1:
        return False
    for psi, bases in _MR_PREFIXES:
        if n < psi:
            break
    else:
        raise ResourceLimitError(
            f"primality test is deterministic only below {_MR_VALID_BELOW}, got {n}",
            ceiling=_MR_VALID_BELOW,
        )
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of odd composite n (Brent's cycle variant)."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise DomainError(f"rho failed to split {n}")  # unreachable for composite n


def _factor_hard(m: int, out: dict[int, int]) -> None:
    stack = [m]
    while stack:
        v = stack.pop()
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _brent_rho(v)  # 1 < d < v, so the stack never holds a 1
        stack.append(d)
        stack.append(v // d)


def _exponents(m: int, primes: Sequence[int] | None = None) -> dict[int, int]:
    """The prime exponents of an integer m >= 1, the one factoring loop.

    An m <= TRIAL_CAP, given or left over, is read off the factor table. A
    larger m is trial-divided by the primes up to TRIAL_CAP while p**3 <= m.
    Once p**3 exceeds what is left, no prime below p divides it, so it is a
    prime or P*Q with p <= P <= Q: p**2 > m or one is_prime settles a
    prime, and otherwise trial division resumes at p, where the first
    divisor leaves a prime. If the primes run out first, Miller-Rabin and
    rho take over. A caller that knows no other prime up to the cap divides
    m may pass just those primes, ascending. For m <= TRIAL_CAP**2 the keys
    come out ascending.
    """
    factors: dict[int, int] = {}
    if m > TRIAL_CAP:
        trial = iter(_trial_primes() if primes is None else primes)
        for p in trial:
            if p * p * p > m:  # m is a prime, or P*Q with p <= P <= Q
                if p * p > m or is_prime(m):
                    factors[m] = 1
                    return factors
                for p in chain((p,), trial):
                    if m % p == 0:  # P, which leaves the prime Q
                        factors[p] = 1
                        m //= p
                        factors[m] = factors.get(m, 0) + 1
                        return factors
                break
            if m % p == 0:  # count p's multiplicity, then store it once
                m //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                factors[p] = e
                if m <= TRIAL_CAP:
                    break
        if m > TRIAL_CAP:  # no prime up to the cap divides it
            _factor_hard(m, factors)
            return factors
    if not m & 1:
        e = (m & -m).bit_length() - 1
        factors[2] = e
        m >>= e
    table = _factor_table()
    while m > 1:
        p = table[m >> 1] or m
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        factors[p] = e
    return factors


def _as_rat(q) -> Rat:
    """q as a Fraction of Python ints, for any numbers.Rational (numpy ints
    included). A float, whose binary expansion Fraction would take exactly,
    raises TypeError. Callers take a Fraction as it is and reach this
    otherwise."""
    if isinstance(q, int):
        return Fraction(q)
    if not isinstance(q, numbers.Rational):
        raise TypeError(f"expected a rational number, got {type(q).__name__} {q!r}")
    return Fraction(index(q.numerator), index(q.denominator))


def factor_int(n: int) -> SignedFactorization:
    """Factor a nonzero integer into a sign and prime exponents."""
    n = index(n)  # a float is refused, not factored
    if n == 0:
        raise DomainError("zero has no factorization")
    return SignedFactorization(1 if n > 0 else -1, _exponents(abs(n)))


def factor_rat(q: Rat | int) -> SignedFactorization:
    """Factor a nonzero rational; denominator primes get negative exponents."""
    q = q if isinstance(q, Fraction) else _as_rat(q)
    num, den = q.numerator, q.denominator
    if num == 0:
        raise DomainError("zero has no factorization")
    exps = _exponents(abs(num))
    if den > 1:
        for p, e in _exponents(den).items():
            exps[p] = -e  # a new key: q is in lowest terms
    return SignedFactorization(1 if num > 0 else -1, exps)


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending: the one read-off of the sieve as numbers."""
    found = [2] if n >= 2 else []
    for first, mask in _prime_masks(0, n):
        found += (2 * np.flatnonzero(mask) + first).tolist()  # slot k holds first + 2k
    return found


def _prime_masks(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """The sieve of the numbers in (lo, hi], one segment of at most _SEGMENT
    numbers at a time, as (first, mask): mask[k] iff first + 2k is prime,
    first the segment's first odd number. The prime 2 is not in any mask."""
    for start in range(max(lo, 1) + 1, hi + 1, _SEGMENT):
        yield start | 1, prime_mask(min(start + _SEGMENT - 1, hi), start)


def prime_mask(n: int, lo: int) -> np.ndarray:
    """Boolean array over the odd numbers of [lo, n], for 2 <= lo <= n:
    mask[k] iff (lo | 1) + 2k is prime. The segment alone is struck, by the
    odd primes up to isqrt(n), which a plain sieve here finds, calling no
    other sieve; 2 is the caller's to add. Built fresh per call rather than
    cached: keeping a large mask alive between calls would cost far more
    than resieving. A lo below 2 or past n is refused.
    """
    if not 2 <= lo <= n:
        raise DomainError(f"prime_mask needs 2 <= lo <= n, got lo={lo}, n={n}")
    root = math.isqrt(n)
    small = np.ones((root + 1) // 2, dtype=bool)  # small[k] iff 2k + 1 <= root is prime
    small[0] = False
    for k in range(1, (math.isqrt(root) + 1) // 2):
        if small[k]:
            small[2 * k * (k + 1) :: 2 * k + 1] = False  # from (2k + 1)**2, odd multiples only
    first = lo | 1
    mask = np.ones((n - first) // 2 + 1, dtype=bool)
    for p in (2 * np.flatnonzero(small) + 1).tolist():
        start = max(p * p, -(-lo // p) * p)
        if start % 2 == 0:  # the first odd multiple
            start += p
        mask[(start - first) // 2 :: p] = False
    return mask
