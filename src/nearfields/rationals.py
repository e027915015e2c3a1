"""Exact rational arithmetic in prime-exponent coordinates.

Rational values are carried by fractions.Fraction, which already maintains
the lowest-terms, positive-denominator normal form everything here relies
on. This module adds the multiplicative view of a nonzero rational: a sign
together with a finite map from primes to nonzero integer exponents, held
in SignedFactorization, a plain slotted record that is validated on
construction (sign the int 1 or -1, no zero exponent) and not frozen, since
a frozen record's per-field setattr is most of its build cost on the sum.

Factoring is one loop, _exponents, behind both factor_int and factor_rat:
trial division by a fixed table of the primes up to TRIAL_CAP = 1e6,
sieved once on first use and never grown, which settles inputs up to about
1e12 outright (once no prime up to the cap divides the cofactor and the
cofactor is at most cap**2, it is prime). Past that, a deterministic
Miller-Rabin test and Brent's rho splitter take over, both exponential-time
methods. is_prime bisects the same table up to TRIAL_CAP, Miller-Rabin above.
Every prime, here and in maps, comes off the one sieve, prime_mask, in
segments of 2**22 numbers cut by _prime_masks: primes_upto reads them off
as primes, adding the one even prime, and the correspondence in maps packs
them into bitmaps. One call sieves one segment, by its own small sieve to
the square root of its end, and holds its odd numbers only, one byte each.

The entry points take integers through operator.index and rationals as
numbers.Rational, so a float raises TypeError rather than being factored
as the binary fraction it holds.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Any, Callable, Iterator

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


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    """The primes up to TRIAL_CAP, ascending; sieved once and then shared."""
    return tuple(primes_upto(TRIAL_CAP))


def _value(lead: int, exponents: dict, base: Callable[[Any], int]) -> Rat:
    """lead * prod(base(k)**e) over the items k, e of exponents, as one
    Fraction. The one product loop on Q: factorizations, sigma^-1 and the
    endobijections multiply out through it."""
    num = den = 1
    for k, e in exponents.items():
        if e > 0:
            num *= base(k) ** e
        else:
            den *= base(k) ** -e
    return Fraction(lead * num, den)


class SignedFactorization:
    """A nonzero rational as sign * prod(p**e) with nonzero exponents.

    A plain slotted record, validated on construction: the sign is the int
    1 or -1 and no exponent is zero. It is not frozen, and not hashable; it
    equals only a record of its own class with equal fields.
    """

    __slots__ = ("sign", "exponents")

    def __init__(self, sign: int, exponents: dict[int, int] | None = None):
        if sign.__class__ is not int or (sign != 1 and sign != -1):
            raise DomainError(f"sign must be +1 or -1, got {sign!r}")
        if exponents is None:
            exponents = {}
        elif 0 in exponents.values():
            raise DomainError("zero exponents are not stored")
        self.sign = sign
        self.exponents = exponents

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sign == other.sign and self.exponents == other.exponents

    def __repr__(self):
        return f"{type(self).__qualname__}(sign={self.sign!r}, exponents={self.exponents!r})"

    def value(self) -> Rat:
        return _value(self.sign, self.exponents, lambda p: p)

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "factors": [[p, e] for p, e in sorted(self.exponents.items())],
        }


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24.

    n <= TRIAL_CAP is looked up in the table of trial primes, larger n gets
    Miller-Rabin. Inputs with a prime factor up to 41 are settled at any
    size; any other input at or above the bound raises ResourceLimitError.
    A float is refused with TypeError, not truncated.
    """
    n = index(n)
    if n <= TRIAL_CAP:
        primes = _trial_primes()
        i = bisect_left(primes, n)
        return i < len(primes) and primes[i] == n
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
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)


def _exponents(m: int, primes: tuple[int, ...] | None = None) -> dict[int, int]:
    """The prime exponents of an integer m >= 1, the one factoring loop.

    Trial division by the primes up to TRIAL_CAP stops once p**2 exceeds
    what is left, which is then 1 or a prime. If every prime up to the cap
    divides out and more than TRIAL_CAP**2 is left, the cofactor may still
    be composite, and Miller-Rabin and rho take over. A caller that knows
    no other prime up to the cap divides m may pass just those primes,
    ascending.
    """
    factors: dict[int, int] = {}
    for p in _trial_primes() if primes is None else primes:
        if p * p > m:
            break
        if m % p == 0:  # count p's multiplicity, then store it once
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
    else:
        if m > TRIAL_CAP * TRIAL_CAP:
            _factor_hard(m, factors)
            return factors
    if m > 1:
        factors[m] = 1
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
