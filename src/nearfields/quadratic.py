"""Exact arithmetic and unique factorization in Z[w], w = (1 + sqrt(-19))/2.

w satisfies w**2 = w - 5, so integer pairs (a, b) representing a + b*w close
under multiplication: (a + b*w)(c + d*w) = (ac - 5bd) + (ad + bc + bd)*w.
The ring is a principal ideal domain whose only units are 1 and -1, which
keeps associate bookkeeping to a single sign. A rational prime p splits,
stays inert or (for p = 19) ramifies according to its residue mod 19; the two
primes over a split p come from a square root of -19 mod p (Tonelli-Shanks)
and Cornacchia's reduction of x**2 + 19y**2 = 4p (Cohen, A Course in
Computational Algebraic Number Theory, Algs. 1.5.1 and 1.5.3), in O(log p)
steps.

The ring is not Euclidean, so there is no gcd algorithm to lean on, and
factoring tries no division in it. An element splits into its content, a
rational integer whose primes map straight to primes of Z[w], and a
primitive part z. Its norm a**2 + ab + 5b**2 holds no inert q (q | z*conj(z)
would make q divide z), so past the factor table of rationals it is
trial-divided by the split primes and 19 alone. Over a split p of the norm
only one of the two primes divides z, and reducing modulo p along
Z[w]/pi = Z/p tells which. Rebuilding the primitive part from the primes
found proves the factorization exact.

The ring product is written once, in _mul and _pow, on plain integers. A
product of prime powers held in a dict is multiplied out by _product, which
takes a callable that turns each key into a prime: rebuild_quad keys it by
canonical prime, and sigma in maps by rational prime imaged through the
prime correspondence. The rebuild check, and the exotic sum in induced,
hold no such dict: each multiplies a prime in where its loop finds it.

Among the two associates {x, -x} of a prime, the canonical one has b > 0,
or b == 0 and a > 0. Conjugates of non-rational primes are canonicalized
separately, so a split rational prime owns two distinct canonical primes.
Canonical primes are ordered by (norm, a, b). The splitting law and that
order are known here only: the prime correspondence in maps keeps one
bitmap, of the odd primes, and reads the split ones under the masks of
_split_block_masks (counting them by _split_bits as it grows), the few
other norms from _extra_norms (19 and the inert squares), and a prime back
from its norm through _primes_of_norm and _place_in_norm.

QuadInt and QuadRat take their integers through operator.index, so a float
or a Fraction raises TypeError instead of being truncated, and
QuadRat.from_rat takes a numbers.Rational only. An operator takes its other
operand through one rule per class, applied by _operand: _coerce for QuadInt
(a QuadInt, an int or a whole Fraction), _coerce_rat for QuadRat (those, any
Fraction or a QuadRat); anything else gets NotImplemented. A factorization
is a KFactorization, rationals' one factorization record keyed by prime.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache, wraps
from fractions import Fraction
from operator import index
from typing import Any, Callable

import numpy as np

from .errors import DomainError, IntegrityError
from .rationals import TRIAL_CAP, Rat, _as_rat, _exponents, _Factorization, _trial_primes
from .rationals import factor_int, is_prime, primes_upto

__all__ = [
    "QuadInt",
    "QuadRat",
    "KFactorization",
    "Splitting",
    "is_canonical_prime",
    "primes_above",
    "factor_quad",
    "rebuild_quad",
]

# The ring's constants. w = (1 + sqrt(DISCRIMINANT))/2 is a root of
# x**2 - x + W_NORM, so w**2 = w - W_NORM. The one ramified prime is
# RAMIFIED = -DISCRIMINANT; every other prime splits or stays inert by its
# residue mod RAMIFIED.
DISCRIMINANT = -19
W_NORM = (1 - DISCRIMINANT) // 4
RAMIFIED = -DISCRIMINANT

_HASH_STEP = 0x9E3779B9  # QuadInt's hash step: odd, about 2**32 / golden ratio


def _mul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a + b*w)(c + d*w) as a pair: the ring's product."""
    return a * c - W_NORM * b * d, a * d + b * c + b * d


def _norm(a: int, b: int) -> int:
    """The norm of a + b*w: (a + b*w)(a + b - b*w)."""
    return a * a + a * b + W_NORM * b * b


def _pow(a: int, b: int, k: int) -> tuple[int, int]:
    """(a + b*w)**k for k >= 0 as a pair, by square-and-multiply."""
    out = 1, 0
    while k:
        if k & 1:
            out = _mul(*out, a, b)
        k >>= 1
        if k:
            a, b = _mul(a, b, a, b)
    return out


def _product(unit: int, exponents: dict, prime: Callable[[Any], QuadInt]) -> tuple[int, int, int]:
    """unit * prod(prime(k)**e) over the items k, e of exponents, as plain
    integers (a, b, den): the value (a + b*w) / den, not reduced, with
    pi**-e = conj(pi)**e / N(pi)**e."""
    a, b, den = unit, 0, 1
    for k, e in exponents.items():
        pi = prime(k)
        c, d = pi._a, pi._b
        if e < 0:
            den *= _norm(c, d) ** -e
            c, d, e = c + d, -d, -e
        if e > 1:
            c, d = _pow(c, d, e)
        a, b = _mul(a, b, c, d)
    return a, b, den


def _coerce(x) -> QuadInt | None:
    if isinstance(x, QuadInt):
        return x
    if isinstance(x, int):
        return QuadInt(x, 0)
    if isinstance(x, Fraction) and x.denominator == 1:
        return QuadInt(x.numerator, 0)
    return None


def _coerce_rat(x) -> QuadRat | None:
    if isinstance(x, QuadRat):
        return x
    if isinstance(x, QuadInt):
        return QuadRat(x, 1)
    if isinstance(x, (int, Fraction)):
        return QuadRat.from_rat(x)
    return None


def _operand(coerce: Callable[[Any], Any]):
    """Operator decorator: the method gets its other operand through coerce,
    and NotImplemented goes back to Python when coerce returns None."""

    def wrap(method):
        @wraps(method)
        def op(self, other):
            other = coerce(other)
            return NotImplemented if other is None else method(self, other)
        return op
    return wrap


class QuadInt:
    """a + b*w with integer a, b."""

    __slots__ = ("_a", "_b", "_hash")

    def __init__(self, a: int, b: int):
        # index, not int: a float or a Fraction is refused, not truncated
        self._a = index(a)
        self._b = index(b)

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    @_operand(_coerce)
    def __add__(self, other):
        return QuadInt(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    @_operand(_coerce)
    def __sub__(self, other):
        return QuadInt(self._a - other._a, self._b - other._b)

    @_operand(_coerce)
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return QuadInt(-self._a, -self._b)

    @_operand(_coerce)
    def __mul__(self, other):
        return QuadInt(*_mul(self._a, self._b, other._a, other._b))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative powers leave the ring")
        return QuadInt(*_pow(self._a, self._b, k))

    def conj(self) -> "QuadInt":
        return QuadInt(self._a + self._b, -self._b)

    def norm(self) -> int:
        return _norm(self._a, self._b)

    def content(self) -> int:
        return math.gcd(self._a, self._b)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    @_operand(_coerce)
    def __eq__(self, other):
        return self._a == other._a and self._b == other._b

    def __hash__(self):
        # Equal values hash alike, a rational one as its int. The step is odd
        # and not a power of two: int hashes reduce mod 2**61 - 1, where
        # 2**64 = 8, so a + (b << 64) would hash (8, 0) like (0, 1).
        # Computed on the first call and kept: the value never changes.
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(self._a + self._b * _HASH_STEP)
            return h

    def __repr__(self):
        return f"QuadInt({self._a}, {self._b})"

    def __str__(self):
        if self._b == 0:
            return str(self._a)
        w = "w" if self._b == 1 else "-w" if self._b == -1 else f"{self._b}*w"
        if self._a == 0:
            return w
        return f"{self._a}{'+' if self._b > 0 else ''}{w}"

    def to_json(self) -> list[int]:
        return [self._a, self._b]


class QuadRat:
    """Element of the fraction field: QuadInt numerator over a positive integer.

    Any denominator can be cleared to an integer by multiplying through with
    its conjugate, so this representation is complete. The constructor
    reduces gcd(content(num), den) and fixes the denominator sign.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: QuadInt | int, den: int = 1):
        if not isinstance(num, QuadInt):
            num = QuadInt(num, 0)
        den = index(den)
        if den == 0:
            raise DomainError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.content(), den)
        if g > 1:
            num = QuadInt(num.a // g, num.b // g)
            den //= g
        self._num = num
        self._den = den

    @property
    def num(self) -> QuadInt:
        return self._num

    @property
    def den(self) -> int:
        return self._den

    @classmethod
    def from_rat(cls, q: Rat | int) -> "QuadRat":
        q = q if isinstance(q, Fraction) else _as_rat(q)
        return cls(QuadInt(q.numerator, 0), q.denominator)

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def norm(self) -> Fraction:
        return Fraction(self._num.norm(), self._den * self._den)

    def conj(self) -> "QuadRat":
        return QuadRat(self._num.conj(), self._den)

    @_operand(_coerce_rat)
    def __add__(self, other):
        return QuadRat(self._num * other._den + other._num * self._den, self._den * other._den)

    __radd__ = __add__

    @_operand(_coerce_rat)
    def __sub__(self, other):
        return QuadRat(self._num * other._den - other._num * self._den, self._den * other._den)

    @_operand(_coerce_rat)
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return QuadRat(-self._num, self._den)

    @_operand(_coerce_rat)
    def __mul__(self, other):
        return QuadRat(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    @_operand(_coerce_rat)
    def __truediv__(self, other):
        if other.is_zero():
            raise DomainError("division by zero")
        # 1/x = conj(x) * den / norm(num)
        n = other._num.norm()
        num = self._num * other._num.conj() * other._den
        return QuadRat(num, self._den * n)

    @_operand(_coerce_rat)
    def __rtruediv__(self, other):
        return other / self

    @_operand(_coerce_rat)
    def __eq__(self, other):
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # equal values hash alike: a rational one as its Fraction, den 1 as num
        if self._num.b == 0:
            return hash(Fraction(self._num.a, self._den))
        return hash(self._num) if self._den == 1 else hash((self._num, self._den))

    def __repr__(self):
        return f"QuadRat({self._num!r}, {self._den})"

    def __str__(self):
        if self._den == 1:
            return str(self._num)
        return f"({self._num})/{self._den}"

    def to_json(self) -> list[int]:
        return [self._num.a, self._num.b, self._den]


# -19 = 1 mod 4, so by reciprocity a prime p != 19 splits in Z[w] exactly
# when p mod 19 is a nonzero square; for p = 2 the rule gives inert, which
# agrees with -19 = 5 mod 8. 19 ramifies.
_SPLIT_RESIDUES = frozenset(x * x % RAMIFIED for x in range(1, RAMIFIED))


def _splits(p: int) -> bool:
    """Whether the rational prime p splits in Z[w]."""
    return p % RAMIFIED in _SPLIT_RESIDUES


def _is_inert(p: int) -> bool:
    """Whether the rational prime p stays prime in Z[w]."""
    return p != RAMIFIED and not _splits(p)


@lru_cache(maxsize=1)
def _norm_primes() -> tuple[int, ...]:
    """The split primes and 19 up to TRIAL_CAP: the ones a primitive norm may hold."""
    return tuple(p for p in _trial_primes() if not _is_inert(p))


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _split_pair(p: int) -> tuple[QuadInt, QuadInt]:
    """The canonical primes of norm p, smaller a first, for p split or 19.

    Cornacchia: reduce (2p, x) by Euclid, x a square root of -19 mod p of
    odd parity, until the remainder drops to 2*sqrt(p) or below; it is the x
    of x**2 + 19y**2 = 4p, and (+-x - y)/2 + y*w are the two primes. For
    p = 19 both coincide. The caller vouches that p is such a prime.
    """
    x = _sqrt_mod(DISCRIMINANT, p)
    if x % 2 == 0:
        x = p - x
    r0, bound = 2 * p, math.isqrt(4 * p)
    while x > bound:
        r0, x = x, r0 % x
    y2, rem = divmod(4 * p - x * x, RAMIFIED)
    y = math.isqrt(y2)
    if rem or y * y != y2:
        raise IntegrityError(f"Cornacchia found no x**2 + 19y**2 = 4*{p}")
    return QuadInt((-x - y) // 2, y), QuadInt((x - y) // 2, y)


def _place_in_norm(x: QuadInt) -> int:
    """Where the canonical prime x comes among the canonical primes of its
    norm: 1 for the second of a split pair, else 0. The pair is (a, b) and
    (-a - b, b), and the one with the larger a, 2a + b > 0, comes second.
    This holds for every D in {-7, -11, -19, -43, -67, -163}: conj(w) is
    1 - w for any w = (1 + sqrt(D))/2, so the canonical conjugate of (a, b)
    is (-a - b, b)."""
    b = x._b
    return int(b > 0 and 2 * x._a + b > 0)


def _primes_of_norm(n: int) -> tuple[QuadInt, ...]:
    """The canonical primes of norm n, in (norm, a, b) order: two for a
    split prime n, one for 19, and q itself for n = q**2, q inert. The
    caller vouches that n is such a norm. Not cached: primes_above keeps
    its answers, the correspondence memoizes its images, and the rest
    (images past TRIAL_CAP, pairs()) ask each norm about once.
    """
    q = math.isqrt(n)
    if q * q == n:  # the inert q is the only prime of norm q**2
        return (QuadInt(q, 0),)
    pair = _split_pair(n)
    return pair[:1] if n == RAMIFIED else pair


# The splitting law over one period of a bitmap over the odd numbers (slot
# k for 2k + 1, bit k % 8 of byte k // 8), which repeats every RAMIFIED bytes.
_SPLIT_PERIOD = np.packbits([_splits(2 * k + 1) for k in range(8 * RAMIFIED)], bitorder="little")


def _split_bits(primes: np.ndarray, byte: int) -> np.ndarray:
    """The split primes among the odd primes of a packed bitmap. primes holds
    bytes byte, byte + 1, ... of a bitmap over the odd numbers, set for
    each prime; the answer has the same layout, set for each prime that
    splits: the period from the bitmap's phase on, tiled to its length and
    ANDed with it in place, so the answer is the one array built."""
    phase = byte % RAMIFIED
    out = np.tile(_SPLIT_PERIOD, (len(primes) + phase) // RAMIFIED + 1)[phase : phase + len(primes)]
    out &= primes
    return out


def _split_block_masks(nbytes: int) -> tuple[int, ...]:
    """The splitting law over a block of nbytes bytes of the bitmap, as an
    int (bit k for the block's slot k), for each phase j = 0 .. RAMIFIED - 1:
    a block that starts at byte i takes mask i % RAMIFIED, and its split
    primes are its primes ANDed with that mask."""
    ones = np.full(nbytes, 0xFF, dtype=np.uint8)
    return tuple(int.from_bytes(_split_bits(ones, j).tobytes(), "little") for j in range(RAMIFIED))


def _extra_norms(limit: int) -> list[int]:
    """The norms up to limit of the canonical primes whose norm is no odd
    split prime, ascending, one entry per prime: RAMIFIED, q**2 for each
    inert q, and 2 twice where 2 splits. The correspondence merges them
    into the split primes it reads off its bitmap. The inert q come from a
    sieve to isqrt(limit) alone (908 primes at 5e7), not the trial-prime
    table, so a build that never factors never builds that table."""
    norms = [q * q for q in primes_upto(math.isqrt(limit)) if _is_inert(q)]
    if limit >= RAMIFIED:
        insort(norms, RAMIFIED)
    if limit >= 2 and _splits(2):
        norms[:0] = (2, 2)
    return norms


def _in_canonical_form(x: QuadInt) -> bool:
    """Whether x is the representative of {x, -x} with b > 0, or b == 0 and a > 0."""
    b = x._b
    return b > 0 or (b == 0 and x._a > 0)


def is_canonical_prime(x: QuadInt) -> bool:
    # A prime norm, or b == 0: then x is a rational integer a > 0, which is
    # prime here exactly when a is an inert prime.
    if not isinstance(x, QuadInt):
        raise TypeError(f"expected a QuadInt, got {type(x).__name__} {x!r}")
    if not _in_canonical_form(x):
        return False
    return is_prime(x.norm()) or (x.b == 0 and is_prime(x.a) and _is_inert(x.a))


@dataclass(frozen=True)
class Splitting:
    """Behavior of a rational prime: kind in {inert, split, ramified}."""

    kind: str
    primes: tuple[QuadInt, ...]


@lru_cache(maxsize=1 << 12, typed=True)
def primes_above(p: int) -> Splitting:
    """Canonical primes over a rational prime, with the splitting kind.

    The kind is read off p mod 19, and the primes are those of norm p, or
    of norm p**2 for an inert p, in (norm, a, b) order. Recent answers are
    kept in a bounded cache keyed by type as well as value, so a float or a
    Fraction equal to a held prime misses and is refused by operator.index
    like any other; a p that is not prime raises and is never kept.
    """
    p = index(p)
    if not is_prime(p):
        raise DomainError(f"{p} is not a rational prime")
    kind = "ramified" if p == RAMIFIED else "inert" if _is_inert(p) else "split"
    return Splitting(kind, _primes_of_norm(p * p if kind == "inert" else p))


class KFactorization(_Factorization):
    """unit * prod(pi**e) over canonical primes, nonzero exponents."""

    __slots__ = ()

    def to_json(self) -> dict:
        # canonical primes in their order: by norm, then (a, b)
        items = sorted(self.exponents.items(), key=lambda kv: (kv[0].norm(), kv[0].a, kv[0].b))
        return {"unit": self.unit, "factors": [[pi.to_json(), e] for pi, e in items]}


def _add_rational(n: int, sign: int, out: dict[QuadInt, int]) -> int:
    """Add sign times the exponents of the canonical primes of the integer
    n >= 1 to out, and return the unit u with n = u * prod(pi**e).

    Straight from factor_int(n): a split p = -pi*pi', 19 = -pi19**2, and an
    inert q is itself a canonical prime. The ramified rule holds for every
    D in {-7, -11, -19, -43, -67, -163}: its prime pi = -1 + 2w squares to
    D, so -D = -pi**2.
    """
    unit = 1
    for p, e in factor_int(n).exponents.items():
        s = primes_above(p)
        if s.kind != "inert" and e % 2:
            unit = -unit
        k = 2 * e if s.kind == "ramified" else e
        for pi in s.primes:
            out[pi] = out.get(pi, 0) + sign * k
    return unit


def _add_primitive(a: int, b: int, out: dict[QuadInt, int]) -> int:
    """Store the exponents of z = a + b*w, gcd(a, b) = 1, in out, which
    holds none of z's primes, and return the unit u with z = u * prod(pi**e).

    Only primes over the rational primes of N(z) divide z. No rational
    prime divides z, so no inert q divides even N(z) (q | z * conj(z)):
    N(z) is read off the factor table up to TRIAL_CAP, and past it
    trial-divided by _norm_primes alone (built for the first such norm), to
    its cube root, then settled by one primality test or by resuming the
    trial. Over a split p, pi divides z exactly when z maps to 0 under
    Z[w]/pi = Z/p, w -> -pi.a / pi.b, i.e. p | a*pi.b - b*pi.a
    (0 < pi.b < p); then it takes all of p's exponent, stored once, since
    distinct rational primes give distinct pi. Each pi**e is multiplied
    into the rebuild as it is picked, and the rebuild must equal z or -z,
    proving the factorization exact.
    """
    ra, rb = 1, 0  # the rebuild, prime power by prime power
    n = _norm(a, b)
    for p, e in _exponents(n, _norm_primes() if n > TRIAL_CAP else None).items():
        try:
            s = primes_above(p)
        except DomainError:
            raise IntegrityError(f"composite {p} left in the norm of {QuadInt(a, b)!r}") from None
        if s.kind == "inert":
            raise IntegrityError(f"inert {p} divides the norm of primitive {QuadInt(a, b)!r}")
        pi = s.primes[0]
        if s.kind == "split" and (a * pi._b - b * pi._a) % p:
            pi = s.primes[1]
        out[pi] = e
        c, d = pi._a, pi._b
        if e > 1:
            c, d = _pow(c, d, e)
        ra, rb = _mul(ra, rb, c, d)
    if ra == a and rb == b:
        return 1
    if ra == -a and rb == -b:
        return -1
    raise IntegrityError(f"primes over the norm rebuild {QuadInt(ra, rb)!r}, not +-{QuadInt(a, b)!r}")


def factor_quad(x: QuadInt | QuadRat) -> KFactorization:
    """Unique factorization into canonical primes; denominators go negative.

    The numerator splits into its content c, a rational integer, and the
    primitive part num / c; c and the denominator factor as rational
    integers, the primitive part by its norm. No division in Z[w] is tried.
    """
    if isinstance(x, QuadInt):
        a, b, den = x._a, x._b, 1
    elif isinstance(x, QuadRat):
        a, b, den = x._num._a, x._num._b, x._den
    else:
        raise TypeError(f"expected a QuadInt or QuadRat, got {type(x).__name__} {x!r}")
    if a == 0 and b == 0:
        raise DomainError("zero has no factorization")
    c = math.gcd(a, b)
    exps: dict[QuadInt, int] = {}
    unit = _add_primitive(a // c, b // c, exps)
    if c > 1:
        unit *= _add_rational(c, 1, exps)
    if den == 1:  # only a denominator can cancel an exponent to zero
        return KFactorization(unit, exps)
    unit *= _add_rational(den, -1, exps)
    return KFactorization(unit, {pi: e for pi, e in exps.items() if e})


def rebuild_quad(f: KFactorization) -> QuadRat:
    """Inverse of factor_quad."""
    a, b, den = _product(f.unit, f.exponents, lambda pi: pi)
    return QuadRat(QuadInt(a, b), den)
