"""Multiplicative maps between scalar groups.

The centerpiece is the prime correspondence: the k-th rational prime paired
with the k-th canonical prime of Z[w] in (norm, a, b) order. One segmented
sieve feeds both sides: quadratic turns the sieved rational primes into the
sorted norms of the canonical primes, so the canonical side is just an array
of norms, and quadratic recovers each prime from its norm and its place
within that norm when asked for; how Z[w] splits a rational prime is known
there only. Both sides live in int32 buffers allocated once, at a proven
bound on their counts, and filled in place; lookups bisect the filled
prefixes. Growth, its doubling rule, its top-up of the rational side and
the refusal at the norm ceiling all live in
PrimeCorrespondence.extend_to_norm. Extending the
pairing multiplicatively and fixing 0 and the signs gives sigma, a bijection
from Q onto the subfield of Q(sqrt(-19)) generated by the canonical primes,
and sigma is what induces the exotic addition on Q elsewhere in the package.
The images of the rational primes up to rationals.TRIAL_CAP, and the
preimages of their canonical primes, are memoized per correspondence as
they are found (refusals are not, so a ceiling is asked again each time).
sigma and sigma^-1 are mirror images: factor, map each prime, multiply back
out, sigma through the product loop of Z[w] (quadratic._product, on plain
integers) and sigma^-1 through the one of Q (rationals._value). The exotic
sum in induced does not go through sigma_apply: it images each operand
prime once, inline, and multiplies with the ring product itself.

Also here: finitely supported multiplicative endobijections of Q (prime
permutation with sign and inversion twists), the five-way equivalence test
for quasi-multiplicative maps on a finite carrier, the group operations on
quasi-multiplicative specs, and the complex epsilon maps.
"""

from __future__ import annotations

import cmath
import math
import mmap
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, IntegrityError, ResourceLimitError
from .finite import FiniteField, is_mult_bijection, is_permutation
from .quadratic import (
    QuadInt,
    QuadRat,
    _canonical_norms,
    _in_canonical_form,
    _place_in_norm,
    _primes_of_norm,
    _product,
    factor_quad,
    is_canonical_prime,
)
from .rationals import _SEGMENT, TRIAL_CAP, Rat, _primes_between, _value, factor_rat, is_prime
from .report import Report

__all__ = [
    "PrimeCorrespondence",
    "default_correspondence",
    "sigma_apply",
    "sigma_invert",
    "EndoBijectionSpecQ",
    "endo_q_apply",
    "QmcResult",
    "check_qmc_equivalence",
    "QuasiMultSpec",
    "qm_compose",
    "qm_invert",
    "eval_epsilon",
    "epsilon_inverse_param",
    "DEFAULT_CORRESPONDENCE_CEILING",
]

DEFAULT_CORRESPONDENCE_CEILING = 50_000_000

_INT32_MAX = 2**31 - 1


def _nth_prime_bound(n: float) -> int:
    """At least p_n, the n-th prime: p_n < n (ln n + ln ln n) for n >= 6
    (Rosser and Schoenfeld, Illinois J. Math. 6, 1962, (3.13)), less
    0.9484 n for n >= 39,017 (Dusart, Math. Comp. 68, 1999); p_5 = 11."""
    if n < 6:
        return 11
    t = math.log(n) + math.log(math.log(n)) - (0.9484 if n >= 39_017 else 0)
    return int(n * t)


def _buffer_sizes(max_norm: int) -> tuple[int, int, int]:
    """Bounds on a correspondence with this ceiling: how many norms and how
    many rational primes it ever stores, and the largest value it stores.

    With x = max_norm, P(y) = 1.25506 y / ln y > pi(y) for y > 1 (Rosser
    and Schoenfeld, (3.6)) and p^ = _nth_prime_bound:
    - The canonical primes of norm <= x are two per split p <= x, one over
      19 and one per inert q <= sqrt(x): fewer than
      N = 2 P(x) + P(sqrt(x)) + 1 norms, each at most x.
    - The rational side holds exactly the primes <= sieved, which growth
      raises to a limit <= x, or to p^(n) for the n < N norms held. As p^
      rises on either side of 39,017, sieved, and every stored prime, stays
      at most Y = max(x, p^(N), p^(min(N, 39,016))), and the rational side
      holds fewer than P(Y) primes.
    """

    def bound(y: float) -> float:  # P(y)
        return 1.25506 * y / math.log(y)

    x = max(max_norm, 2)
    n = max(2 * bound(x) + bound(math.sqrt(x)) + 1, 6)
    y = max(x, _nth_prime_bound(n), _nth_prime_bound(min(n, 39_016)))
    return int(n) + 1, int(bound(y)) + 1, y + 1


def _lazy_int32(count: int) -> np.ndarray:
    """A zeroed int32 buffer in an anonymous mapping of its own, whose pages
    cost memory only once written. (numpy asks for huge pages on large
    arrays, so there the first write would fault in 2 MB at once.)"""
    return np.frombuffer(mmap.mmap(-1, 4 * count), dtype=np.int32)


def _write_primes(lo: int, hi: int, out: np.ndarray) -> int:
    """Write the primes p with lo < p <= hi, ascending, to the front of out,
    and return how many; refuse rather than write past its end."""
    k = 0
    for found in _primes_between(lo, hi):
        if k + len(found) > len(out):
            raise IntegrityError("rational primes past their proven buffer bound")
        out[k : k + len(found)] = found
        k += len(found)
    return k


def _canonical_at(norms: memoryview, i: int) -> QuadInt:
    """The canonical prime of rank i, from its norm and its place among the
    (at most two) primes of that norm."""
    n = int(norms[i])
    return _primes_of_norm(n)[int(i > 0 and norms[i - 1] == n)]


class PrimeCorrespondence:
    """The rank pairing between rational primes and canonical primes.

    Holds two int32 buffers, each allocated once at a proven bound on its
    count (see _buffer_sizes; pages never written cost no memory): the norms
    of the canonical primes, sorted, one entry per prime, and the rational
    primes in order; the k-th of each are paired. Grows lazily and
    append-only: raising the norm ceiling sieves only the new segment of
    integers and writes it after the held entries, and never reorders the
    existing pairs, because canonical primes are ordered by norm first.
    Lookups bisect memoryviews of the filled prefixes, which growth never
    writes again; growth holds a lock; safe under threads.
    """

    def __init__(self, *, max_norm: int = DEFAULT_CORRESPONDENCE_CEILING):
        norm_count, rat_count, top = _buffer_sizes(max_norm)
        if top > _INT32_MAX:
            raise ResourceLimitError(
                f"correspondence ceiling {max_norm} could store primes past the"
                f" int32 ceiling {_INT32_MAX}",
                ceiling=_INT32_MAX,
            )
        self.max_norm = max_norm
        self._lock = threading.Lock()
        self._capacity = 0  # every canonical prime of norm <= capacity is stored
        self._sieved = 1  # every rational prime <= sieved is stored
        self._norm_buf = _lazy_int32(norm_count)
        self._rat_buf = _lazy_int32(rat_count)
        # memoryviews of the filled prefixes (norms, rational primes); the
        # second may run ahead of the first
        self._data = (memoryview(self._norm_buf[:0]), memoryview(self._rat_buf[:0]))
        self._images: dict[int, QuadInt] = {}  # p -> image, for primes p <= TRIAL_CAP
        self._preimages: dict[QuadInt, int] = {}  # the reverse, for the same p

    @property
    def pair_count(self) -> int:
        return len(self._data[0])

    def pairs(self) -> list[tuple[int, QuadInt]]:
        norms, rat = self._data
        return [(rat[i], _canonical_at(norms, i)) for i in range(len(norms))]

    def extend_to_norm(self, limit: int) -> None:
        """Store every canonical prime of norm <= limit, growing to at least
        twice the capacity (and 10,000) at a time, never past the ceiling;
        refuse a limit past the ceiling. The only place that grows."""
        if limit > self.max_norm:
            raise ResourceLimitError(
                f"correspondence needs norms past its ceiling {self.max_norm}",
                ceiling=self.max_norm,
            )
        if limit <= self._capacity:
            return
        with self._lock:
            old = self._capacity
            if limit <= old:
                return
            limit = min(max(limit, 2 * old, 10_000), self.max_norm)
            nn, nr = map(len, self._data)
            sieved = self._sieved
            if limit > sieved:
                nr += _write_primes(sieved, limit, self._rat_buf[nr:])
                sieved = limit
            for lo in range(old, limit, _SEGMENT):  # one segment of norms at a time
                new = _canonical_norms(self._rat_buf[:nr], lo, min(lo + _SEGMENT, limit))
                if nn + len(new) > len(self._norm_buf):
                    raise IntegrityError("norms past their proven buffer bound")
                self._norm_buf[nn : nn + len(new)] = new
                nn += len(new)
            if nr < nn:  # the nn-th prime is at most _nth_prime_bound(nn)
                top = _nth_prime_bound(nn)
                nr += _write_primes(sieved, top, self._rat_buf[nr:])
                sieved = top
                if nr < nn:
                    raise IntegrityError("rational primes short of the pairs")
            self._data = (memoryview(self._norm_buf[:nn]), memoryview(self._rat_buf[:nr]))
            self._sieved = sieved
            # Published last: a reader that skips the lock on seeing the new
            # capacity must also see the arrays that hold it.
            self._capacity = limit

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
        pi = self._images.get(p)
        if pi is not None:
            return pi
        capacity = self._capacity  # read before the arrays, which are published first
        norms, rat = self._data
        r = bisect_left(rat, p)  # p's rank, if p is prime
        if r == len(rat):  # past every sieved prime, a primality test decides
            if not is_prime(p):
                raise DomainError(f"{p} is not a rational prime")
        elif rat[r] != p:  # the sieved primes settle any p up to the last of them
            raise DomainError(f"{p} is not a rational prime")
        while r >= len(norms):  # not paired yet: grow one step, or refuse
            self.extend_to_norm(capacity + 1)
            capacity = self._capacity
            norms, rat = self._data
            r = bisect_left(rat, p)
        pi = _canonical_at(norms, r)
        if p <= TRIAL_CAP:
            self._images[p] = pi
        return pi

    def preimage_of_prime(self, pi: QuadInt) -> int:
        """The rational prime paired with a canonical prime pi.

        Up to the capacity the stored norms settle validity on their own:
        each is a prime, whose canonical elements are the (at most two)
        canonical primes of that norm, or the square of an inert q, whose
        only canonical element is q itself. So a canonical-form pi whose
        norm is stored at its rank is a canonical prime, and any other pi
        is not. Only a pi past the capacity is tested for primality, before
        growth, which refuses a norm past the ceiling.
        A canonical prime found to pair with a p <= TRIAL_CAP is kept, like
        image_of_prime's answers: the memo holds canonical primes only, so
        any other pi misses it and is refused as before.
        """
        p = self._preimages.get(pi)
        if p is not None:
            return p
        n = pi.norm()
        if n > self._capacity:
            if not is_canonical_prime(pi):
                raise DomainError(f"{pi!r} is not a canonical prime")
            self.extend_to_norm(n)
        elif not _in_canonical_form(pi):
            raise DomainError(f"{pi!r} is not a canonical prime")
        # capacity is read before the arrays, which are published first
        norms, rat = self._data
        i = bisect_left(norms, n) + _place_in_norm(pi)
        if i >= len(norms) or norms[i] != n:
            raise DomainError(f"{pi!r} is not a canonical prime")
        p = rat[i]
        if p <= TRIAL_CAP:
            self._preimages[pi] = p
        return p


_default = PrimeCorrespondence()


def default_correspondence() -> PrimeCorrespondence:
    """The shared correspondence with the default ceiling, built at import;
    its buffers cost memory only once growth writes them."""
    return _default


def sigma_apply(corr: PrimeCorrespondence, q: Rat | int) -> QuadRat:
    """sigma(q): multiplicative extension of the prime pairing; fixes 0, 1, -1.

    Factor over Z, image each prime, multiply out in Z[w]; sigma_invert is
    the mirror image. The numerator a + b*w and the denominator are carried
    as plain integers and become one QuadRat at the end.
    """
    if q == 0:
        return QuadRat(QuadInt(0, 0))
    f = factor_rat(q)
    a, b, den = _product(f.sign, f.exponents, corr.image_of_prime)
    return QuadRat(QuadInt(a, b), den)


def sigma_invert(corr: PrimeCorrespondence, x: QuadRat | QuadInt) -> Rat:
    """sigma^-1(x) for x in the image subfield: factor in Z[w], take each
    prime's preimage, multiply out in Q."""
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
    q = Fraction(q)
    if q == 0:
        return q
    f = factor_rat(q)
    flips = sum(e % 2 for p, e in f.exponents.items() if spec.eta.get(p, 1) == -1)
    exps = {p: spec.nu.get(p, 1) * e for p, e in f.exponents.items()}
    return _value((-1) ** flips * f.sign, exps, lambda p: spec.perm.get(p, p))


@dataclass
class QmcResult:
    report: Report
    conditions: dict[str, bool]
    lam: int
    gamma: int

    @property
    def is_quasi_multiplicative(self) -> bool:
        return all(self.conditions.values())


def check_qmc_equivalence(field_: FiniteField, phi: np.ndarray) -> QmcResult:
    """Evaluate the five equivalent characterizations of a right
    quasi-multiplicative bijection, each independently and exhaustively.

    The characterizations must agree (that is the lemma); disagreement is
    reported as a failed agreement check, never papered over.
    """
    phi = np.asarray(phi, dtype=np.int64)
    M = field_.mul
    m = field_.m
    if not is_permutation(phi, m):
        raise DomainError("phi must be a bijection of the carrier")
    phi_inv = np.argsort(phi)
    lam = int(phi[field_.one])
    gamma = int(phi_inv[field_.one])
    invertible = lam != field_.zero and gamma != field_.zero

    conds: dict[str, bool] = {}
    if not invertible:
        conds = {f"condition_{i}": False for i in range(1, 6)}
    else:
        # 1: phi = (mult bijection) * lam, with the candidate forced as phi/lam
        cand = M[phi, field_.inv[lam]]
        conds["condition_1"] = is_mult_bijection(field_, cand) and bool(
            np.array_equal(M[cand, lam], phi)
        )
        # 2: phi(x y) = phi(x) phi(gamma y)
        pg = phi[M[gamma]]
        conds["condition_2"] = bool(np.array_equal(phi[M], M[np.ix_(phi, pg)]))
        # 3: phi(x y) = phi(x gamma) phi(y)
        pmg = phi[M[:, gamma]]
        conds["condition_3"] = bool(np.array_equal(phi[M], M[np.ix_(pmg, phi)]))
        # 4: x -> phi(x gamma) is a multiplicative bijection
        conds["condition_4"] = is_mult_bijection(field_, phi[M[:, gamma]])
        # 5: x -> phi(gamma x) is a multiplicative bijection
        conds["condition_5"] = is_mult_bijection(field_, phi[M[gamma]])

    rep = Report("quasi-multiplicative equivalence")
    for name, ok in conds.items():
        rep.add(name, True, detail=f"holds: {ok}")
    agree = len(set(conds.values())) == 1
    rep.add("conditions_agree", agree, witness=None if agree else conds)
    rep.counts["pairs"] = m * m
    return QmcResult(rep, conds, lam, gamma)


@dataclass(frozen=True)
class QuasiMultSpec:
    """A right quasi-multiplicative endobijection, as (mult part, lambda)."""

    field_: FiniteField
    phi_mult: np.ndarray
    lam: int

    def __post_init__(self):
        phi_mult = np.array(self.phi_mult, dtype=np.int64)  # the caller keeps its array
        if not is_mult_bijection(self.field_, phi_mult):
            raise DomainError("phi_mult is not a multiplicative bijection")
        if not 0 < self.lam < self.field_.m:
            raise DomainError(
                f"lambda must index an invertible element (1..{self.field_.m - 1}), got {self.lam}"
            )
        phi_mult.flags.writeable = False
        object.__setattr__(self, "phi_mult", phi_mult)

    def as_table(self) -> np.ndarray:
        return self.field_.mul[self.phi_mult, self.lam]


def qm_compose(f: QuasiMultSpec, g: QuasiMultSpec) -> QuasiMultSpec:
    """f after g, verified extensionally against pointwise composition."""
    fld = f.field_
    out = QuasiMultSpec(fld, f.phi_mult[g.phi_mult], int(fld.mul[f.phi_mult[g.lam], f.lam]))
    if not np.array_equal(out.as_table(), f.as_table()[g.as_table()]):
        raise IntegrityError("composition formula disagrees with pointwise composition")
    return out


def qm_invert(f: QuasiMultSpec) -> QuasiMultSpec:
    """Group inverse, verified extensionally."""
    fld = f.field_
    phi_inv = np.argsort(f.phi_mult)
    out = QuasiMultSpec(fld, phi_inv, int(phi_inv[fld.inv[f.lam]]))
    if not np.array_equal(out.as_table()[f.as_table()], np.arange(fld.m)):
        raise IntegrityError("inverse formula disagrees with pointwise inverse")
    return out


def eval_epsilon(alpha: complex, z: complex, *, conjugate: bool = False) -> complex:
    """epsilon_alpha(z) = r**alpha * s for z = r*s, r > 0, |s| = 1.

    The conjugate flag gives the mirrored family r**alpha * conj(s). Real
    alpha restricted to real z recovers the signed power map on R. Purely
    imaginary alpha collapses the modulus and is rejected.
    """
    alpha = complex(alpha)
    if alpha.real == 0:
        raise DomainError("alpha must have nonzero real part")
    z = complex(z)
    if z == 0:
        return 0j
    r = abs(z)
    s = z / r
    w = cmath.exp(alpha * math.log(r))
    return w * (s.conjugate() if conjugate else s)


def epsilon_inverse_param(alpha: complex, *, conjugate: bool = False) -> complex:
    """The beta with epsilon_beta inverting epsilon_alpha (same flag).

    Plain family: beta = (1 - i Im(alpha)) / Re(alpha). The conjugated
    family flips the sign of the imaginary part.
    """
    alpha = complex(alpha)
    if alpha.real == 0:
        raise DomainError("alpha must have nonzero real part")
    im = alpha.imag
    return complex(1, im if conjugate else -im) / alpha.real
