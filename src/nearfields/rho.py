"""The near-field-addition-map calculus.

An addition on a scalar group is recoverable from the single unary map
rho(alpha) = 1 + alpha: for nonzero alpha the sum is
alpha * rho(beta / alpha), and rho itself is pinned down by four axioms
(identity, inverse, abelian, associative). This module hosts rho maps over
both finite fields and Q, each evaluated through one function, the
round trip between rho and its addition, and the characteristic map
chi(n) = sgn(n) * rho^|n|(0) with its prime subfield.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .errors import DomainError, ResourceLimitError
from .finite import FiniteField, _first_repeat
from .rationals import is_prime
from .report import Report, redraw

__all__ = [
    "Carrier",
    "field_carrier",
    "rational_carrier",
    "RhoMap",
    "rho_from_add",
    "add_from_rho",
    "verify_rho_axioms",
    "CharMapResult",
    "char_map",
]

# char_map checks chi on every in-range pair when there are at most this
# many, and on a seeded sample of this many otherwise.
RING_HOM_CAP = 4000
# char_map draws its pairs by index, so only the chi table (2 * bound + 1
# values) grows with the bound; it refuses a bound above this before
# evaluating rho (native + takes about a second at 10**5).
CHAR_MAP_MAX_BOUND = 100_000


@dataclass(frozen=True)
class Carrier:
    """A scalar group: multiplication with 0, 1, -1, inverses, quotients,
    negation.

    Finite carriers list their elements (table indices); infinite ones set
    elements to None and rely on samplers supplied at check time. The
    quotient div(beta, alpha) is alpha**-1 * beta, the t with alpha * t =
    beta; field_carrier's beta * alpha**-1 is the same value on a field.
    """

    name: str
    zero: Any
    one: Any
    minus_one: Any
    mul: Callable[[Any, Any], Any]
    inv: Callable[[Any], Any]
    div: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    elements: tuple | None = None

    @property
    def is_finite(self) -> bool:
        return self.elements is not None


def field_carrier(field: FiniteField) -> Carrier:
    return Carrier(
        name=f"F{field.m}",
        zero=field.zero,
        one=field.one,
        minus_one=field.minus_one,
        mul=lambda a, b: int(field.mul[a, b]),
        inv=lambda a: int(field.inv[a]),
        div=lambda a, b: int(field.mul[a, field.inv[b]]),
        neg=lambda a: int(field.neg[a]),
        elements=tuple(range(field.m)),
    )


def rational_carrier() -> Carrier:
    return Carrier(
        name="Q",
        zero=Fraction(0),
        one=Fraction(1),
        minus_one=Fraction(-1),
        mul=operator.mul,
        inv=lambda a: 1 / a,
        div=operator.truediv,
        neg=operator.neg,
    )


@dataclass(frozen=True)
class RhoMap:
    """rho together with its carrier, evaluated through fn on every carrier."""

    carrier: Carrier
    fn: Callable[[Any], Any]

    def __call__(self, alpha):
        return self.fn(alpha)


def rho_from_add(carrier: Carrier, add: Callable[[Any, Any], Any]) -> RhoMap:
    """rho(alpha) = 1 + alpha, evaluated lazily through add."""
    return RhoMap(carrier, lambda alpha: add(carrier.one, alpha))


def add_from_rho(r: RhoMap) -> Callable[[Any, Any], Any]:
    """The addition alpha (+) beta = alpha * rho(beta / alpha), one quotient
    and one product per sum."""
    c = r.carrier

    def add(alpha, beta):
        if alpha == c.zero:
            return beta
        return c.mul(alpha, r(c.div(beta, alpha)))

    return add


def verify_rho_axioms(
    r: RhoMap,
    *,
    sampler=None,
    trials: int = 300,
    rng=None,
) -> Report:
    """The four defining properties, plus bijectivity with its inverse
    formula, plus commutativity of the induced addition.

    Commutativity already follows from the four properties; it is checked
    anyway as a cheap cross-validation of the derivation. Each check fails
    exactly on its first witness: rho(0) for the identity, rho(-1) for the
    inverse, and for bijectivity the first element whose image leaves the
    carrier or repeats an earlier one's.

    A finite carrier is checked on every pair, and its bijectivity on every
    element. An infinite one is checked on trials sampled pairs through
    report.redraw: a pair that overruns a resource ceiling is skipped and
    redrawn, and once the skips exceed trials the ResourceLimitError is
    raised, naming its ceiling.
    """
    c = r.carrier
    if not c.is_finite and sampler is None:
        raise DomainError("infinite carriers need a sampler")
    if not c.is_finite and trials < 1:
        raise DomainError("infinite carriers need at least one trial")
    rep = Report(f"rho axioms on {c.name}")
    at_zero, at_minus_one = r(c.zero), r(c.minus_one)
    rep.holds("identity_property", None if at_zero == c.one else at_zero)
    rep.holds("inverse_property", None if at_minus_one == c.zero else at_minus_one)

    add = add_from_rho(r)
    bad: dict[str, Any] = {}

    def check(a, b):
        if a != c.zero and r(c.inv(a)) != c.mul(c.inv(a), r(a)):
            bad.setdefault("abelian_property", a)
        if a != c.zero and b != c.zero and "associative_property" not in bad:
            lhs = r(c.mul(a, r(b)))
            rhs = c.mul(a, r(c.mul(b, r(c.inv(c.mul(a, b))))))
            if lhs != rhs:
                bad["associative_property"] = (a, b)
        if r(c.neg(r(c.neg(a)))) != a:
            bad.setdefault("inverse_formula", a)
        if add(a, b) != add(b, a):
            bad.setdefault("induced_add_commutative", (a, b))

    if c.is_finite:
        for a in c.elements:
            for b in c.elements:
                check(a, b)
        pairs, skipped = len(c.elements) ** 2, 0
    else:
        pairs = trials
        skipped = redraw(lambda: (sampler(rng), sampler(rng)), check, trials)
    for name in ("abelian_property", "associative_property", "inverse_formula"):
        rep.holds(name, bad.get(name))
    rep.holds("induced_add_commutative", bad.get("induced_add_commutative"),
              "follows from the four properties; cross-checked anyway")
    if c.is_finite:  # a map of a finite set into itself is onto when it is one-to-one
        rep.holds("bijective", _first_repeat(map(r, c.elements), len(c.elements)))
    rep.counts["pairs"] = pairs
    rep.counts["skipped"] = skipped
    return rep


@dataclass
class CharMapResult:
    characteristic: int
    table: list[tuple[int, Any]]
    prime_subfield: tuple
    evidence_bounded: bool
    report: Report

    def chi(self, n: int):
        bound = self.table[-1][0]
        if n != int(n) or not -bound <= n <= bound:
            raise DomainError(f"{n} outside the tabulated range")
        return self.table[int(n) + bound][1]


def _checked_pairs(bound: int, mul: bool, rng) -> list[tuple[int, int]]:
    """The (n, m) in [-bound, bound]**2 with n + m (n * m if mul) in range,
    by n then m: all of them up to RING_HOM_CAP, else rng's draw of that
    many. Each row n is a run of m, so its end turns an index into (n, m)."""
    n = np.arange(-bound, bound + 1)
    half = bound // np.maximum(np.abs(n), 1)  # mul row n: |m| <= bound // |n|
    lo = -half if mul else np.maximum(-bound, -bound - n)
    lengths = 2 * half + 1 if mul else 2 * bound + 1 - np.abs(n)
    ends = np.cumsum(lengths)
    count = int(ends[-1])
    full = count <= RING_HOM_CAP
    idx = np.arange(count) if full else rng.choice(count, RING_HOM_CAP, replace=False)
    row = np.searchsorted(ends, idx, side="right")
    m = lo[row] + idx - (ends - lengths)[row]
    return list(zip(n[row].tolist(), m.tolist()))


def char_map(r: RhoMap, bound: int, *, seed: int = 0) -> CharMapResult:
    """Tabulate chi(n) = sgn(n) rho^|n|(0) for |n| <= bound and analyze it.

    The characteristic is the least n > 0 with chi(n) = 0 when one exists
    within the bound (characteristic_prime checks it), otherwise 0 with the
    evidence_bounded flag raised. chi is verified to be additive and
    multiplicative on the tabulated range, exhaustively when the number of
    in-range pairs is at most RING_HOM_CAP, on a seeded sample otherwise.
    A pair whose evaluation overruns a resource ceiling is skipped, and
    chi_additive or chi_multiplicative fails when its pairs have more
    skipped than checked.
    A bound above CHAR_MAP_MAX_BOUND = 10**5 raises ResourceLimitError
    before rho is evaluated; exotic + on Q refuses sooner, at the
    correspondence ceiling, once the bound reaches an inert prime > 7,071.
    Finite carriers additionally get the prime-subfield checks: the chi
    image is a commutative multiplicative subgroup distributing over the
    induced addition on both sides, and the field order is a power of the
    characteristic, when that is prime. A finite carrier with no vanishing
    chi(n) raises DomainError when the bound is below its size, and fails
    chi_vanishes_on_a_finite_carrier otherwise.
    """
    if bound < 2:
        raise DomainError("bound must be at least 2")
    if bound > CHAR_MAP_MAX_BOUND:
        raise ResourceLimitError(
            f"bound {bound} is above the ceiling {CHAR_MAP_MAX_BOUND}",
            ceiling=CHAR_MAP_MAX_BOUND,
        )
    c = r.carrier
    rep = Report(f"characteristic map on {c.name}")
    pos = [c.zero]
    for _ in range(bound):
        pos.append(r(pos[-1]))
    chi = {n: pos[n] for n in range(bound + 1)}
    chi.update({-n: c.neg(pos[n]) for n in range(1, bound + 1)})
    table = sorted(chi.items())

    characteristic = next((n for n in range(1, bound + 1) if pos[n] == c.zero), 0)
    if characteristic:
        rep.add("characteristic_prime", is_prime(characteristic), witness=characteristic)
    # Informational, kept for char_map_exotic_12.json: chi(0) starts the orbit.
    rep.add("chi_zero", chi[0] == c.zero)
    rep.holds("chi_one", None if chi[1] == c.one else chi[1])

    add = add_from_rho(r)
    rng = np.random.default_rng(seed)
    skips = 0
    for name, check, mul, op, combine in (
        ("add", "chi_additive", False, add, operator.add),
        ("mul", "chi_multiplicative", True, c.mul, operator.mul),
    ):
        pairs = _checked_pairs(bound, mul, rng)
        bad = None
        skipped = 0
        for n, m in pairs:
            try:
                if op(chi[n], chi[m]) != chi[combine(n, m)] and bad is None:
                    bad = (n, m)
            except ResourceLimitError:
                skipped += 1
        rep.add_sampled(check, bad, checked=len(pairs) - skipped, skipped=skipped)
        rep.counts[f"{name}_pairs"] = len(pairs)
        skips += skipped
    rep.counts["skipped"] = skips

    if c.is_finite and not is_prime(characteristic):  # no prime subfield to check
        if characteristic == 0:
            if bound < len(c.elements):
                raise DomainError(
                    f"no chi(n) vanishes for n <= {bound}; the characteristic "
                    f"of {c.name} may lie past the bound"
                )
            rep.add("chi_vanishes_on_a_finite_carrier", False, witness=bound)
        subfield, evidence_bounded = (), False
    elif c.is_finite:
        p = characteristic
        # Distinct: a repeat rho^i(0) = rho^j(0), i < j < p, reaches 0 before p.
        core = [chi[n] for n in range(p)]
        units = [x for x in core if x != c.zero]
        # A product leaving the core, else a unit with no inverse in it, else 1.
        outside = [(a, b) for a in units for b in units if c.mul(a, b) not in core]
        outside += [a for a in units if c.inv(a) not in units]
        outside += [] if c.one in units else [c.one]
        rep.holds("core_multiplicative_subgroup", outside[0] if outside else None)
        rep.holds("core_commutative",
                  next(((a, b) for a in units for b in units if c.mul(a, b) != c.mul(b, a)), None))
        def distributes(s, a, b):
            t = add(a, b)
            left = c.mul(s, t) == add(c.mul(s, a), c.mul(s, b))
            return left and c.mul(t, s) == add(c.mul(a, s), c.mul(b, s))

        triples = ((s, a, b) for s in core for a in c.elements for b in c.elements)
        bad = next((x for x in triples if not distributes(*x)), None)
        rep.holds("core_two_sided_distributive", bad)
        size = rest = len(c.elements)
        while rest % p == 0:
            rest //= p
        rep.holds("order_is_power_of_characteristic", None if size > 1 and rest == 1 else size)
        subfield = tuple(core)
        evidence_bounded = False
    else:
        subfield = tuple(v for _, v in table)
        evidence_bounded = characteristic == 0
        if characteristic == 0:
            # Informational, kept for char_map_exotic_12.json: no pos[n], n > 0, is 0.
            rep.add(
                "no_zero_in_bound",
                all(pos[n] != c.zero for n in range(1, bound + 1)),
                detail=f"characteristic 0 is evidence up to bound {bound}, not a proof",
            )
    rep.counts["bound"] = bound
    return CharMapResult(characteristic, table, subfield, evidence_bounded, rep)

