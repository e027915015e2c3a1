"""The exotic addition on Q, and the verifiers of the field it makes.

With sigma the prime-correspondence bijection from maps, the exotic sum
alpha (+) beta = sigma^-1(sigma(alpha) + sigma(beta)) pulls the addition of
the quadratic field back to Q. It keeps the native multiplication (sigma is
multiplicative) yet makes Q a field isomorphic to the quadratic one. That
addition is exotic_add_q; check_ringisom and verify_exotic_field_axioms
check the isomorphism and the field axioms on seeded samples.

Everything here is exact. The exotic sum factors each operand once over Z,
takes out their common factor gamma (multiplication distributes over the
exotic sum, so gamma*x (+) gamma*y = gamma*(x (+) y)), images each operand
prime once, walking alpha's primes and then the rest of beta's, and factors
in Z[w] only the image sum of the two coprime integer cofactors, which has
no denominator. Operand sizes are guarded by ceilings, and overruns raise
ResourceLimitError rather than churn.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .errors import DomainError, ResourceLimitError
from .maps import (
    PrimeCorrespondence,
    default_correspondence,
    sigma_apply,
    sigma_invert,
)
from .quadratic import QuadInt, QuadRat, _mul, _norm, _pow
from .rationals import Rat, _as_rat, factor_rat
from .report import Report, _skips_outweigh, redraw

__all__ = [
    "exotic_add_q",
    "StructureOps",
    "check_ringisom",
    "find_add_witness",
    "verify_exotic_field_axioms",
    "check_norm_ceiling",
    "DEFAULT_SUM_NORM_CEILING",
]

DEFAULT_SUM_NORM_CEILING = 10**12
ASSOC_POOL_HEIGHT = 12


def check_norm_ceiling(n: Fraction, norm_ceiling: int, what: str = "sum image") -> None:
    """Refuse an element of norm n before factoring it when the numerator
    or denominator of n exceeds norm_ceiling; factoring a large semiprime
    norm has no useful time bound."""
    if abs(n.numerator) > norm_ceiling or n.denominator > norm_ceiling:
        raise ResourceLimitError(
            f"{what} has norm {n}, above the ceiling {norm_ceiling}",
            ceiling=norm_ceiling,
        )


def exotic_add_q(
    alpha: Rat | int,
    beta: Rat | int,
    *,
    corr: PrimeCorrespondence | None = None,
    norm_ceiling: int = DEFAULT_SUM_NORM_CEILING,
) -> Fraction:
    """The exotic sum: sigma^-1(sigma(alpha) + sigma(beta)), exactly.

    Each operand is factored once. Their common factor gamma, with
    v_p(gamma) = min(v_p(alpha), v_p(beta)), leaves coprime integer
    cofactors x and y, whose images sum to S = sigma(x) + sigma(y) in Z[w].
    Two walks image each operand prime once, first alpha's primes, each
    looked up once in beta's, then the primes of beta that alpha lacks, and
    multiply that image into N(sigma(gamma)) and into sigma(x) or sigma(y)
    on the spot. Since sigma is multiplicative, the sum is
    gamma * sigma^-1(S), and only S is factored in Z[w], and
    gamma * sigma^-1(S) is built as one Fraction from their terms. The
    ceiling gate sees the norm of the whole image sum,
    N(sigma(gamma)) * N(S), in lowest terms, and builds it as a Fraction
    only when its unreduced terms pass the ceiling.

    Raises ResourceLimitError when the image sum is too large to factor
    (norm over norm_ceiling) or involves a prime outside the extendable
    correspondence range; the exception carries the ceiling hit.
    """
    corr = corr if corr is not None else default_correspondence()
    a = alpha if isinstance(alpha, Fraction) else _as_rat(alpha)
    b = beta if isinstance(beta, Fraction) else _as_rat(beta)
    if not a:
        return b
    if not b:
        return a
    fa, fb = factor_rat(a), factor_rat(b)
    # gamma, the norm of its image and sigma(x), sigma(y) in two walks, one
    # image per prime. Every operand prime is imaged before the zero test,
    # so a sum to 0 still refuses where sigma(alpha) or sigma(beta) would.
    g_num = g_den = n_num = n_den = 1
    xa, xb, ya, yb = fa.sign, 0, fb.sign, 0
    ea, eb, image = fa.exponents, fb.exponents, corr.image_of_prime
    for p, i in ea.items():
        j = eb.get(p, 0)
        pi = image(p)
        c, d = pi._a, pi._b
        k = i - j  # gamma keeps p**min(i, j); x keeps p**k if k > 0, y p**-k if k < 0
        m = j if k > 0 else i
        if m > 0:
            g_num *= p**m
            n_num *= _norm(c, d) ** m
        elif m < 0:
            g_den *= p**-m
            n_den *= _norm(c, d) ** -m
        if k > 0:
            if k > 1:
                c, d = _pow(c, d, k)
            xa, xb = _mul(xa, xb, c, d)
        elif k < 0:
            if k < -1:
                c, d = _pow(c, d, -k)
            ya, yb = _mul(ya, yb, c, d)
    for p, j in eb.items():  # beta's primes that alpha lacks, so i = 0 and k = -j
        if p in ea:
            continue
        pi = image(p)
        c, d = pi._a, pi._b
        if j > 0:  # y keeps p**j
            if j > 1:
                c, d = _pow(c, d, j)
            ya, yb = _mul(ya, yb, c, d)
        else:  # gamma keeps p**j, x keeps p**-j
            g_den *= p**-j
            n_den *= _norm(c, d) ** -j
            if j < -1:
                c, d = _pow(c, d, -j)
            xa, xb = _mul(xa, xb, c, d)
    sa, sb = xa + ya, xb + yb
    if sa == 0 and sb == 0:
        return Fraction(0)
    n_num *= _norm(sa, sb)
    if n_num > norm_ceiling or n_den > norm_ceiling:  # in lowest terms it may pass
        check_norm_ceiling(Fraction(n_num, n_den), norm_ceiling)
    r = sigma_invert(corr, QuadInt(sa, sb))
    if g_num == g_den == 1:
        return r
    return Fraction(g_num * r.numerator, g_den * r.denominator)


@dataclass(frozen=True)
class StructureOps:
    """Just enough of a near-ring to feed the isomorphism checker."""

    name: str
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]


def check_ringisom(
    phi: Callable[[Any], Any],
    phi_inv: Callable[[Any], Any],
    src: StructureOps,
    dst: StructureOps,
    sampler: Callable[[Any], Any],
    trials: int,
    *,
    rng,
) -> Report:
    """Evaluate three equivalent renderings of "phi is an isomorphism" on
    sampled pairs, each independently, and check the verdicts agree.

    1. phi respects both operations.
    2. phi respects multiplication, and src addition equals the
       phi-pullback of dst addition.
    3. phi respects addition, and src multiplication equals the
       phi-pullback of dst multiplication.

    The trials pairs are drawn through report.redraw: a pair that overruns
    a resource ceiling is skipped and redrawn, and the skip count lands in
    the report. Once the skips exceed trials the ResourceLimitError is
    raised, naming its ceiling. Each rendering keeps its first witness.
    Fewer than one trial is refused, since no pair would be checked.
    """
    if trials < 1:
        raise DomainError("the isomorphism check needs at least one trial")
    names = ("full_isomorphism", "multiplicative_and_induced_add", "additive_and_induced_mul")
    bad: dict[str, tuple] = {}

    def check(a, b):
        fa, fb = phi(a), phi(b)
        sa, sm = src.add(a, b), src.mul(a, b)
        da, dm = dst.add(fa, fb), dst.mul(fa, fb)
        c1 = phi(sa) == da and phi(sm) == dm
        c2 = phi(sm) == dm and sa == phi_inv(da)
        c3 = phi(sa) == da and sm == phi_inv(dm)
        for name, ok in zip(names, (c1, c2, c3)):
            if not ok:
                bad.setdefault(name, (a, b))

    skipped = redraw(lambda: (sampler(rng), sampler(rng)), check, trials)
    rep = Report(f"isomorphism check: {src.name} -> {dst.name}")
    for name in names:
        rep.add(name, name not in bad, witness=bad.get(name))
    verdicts = {i: name not in bad for i, name in enumerate(names, 1)}
    agree = len(set(verdicts.values())) == 1
    rep.add("conditions_agree", agree, witness=None if agree else verdicts)
    rep.counts["pairs"] = trials
    rep.counts["skipped"] = skipped
    return rep


def find_add_witness(
    limit: int = 20, *, corr: PrimeCorrespondence | None = None
) -> tuple[int, int, Fraction, Fraction] | None:
    """First integer pair (by growing square rings, then lexicographic)
    where the exotic sum differs from the native one.

    Returns (a, b, exotic, native). Scan order is deterministic so reports
    are reproducible. A pair whose sum is refused at a resource ceiling is
    skipped, and None, which claims the sums agree on the whole scan, may
    not rest on more skipped pairs than checked ones: then the last
    refusal is raised, naming its ceiling. A limit below 1, which would
    scan nothing, is refused.
    """
    if limit < 1:
        raise DomainError(f"the witness scan needs a limit of at least 1, got {limit}")
    span = range(-limit, limit + 1)
    checked = skipped = 0
    for a, b in sorted(((a, b) for a in span for b in span if a and b),
                       key=lambda ab: (max(map(abs, ab)), ab)):
        try:
            got = exotic_add_q(a, b, corr=corr)
        except ResourceLimitError as err:
            refusal = err
            skipped += 1
            continue
        if got != a + b:
            return a, b, got, Fraction(a + b)
        checked += 1
    if _skips_outweigh(checked, skipped):
        raise refusal
    return None


def _rand_rat(rng, height: int) -> Fraction:
    return Fraction(int(rng.integers(-height, height + 1)), int(rng.integers(1, height + 1)))


def verify_exotic_field_axioms(
    *,
    trials: int = 1000,
    height: int = 10**4,
    seed: int = 0,
    corr: PrimeCorrespondence | None = None,
    norm_ceiling: int = DEFAULT_SUM_NORM_CEILING,
    floors: dict[str, int] | None = None,
) -> Report:
    """Field-axiom suite for (Q, exotic +, native *) on seeded random triples.

    The exotic operations make Q a field because sigma carries them onto
    the operations of the quadratic field, so the suite checks sigma itself:
    it is round-tripped on every sampled value, and, forward through
    factor_rat only, sigma(alpha * beta) = sigma(alpha) * sigma(beta) on
    every triple and sigma(alpha (+) beta) = sigma(alpha) + sigma(beta) on
    every materialized sum of two sampled operands. On top of that,
    identities are verified through full materialized exotic sums wherever
    the factorizations fit the resource ceilings; sums whose image leaves
    the correspondence range are counted as skips, not ignored. Each of the
    three materialized checks (commutativity, distributivity, associativity)
    goes through Report.add_sampled, so it fails when it skipped more
    samples than it checked, and floors, keyed by form, set how many times
    each must actually fire.
    Nested associativity is materialized on integers of height at most
    ASSOC_POOL_HEIGHT, where the intermediate sums stay factorable. Fewer
    than one trial, or a height below 1, is refused, since no verdict
    could rest on it.
    """
    if trials < 1:
        raise DomainError(f"the field-axiom suite needs at least one trial, got {trials}")
    if height < 1:
        raise DomainError(f"the field-axiom suite needs a height of at least 1, got {height}")
    corr = corr if corr is not None else default_correspondence()
    floors = dict(floors or {})
    rng = np.random.default_rng(seed)
    triples = [tuple(_rand_rat(rng, height) for _ in range(3)) for _ in range(trials)]

    rep = Report("exotic field axioms on Q")
    rep.counts["trials"] = trials

    def additive(total: Fraction, image: QuadRat) -> bool:
        # every prime of a true sum is paired, so a refusal here is a failure
        try:
            return sigma_apply(corr, total) == image
        except ResourceLimitError:
            return False

    # sigma is checked on every triple. Zero, negation and the doubling
    # identity never leave the correspondence range at these heights; the
    # cross-order, distributivity and nested associativity checks can, so
    # they are counted by form and carry floors. bad keeps each check's
    # first witness, keyed by check name (by form for the materialized ones).
    two_box = exotic_add_q(1, 1, corr=corr)
    bad: dict[str, Any] = {}
    hits: Counter[str] = Counter()
    skips: Counter[str] = Counter()
    for alpha, beta, gamma in triples:
        A, B, C = (sigma_apply(corr, x) for x in (alpha, beta, gamma))
        if sigma_invert(corr, A) != alpha:
            bad.setdefault("sigma_round_trip", alpha)
        if sigma_apply(corr, alpha * beta) != A * B:
            bad.setdefault("sigma_multiplicative", (alpha, beta))
        if exotic_add_q(alpha, 0, corr=corr) != alpha:
            bad.setdefault("zero_element", alpha)
        if exotic_add_q(alpha, -alpha, corr=corr) != 0:
            bad.setdefault("additive_inverse", alpha)
        if exotic_add_q(alpha, alpha, corr=corr) != two_box * alpha:
            bad.setdefault("doubling_identity", alpha)
        try:
            lhs = exotic_add_q(alpha, beta, corr=corr, norm_ceiling=norm_ceiling)
        except ResourceLimitError:
            skips.update(("commutativity", "distributivity"))
            continue
        hits["commutativity"] += 1
        if not additive(lhs, A + B):
            bad.setdefault("sigma_additive", (alpha, beta))
        if exotic_add_q(beta, alpha, corr=corr, norm_ceiling=norm_ceiling) != lhs:
            bad.setdefault("commutativity", (alpha, beta))
        if gamma == 0:
            continue
        try:
            rhs = exotic_add_q(
                gamma * alpha, gamma * beta, corr=corr, norm_ceiling=norm_ceiling
            )
        except ResourceLimitError:
            skips["distributivity"] += 1
            continue
        hits["distributivity"] += 1
        if not additive(rhs, C * A + C * B):
            bad.setdefault("sigma_additive", (gamma * alpha, gamma * beta))
        if gamma * lhs != rhs:
            bad.setdefault("distributivity", (alpha, beta, gamma))

    for _ in range(trials):
        t = tuple(
            Fraction(int(rng.integers(-ASSOC_POOL_HEIGHT, ASSOC_POOL_HEIGHT + 1)))
            for _ in range(3)
        )
        try:
            left = exotic_add_q(exotic_add_q(t[0], t[1], corr=corr), t[2], corr=corr)
            right = exotic_add_q(t[0], exotic_add_q(t[1], t[2], corr=corr), corr=corr)
        except ResourceLimitError:
            skips["associativity"] += 1
            continue
        hits["associativity"] += 1
        if left != right:
            bad.setdefault("associativity", t)

    for name in ("sigma_round_trip", "sigma_multiplicative", "zero_element",
                 "additive_inverse", "doubling_identity", "sigma_additive"):
        rep.add(name, name not in bad, witness=bad.get(name))
    for form in ("commutativity", "distributivity", "associativity"):
        rep.add_sampled(
            f"{form}_materialized", bad.get(form), checked=hits[form], skipped=skips[form]
        )
        rep.counts[f"materialized_{form}"] = hits[form]
        rep.counts[f"skipped_{form}"] = skips[form]

    for name, floor in floors.items():
        have = rep.counts.get(f"materialized_{name}", 0)
        rep.add(f"floor_{name}", have >= floor, detail=f"{have} >= {floor}")
    return rep
