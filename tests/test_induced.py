"""Tests for the exotic addition on Q, its pullback oracle, and the
isomorphism checker."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfields import induced
from nearfields.errors import DomainError, ResourceLimitError
from nearfields.finite import make_field
from nearfields.induced import (
    DEFAULT_SUM_NORM_CEILING,
    StructureOps,
    check_norm_ceiling,
    check_ringisom,
    exotic_add_q,
    find_add_witness,
    verify_exotic_field_axioms,
)
from nearfields.maps import (
    EndoBijectionSpecQ,
    PrimeCorrespondence,
    default_correspondence,
    endo_q_apply,
    sigma_apply,
    sigma_invert,
)


def test_exotic_add_frozen_values():
    assert exotic_add_q(1, 1) == 2
    assert exotic_add_q(1, 2) == 13
    assert exotic_add_q(Fraction(1, 3), Fraction(1, 5)) == Fraction(31, 15)
    assert exotic_add_q(Fraction(-7, 2), 0) == Fraction(-7, 2)
    assert exotic_add_q(0, Fraction(9, 4)) == Fraction(9, 4)
    assert exotic_add_q(1, -1) == 0


def test_exotic_add_refuses_float_operands():
    # exotic_add_q(0.1, 1) was refused at the sum-norm ceiling with a
    # 34-digit norm, having taken 0.1 as a binary fraction
    for a, b in ((0.1, 1), (1, 0.5), (2.0, 1)):
        with pytest.raises(TypeError):
            exotic_add_q(a, b)
    assert exotic_add_q(np.int64(1), np.int32(1)) == 2


def test_exotic_add_commutes_and_distributes_spot():
    pairs = [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(5)), (Fraction(-4, 3), Fraction(7, 5))]
    for a, b in pairs:
        s = exotic_add_q(a, b)
        assert exotic_add_q(b, a) == s
        for g in (Fraction(2), Fraction(-1, 3)):
            assert exotic_add_q(g * a, g * b) == g * s


def test_gamma_scaled_sums_come_out_in_lowest_terms():
    # gamma * sigma^-1(S) is built as one Fraction of the four terms, so it
    # must reduce when the cofactor sum shares primes with gamma.
    rng = np.random.default_rng(21)
    pairs = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(3)), (Fraction(1, 7), Fraction(-1, 2))]
    pairs += [
        (Fraction(int(rng.integers(-60, 61)) or 1, int(rng.integers(1, 40))),
         Fraction(int(rng.integers(-60, 61)) or 1, int(rng.integers(1, 40))))
        for _ in range(60)
    ]
    shared = 0
    for g in (Fraction(6, 35), Fraction(35, 6), Fraction(-10, 21)):
        for a, b in pairs:
            s = exotic_add_q(a, b)
            got = exotic_add_q(g * a, g * b)
            assert got == g * s, (g, a, b)
            assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0
            shared += math.gcd(s.numerator, g.denominator) > 1 or math.gcd(s.denominator, g.numerator) > 1
    assert shared >= 100, shared  # measured 137 of 189


def test_exotic_add_matches_sigma_pipeline():
    corr = default_correspondence()
    rng = np.random.default_rng(12)
    for _ in range(30):
        a = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 60)))
        b = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 60)))
        s = sigma_apply(corr, a) + sigma_apply(corr, b)
        want = Fraction(0) if s.is_zero() else sigma_invert(corr, s)
        assert exotic_add_q(a, b) == want


@pytest.mark.parametrize(
    "a, b, calls",
    [
        # gamma = 4/9 and the cofactor 6 share the primes 2 and 3
        (Fraction(4, 9), Fraction(8, 3), 2),
        # gamma = 6/175, cofactors 10 and 21: every prime on both sides
        (Fraction(12, 35), Fraction(18, 25), 4),
    ],
)
def test_exotic_add_images_each_operand_prime_once(a, b, calls):
    corr = PrimeCorrespondence()
    asked = []
    image = corr.image_of_prime

    def counted(p):
        asked.append(p)
        return image(p)

    corr.image_of_prime = counted
    assert exotic_add_q(a, b, corr=corr) == exotic_add_q(a, b)
    assert len(asked) == calls, asked


def test_exotic_add_norm_ceiling():
    with pytest.raises(ResourceLimitError) as exc:
        exotic_add_q(Fraction(9973, 2), Fraction(9967, 3), norm_ceiling=10)
    assert exc.value.ceiling == 10


def test_gamma_norm_gate_multiplies_the_norms_of_its_images():
    # gamma = 15; 3 and 5 image to the two canonical primes of norm 5, so
    # N(sigma(gamma)) = 25, and N(sigma(1) + sigma(2)) = 9: the gate sees 225.
    # Keyed by image norm, the two images would collapse into one entry.
    corr = default_correspondence()
    assert {corr.image_of_prime(p).norm() for p in (3, 5)} == {5}
    with pytest.raises(ResourceLimitError, match="224") as exc:
        exotic_add_q(15, 30, norm_ceiling=224)
    assert exc.value.ceiling == 224
    assert exotic_add_q(15, 30, norm_ceiling=225) == 195


def test_norm_gate_compares_the_norm_in_lowest_terms():
    # gamma = 1/2 images to the inert 2, of norm 4, and N(sigma(1) +
    # sigma(-37)) = 28: the gate sees 28/4 = 7, not its unreduced terms.
    a, b = Fraction(1, 2), Fraction(-37, 2)
    assert exotic_add_q(a, b, norm_ceiling=7) == -7
    with pytest.raises(ResourceLimitError) as exc:
        exotic_add_q(a, b, norm_ceiling=6)
    assert exc.value.ceiling == 6
    assert str(exc.value) == "sum image has norm 7, above the ceiling 6"


# Primes that operands share through their common factor gamma.
_SHARED = (2, 3, 5, 7, 11, 13, 19)


@st.composite
def _gamma_pairs(draw, height):
    """(gamma*x, gamma*y). gamma is a product of up to three shared primes
    over another such product, or over 1 when x and gamma are integers; y
    is a fresh fraction, an integer, x or -x."""
    shared = st.lists(st.sampled_from(_SHARED), max_size=3).map(math.prod)
    nonzero = st.integers(-height, height).filter(bool)
    integral = draw(st.booleans())
    gamma = Fraction(draw(shared), 1 if integral else draw(shared))
    x = Fraction(draw(nonzero), 1 if integral else draw(st.integers(1, height)))
    y = draw(
        st.one_of(
            st.builds(Fraction, nonzero, st.integers(1, height)),
            st.builds(Fraction, nonzero),
            st.just(x),
            st.just(-x),
        )
    )
    return gamma * x, gamma * y


def _outcome(call):
    """The sum call() returns, or the ceiling its refusal names."""
    try:
        return call()
    except ResourceLimitError as err:
        return ("refused", err.ceiling)


def _pullback_sum(a, b, corr, norm_ceiling):
    """sigma^-1(sigma(a) + sigma(b)), factoring the whole image sum."""
    s = sigma_apply(corr, a) + sigma_apply(corr, b)
    check_norm_ceiling(s.norm(), norm_ceiling)
    return sigma_invert(corr, s)


def _both_paths(a, b, corr, norm_ceiling):
    """a (+) b by exotic_add_q and by the oracle _pullback_sum."""
    return (
        _outcome(lambda: exotic_add_q(a, b, corr=corr, norm_ceiling=norm_ceiling)),
        _outcome(lambda: _pullback_sum(a, b, corr, norm_ceiling)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_gamma_pairs(60))
def test_exotic_add_matches_the_pullback_oracle(pair):
    got, want = _both_paths(*pair, default_correspondence(), DEFAULT_SUM_NORM_CEILING)
    assert got == want


@pytest.mark.parametrize("side", [1, -1], ids=["numerator", "denominator"])
@pytest.mark.parametrize("gap", range(-5, 6))
def test_exotic_add_matches_the_oracle_at_each_exponent_gap(gap, side):
    # One shared prime, 3, with exponents i and j = i - gap on the two
    # operands, so either operand keeps up to 3**5; opposite signs and the
    # cofactors 2 and 5 tell sigma(x) + sigma(y) from sigma(y) + sigma(x).
    i, j = 1 + max(gap, 0), 1 + max(-gap, 0)
    a = 2 * Fraction(3) ** (side * i)
    b = -5 * Fraction(3) ** (side * j)
    got, want = _both_paths(a, b, default_correspondence(), DEFAULT_SUM_NORM_CEILING)
    assert isinstance(got, Fraction)
    assert got == want


# A correspondence small enough, and a sum-norm ceiling low enough, that
# both refuse often. Its 33 pairs image every prime up to 137.
_SMALL_MAX_NORM = 150
_SMALL_CEILING = 2000
_SMALL_CORR = PrimeCorrespondence(max_norm=_SMALL_MAX_NORM)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_gamma_pairs(30))
def test_exotic_add_refuses_like_the_oracle_on_a_small_correspondence(pair):
    got, want = _both_paths(*pair, _SMALL_CORR, _SMALL_CEILING)
    assert got == want


def test_exotic_add_to_zero_refuses_an_operand_past_the_correspondence():
    # 139 is the 34th prime and has no image among the 33 pairs, so the
    # sum refuses at max_norm even though the image sum would be 0
    a = Fraction(139, 2)
    got, want = _both_paths(a, -a, _SMALL_CORR, _SMALL_CEILING)
    assert got == want == ("refused", _SMALL_MAX_NORM)


def _canonical_norm_above(p):
    """Norm of a canonical prime over p: p when p = 19 or -19 is a square
    mod p (Euler's criterion), p**2 when p is inert."""
    splits = p == 19 or (p != 2 and pow(-19 % p, (p - 1) // 2, p) == 1)
    return p if splits else p * p


def _justified_ceiling(a, b):
    """The ceiling a refusal of a (+) b must name, or None for a sum: the
    sum-norm ceiling when the image norm is past it, else max_norm when
    some prime of the image norm has a canonical prime past max_norm."""
    image = sigma_apply(_SMALL_CORR, a) + sigma_apply(_SMALL_CORR, b)
    if image.is_zero():
        return None
    norm = image.norm()
    if abs(norm.numerator) > _SMALL_CEILING or norm.denominator > _SMALL_CEILING:
        return _SMALL_CEILING
    primes = sympy.factorint(image.num.norm() * image.den)
    if max((_canonical_norm_above(p) for p in primes), default=1) > _SMALL_MAX_NORM:
        return _SMALL_MAX_NORM
    return None


# Operands whose images the small correspondence holds, with numerators
# kept away from 0 so that image norms reach both ceilings.
_numerator = st.builds(lambda n, s: n * s, st.integers(16, 130), st.sampled_from([1, -1]))
_operand = st.builds(Fraction, _numerator, st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_operand, _operand)
def test_exotic_add_refuses_exactly_past_a_ceiling(a, b):
    got = _outcome(lambda: exotic_add_q(a, b, corr=_SMALL_CORR, norm_ceiling=_SMALL_CEILING))
    ceiling = _justified_ceiling(a, b)
    if ceiling is None:
        assert isinstance(got, Fraction)
    else:
        assert got == ("refused", ceiling)


def test_find_add_witness():
    got = find_add_witness(20)
    assert got is not None
    a, b, exotic, native = got
    assert max(abs(a), abs(b)) <= 20
    assert exotic != native
    assert exotic_add_q(a, b) == exotic
    assert a + b == native
    # deterministic scan: same call, same witness
    assert find_add_witness(20) == got
    assert got == (-2, -1, -13, -3)
    assert find_add_witness(1) is None


def test_find_add_witness_refuses_rather_than_pass_on_skipped_pairs():
    # On a correspondence of ceiling 4, the scan to radius 20 checks 36
    # sums, all native, and skips 1,564, so None would claim agreement on a
    # scan that was mostly not made. To radius 2 it checks 12 and skips 4.
    corr = PrimeCorrespondence(max_norm=4)
    with pytest.raises(ResourceLimitError) as err:
        find_add_witness(20, corr=corr)
    assert err.value.ceiling == 4
    assert find_add_witness(2, corr=corr) is None


def test_empty_samples_are_refused(monkeypatch):
    # find_add_witness(0) returned None, "the sums agree", having checked
    # nothing; trials=0 gave a passing report, and height=0 leaked numpy's
    # "low >= high" ValueError
    monkeypatch.setattr(induced, "exotic_add_q", None)  # refused before any sum
    for limit in (0, -1):
        with pytest.raises(DomainError, match="limit of at least 1"):
            find_add_witness(limit)
    for kwargs in ({"trials": 0}, {"trials": -3}):
        with pytest.raises(DomainError, match="at least one trial"):
            verify_exotic_field_axioms(**kwargs)
    for height in (0, -1):
        with pytest.raises(DomainError, match="height of at least 1"):
            verify_exotic_field_axioms(height=height)
    monkeypatch.undo()
    # seed 0 draws the one gamma as 0, which excludes the one distributivity
    # sample before it is checked or skipped: that check has no verdict
    rep = verify_exotic_field_axioms(trials=1, height=1, seed=0)
    assert rep.counts["trials"] == 1
    assert [c.name for c in rep.failures()] == ["distributivity_materialized"]
    assert rep.counts["materialized_distributivity"] == rep.counts["skipped_distributivity"] == 0


@pytest.mark.parametrize("refused, ok", [(8, True), (10, False)])
def test_find_add_witness_skip_rule_boundary(monkeypatch, refused, ok):
    # The 16 pairs up to radius 2 with the native sum, the first `refused`
    # of them refused: None stands on 8 checked and 8 skipped, not on 6
    # and 10. (Skipped minus checked is even, as the pair count is.)
    seen = []

    def scripted(a, b, corr=None):
        seen.append((a, b))
        if len(seen) <= refused:
            raise ResourceLimitError("scripted refusal", ceiling=len(seen))
        return Fraction(a + b)

    monkeypatch.setattr(induced, "exotic_add_q", scripted)
    if ok:
        assert find_add_witness(2) is None
    else:
        with pytest.raises(ResourceLimitError) as err:
            find_add_witness(2)
        assert err.value.ceiling == refused
    assert len(seen) == 16


def _rational_sampler(height):
    def sample(rng):
        return Fraction(int(rng.integers(-height, height + 1)), int(rng.integers(1, height + 1)))

    return sample


def test_ringisom_sigma_all_true():
    corr = default_correspondence()
    src = StructureOps("Q exotic", add=exotic_add_q, mul=lambda a, b: a * b)
    dst = StructureOps("quadratic field", add=lambda x, y: x + y, mul=lambda x, y: x * y)
    rep = check_ringisom(
        lambda q: sigma_apply(corr, q),
        lambda x: sigma_invert(corr, x),
        src,
        dst,
        _rational_sampler(60),
        60,
        rng=np.random.default_rng(3),
    )
    assert rep.ok, rep.failures()
    assert rep.counts["pairs"] == 60


def test_ringisom_refuses_rather_than_pass_on_skipped_pairs():
    # At sum-norm ceiling 1 nearly every pair is refused, so the skips
    # overtake the 50 trials and the refusal propagates.
    corr = default_correspondence()
    src = StructureOps(
        "Q exotic", add=lambda a, b: exotic_add_q(a, b, norm_ceiling=1), mul=lambda a, b: a * b
    )
    dst = StructureOps("quadratic field", add=lambda x, y: x + y, mul=lambda x, y: x * y)
    with pytest.raises(ResourceLimitError) as err:
        check_ringisom(
            lambda q: sigma_apply(corr, q),
            lambda x: sigma_invert(corr, x),
            src,
            dst,
            _rational_sampler(60),
            50,
            rng=np.random.default_rng(1),
        )
    assert err.value.ceiling == 1


def test_ringisom_identity_all_false():
    src = StructureOps("Q native", add=lambda a, b: a + b, mul=lambda a, b: a * b)
    dst = StructureOps("Q exotic", add=exotic_add_q, mul=lambda a, b: a * b)
    rep = check_ringisom(
        lambda q: q,
        lambda q: q,
        src,
        dst,
        _rational_sampler(40),
        80,
        rng=np.random.default_rng(4),
    )
    names = {c.name: c for c in rep.checks}
    for key in ("full_isomorphism", "multiplicative_and_induced_add", "additive_and_induced_mul"):
        assert not names[key].ok
        # the first pair drawn already fails, and each rendering keeps it
        assert names[key].witness == (Fraction(9, 19), Fraction(31, 21))
    assert names["conditions_agree"].ok


def test_ringisom_redraws_refused_pairs():
    # At sum-norm ceiling 100, height-12 pairs of seed 0 are refused 10
    # times on the way to 20 checked ones; each is redrawn and counted.
    corr = default_correspondence()
    src = StructureOps(
        "Q exotic", add=lambda a, b: exotic_add_q(a, b, norm_ceiling=100), mul=lambda a, b: a * b
    )
    dst = StructureOps("quadratic field", add=lambda x, y: x + y, mul=lambda x, y: x * y)
    rep = check_ringisom(
        lambda q: sigma_apply(corr, q),
        lambda x: sigma_invert(corr, x),
        src,
        dst,
        _rational_sampler(12),
        20,
        rng=np.random.default_rng(0),
    )
    assert rep.ok, rep.failures()
    assert rep.counts == {"pairs": 20, "skipped": 10}
    # no trial would check no pair, so it is refused, not passed
    with pytest.raises(DomainError):
        check_ringisom(
            lambda q: q, lambda q: q, src, src, _rational_sampler(12), 0, rng=np.random.default_rng(0)
        )


def test_ringisom_frobenius_all_true():
    F = make_field(3, 2)
    frob = F.power_table(3)
    ops = StructureOps("F9", add=lambda a, b: int(F.add[a, b]), mul=lambda a, b: int(F.mul[a, b]))
    rep = check_ringisom(
        lambda i: int(frob[i]),
        lambda i: int(np.argsort(frob)[i]),
        ops,
        ops,
        lambda rng: int(rng.integers(0, 9)),
        120,
        rng=np.random.default_rng(5),
    )
    assert rep.ok, rep.failures()


def test_field_axiom_suite_small_run():
    rep = verify_exotic_field_axioms(
        trials=60,
        height=500,
        seed=7,
        floors={"commutativity": 40, "distributivity": 30, "associativity": 40},
    )
    assert rep.ok, rep.failures()
    assert rep.counts["trials"] == 60
    assert rep.counts["materialized_commutativity"] >= 40


def test_field_axiom_suite_fails_on_a_wrong_exotic_sum(monkeypatch):
    # Both substitutes are field additions with the native product, so
    # every axiom holds for them; only sigma's additivity tells them apart.
    real = exotic_add_q
    swap = EndoBijectionSpecQ(perm={2: 3, 3: 2})
    twist = lambda q: endo_q_apply(swap, q)  # noqa: E731
    substitutes = {
        "native": lambda a, b, **kw: Fraction(a) + Fraction(b),
        "twisted": lambda a, b, **kw: twist(real(twist(a), twist(b), **kw)),
    }
    assert substitutes["twisted"](1, 2) == 5 and real(1, 2) == 13
    for name, add in substitutes.items():
        monkeypatch.setattr(induced, "exotic_add_q", add)
        rep = verify_exotic_field_axioms(trials=300, seed=0)
        assert [c.name for c in rep.failures()] == ["sigma_additive"], name
    monkeypatch.setattr(induced, "exotic_add_q", real)
    assert verify_exotic_field_axioms(trials=300, seed=0).ok


def test_field_axiom_suite_fails_when_most_sums_are_skipped():
    # At sum-norm ceiling 1 the cross-order and distributivity re-checks
    # skip nearly every triple; nested associativity keeps its own ceiling.
    rep = verify_exotic_field_axioms(trials=200, norm_ceiling=1)
    assert [c.name for c in rep.failures()] == [
        "commutativity_materialized",
        "distributivity_materialized",
    ]
    assert rep.counts["skipped_commutativity"] > rep.counts["materialized_commutativity"]
    assert rep.counts["skipped_distributivity"] > rep.counts["materialized_distributivity"]
    # On a correspondence capped at norm 10 the nested sums of the
    # associativity pool mostly need primes past it.
    rep = verify_exotic_field_axioms(
        trials=100, height=1, corr=PrimeCorrespondence(max_norm=10)
    )
    assert [c.name for c in rep.failures()] == ["associativity_materialized"]
    assert rep.counts["skipped_associativity"] > rep.counts["materialized_associativity"]
