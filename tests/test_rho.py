"""Tests for the rho calculus: axioms, round trips and the characteristic
map."""

from __future__ import annotations

import dataclasses
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nearfields import rho as rho_module
from nearfields.errors import DomainError, ResourceLimitError
from nearfields.finite import addition_from_exponent, make_field
from nearfields.induced import exotic_add_q
from nearfields.rho import (
    CHAR_MAP_MAX_BOUND,
    RING_HOM_CAP,
    Carrier,
    RhoMap,
    add_from_rho,
    char_map,
    field_carrier,
    rational_carrier,
    rho_from_add,
    verify_rho_axioms,
)
from test_finite_complete import _dickson_9

# chi on (Q, exotic +) for n = 1..12, frozen from the sigma pipeline and
# checked by hand against the correspondence prefix: 5 = -pi2 pi3 gives
# chi(5) = -(3*5), 7 = -pi4 pi5 gives -(7*11), 11 = -pi7 pi8 gives -(17*19).
CHI_CHAIN = [1, 2, 13, 4, -15, 26, -77, 8, 169, -30, -323, 52]


def _field_rho(a=None):
    F = make_field(3, 2)
    if a is None:
        add = lambda x, y: int(F.add[x, y])
    else:
        t = addition_from_exponent(F, a)
        add = lambda x, y: int(t.table[x, y])
    return F, rho_from_add(field_carrier(F), add)


def test_rho_axioms_native_and_box5_exhaustive():
    for a in (None, 5):
        F, r = _field_rho(a)
        rep = verify_rho_axioms(r)
        assert rep.ok, rep.failures()
        assert rep.counts["pairs"] == 81


def test_rho_fixed_points():
    F, r = _field_rho()
    assert r(F.zero) == F.one
    assert r(F.minus_one) == F.zero


def test_rho_mutation_fails_with_witness():
    F, r = _field_rho()
    broken = np.array([r(x) for x in range(9)])
    # swap two non-fixed-point values
    spots = [i for i in range(9) if i not in (F.zero, F.minus_one)][:2]
    broken[spots[0]], broken[spots[1]] = broken[spots[1]], broken[spots[0]]
    bad = RhoMap(r.carrier, lambda x: int(broken[x]))
    rep = verify_rho_axioms(bad)
    assert not rep.ok
    assert any(c.witness is not None for c in rep.failures())
    # each check keeps its first witness in pair order
    assert [(c.name, c.witness) for c in rep.failures()] == [
        ("abelian_property", 3),
        ("associative_property", (1, 3)),
        ("inverse_formula", 2),
        ("induced_add_commutative", (1, 3)),
    ]
    # a rho that repeats a value is not a bijection
    repeated = np.array([r(x) for x in range(9)])
    repeated[1] = repeated[0]
    rep = verify_rho_axioms(RhoMap(r.carrier, lambda x: int(repeated[x])))
    assert [c.name for c in rep.failures()] == [
        "associative_property", "inverse_formula", "bijective"
    ]


def test_add_rho_round_trips_finite():
    for a in (None, 5):
        F, r = _field_rho(a)
        add = add_from_rho(r)
        # rho -> add -> rho is the identity on every element
        r2 = rho_from_add(r.carrier, add)
        assert [r(x) for x in range(9)] == [r2(x) for x in range(9)]
        # add -> rho -> add reproduces the table pointwise
        base = F.add if a is None else addition_from_exponent(F, a).table
        for x in range(9):
            for y in range(9):
                assert add(x, y) == int(base[x, y])


def test_add_rho_round_trips_rational_exotic():
    r = rho_from_add(rational_carrier(), exotic_add_q)
    add = add_from_rho(r)
    rng = np.random.default_rng(2)
    for _ in range(40):
        a = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40)))
        b = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40)))
        assert add(a, b) == exotic_add_q(a, b)
    assert add(Fraction(0), Fraction(7, 3)) == Fraction(7, 3)


def test_carrier_quotient_matches_product_with_inverse():
    for a in (None, 5):
        F, r = _field_rho(a)
        c = r.carrier
        add = add_from_rho(r)
        for x in c.elements:
            for y in c.elements:
                want = y if x == c.zero else c.mul(x, r(c.mul(c.inv(x), y)))
                assert add(x, y) == want, (a, x, y)
                if y != c.zero:
                    assert c.div(x, y) == c.mul(x, c.inv(y)) == int(F.mul[x, F.inv[y]])
    q = rational_carrier()
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40)))
        y = Fraction(int(rng.integers(-60, 61)) or 1, int(rng.integers(1, 40)))
        assert q.div(x, y) == q.mul(x, q.inv(y))
        assert q.mul(x, y) == x * y and q.neg(x) == -x


def _rho_with_sum_ceiling(ceiling):
    return rho_from_add(
        rational_carrier(), lambda a, b: exotic_add_q(a, b, norm_ceiling=ceiling)
    )


def _rational_sampler(height):
    return lambda rng: Fraction(
        int(rng.integers(-height, height + 1)), int(rng.integers(1, height + 1))
    )


def test_rho_axioms_on_q_redraw_refused_pairs():
    # At sum-norm ceiling 1000, 3 of the first 23 pairs of height 12 are
    # refused; each is redrawn, so all 20 trials are checked.
    sampler = _rational_sampler(12)
    r = _rho_with_sum_ceiling(1000)
    rep = verify_rho_axioms(r, sampler=sampler, trials=20, rng=np.random.default_rng(0))
    assert rep.ok
    assert rep.counts == {"pairs": 20, "skipped": 3}
    # At ceiling 100, 5 trials take 5 skips, as many as may be absorbed;
    # 10 trials reach an 11th skip first, and the refusal propagates,
    # naming its ceiling.
    r = _rho_with_sum_ceiling(100)
    rep = verify_rho_axioms(r, sampler=sampler, trials=5, rng=np.random.default_rng(0))
    assert rep.ok
    assert rep.counts == {"pairs": 5, "skipped": 5}
    with pytest.raises(ResourceLimitError) as err:
        verify_rho_axioms(r, sampler=sampler, trials=10, rng=np.random.default_rng(0))
    assert err.value.ceiling == 100
    with pytest.raises(DomainError):
        verify_rho_axioms(r, sampler=sampler, trials=0, rng=np.random.default_rng(0))
    with pytest.raises(DomainError, match="sampler"):
        verify_rho_axioms(r, trials=5, rng=np.random.default_rng(0))


def test_rho_axioms_on_q_refuse_rather_than_pass_on_skipped_pairs():
    # At sum-norm ceiling 1 nearly every pair is refused; only pairs that
    # need no sum (first operand 0) slip through.
    r = _rho_with_sum_ceiling(1)
    with pytest.raises(ResourceLimitError) as err:
        verify_rho_axioms(
            r, sampler=_rational_sampler(60), trials=50, rng=np.random.default_rng(1)
        )
    assert err.value.ceiling == 1


def test_char_map_f9():
    for a in (None, 5):
        F, r = _field_rho(a)
        res = char_map(r, 6)
        assert res.characteristic == 3
        assert res.prime_subfield == (F.zero, F.one, F.minus_one)
        assert not res.evidence_bounded
        assert res.report.ok, res.report.failures()


def test_char_map_rational_native():
    r = rho_from_add(rational_carrier(), lambda a, b: a + b)
    res = char_map(r, 25)
    assert res.characteristic == 0
    assert res.evidence_bounded
    for n in range(-25, 26):
        assert res.chi(n) == n
    assert res.chi(Fraction(-7)) == -7
    for n in (26, -26, Fraction(5, 2)):
        with pytest.raises(DomainError, match="outside the tabulated range"):
            res.chi(n)
    assert res.report.ok


def test_char_map_rational_exotic_chain():
    r = rho_from_add(rational_carrier(), exotic_add_q)
    res = char_map(r, 12)
    assert [res.chi(n) for n in range(1, 13)] == CHI_CHAIN
    assert [res.chi(-n) for n in range(1, 13)] == [-v for v in CHI_CHAIN]
    assert res.chi(0) == 0
    assert res.characteristic == 0
    assert res.evidence_bounded
    assert res.report.ok, res.report.failures()


def test_char_map_validation_and_integrity():
    F, r = _field_rho()
    with pytest.raises(DomainError):
        char_map(r, 1)
    # a fake rho whose orbit of 0 returns to 0 after four steps
    fake = np.arange(9, dtype=np.int64)
    fake[0], fake[1], fake[4], fake[5] = 1, 4, 5, 0
    bad = RhoMap(field_carrier(F), lambda x: int(fake[x]))
    res = char_map(bad, 8)
    first = res.report.first_failure()
    assert (first.name, first.witness) == ("characteristic_prime", 4)
    assert (res.characteristic, res.prime_subfield) == (4, ())
    # no vanishing index: below the carrier's size the bound may be too
    # small, at it the rho map is at fault
    shift = np.roll(np.arange(9, dtype=np.int64), -1)
    shift[8] = 1  # 0 -> 1 -> ... -> 8 -> 1 never returns to 0
    never = RhoMap(field_carrier(F), lambda x: int(shift[x]))
    with pytest.raises(DomainError, match="past the bound"):
        char_map(never, 8)
    res = char_map(never, 9)
    (vanishes,) = [c for c in res.report.checks if c.name == "chi_vanishes_on_a_finite_carrier"]
    assert (vanishes.ok, vanishes.witness) == (False, 9)
    assert (res.characteristic, res.prime_subfield) == (0, ())
    # rho(0) = 0 gives characteristic 1, which has no prime subfield
    fixed = RhoMap(field_carrier(F), lambda x: 0 if x == 0 else int(shift[x]))
    first = char_map(fixed, 9).report.first_failure()
    assert (first.name, first.witness) == ("characteristic_prime", 1)


def _orbit_rho(carrier, *orbit):
    """A rho at fault: it sends each element of orbit to the next, and fixes
    every other element."""
    steps = dict(zip(orbit, orbit[1:]))
    return RhoMap(carrier, lambda x: steps.get(x, x))


def _char_map_faults():
    """One rho on a finite carrier for each prime-subfield check of char_map
    that fails it, with its bound and the witness that check carries.
    core_commutative and core_two_sided_distributive cannot fail over a
    commutative product, where alpha * rho(alpha**-1 * beta) distributes on
    both sides, so they fail on Dickson's near-field of order 9."""
    F9, D = make_field(3, 2), _dickson_9()
    f9 = field_carrier(F9)
    dickson = Carrier(
        "D9", D.zero, D.one, int(F9.minus_one),
        mul=lambda a, b: int(D.mul[a, b]),
        inv=lambda a: int(D.inv[a]),
        div=lambda b, a: int(D.mul[D.inv[a], b]),
        neg=lambda a: int(F9.neg[a]),  # the additive group of F9
        elements=f9.elements,
    )
    return [
        ("characteristic_prime", _orbit_rho(f9, 0, 1, 2, 3, 0), 8, 4),
        ("order_is_power_of_characteristic", _orbit_rho(f9, 0, 1, 2, 3, 4, 0), 8, None),
        ("chi_one", _orbit_rho(f9, 0, 3, 4, 0), 8, None),
        ("core_multiplicative_subgroup", _orbit_rho(f9, 0, 3, 4, 0), 8, None),
        ("chi_vanishes_on_a_finite_carrier", _orbit_rho(f9, 0, 1, 2, 1), 12, 12),
        ("core_commutative", _orbit_rho(dickson, 0, 3, 4, 0), 8, None),
        ("core_two_sided_distributive", _orbit_rho(dickson, 0, 3, 4, 0), 8, (3, 1, 3)),
    ]


CHAR_MAP_FAULTS = _char_map_faults()


@pytest.mark.parametrize("name, r, bound, witness", CHAR_MAP_FAULTS, ids=[c[0] for c in CHAR_MAP_FAULTS])
def test_each_finite_char_map_check_fails_on_a_rho_at_fault(name, r, bound, witness):
    (check,) = [c for c in char_map(r, bound).report.checks if c.name == name]
    assert not check.ok and check.witness == witness, check


def test_char_map_faults_fail_every_finite_carrier_check():
    # chi_zero alone cannot fail: chi(0) is where the orbit starts.
    names = {c.name for c in char_map(_field_rho()[1], 6).report.checks}
    failed = {c.name for _, r, bound, _ in CHAR_MAP_FAULTS for c in char_map(r, bound).report.failures()}
    assert names - failed == {"chi_zero"}


def test_char_map_refuses_a_bound_past_its_ceiling_before_evaluating_rho():
    calls = 0

    def rho(alpha):
        nonlocal calls
        calls += 1
        return alpha + 1

    r = RhoMap(rational_carrier(), rho)
    with pytest.raises(ResourceLimitError, match="100000") as exc:
        char_map(r, CHAR_MAP_MAX_BOUND + 1)
    assert exc.value.ceiling == CHAR_MAP_MAX_BOUND == 100_000
    assert calls == 0


def test_char_map_fails_when_most_add_pairs_are_skipped():
    # An add that refuses non-integer operands still builds chi, which only
    # needs 1 (+) n, but refuses 304 of the 469 add pairs at bound 12.
    def add(a, b):
        if a.denominator != 1 or b.denominator != 1:
            raise ResourceLimitError("non-integer operand", ceiling=1)
        return exotic_add_q(a, b)

    res = char_map(rho_from_add(rational_carrier(), add), 12)
    assert [res.chi(n) for n in range(1, 13)] == CHI_CHAIN
    assert [c.name for c in res.report.failures()] == ["chi_additive"]
    assert res.report.counts == {"bound": 12, "add_pairs": 469, "mul_pairs": 189, "skipped": 304}


def test_chi_ring_hom_on_exhaustive_grid():
    r = rho_from_add(rational_carrier(), exotic_add_q)
    res = char_map(r, 20)
    assert res.report.ok
    # 1,261 add pairs at bound 20: under the cap, so every pair is checked
    assert res.report.counts["add_pairs"] == 1261 < RING_HOM_CAP
    # spot-check additivity through the public route as well
    assert exotic_add_q(res.chi(3), res.chi(4)) == res.chi(7)
    assert exotic_add_q(res.chi(5), res.chi(-2)) == res.chi(3)
    assert res.chi(2) * res.chi(6) == res.chi(12)


def _native_rho(bound, refuse=0):
    """rho of native + on Q whose add refuses `refuse` calls after the
    `bound` calls that tabulate chi, so the refusals land in the first
    pairs chi_additive checks."""
    calls = 0

    def add(a, b):
        nonlocal calls
        calls += 1
        if bound < calls <= bound + refuse:
            raise ResourceLimitError("refused by the test", ceiling=1)
        return a + b

    return rho_from_add(rational_carrier(), add)


# At bound 40 there are 3*40*41 + 1 = 4,921 add pairs, past RING_HOM_CAP.
SAMPLED_BOUND = 40


def test_chi_ring_hom_on_sampled_grid():
    res = char_map(_native_rho(SAMPLED_BOUND), SAMPLED_BOUND)
    assert res.report.ok, res.report.failures()
    assert res.report.counts["add_pairs"] == RING_HOM_CAP
    assert res.chi(-SAMPLED_BOUND) == -SAMPLED_BOUND


def test_char_map_passes_when_skips_equal_checks():
    # 4,000 sampled add pairs: 2,000 skipped and 2,000 checked
    half = RING_HOM_CAP // 2
    res = char_map(_native_rho(SAMPLED_BOUND, half), SAMPLED_BOUND)
    assert res.report.ok, res.report.failures()
    assert res.report.counts["add_pairs"] == RING_HOM_CAP
    assert res.report.counts["skipped"] == half


def test_char_map_fails_when_skips_exceed_checks_by_one():
    # skipped - checked has the parity of the pair count: even for the
    # 4,000 sampled pairs, odd for every exhaustive grid (3B**2 + 3B + 1).
    # So the exhaustive grid at bound 12: 235 of 469 skipped, 234 checked.
    res = char_map(_native_rho(12, 235), 12)
    assert [c.name for c in res.report.failures()] == ["chi_additive"]
    assert res.report.counts["add_pairs"] == 469
    assert res.report.counts["skipped"] == 235


def _old_pairs(bound, seed):
    """Oracle: the add and mul pairs char_map checked when it built every
    in-range pair as a list, then kept a seeded rng.choice of the indices."""
    rng = np.random.default_rng(seed)
    in_range = range(-bound, bound + 1)
    out = []
    for combine in (operator.add, operator.mul):
        pairs = [(n, m) for n in in_range for m in in_range if -bound <= combine(n, m) <= bound]
        if len(pairs) > RING_HOM_CAP:
            idx = rng.choice(len(pairs), size=RING_HOM_CAP, replace=False)
            pairs = [pairs[i] for i in idx]
        out.append(pairs)
    return out


def _logged_char_map(monkeypatch, r, bound, seed=0):
    """char_map of r, logging the pairs of chi values that its induced add
    and its carrier's mul are given, in call order."""
    adds, muls = [], []
    add = add_from_rho(r)  # built on the unlogged carrier

    def logged_add(a, b):
        adds.append((a, b))
        return add(a, b)

    def logged_mul(a, b):
        muls.append((a, b))
        return r.carrier.mul(a, b)

    monkeypatch.setattr(rho_module, "add_from_rho", lambda _: logged_add)
    logged = RhoMap(dataclasses.replace(r.carrier, mul=logged_mul), r.fn)
    return char_map(logged, bound, seed=seed), adds, muls


@pytest.mark.parametrize("bound", [12, 20, 40, 300])
@pytest.mark.parametrize("seed", [0, 1])
def test_char_map_checks_the_old_pairs_on_q(monkeypatch, bound, seed):
    r = rho_from_add(rational_carrier(), lambda a, b: a + b)
    res, adds, muls = _logged_char_map(monkeypatch, r, bound, seed)
    old_add, old_mul = _old_pairs(bound, seed)
    # chi(n) = n under native +, so the logged values are the pairs
    assert adds == old_add
    assert muls == old_mul
    assert res.report.counts["add_pairs"] == len(old_add)
    assert res.report.counts["mul_pairs"] == len(old_mul)


def test_char_map_checks_the_old_pairs_on_f9(monkeypatch):
    old_add, old_mul = _old_pairs(6, 0)
    for a in (None, 5):
        _, r = _field_rho(a)
        res, adds, muls = _logged_char_map(monkeypatch, r, 6)
        # chi has period 3 here, so values stand in for the pairs; the
        # prime-subfield checks log more calls after these
        assert adds[: len(old_add)] == [(res.chi(n), res.chi(m)) for n, m in old_add]
        assert muls[: len(old_mul)] == [(res.chi(n), res.chi(m)) for n, m in old_mul]


def test_char_map_never_builds_every_pair():
    # 3,003,001 add pairs at bound 1,000: building them all peaked at about
    # 187 MiB under tracemalloc, drawing 4,000 by index at about 2 MiB.
    r = rho_from_add(rational_carrier(), lambda a, b: a + b)
    tracemalloc.start()
    try:
        res = char_map(r, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.report.ok, res.report.failures()
    assert peak < 16 * 2**20, peak
