"""Exhaustive checks that the finite constructions are complete: every
bijection of a small field, and every near-field addition on the
multiplicative group of each supported field, not a sample of them."""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np
import pytest

from nearfields.finite import SUPPORTED_FIELDS, enumerate_additions, make_field
from nearfields.maps import check_qmc_equivalence


def test_qmc_equivalence_on_every_bijection_of_f9_fixing_0():
    # All 8! = 40,320 bijections of F9 that fix 0. The five conditions agree
    # on each, and the quasi-multiplicative ones are exactly the 32 maps
    # x -> lam * x**k, lam != 0, gcd(k, 8) = 1: the automorphisms x**k of
    # the cyclic group F9* times the 8 scalars.
    F = make_field(3, 2)
    nonzero = [x for x in range(F.m) if x != F.zero]
    expected = set()
    for k in (k for k in range(1, F.m - 1) if gcd(k, F.m - 1) == 1):
        power = [F.zero] * F.m
        for x in nonzero:  # x**k as k - 1 products by x, not a power table
            y = x
            for _ in range(k - 1):
                y = int(F.mul[y, x])
            power[x] = y
        for lam in nonzero:
            expected.add(tuple(int(F.mul[y, lam]) for y in power))
    assert len(expected) == 32

    found, checked = set(), 0
    phi = np.full(F.m, F.zero, dtype=np.int64)
    for images in itertools.permutations(nonzero):
        phi[nonzero] = images
        res = check_qmc_equivalence(F, phi)
        assert len(set(res.conditions.values())) == 1, (images, res.conditions)
        assert res.report.ok, images  # ok means the five conditions agree
        checked += 1
        if res.is_quasi_multiplicative:
            found.add(tuple(phi.tolist()))
    assert checked == 40_320
    assert found == expected


def _addition_maps(F) -> set[tuple[int, ...]]:
    """Every near-field addition map rho on (F, *), as the tuple of rho(t)
    = 1 + t over the carrier, for the additions + that make (F, +, *) a
    near-field with F's product. A backtracking search that reads only
    F.mul and F.inv, so it shares no code with the additions it checks.

    An addition is x + y = x * rho(y / x) for x != 0, and 0 + y = y. It
    distributes over * by construction, so rho gives a near-field exactly
    when rho(0) = 1, rho(-1) = 0, rho is a bijection, rho(1/t) = rho(t) / t
    (commutativity), and (1 + x) + y = 1 + (x + y) for every pair x, y
    (associativity: every other triple scales to one that starts at 1).
    -1 is the unit other than 1 whose square is 1, or 1 where none is.
    A pair whose left side is set while rho(x + y) is not sets it.
    """
    mul, inv = F.mul.tolist(), F.inv.tolist()
    zero, one = F.zero, F.one
    nonzero = [x for x in range(F.m) if x != zero]
    minus = next((x for x in nonzero if x != one and mul[x][x] == one), one)
    rho, taken = [None] * F.m, [False] * F.m
    rho[zero], rho[minus] = one, zero
    taken[one] = taken[zero] = True
    found = set()

    def add(a, b):  # a + b, or None while a value it needs is unset
        if a is None or b is None:
            return None
        if a == zero:
            return b
        r = rho[mul[b][inv[a]]]
        return None if r is None else mul[a][r]

    def assign(t, v, trail):  # rho(t) = v and rho(1/t) = v / t; False on a clash
        s, w = inv[t], mul[v][inv[t]]
        if taken[v] or taken[w] or (s == t and w != v):
            return False
        for k, x in {t: v, s: w}.items():
            rho[k], taken[x] = x, True
            trail.append(k)
        return True

    def undo(trail, mark):
        while len(trail) > mark:
            k = trail.pop()
            taken[rho[k]], rho[k] = False, None

    def settle(pairs, trail):  # the pairs left open, or None on a failure
        changed = True
        while changed:
            changed, left = False, []
            for x, y in pairs:
                lhs, u = add(add(one, x), y), add(x, y)
                if lhs is None or u is None:
                    left.append((x, y))
                elif rho[u] is None:  # 1 + u = rho(u) must be lhs
                    if not assign(u, lhs, trail):
                        return None
                    changed = True
                elif rho[u] != lhs:
                    return None
            pairs = left
        return pairs

    def search(pairs):
        trail = []
        pairs = settle(pairs, trail)
        if pairs is not None:
            t = next((t for t in nonzero if rho[t] is None), None)
            if t is None:
                assert not pairs
                found.add(tuple(rho))
            else:
                for v in nonzero:
                    mark = len(trail)
                    if assign(t, v, trail):
                        search(pairs)
                    undo(trail, mark)
        undo(trail, 0)

    search([(x, y) for x in range(F.m) for y in range(F.m)])
    return found


@pytest.mark.parametrize("p, n", sorted(SUPPORTED_FIELDS))
def test_exponent_additions_are_every_addition(p, n):
    # A finite near-field whose multiplicative group is abelian is a field
    # (Zassenhaus 1935), and its isomorphisms onto F_q are the power maps,
    # so there are phi(q - 1)/n additions: exactly the exponent family.
    F = make_field(p, n)
    expected = {tuple(t.table[F.one].tolist()) for t in enumerate_additions(F).tables}
    phi = sum(1 for k in range(1, F.m - 1) if gcd(k, F.m - 1) == 1)
    assert len(expected) == phi // n
    assert _addition_maps(F) == expected
