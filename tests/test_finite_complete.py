"""Exhaustive checks that the finite constructions are complete: every
bijection of a small field, not a sample of them."""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np

from nearfields.finite import make_field
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
