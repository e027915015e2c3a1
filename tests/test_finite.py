import itertools

import numpy as np
import pytest
import sympy

from nearfields.errors import DomainError, IntegrityError
from nearfields.finite import (
    SUPPORTED_FIELDS,
    AdditionTable,
    FiniteField,
    _is_irreducible,
    addition_from_exponent,
    check_isomorphic_additions,
    enumerate_additions,
    is_permutation,
    make_field,
    modnear_ring_check,
    native_addition,
    verify_addition_table,
)

# Distinct additions correspond to cosets of <p> in the units mod p**n - 1;
# these lists were worked out by hand before the enumeration existed.
EXPECTED_CLASSES = {
    (2, 2): [[1, 2]],
    (2, 3): [[1, 2, 4], [3, 5, 6]],
    (3, 2): [[1, 3], [5, 7]],
    (5, 2): [[1, 5], [7, 11], [13, 17], [19, 23]],
    (3, 3): [[1, 3, 9], [5, 15, 19], [7, 11, 21], [17, 23, 25]],
}


def test_unsupported_field():
    with pytest.raises(DomainError):
        make_field(7, 1)
    with pytest.raises(DomainError):
        make_field(2, 4)


def test_field_construction_basics():
    for (p, n) in SUPPORTED_FIELDS:
        f = make_field(p, n)
        assert f.m == p**n
        assert f.zero == 0 and f.one == 1
        assert f.mul[f.one, 3 % f.m] == 3 % f.m
        assert f.add[f.minus_one, f.one] == f.zero
        # generator order is exactly m - 1
        assert sorted(int(f.dlog[x]) for x in range(1, f.m)) == list(range(f.m - 1))


def test_tables_match_sympy_polynomial_arithmetic():
    # Index sum(c_i p**i) is the residue class of sum(c_i x**i) in
    # GF(p)[x] / (modulus); sympy's Poly arithmetic knows nothing of the
    # tables, the generator walk or the logs.
    x = sympy.Symbol("x")
    for (p, n), modulus in SUPPORTED_FIELDS.items():
        f = make_field(p, n)
        mod = sympy.Poly(modulus[::-1], x, modulus=p)
        elems = [sympy.Poly([(i // p**k) % p for k in reversed(range(n))], x, modulus=p) for i in range(f.m)]

        def index(q):
            return sum(int(c) % p * p**k for k, c in enumerate(reversed(q.rem(mod).all_coeffs())))

        assert [index(e) for e in elems] == list(range(f.m))
        for i, u in enumerate(elems):
            assert f.neg[i] == index(-u), (p, n, i)
            assert f.inv[i] == (index(u.invert(mod)) if i else 0), (p, n, i)
            for j, v in enumerate(elems):
                assert f.add[i, j] == index(u + v), (p, n, i, j)
                assert f.mul[i, j] == index(u * v), (p, n, i, j)

        def powers(g):
            out, y = [], elems[1]
            while not out or y != elems[1]:
                out.append(index(y))
                y = (y * elems[g]).rem(mod)
            return out

        # The generator is the least index whose powers reach every unit,
        # and exp lists those powers in order.
        orders = [len(powers(g)) for g in range(1, f.m)]
        assert f.generator == 1 + orders.index(f.m - 1), (p, n)
        assert f.exp.tolist() == powers(f.generator), (p, n)
        assert f.dlog[0] == -1 and all(f.exp[f.dlog[i]] == i for i in range(1, f.m)), (p, n)
        assert (f.one, f.minus_one) == (1, index(-elems[1])), (p, n)


def test_modulus_without_roots_but_reducible_is_refused():
    # (x**2 + 1)**2 over F_3 has no root, so a test for roots alone passes it
    with pytest.raises(DomainError, match="reducible"):
        FiniteField(3, 4, (1, 0, 2, 0, 1))
    for p, modulus in ((4, (1, 1, 1)), (6, (1, 0, 1))):
        with pytest.raises(DomainError, match="must be a prime"):
            FiniteField(p, 2, modulus)


def test_irreducibility_matches_sympy_on_every_small_monic_modulus():
    # every monic modulus of degree 2 to 4 over F_2 and F_3: a reducible one
    # is refused, an irreducible one builds (its self-check included)
    x = sympy.Symbol("x")
    for p, n in itertools.product((2, 3), (2, 3, 4)):
        for low in itertools.product(range(p), repeat=n):
            modulus = (*low, 1)
            want = sympy.Poly(modulus[::-1], x, modulus=p).is_irreducible
            assert _is_irreducible(modulus, p) == want, (p, modulus)
            if want:
                assert FiniteField(p, n, modulus).m == p**n
            else:
                with pytest.raises(DomainError, match="reducible"):
                    FiniteField(p, n, modulus)


def test_power_table():
    f = make_field(3, 2)
    p3 = f.power_table(3)
    assert p3[0] == 0 and p3[1] == 1
    for x in range(9):
        cube = f.mul[x, f.mul[x, x]]
        assert p3[x] == cube
    with pytest.raises(DomainError):
        f.power_table(0)


def test_scale_table_refuses_an_index_outside_the_carrier():
    f = make_field(3, 2)
    assert np.array_equal(f.scale_table(4), f.mul[4])
    for c in (-1, 9, 99):
        with pytest.raises(DomainError, match=f"scale index {c} outside the carrier"):
            f.scale_table(c)


def test_addition_from_exponent_validation():
    f9 = make_field(3, 2)
    with pytest.raises(DomainError):
        addition_from_exponent(f9, 2)  # gcd(2, 8) != 1
    with pytest.raises(DomainError):
        addition_from_exponent(f9, 4)
    assert addition_from_exponent(f9, 1).same_table(native_addition(f9))
    # a = 3 is the Frobenius exponent: same table as native.
    assert addition_from_exponent(f9, 3).same_table(native_addition(f9))
    assert not addition_from_exponent(f9, 5).same_table(native_addition(f9))


def test_addition_from_exponent_matches_inverse_power_formula():
    # The reference applies x -> x**(a**-1 mod m-1) to native sums of a-th
    # powers; it is the one independent of the pullback, and only F27 tells
    # a pullback through x**a from one through its inverse (a = 5, 7, 11,
    # 15, 19, 21).
    for p, n in SUPPORTED_FIELDS:
        f = make_field(p, n)
        for a in f.exponent_units():
            pa = f.power_table(a)
            expected = f.power_table(pow(a, -1, f.m - 1))[f.add[np.ix_(pa, pa)]]
            assert np.array_equal(addition_from_exponent(f, a).table, expected), (f, a)


def test_is_permutation():
    assert is_permutation(np.array([2, 0, 1]), 3)
    assert not is_permutation(np.array([0, 1]), 3)  # short
    assert not is_permutation(np.array([0, 1, 1]), 3)  # repeated entry
    assert not is_permutation(np.array([0, 1, 3]), 3)  # out of range
    assert not is_permutation(np.array([-1, 0, 1]), 3)


def test_verify_addition_table_native_and_exotic():
    f9 = make_field(3, 2)
    for a in (1, 5):
        rep = verify_addition_table(addition_from_exponent(f9, a))
        assert rep.ok, rep.failures()
        assert rep.counts["triples"] == 9**3


def test_verify_addition_table_catches_mutation():
    f9 = make_field(3, 2)
    t = addition_from_exponent(f9, 5)
    broken = t.table.copy()
    broken[2, 7] = (broken[2, 7] + 1) % 9
    rep = verify_addition_table(AdditionTable(f9, broken, "mutated"))
    assert not rep.ok
    names = {c.name for c in rep.failures()}
    assert names & {"commutativity", "associativity", "zero", "left_distributivity", "right_distributivity"}
    assert any(c.witness is not None for c in rep.failures())


def test_enumerate_all_supported_fields():
    for key, expected in EXPECTED_CLASSES.items():
        res = enumerate_additions(make_field(*key))
        assert res.classes == expected, key
        assert res.report.ok, (key, res.report.failures())
        assert len(res.tables) == len(expected)
        assert res.units == sorted(a for g in expected for a in g)


def test_isomorphism_witnesses_f9():
    f9 = make_field(3, 2)
    nat = addition_from_exponent(f9, 1)
    t5 = addition_from_exponent(f9, 5)
    # x -> x**k carries the native table to the a=5 table iff 5*k = 1 mod 8.
    assert check_isomorphic_additions(f9, nat, t5) == 5
    assert check_isomorphic_additions(f9, t5, nat) == 5
    assert check_isomorphic_additions(f9, nat, nat) == 1
    all_k = [
        k
        for k in range(1, 8)
        if np.gcd(k, 8) == 1
        and np.array_equal(
            f9.power_table(k)[nat.table],
            t5.table[np.ix_(f9.power_table(k), f9.power_table(k))],
        )
    ]
    assert all_k == [5, 7]


def test_isomorphism_all_pairs_all_fields():
    for key in ((2, 2), (2, 3), (3, 2), (5, 2)):
        f = make_field(*key)
        res = enumerate_additions(f)
        for t1 in res.tables:
            for t2 in res.tables:
                k = check_isomorphic_additions(f, t1, t2)
                assert 1 <= k < f.m - 1


def test_isomorphism_failure_is_integrity_error():
    f9 = make_field(3, 2)
    nat = addition_from_exponent(f9, 1)
    scrambled = nat.table.copy()
    scrambled[[1, 2]] = scrambled[[2, 1]]  # not an addition at all
    with pytest.raises(IntegrityError):
        check_isomorphic_additions(f9, nat, AdditionTable(f9, scrambled, "scrambled"))


def test_modnear_ring():
    rep = modnear_ring_check()
    assert rep.ok, rep.failures()
    assert rep.counts["members"] == 81
    assert rep.counts["triples"] == 81**3


def test_enumeration_json():
    js = enumerate_additions(make_field(3, 2)).to_json()
    assert js["classes"] == [[1, 3], [5, 7]]
    assert js["distinct_tables"] == 2
    assert js["ok"] is True
