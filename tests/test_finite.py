import copy
import itertools

import numpy as np
import pytest
import sympy

from nearfields import finite
from nearfields.errors import DomainError, IntegrityError
from nearfields.finite import (
    SUPPORTED_FIELDS,
    AdditionTable,
    FiniteField,
    addition_from_exponent,
    check_isomorphic_additions,
    enumerate_additions,
    is_permutation,
    make_field,
    modnear_ring_check,
    native_addition,
    transport,
    verify_addition_table,
)
from nearfields.nvs import build_elementary

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


# Both monic moduli of degree 1 over F_2; only the field F_2 has 1 as its
# generator.
F2_MODULI = ((1, 1), (0, 1))


def test_tables_match_sympy_polynomial_arithmetic():
    # Index sum(c_i p**i) is the residue class of sum(c_i x**i) in
    # GF(p)[x] / (modulus); sympy's Poly arithmetic knows nothing of the
    # tables, the generator walk or the logs.
    x = sympy.Symbol("x")
    fields = [(make_field(p, n), modulus) for (p, n), modulus in SUPPORTED_FIELDS.items()]
    fields += [(FiniteField(2, 1, modulus), modulus) for modulus in F2_MODULI]
    for f, modulus in fields:
        p, n = f.p, f.n
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
    with pytest.raises(DomainError, match="monic"):
        FiniteField(3, 2, (1, 0, 2))  # 1 + 2x**2


def test_construction_is_checked_by_the_field_axiom_suite(monkeypatch):
    # A walk that meets every unit of F9 once, as 1, 2, 3, ..., 8, passes
    # as a generator's powers, but 2 = -1 squares to 3 in the product it
    # builds, so that product does not distribute over the digit sum:
    # 2 * (1 + 1) = 3 while 2 * 1 + 2 * 1 = 1.
    walk = iter([(c % 3, c // 3) for c in range(3, 9)] + [(1, 0)])
    monkeypatch.setattr(finite, "_poly_mul_mod", lambda *args: next(walk))
    expected = r"FiniteField\(3, 2\) fails left_distributivity, witness \(2, 1, 1\)"
    with pytest.raises(IntegrityError, match=expected):
        FiniteField(3, 2, SUPPORTED_FIELDS[3, 2])


def test_irreducibility_matches_sympy_on_every_small_monic_modulus():
    # every monic modulus of every order p**n <= 81: an irreducible one
    # builds (its field-axiom check included), a reducible one is refused by the
    # generator walk before any structure table exists
    x = sympy.Symbol("x")
    built = refused = 0
    for p, top in ((2, 6), (3, 4), (5, 2), (7, 2)):
        for n in range(1, top + 1):
            for low in itertools.product(range(p), repeat=n):
                modulus = (*low, 1)
                if sympy.Poly(modulus[::-1], x, modulus=p).is_irreducible:
                    assert FiniteField(p, n, modulus).m == p**n
                    built += 1
                else:
                    with pytest.raises(DomainError, match="reducible") as refusal:
                        FiniteField(p, n, modulus)
                    half_built = refusal.tb.tb_next.tb_frame.f_locals["self"]
                    assert not hasattr(half_built, "add") and not hasattr(half_built, "neg"), (p, modulus)
                    refused += 1
    assert (built, refused) == (98, 234)


def test_f2_builds_and_enumerates_its_one_addition():
    for modulus in F2_MODULI:
        f = FiniteField(2, 1, modulus)
        assert (f.generator, f.exp.tolist(), f.mul.tolist()) == (1, [1], [[0, 0], [0, 1]])
        assert f.exponent_units() == [1]
        res = enumerate_additions(f)
        assert res.report.ok, res.report.failures()
        assert (res.units, res.classes) == ([1], [[1]])
        assert [t.table.tolist() for t in res.tables] == [[[0, 1], [1, 0]]]
        assert check_isomorphic_additions(f, res.tables[0], native_addition(f)) == 1


def test_power_table():
    f = make_field(3, 2)
    p3 = f.power_table(3)
    assert p3[0] == 0 and p3[1] == 1
    for x in range(9):
        cube = f.mul[x, f.mul[x, x]]
        assert p3[x] == cube
    with pytest.raises(DomainError):
        f.power_table(0)


def test_power_table_past_int64_reduces_k():
    # x**(m-1) = 1 on the units, so k and the k' in [1, m - 1] with
    # k' = k mod m - 1 give one map; a k past int64 no longer overflows.
    for f in (make_field(3, 2), make_field(3, 3)):
        for k in (2**63, 10**20, 10**20 - 1, 3**100, 2**200 + 5):
            k1 = (k - 1) % (f.m - 1) + 1
            assert f.power_table(k).tolist() == f.power_table(k1).tolist(), (f, k)


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


def _assert_compact(t: AdditionTable, expected: np.ndarray) -> None:
    assert t.table.dtype == np.uint8 and not t.table.flags.writeable
    assert expected.dtype == np.int64 and np.array_equal(t.table, expected)


def test_built_addition_tables_are_compact():
    # Tables the module builds hold indices below m <= 27 in one byte each.
    for p, n in SUPPORTED_FIELDS:
        f = make_field(p, n)
        _assert_compact(native_addition(f), f.add)
        for a in f.exponent_units():
            _assert_compact(addition_from_exponent(f, a), transport(f.add, f.power_table(a)))


def test_grid_gather_equals_ix_gather():
    # Rows and columns of different lengths: negative row indices, and a
    # column of the action table as a strided view into it.
    for p, n in SUPPORTED_FIELDS:
        f = make_field(p, n)
        frob = f.power_table(p)
        cols = build_elementary(f, frob, frob).box_smul[:, f.one]
        assert not cols.flags.contiguous
        rows = frob[: f.m // 2] - f.m
        for t in (f.mul, native_addition(f).table):
            got, expected = finite._grid(t, rows, cols), t[np.ix_(rows, cols)]
            assert got.dtype == expected.dtype == t.dtype
            assert np.array_equal(got, expected)
            for bad in (f.m, -f.m - 1):
                for r, c in ((np.array([bad]), cols), (rows, np.array([0, bad]))):
                    with pytest.raises(IndexError):
                        finite._grid(t, r, c)
                    with pytest.raises(IndexError):
                        t[np.ix_(r, c)]


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


def _edited(table, *entries):
    """A copy of table with each (i, j, v) of entries set: t[i, j] = v."""
    table = table.copy()
    for i, j, v in entries:
        table[i, j] = v
    return table


def _crafted_additions():
    """One table for each check of the field-axiom suite that fails it, with
    the witness that check carries (for closure the first entry outside
    [0, m), and for inverses the first element whose row holds no zero)."""
    f4, f9 = make_field(2, 2), make_field(3, 2)
    x4 = np.arange(f4.m)
    swap = np.arange(f9.m)
    swap[[1, 2]] = [2, 1]  # fixes 0, but is not multiplicative
    group = transport(f9.add, swap)  # an abelian group with zero 0 that the product does not distribute over
    return [
        ("closure", f4, _edited(f4.add, (1, 2, 4)), (1, 2)),
        ("commutativity", f4, _edited(f4.add, (1, 2, 0)), (1, 2)),
        ("zero", f9, transport(f9.add, f9.add[1]), [2]),  # x + y + 1, whose zero is -1 = 2
        ("inverses", f4, x4[:, None] | x4[None, :], 1),  # bitwise or: row 1 is [1, 1, 3, 3]
        ("associativity", f4, _edited(f4.add, (2, 3, 2), (3, 2, 2)), (1, 2, 2)),
        ("left_distributivity", f9, group, (3, 1, 3)),
        ("right_distributivity", f9, group, (1, 3, 3)),
    ]


CRAFTED_ADDITIONS = _crafted_additions()


@pytest.mark.parametrize("name, field, table, witness", CRAFTED_ADDITIONS, ids=[c[0] for c in CRAFTED_ADDITIONS])
def test_each_field_axiom_check_fails_on_a_crafted_table(name, field, table, witness):
    rep = verify_addition_table(AdditionTable(field, table, f"crafted for {name}"))
    (check,) = [c for c in rep.checks if c.name == name]
    assert not check.ok and check.witness == witness, check
    # Together the crafted tables fail every check that the suite makes.
    assert [c.name for c in verify_addition_table(native_addition(field)).checks] == [
        c[0] for c in CRAFTED_ADDITIONS
    ]


def test_each_enumeration_check_fails_on_a_field_with_an_edited_sum():
    # 1 + 2 = 2 + 1 = 5 in place of 0 on a copy of F9: 1 loses its inverse
    # under every exponent addition, since each is + pulled back through a
    # power map that fixes 1, and the collapse a ~ 3a no longer holds.
    broken = copy.copy(make_field(3, 2))
    broken.add = _edited(broken.add, (1, 2, 5), (2, 1, 5))
    rep = enumerate_additions(broken).report
    failed = {c.name: c.witness for c in rep.failures()}
    assert failed.pop("frobenius_collapse") == 1
    assert sorted(failed) == ["axioms[a=1]", "axioms[a=3]", "axioms[a=5]", "axioms[a=7]"]
    assert {(c.name, c.witness) for c in failed.values()} == {("inverses", 1)}
    # native_in_class_of_1 cannot fail: exponent 1's power map is the
    # identity, so its table is the field's own + (informational).
    assert [c.name for c in rep.checks if c.ok] == ["native_in_class_of_1"]


def test_verify_addition_table_fails_closure_without_sweeping():
    # An entry outside [0, m) is a failed report, not a crash or a verdict
    # on an index that wrapped around; a table of the wrong shape likewise.
    f9 = make_field(3, 2)
    native = f9.add.astype(np.int64)
    for bad_entry in (-1, 9):
        broken = native.copy()
        broken[4, 6] = bad_entry
        rep = verify_addition_table(AdditionTable(f9, broken, f"entry {bad_entry}"))
        assert [c.name for c in rep.failures()] == ["closure"]
        assert [(c.name, c.witness) for c in rep.checks] == [("closure", (4, 6))]
        assert rep.counts["triples"] == 0
    rep = verify_addition_table(AdditionTable(f9, native[:8, :8].copy(), "8 by 8"))
    assert [(c.name, c.witness) for c in rep.checks] == [("closure", (8, 8))] and not rep.ok


def test_verify_addition_table_fails_closure_on_a_float_table():
    # A float table is not an index table, even when every entry is a whole
    # number in [0, m): it fails closure like an entry out of range, and no
    # kernel sees it.
    f9 = make_field(3, 2)
    whole = f9.add.astype(np.float64)
    half = whole.copy()
    half[4, 6] = 0.5
    for table in (whole, half):
        rep = verify_addition_table(AdditionTable(f9, table, f"float {table.dtype}"))
        assert [(c.name, c.witness) for c in rep.checks] == [("closure", "float64")] and not rep.ok
        assert rep.counts["triples"] == 0


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


def test_isomorphism_refuses_another_fields_tables():
    f9, f27 = make_field(3, 2), make_field(3, 3)
    nat9, nat27 = native_addition(f9), native_addition(f27)
    t5 = addition_from_exponent(f27, 5)
    for field, t1, t2 in ((f9, nat27, t5), (f27, nat9, t5), (f27, t5, nat9), (f9, nat9, nat27)):
        with pytest.raises(DomainError, match="not both additions on"):
            check_isomorphic_additions(field, t1, t2)


def test_modnear_ring():
    rep = modnear_ring_check()
    assert rep.ok, rep.failures()
    assert rep.counts["members"] == 81
    assert rep.counts["triples"] == 81**3


def test_modnear_closure_tables_match_a_dict_naming():
    # The member tables named by the two basis values and a whole-row
    # check equal a naming by each map's bytes; a map off by one value is
    # no member and gets -1.
    f = make_field(3, 2)
    box, native = addition_from_exponent(f, 3).table, native_addition(f).table
    maps = finite._plane_homs(f, box)
    assert len(maps) == 81
    member_of = finite._member_namer(maps, (f.one, f.p))
    rows = finite._pointwise_rows(maps, box, native)
    assert list(rows) == ["boxplus", "plus", "compose"]
    name = {m.astype(np.int64).tobytes(): i for i, m in enumerate(maps)}
    ops = {"boxplus": lambda g, h: box[g, h], "plus": lambda g, h: native[g, h], "compose": lambda g, h: g[h]}
    rng = np.random.default_rng(44)
    for key, op in ops.items():
        want = np.array([[name.get(op(g, h).astype(np.int64).tobytes(), -1) for h in maps] for g in maps])
        assert (want >= 0).all()
        got = member_of(rows[key])
        assert np.array_equal(got, want), key
        for _ in range(20):
            x, i, j = rng.integers(9), rng.integers(81), rng.integers(81)
            bad = rows[key].copy()
            bad[x, i, j] = (bad[x, i, j] + rng.integers(1, 9)) % 9
            expect = want.copy()
            expect[i, j] = -1
            assert np.array_equal(member_of(bad), expect), (key, x, i, j)
    assert int(member_of(np.arange(9))) == name[np.arange(9, dtype=np.int64).tobytes()]


# One edit of a table that modnear_ring_check names for each of its checks
# that fails it: (table, key, value, {check: witness}). The check takes no
# input, so its tables are reached through the namer that names them, whose
# member_of it calls on the boxplus, plus and compose rows, in that order,
# and then on the identity map (the table "identity", with key ()). The
# zero map is member 0.
MODNEAR_EDITS = [
    ("boxplus", (1, 2), 5, {"group_assoc[boxplus]": (1, 1, 1), "group_comm[boxplus]": (1, 2),
                            "group_inverses[boxplus]": 1, "axiom_6_right_distrib": (1, 2, 6)}),
    ("plus", (1, 2), 5, {"group_assoc[plus]": (1, 1, 1), "group_comm[plus]": (1, 2),
                         "group_inverses[plus]": 1, "parenthetical_right_distrib_plus": (1, 2, 6)}),
    ("compose", (3, 4), 7, {"monoid_assoc[compose]": (1, 3, 4), "axiom_6_right_distrib": (1, 3, 4),
                            "parenthetical_right_distrib_plus": (1, 3, 4)}),
    ("boxplus", (1, 2), -1, {"closure[boxplus]": (1, 2)}),
    ("plus", (1, 2), -1, {"closure[plus]": (1, 2)}),
    ("compose", (1, 2), -1, {"closure[compose]": (1, 2)}),
    ("identity", (), 5, {"monoid_identity[compose]": 5, "axiom_5_unit_action_bijective": 1}),
    ("boxplus", (0, 1), 0, {"group_zero[boxplus]": []}),  # no identity row
    ("plus", 1, np.arange(81), {"group_zero[plus]": [0, 1]}),  # two identity rows
]


def _modnear_with_edit(monkeypatch, table, key, value):
    namer = finite._member_namer

    def tampered_namer(maps, basis):
        member_of, names = namer(maps, basis), iter(["boxplus", "plus", "compose", "identity"])

        def tampered(rows):
            out = member_of(rows)
            if next(names) == table:
                out = out.copy()
                out[key] = value
            return out

        return tampered

    monkeypatch.setattr(finite, "_member_namer", tampered_namer)
    return modnear_ring_check()


@pytest.mark.parametrize("table, key, value, fails", MODNEAR_EDITS, ids=[next(iter(e[3])) for e in MODNEAR_EDITS])
def test_each_modnear_check_fails_on_an_edited_table(monkeypatch, table, key, value, fails):
    got = {c.name: c.witness for c in _modnear_with_edit(monkeypatch, table, key, value).failures()}
    assert {name: got.get(name, "passed") for name in fails} == fails


def test_modnear_check_fails_member_count_on_a_missing_hom(monkeypatch):
    homs = finite._plane_homs
    monkeypatch.setattr(finite, "_plane_homs", lambda f, box: homs(f, box)[:-1])
    (first, *_) = modnear_ring_check().failures()
    assert (first.name, first.witness) == ("member_count", 80)


def test_modnear_edits_fail_every_check_but_two():
    # cubing_addition_is_native is informational, and axiom_3_left_distrib
    # cannot fail: _plane_homs keeps exactly the maps that it holds for.
    failed = {name for *_, fails in MODNEAR_EDITS for name in fails} | {"member_count"}
    names = {c.name for c in modnear_ring_check().checks}
    assert names - failed == {"cubing_addition_is_native", "axiom_3_left_distrib"}


def test_enumeration_json():
    js = enumerate_additions(make_field(3, 2)).to_json()
    assert js["classes"] == [[1, 3], [5, 7]]
    assert js["distinct_tables"] == 2
    assert js["ok"] is True
