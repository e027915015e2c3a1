"""Tests for elementary near-vector spaces on F9: construction, the axiom
verifier and the addition-at-one comparison."""

from __future__ import annotations

import copy
import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from nearfields.errors import DomainError
from nearfields.finite import (
    addition_from_exponent,
    enumerate_additions,
    is_mult_bijection,
    make_field,
    transport,
)
from nearfields.induced import StructureOps, check_ringisom
from nearfields.nvs import (
    QuasiMultSpec,
    _assemble,
    build_elementary,
    check_elementary_box1,
    check_qmc_equivalence,
    qm_compose,
    qm_invert,
    verify_nvs_axioms,
)
from test_finite import _edited


@pytest.fixture(scope="module")
def F():
    return make_field(3, 2)


def _configs(F):
    ident = np.arange(9)
    frob = F.power_table(3)
    p5 = F.power_table(5)
    scale = lambda lam: F.mul[np.arange(9), lam]
    return {
        "identity": (ident, ident),
        "frobenius_action": (ident, frob),
        "power5_transport": (p5, ident),
        "power5_frobenius": (p5, frob),
        "scaled_psi": (scale(4), ident),
        "scaled_psi_power5": (scale(7), F.power_table(5)),
    }


def test_all_configurations_pass(F):
    for name, (psi, phi) in _configs(F).items():
        s = build_elementary(F, psi, phi)
        rep = verify_nvs_axioms(s)
        assert rep.ok, (name, rep.failures())
        b1 = check_elementary_box1(s)
        assert b1.ok, (name, b1.failures())


def test_canonical_space_is_native(F):
    s = build_elementary(F, np.arange(9), np.arange(9))
    assert np.array_equal(s.box_add, F.add)
    assert np.array_equal(s.box_smul, F.mul)


def test_frobenius_action_formula(F):
    frob = F.power_table(3)
    s = build_elementary(F, np.arange(9), frob)
    for a in range(9):
        for b in range(9):
            assert int(s.box_smul[a, b]) == int(F.mul[frob[a], b])


def test_power5_transport_gives_enumerated_addition(F):
    s = build_elementary(F, F.power_table(5), np.arange(9))
    t5 = addition_from_exponent(F, 5)
    assert np.array_equal(s.box_add, t5.table)


def test_caller_arrays_stay_writable(F):
    psi, phi = np.arange(9), F.power_table(3)
    s = build_elementary(F, psi, phi)
    psi[1], psi[2] = 2, 1
    phi[2] = 0
    assert np.array_equal(s.psi, np.arange(9))
    assert np.array_equal(s.phi, F.power_table(3))
    assert not s.psi.flags.writeable and not s.phi.flags.writeable
    assert verify_nvs_axioms(s).ok


def test_scaled_psi_folds_into_phi_prime(F):
    # psi(1) = lambda != 1 lands in the quasi-multiplicative pullback
    for lam in (2, 4, 7):
        psi = F.mul[np.arange(9), lam]
        s = build_elementary(F, psi, F.power_table(3))
        assert int(s.psi[F.one]) == lam
        rep = check_elementary_box1(s)
        assert rep.ok, (lam, rep.failures())


def test_validation_names_the_property(F):
    good_phi = np.arange(9)
    with pytest.raises(DomainError, match="bijection"):
        build_elementary(F, np.zeros(9, dtype=np.int64), good_phi)
    shifted = (np.arange(9) + 1) % 9
    with pytest.raises(DomainError, match="zero"):
        build_elementary(F, shifted, good_phi)
    swap_neg = np.arange(9)
    a = next(i for i in range(1, 9) if int(F.neg[i]) != i)
    swap_neg[a], swap_neg[int(F.neg[a])] = int(F.neg[a]), a
    # swapping a with -a still commutes with negation, so corrupt differently
    oddball = np.arange(9)
    b, c = 1, next(i for i in range(2, 9) if int(F.neg[i]) not in (1, i))
    oddball[b], oddball[c] = c, b
    with pytest.raises(DomainError, match="negation|zero|bijection"):
        build_elementary(F, oddball, good_phi)
    bad_phi = np.arange(9)
    bad_phi[2], bad_phi[5] = 5, 2
    with pytest.raises(DomainError, match="multiplicative|one"):
        build_elementary(F, np.arange(9), bad_phi)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda F: check_qmc_equivalence(F, np.arange(9) + 0.5), DomainError),
        (lambda F: QuasiMultSpec(F, np.arange(9) + 0.7, 1), DomainError),
        (lambda F: QuasiMultSpec(F, np.arange(9), 2.5), TypeError),
        (lambda F: build_elementary(F, np.arange(9) + 0.5, np.arange(9)), DomainError),
        (lambda F: build_elementary(F, np.arange(9), np.arange(9) + 0.5), DomainError),
    ],
    ids=["qmc_phi", "spec_phi_mult", "spec_lam", "nvs_psi", "nvs_phi"],
)
def test_non_integer_input_is_refused_not_truncated(F, call, error):
    # Cast to int64, each of these floats would truncate to a valid input.
    with pytest.raises(error, match="integer"):
        call(F)


def test_mutated_phi_fails_with_witness(F):
    for name, (psi, phi) in _configs(F).items():
        broken = phi.copy()
        spots = [i for i in range(9) if i not in (F.zero, F.one)][:2]
        broken[spots[0]], broken[spots[1]] = broken[spots[1]], broken[spots[0]]
        s = _assemble(F, psi, broken)
        rep = verify_nvs_axioms(s)
        assert not rep.ok, name
        assert any(c.witness is not None for c in rep.failures()), name


def test_a_fixed_point_action_has_a_quasi_kernel_that_generates_nothing(F):
    # a (.) v = v for every a != 0: the orbit of v is {0, v}, closed under
    # (+) only for v = 0, so the quasi-kernel is [0] and spans [0] alone.
    s = _assemble(F, np.arange(9), np.arange(9))
    fixed = np.tile(np.arange(9), (9, 1))
    fixed[F.zero] = F.zero
    checks = {c.name: c for c in verify_nvs_axioms(replace(s, box_smul=fixed)).checks}
    assert not checks["quasi_kernel_is_everything"].ok
    assert checks["quasi_kernel_is_everything"].witness == [0]
    assert not checks["quasi_kernel_generates"].ok


def _crafted_spaces():
    """One space on F9 for each check of verify_nvs_axioms that fails it,
    with the witness that check carries. Each is the native space (psi and
    phi the identity, so (+) is + and (.) is the product) with tables
    swapped in by dataclasses.replace."""
    f9 = make_field(3, 2)
    x = np.arange(f9.m)
    native = build_elementary(f9, x, x)
    line = np.tile(x, (f9.m, 1))  # a (.) v = v for every a != 0, so no orbit {0, v} is closed,
    line[f9.zero] = f9.zero
    sign = np.where(f9.dlog % 2 == 0, f9.one, f9.minus_one)  # the quadratic character
    sign[f9.zero] = f9.zero
    line[:, [3, 6]] = f9.mul[sign[:, None], [3, 6]]  # but a (.) v = +-v on the line {0, 3, 6}
    swap = x.copy()
    swap[[1, 2]] = [2, 1]  # fixes 0, but is not multiplicative
    bad_phi = x[[0, 1, 3, 2, 4, 5, 6, 7, 8]]  # criterion 8's swap of phi at 2 and 3
    p5 = f9.power_table(5)
    return [
        ("add_associative", replace(native, box_add=_edited(f9.add, (1, 2, 4), (2, 1, 4))), (1, 1, 2)),
        ("add_commutative", replace(native, box_add=_edited(f9.add, (1, 2, 4))), (1, 2)),
        ("add_zero", replace(native, box_add=_edited(f9.add, (0, 3, 4))), 3),
        ("add_inverses", replace(native, box_add=_edited(f9.add, (3, 6, 1))), 3),  # -3 = 6
        ("action_identity", replace(native, box_smul=_edited(f9.mul, (1, 3, 4))), 3),
        ("action_minus_one", replace(native, box_smul=_edited(f9.mul, (2, 3, 4))), 3),  # -1 = 2
        ("action_zero", replace(native, box_smul=_edited(f9.mul, (0, 3, 3))), 3),
        ("action_associative", _assemble(f9, x, bad_phi), (2, 2, 1)),
        ("action_distributes", replace(native, box_add=transport(f9.add, swap)), (3, 1, 3)),
        # gamma-major, the first of the fixed points (4, 3) and (3, 5)
        ("action_free_off_zero", replace(native, box_smul=_edited(f9.mul, (4, 3, 3), (3, 5, 5))), (4, 3)),
        ("quasi_kernel_is_everything", replace(native, box_smul=_edited(f9.mul, (1, 3, 4))), [0, 1, 2, 4, 5, 6, 7, 8]),
        ("quasi_kernel_generates", replace(native, box_smul=line), 1),
        ("orbit_of_one_full", replace(native, box_smul=_edited(f9.mul, (2, 1, 3))), 3),  # 3 . 1 = 3 = 2 . 1
        ("transport_multiplicative", replace(native, phi=f9.power_table(3)), (3, 1)),
        ("transport_additive", replace(native, psi=p5, psi_inv=np.argsort(p5)), (1, 3)),
    ]


CRAFTED_SPACES = _crafted_spaces()


@pytest.mark.parametrize("name, space, witness", CRAFTED_SPACES, ids=[c[0] for c in CRAFTED_SPACES])
def test_each_nvs_check_fails_on_a_crafted_space(name, space, witness):
    rep = verify_nvs_axioms(space)
    (check,) = [c for c in rep.checks if c.name == name]
    assert not check.ok and check.witness == witness, check
    _assert_matches_oracle(space, rep)
    # Together the crafted spaces fail every check that the verifier makes.
    native = build_elementary(space.field, np.arange(9), np.arange(9))
    assert [c.name for c in verify_nvs_axioms(native).checks] == [c[0] for c in CRAFTED_SPACES]


BOX1_EDITS = [
    ("phi_prime_bijective", {"phi": np.zeros(9, dtype=np.int64)}, 1),  # phi'(1) = 0 = phi'(0)
    ("box_one_equals_pullback", {"box_add": _edited(make_field(3, 2).add, (1, 2, 5), (2, 1, 5))}, (1, 2, 5, 0)),
]


@pytest.mark.parametrize("name, edit, witness", BOX1_EDITS, ids=[c[0] for c in BOX1_EDITS])
def test_each_box1_check_fails_on_a_crafted_space(name, edit, witness):
    native = build_elementary(make_field(3, 2), np.arange(9), np.arange(9))
    (check,) = [c for c in check_elementary_box1(replace(native, **edit)).checks if c.name == name]
    assert not check.ok and check.witness == witness, check
    # Together the edits fail both checks that the comparison makes.
    assert [c.name for c in check_elementary_box1(native).checks] == [c[0] for c in BOX1_EDITS]


def _oracle_readings(s):
    """The quasi-kernel, whether it generates (V, (+)), and the first fixed
    point (alpha, gamma) of the action off zero, read one vector at a time:
    an np.isin per orbit, a closure of sets, and the pairs walked
    gamma-major."""
    F, A, S = s.field, s.box_add, s.box_smul
    quasi = [v for v, orbit in enumerate(S.T) if np.isin(A[np.ix_(orbit, orbit)], orbit).all()]
    span = set(quasi)
    while (grown := span | {int(A[a, b]) for a in span for b in span}) != span:
        span = grown
    pairs = ((alpha, gamma) for gamma in range(F.m) if gamma != F.zero for alpha in range(F.m))
    free = next(((a, g) for a, g in pairs if S[a, g] == g and a != F.one), None)
    return quasi, len(span) == F.m, free


def _assert_matches_oracle(s, rep):
    """rep, verify_nvs_axioms's report on s, agrees with the oracle's
    readings, which are returned."""
    checks = {c.name: c for c in rep.checks}
    quasi, generates, free = _oracle_readings(s)
    assert checks["quasi_kernel_is_everything"].witness == quasi
    assert checks["quasi_kernel_generates"].ok == generates
    assert checks["action_free_off_zero"].witness == free
    return tuple(quasi), generates, free


@pytest.mark.parametrize("table", ["box_smul", "box_add"])
@pytest.mark.parametrize("key, k_psi, k_phi", [((3, 2), 5, 3), ((5, 2), 7, 5)], ids=["f9", "f25"])
def test_quasi_kernel_and_free_action_match_the_oracle_after_one_edit(key, k_psi, k_phi, table):
    field = make_field(*key)
    s = build_elementary(field, field.power_table(k_psi), field.power_table(k_phi))
    rng = np.random.default_rng(48)
    readings = set()
    for _ in range(200):
        i, j, step = rng.integers(field.m), rng.integers(field.m), rng.integers(1, field.m)
        t = getattr(s, table)
        edited = replace(s, **{table: _edited(t, (i, j, (t[i, j] + step) % field.m))})
        readings.add(_assert_matches_oracle(edited, verify_nvs_axioms(edited)))
    # For v != 0 the orbit F (.) v is all of V, so only an edit of (.), or
    # of 0 (+) 0, can leave an orbit open or give the action a fixed point.
    if table == "box_smul":
        assert len(readings) > 1


def _accepted_pairs(field):
    """Every (psi, phi) that build_elementary accepts on field: psi a
    bijection fixing zero that commutes with negation, phi a
    multiplicative bijection, each found by a walk over all bijections
    fixing zero (and one, for phi)."""
    neg = field.neg.tolist()
    rest = range(1, field.m)
    psis = [
        psi for psi in ([0, *perm] for perm in itertools.permutations(rest))
        if all(psi[neg[a]] == neg[psi[a]] for a in rest)
    ]
    phis = [
        phi for phi in (np.array([0, 1, *perm]) for perm in itertools.permutations(range(2, field.m)))
        if is_mult_bijection(field, phi)
    ]
    return [(np.array(psi), phi) for psi in psis for phi in phis]


@pytest.mark.parametrize("key, count, classes", [
    ((2, 2), 12, {(1, 2): 12}),
    ((3, 2), 1536, {(1, 3): 768, (5, 7): 768}),
], ids=["f4", "f9"])
def test_every_accepted_space_on_f4_and_f9(key, count, classes):
    field = make_field(*key)
    enum = enumerate_additions(field)
    class_of = {t.table.astype(np.int64).tobytes(): tuple(c) for t, c in zip(enum.tables, enum.classes)}
    pairs = _accepted_pairs(field)
    assert len(pairs) == count
    seen = Counter()
    for psi, phi in pairs:
        s = build_elementary(field, psi, phi)
        rep, box1 = verify_nvs_axioms(s), check_elementary_box1(s)
        assert rep.ok and box1.ok, (psi, phi, rep.first_failure() or box1.first_failure())
        _assert_matches_oracle(s, rep)
        at_one = transport(s.box_add, s.box_smul[:, field.one])
        seen[class_of[at_one.tobytes()]] += 1

        # criterion 8's mutation: swap phi at the first two points other
        # than one and phi(one)
        bad_phi = phi.copy()
        i, j = [x for x in range(field.m) if x not in (field.one, int(phi[field.one]))][:2]
        bad_phi[i], bad_phi[j] = bad_phi[j], bad_phi[i]
        broken = _assemble(field, psi, bad_phi)
        broken_rep = verify_nvs_axioms(broken)
        _assert_matches_oracle(broken, broken_rep)
        failed = broken_rep.failures() or check_elementary_box1(broken).failures()
        assert any(c.witness is not None for c in failed), (psi, phi)
    assert seen == classes


def test_mutated_psi_fails(F):
    psi = np.arange(9)
    psi[0], psi[3] = 3, 0  # moves zero
    s = _assemble(F, psi, np.arange(9))
    rep = verify_nvs_axioms(s)
    assert not rep.ok


def test_elemtheo_corollary_via_ringisom(F):
    # a multiplicative bijection makes the pulled-back addition a field
    # structure isomorphic to the native one, with phi the isomorphism
    phi = F.power_table(3)
    phi_inv = np.argsort(phi)
    pulled = phi_inv[F.add[np.ix_(phi, phi)]]
    src = StructureOps(
        "F9 pulled", add=lambda a, b: int(pulled[a, b]), mul=lambda a, b: int(F.mul[a, b])
    )
    dst = StructureOps(
        "F9 native", add=lambda a, b: int(F.add[a, b]), mul=lambda a, b: int(F.mul[a, b])
    )
    rep = check_ringisom(
        lambda i: int(phi[i]),
        lambda i: int(phi_inv[i]),
        src,
        dst,
        lambda rng: int(rng.integers(0, 9)),
        150,
        rng=np.random.default_rng(6),
    )
    assert rep.ok, rep.failures()


def test_qmc_scaling_and_frobenius_pass():
    F = make_field(3, 2)
    for lam in range(1, 9):
        res = check_qmc_equivalence(F, F.mul[np.arange(9), lam])
        assert res.report.ok
        assert res.is_quasi_multiplicative
        assert res.lam == lam
    res = check_qmc_equivalence(F, F.power_table(3))
    assert res.is_quasi_multiplicative and res.report.ok
    # Frobenius composed with a scaling is still quasi-multiplicative
    res = check_qmc_equivalence(F, F.mul[F.power_table(3), 5])
    assert res.is_quasi_multiplicative and res.report.ok


def test_qmc_rejects_non_examples_with_agreement():
    F = make_field(3, 2)
    rng = np.random.default_rng(23)
    rejected = 0
    for _ in range(60):
        perm = np.concatenate(([0], rng.permutation(np.arange(1, 9)))).astype(np.int64)
        res = check_qmc_equivalence(F, perm)
        assert res.report.ok, "the five conditions must agree"
        assert len(set(res.conditions.values())) == 1
        if not res.is_quasi_multiplicative:
            rejected += 1
    assert rejected > 40


def test_qmc_zero_moving_map_is_all_false():
    F = make_field(3, 2)
    perm = np.arange(9)
    perm[0], perm[1] = 1, 0  # sends zero to one
    res = check_qmc_equivalence(F, perm)
    assert not res.is_quasi_multiplicative
    assert res.report.ok
    with pytest.raises(DomainError):
        check_qmc_equivalence(F, np.zeros(9, dtype=np.int64))


def test_qmc_conditions_disagree_on_a_product_that_is_no_group():
    # F9 with 7 * 1 = 1 * 7 = 2, a product that is no group's: there this
    # phi meets conditions 1, 4 and 5 and misses 2 and 3. The condition_i
    # checks themselves only inform, and pass whatever their condition.
    F = copy.copy(make_field(3, 2))
    F.mul = _edited(F.mul, (7, 1, 2), (1, 7, 2))
    res = check_qmc_equivalence(F, np.array([0, 4, 8, 5, 6, 1, 7, 2, 3]))
    failed = {c.name: c.witness for c in res.report.failures()}
    want = {"condition_1": True, "condition_2": False, "condition_3": False,
            "condition_4": True, "condition_5": True}
    assert res.conditions == want and failed == {"conditions_agree": want}


def test_qm_spec_group_laws():
    F = make_field(3, 2)
    ident = QuasiMultSpec(F, np.arange(9), F.one)
    specs = [
        QuasiMultSpec(F, F.power_table(3), 4),
        QuasiMultSpec(F, np.arange(9), 2),
        QuasiMultSpec(F, F.power_table(3), 7),
    ]
    for f in specs:
        inv = qm_invert(f)
        left = qm_compose(inv, f)
        right = qm_compose(f, inv)
        assert np.array_equal(left.as_table(), ident.as_table())
        assert np.array_equal(right.as_table(), ident.as_table())
    for f in specs:
        for g in specs:
            h = qm_compose(f, g)
            assert np.array_equal(h.as_table(), f.as_table()[g.as_table()])
            assert check_qmc_equivalence(F, h.as_table()).is_quasi_multiplicative


def test_qm_spec_keeps_a_copy_of_the_callers_table():
    F = make_field(3, 2)
    phi = F.power_table(3)
    spec = QuasiMultSpec(F, phi, 4)
    phi[2] = 0
    assert np.array_equal(spec.phi_mult, F.power_table(3))
    assert not spec.phi_mult.flags.writeable


def test_qm_spec_validation():
    F = make_field(3, 2)
    for lam in (-1, 0, 9, F.m):  # -1 would otherwise read as element 8
        with pytest.raises(DomainError, match="lambda"):
            QuasiMultSpec(F, F.power_table(3), lam)
    bad = np.arange(9)
    bad[1], bad[4] = 4, 1  # moves one, so not multiplicative
    with pytest.raises(DomainError):
        QuasiMultSpec(F, bad, 2)
