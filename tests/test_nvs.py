"""Tests for elementary near-vector spaces on F9: construction, the axiom
verifier and the addition-at-one comparison."""

from __future__ import annotations

import numpy as np
import pytest

from nearfields.errors import DomainError
from nearfields.finite import addition_from_exponent, make_field
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
