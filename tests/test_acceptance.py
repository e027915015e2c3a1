"""Acceptance suite: ten pinned criteria, one test and one verdict line each.

Every criterion prints "criterion N: PASS ..." (visible with -s, and mirrored
by the test outcome itself under -v). Budgets and floors are pinned here, not
read from configuration, so a regression cannot loosen them silently.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from nearfields.epsilon import epsilon_inverse_param, eval_epsilon
from nearfields.finite import (
    addition_from_exponent,
    check_isomorphic_additions,
    enumerate_additions,
    make_field,
    modnear_ring_check,
    native_addition,
)
from nearfields.induced import (
    StructureOps,
    check_ringisom,
    exotic_add_q,
    find_add_witness,
    verify_exotic_field_axioms,
)
from nearfields.maps import default_correspondence, sigma_apply, sigma_invert
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
from nearfields.quadratic import QuadInt, QuadRat, factor_quad, primes_above, rebuild_quad
from nearfields.rationals import primes_upto
from nearfields.rho import (
    add_from_rho,
    char_map,
    field_carrier,
    rational_carrier,
    rho_from_add,
)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_exotic_field_axioms():
    budget = 60.0
    floors = {"commutativity": 900, "distributivity": 800, "associativity": 950}
    t0 = time.perf_counter()
    rep = verify_exotic_field_axioms(trials=1000, height=10**4, seed=0, floors=floors)
    witness = find_add_witness(20)
    elapsed = time.perf_counter() - t0
    a, b, exotic, native = witness
    ok = (
        rep.ok
        and elapsed < budget
        and abs(a) <= 20
        and abs(b) <= 20
        and exotic != native
    )
    _verdict(
        1,
        ok,
        f"1000 seeded triples at height 1e4 exact, witness {a}+{b} gives "
        f"{exotic} not {native}, {elapsed:.1f}s < {budget:.0f}s "
        f"(first failure: {rep.first_failure()})",
    )


def test_criterion_02_isomorphism_instantiation():
    budget = 30.0
    corr = default_correspondence()
    src = StructureOps("exotic rationals", exotic_add_q, lambda a, b: a * b)
    dst = StructureOps("quadratic field", lambda x, y: x + y, lambda x, y: x * y)
    h = 60
    sampler = lambda rng: Fraction(int(rng.integers(-h, h + 1)), int(rng.integers(1, h + 1)))
    t0 = time.perf_counter()
    rep = check_ringisom(
        lambda q: sigma_apply(corr, q),
        lambda x: sigma_invert(corr, x),
        src,
        dst,
        sampler,
        500,
        rng=np.random.default_rng(1),
    )
    elapsed = time.perf_counter() - t0
    ok = rep.ok and rep.counts["pairs"] == 500 and elapsed < budget
    _verdict(
        2,
        ok,
        f"all three conditions true on 500 exact pairs, {elapsed:.1f}s < {budget:.0f}s "
        f"(first failure: {rep.first_failure()})",
    )


def test_criterion_03_factorization_round_trip_and_trichotomy():
    rng = np.random.default_rng(3)
    trips = 0
    while trips < 1000:
        a = int(rng.integers(-10**5, 10**5 + 1))
        b = int(rng.integers(-3 * 10**4, 3 * 10**4 + 1))
        z = QuadInt(a, b)
        if z.is_zero() or z.norm() > 10**10:
            continue
        back = rebuild_quad(factor_quad(z))
        assert back == QuadRat(z, 1), f"round trip failed at {z!r}"
        trips += 1

    qr = {pow(x, 2, 19) for x in range(1, 19)}
    ramified = []
    for p in primes_upto(542):  # the 100th prime
        s = primes_above(p)
        if p == 19:
            expected = "ramified"
        elif p != 2 and p % 19 in qr:
            expected = "split"
        else:
            expected = "inert"
        assert s.kind == expected, f"{p}: got {s.kind}, residue oracle says {expected}"
        norms = sorted(pi.norm() for pi in s.primes)
        assert norms == {"split": [p, p], "ramified": [p], "inert": [p * p]}[s.kind]
        f = factor_quad(QuadInt(p, 0))
        shape = sorted(f.exponents.values())
        assert shape == {"split": [1, 1], "ramified": [2], "inert": [1]}[s.kind]
        if s.kind == "ramified":
            ramified.append(p)
    ok = ramified == [19]
    _verdict(
        3,
        ok,
        f"1000 round trips at norm <= 1e10 exact, trichotomy on first 100 primes, "
        f"ramified exactly at {ramified}",
    )


def test_criterion_04_finite_enumeration():
    budget = 120.0
    t0 = time.perf_counter()
    results = {}
    for key in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]:
        results[key] = enumerate_additions(make_field(*key))
    elapsed = time.perf_counter() - t0
    all_ok = all(r.report.ok for r in results.values()) and all(
        r.report.counts[f"triples[{t.provenance}]"] == r.field.m**3
        for r in results.values()
        for t in r.tables
    )
    f9 = results[(3, 2)]
    ok = (
        all_ok
        and f9.classes == [[1, 3], [5, 7]]
        and len(f9.tables) == 2
        and not np.array_equal(f9.tables[0].table, f9.tables[1].table)
        and elapsed < budget
    )
    detail = ", ".join(
        f"F{p**n}:{len(r.tables)} tables" for (p, n), r in results.items()
    )
    _verdict(
        4,
        ok,
        f"every exponent addition passes the exhaustive axiom sweeps ({detail}), "
        f"F9 classes {f9.classes}, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_05_pairwise_power_isomorphisms():
    pairs = 0
    for key in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        field = make_field(*key)
        res = enumerate_additions(field)
        for i in range(len(res.tables)):
            for j in range(i + 1, len(res.tables)):
                k = check_isomorphic_additions(field, res.tables[i], res.tables[j])
                assert gcd(k, field.m - 1) == 1
                pairs += 1
    _verdict(
        5,
        True,
        f"power-map witness found for all {pairs} distinct-table pairs, "
        f"zero integrity errors",
    )


def test_criterion_06_rho_calculus():
    F = make_field(3, 2)
    carrier = field_carrier(F)
    native = native_addition(F).table
    box5 = addition_from_exponent(F, 5).table
    from nearfields.rho import verify_rho_axioms

    parts = []
    for name, table in [("native", native), ("box5", box5)]:
        r = rho_from_add(carrier, lambda a, b, t=table: int(t[a, b]))
        rep = verify_rho_axioms(r)
        parts.append(rep.ok and rep.counts["pairs"] == 81)
        # round trips are pointwise identities, both directions
        add_back = add_from_rho(r)
        assert all(
            add_back(a, b) == int(table[a, b]) for a in range(9) for b in range(9)
        ), name
        r_back = rho_from_add(carrier, add_back)
        assert all(r_back(a) == r(a) for a in range(9)), name

    r5 = rho_from_add(carrier, lambda a, b: int(box5[a, b]))
    res9 = char_map(r5, 20, seed=0)
    core_names = {
        "characteristic_prime",
        "core_multiplicative_subgroup",
        "core_two_sided_distributive",
        "chi_additive",
        "chi_multiplicative",
    }
    got = {c.name for c in res9.report.checks if c.ok}
    parts.append(res9.characteristic == 3 and core_names <= got and res9.report.ok)

    rq = rho_from_add(rational_carrier(), lambda a, b: exotic_add_q(a, b))
    resq = char_map(rq, 200, seed=0)
    parts.append(
        resq.characteristic == 0
        and resq.evidence_bounded
        and resq.report.ok
        and resq.chi(3) == Fraction(13)
        and resq.chi(-11) == Fraction(323)
    )
    ok = all(parts)
    _verdict(
        6,
        ok,
        f"rho axioms exhaustive for native and box5 on F9, round trips pointwise, "
        f"chi gives characteristic 3 with a closed distributive core on F9 and "
        f"no zero up to 200 on the exotic rationals (parts: {parts})",
    )


def test_criterion_07_modnear_ring():
    budget = 60.0
    t0 = time.perf_counter()
    rep = modnear_ring_check()
    elapsed = time.perf_counter() - t0
    members = rep.counts.get("members", 0)
    ok = rep.ok and members == 81 and elapsed < budget
    _verdict(
        7,
        ok,
        f"{members} members, all right-modnear-ring axioms over 81^3 triples, "
        f"{elapsed:.1f}s < {budget:.0f}s (first failure: {rep.first_failure()})",
    )


def test_criterion_08_near_vector_spaces():
    F = make_field(3, 2)
    ident = np.arange(F.m, dtype=np.int64)
    configs = [
        ("identity", ident, ident),
        ("frobenius_action", ident, F.power_table(3)),
        ("power5_transport", F.power_table(5), ident),
        ("power5_frobenius", F.power_table(5), F.power_table(3)),
        ("scaled_psi", F.scale_table(4), ident),
        ("scaled_psi_power5", F.power_table(5)[F.scale_table(7)], F.power_table(3)),
    ]
    assert len(configs) >= 6
    mutations = 0
    for name, psi, phi in configs:
        s = build_elementary(F, psi, phi)
        rep = verify_nvs_axioms(s)
        box1 = check_elementary_box1(s)
        assert rep.ok and box1.ok, f"{name}: {rep.first_failure() or box1.first_failure()}"

        bad_phi = phi.copy()
        others = [i for i in range(F.m) if i not in (F.one, int(phi[F.one]))]
        bad_phi[others[0]], bad_phi[others[1]] = bad_phi[others[1]], bad_phi[others[0]]
        broken = _assemble(F, psi, bad_phi)  # unchecked, so the verifier must catch it
        brep = verify_nvs_axioms(broken)
        failed = brep.failures() or check_elementary_box1(broken).failures()
        assert failed and any(c.witness is not None for c in failed), name
        mutations += 1
    _verdict(
        8,
        True,
        f"{len(configs)} psi/phi configurations pass exhaustively, "
        f"{mutations} mutations each fail with a witness",
    )


def test_criterion_09_quasi_multiplicative_equivalence():
    F = make_field(3, 2)
    rng = np.random.default_rng(9)
    units = [k for k in range(1, F.m - 1) if gcd(k, F.m - 1) == 1]

    constructed = 0
    specs = []
    while constructed < 50:
        k = units[int(rng.integers(len(units)))]
        lam = int(rng.integers(1, F.m))
        spec = QuasiMultSpec(F, F.power_table(k), lam)
        res = check_qmc_equivalence(F, spec.as_table())
        assert res.report.ok and res.is_quasi_multiplicative, (k, lam)
        specs.append(spec)
        constructed += 1

    agree_false = 0
    for _ in range(50):
        perm = np.concatenate(([0], rng.permutation(np.arange(1, F.m))))
        res = check_qmc_equivalence(F, perm)
        assert res.report.ok, perm  # ok means the five conditions agree
        if not res.is_quasi_multiplicative:
            agree_false += 1

    f, g = specs[0], specs[1]
    comp = qm_compose(f, g)
    assert np.array_equal(comp.as_table(), f.as_table()[g.as_table()])
    inv = qm_invert(f)
    assert np.array_equal(inv.as_table()[f.as_table()], np.arange(F.m))
    assert np.array_equal(f.as_table()[inv.as_table()], np.arange(F.m))
    _verdict(
        9,
        True,
        f"five conditions agree on 50 constructed maps and 50 random permutations "
        f"({agree_false} rejected), composition and inverse hold pointwise",
    )


def test_criterion_10_epsilon_maps():
    tol = 1e-9
    rng = np.random.default_rng(10)
    worst = 0.0
    alphas = 0
    while alphas < 10:
        alpha = complex(rng.normal(), rng.normal())
        if abs(alpha.real) < 0.2:
            continue
        alphas += 1
        conjugate = alphas % 2 == 0
        beta = epsilon_inverse_param(alpha, conjugate=conjugate)
        for _ in range(1000):
            z = complex(rng.normal(), rng.normal()) or 1.0
            w = complex(rng.normal(), rng.normal()) or 1.0
            lhs = eval_epsilon(alpha, z * w, conjugate=conjugate)
            rhs = eval_epsilon(alpha, z, conjugate=conjugate) * eval_epsilon(
                alpha, w, conjugate=conjugate
            )
            err = abs(lhs - rhs) / max(1.0, abs(rhs))
            back = eval_epsilon(beta, eval_epsilon(alpha, z, conjugate=conjugate),
                                conjugate=conjugate)
            err = max(err, abs(back - z) / max(1.0, abs(z)))
            worst = max(worst, err)
        assert worst <= tol, (alpha, worst)
    _verdict(
        10,
        worst <= tol,
        f"multiplicativity and the inverse formula hold on 1000 pairs for each of "
        f"10 alphas, worst relative error {worst:.2e} <= {tol:.0e}",
    )
