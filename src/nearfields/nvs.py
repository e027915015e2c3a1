"""Elementary near-vector spaces over a finite field.

A pair of tables builds the space: psi, a bijection fixing 0 and commuting
with negation, transports native addition; phi, a multiplicative bijection,
twists the scalar action. The derived operations are

    alpha (+) beta  = psi^-1(psi(alpha) + psi(beta))
    alpha (.) beta  = psi^-1(phi(alpha) * psi(beta))

and every structural claim about them (abelian group, action laws,
freeness, quasi-kernel generation, the addition at the vector 1) is
checked exhaustively, never assumed. Also here, since the addition at 1
is pulled back through one: the five-way test of a right quasi-multiplicative
bijection, and the group of (mult part, lambda) specs. Finite carriers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import DomainError, IntegrityError
from .finite import FiniteField, _first_repeat, is_mult_bijection, is_permutation, transport
from .kernels import _close, _first_false, _grid, _integer, assoc_witness, left_distrib_witness
from .report import Report

__all__ = [
    "ElementaryNVS",
    "build_elementary",
    "verify_nvs_axioms",
    "check_elementary_box1",
    "QmcResult",
    "check_qmc_equivalence",
    "QuasiMultSpec",
    "qm_compose",
    "qm_invert",
]


@dataclass(frozen=True)
class ElementaryNVS:
    """Scalars and vectors share the carrier; indices into field tables."""

    field: FiniteField
    psi: np.ndarray
    psi_inv: np.ndarray
    phi: np.ndarray
    box_add: np.ndarray
    box_smul: np.ndarray

    def __post_init__(self):
        for t in (self.psi, self.psi_inv, self.phi, self.box_add, self.box_smul):
            t.flags.writeable = False


def _assemble(field: FiniteField, psi: np.ndarray, phi: np.ndarray) -> ElementaryNVS:
    """The space's tables from psi and phi, with no hypothesis checks; the
    space keeps frozen copies, so the caller's arrays stay its own."""
    psi = np.array(psi, dtype=np.int64)
    phi = np.array(phi, dtype=np.int64)
    psi_inv = np.argsort(psi)
    box_add = transport(field.add, psi)
    box_smul = psi_inv[_grid(field.mul, phi, psi)]
    return ElementaryNVS(field, psi, psi_inv, phi, box_add, box_smul)


def build_elementary(field: FiniteField, psi: np.ndarray, phi: np.ndarray) -> ElementaryNVS:
    """Assemble the space, validating the hypotheses exhaustively.

    That psi commutes with negation gives the space the field's negation:
    the inverse psi^-1(-psi(a)) of a under (+) is then -a. No check in
    verify_nvs_axioms needs the hypothesis. A multiplicative bijection
    fixing 1 sends -1 to -1, so (-1) (.) v = psi^-1(phi(-1) psi(v)) =
    psi^-1(-psi(v)) for every psi, and on F9 all 161,280 pairs of a psi
    fixing 0 and a multiplicative phi pass it, the refused ones included.
    """
    psi = np.asarray(_integer(psi, "psi"), dtype=np.int64)
    phi = np.asarray(_integer(phi, "phi"), dtype=np.int64)
    if not is_permutation(psi, field.m):
        raise DomainError("psi is not a bijection of the carrier")
    if psi[field.zero] != field.zero:
        raise DomainError("psi does not fix zero")
    if not np.array_equal(psi[field.neg], field.neg[psi]):
        raise DomainError("psi does not commute with negation")
    if not is_mult_bijection(field, phi):
        raise DomainError("phi is not a multiplicative bijection of the carrier fixing one")
    return _assemble(field, psi, phi)


def verify_nvs_axioms(s: ElementaryNVS) -> Report:
    """Exhaustive run of the elementary near-vector-space axioms.

    Also re-derives the transport identities psi(a (.) b) = phi(a) psi(b)
    and psi(a (+) b) = psi(a) + psi(b) pointwise, which double as a check
    that the tables were assembled from the inputs they claim.

    Each check is whole-table work, and where it has a witness, its first
    failing triple, pair (i, j) or vector v, it fails exactly on that
    witness (Report.holds). The free action is one comparison,
    S.T == arange(m)[:, None], whose first True off the zero row and the
    column of one is the witness (alpha, gamma), gamma-major. The orbits
    are the rows O = S.T, O[v] = F (.) v: one scatter marks which x lie in
    each, and one (m, m, m) gather A[O[:, :, None], O[:, None, :]] holds
    every orbit's sums, so v is in the quasi-kernel when all of row v's
    sums are marked. That mask seeds the closure of the quasi-kernel, the
    first vector outside which is quasi_kernel_generates' witness.
    """
    F = s.field
    m = F.m
    rep = Report("elementary near-vector-space axioms")
    A, S = s.box_add, s.box_smul
    rows = np.arange(m)

    rep.holds("add_associative", assoc_witness(A))
    rep.holds("add_commutative", _first_false(A == A.T))
    rep.holds("add_zero", _first_false(A[F.zero] == rows))
    box_neg = s.psi_inv[F.neg[s.psi]]
    rep.holds("add_inverses", _first_false(A[rows, box_neg] == F.zero))

    rep.holds("action_identity", _first_false(S[F.one] == rows))
    rep.holds("action_minus_one", _first_false(S[F.minus_one] == box_neg))
    rep.holds("action_zero", _first_false(S[F.zero] == F.zero))
    rep.holds("action_associative", _first_false(S[F.mul] == S[:, S]))
    rep.holds("action_distributes", left_distrib_witness(S, A))

    orbits = S.T
    fixed = orbits == rows[:, None]  # fixed[gamma, alpha]: alpha (.) gamma == gamma
    fixed[F.zero] = False
    fixed[:, F.one] = False
    wit = _first_false(~fixed)  # (gamma, alpha), gamma-major
    rep.holds("action_free_off_zero", None if wit is None else wit[::-1])

    # v is in the quasi-kernel when its orbit F (.) v is closed under (+).
    in_orbit = np.zeros((m, m), dtype=bool)
    in_orbit[rows[:, None], orbits] = True
    sums = A[orbits[:, :, None], orbits[:, None, :]]  # sums[v, a, b] = (a (.) v) (+) (b (.) v)
    closed = in_orbit[rows[:, None, None], sums].all(axis=(1, 2))
    quasi = np.flatnonzero(closed).tolist()
    rep.add("quasi_kernel_is_everything", quasi == list(range(m)), witness=quasi)
    # In a finite group, the closure under (+) alone is the subgroup generated.
    span = _close(A, closed)
    rep.holds("quasi_kernel_generates", _first_false(span))
    rep.holds("orbit_of_one_full", _first_repeat(S[:, F.one].tolist(), m))

    rep.holds("transport_multiplicative", _first_false(s.psi[S] == _grid(F.mul, s.phi, s.psi)))
    rep.holds("transport_additive", _first_false(s.psi[A] == _grid(F.add, s.psi, s.psi)))
    rep.counts["triples"] = m**3
    return rep


def check_elementary_box1(s: ElementaryNVS) -> Report:
    """Compare the addition at 1 against the pullback of native addition
    through phi'(alpha) = phi(alpha) * psi(1), computed independently; an
    alpha whose phi'(alpha) repeats fails phi_prime_bijective."""
    F = s.field
    rep = Report("addition at one vs quasi-multiplicative pullback")
    t1 = transport(s.box_add, s.box_smul[:, F.one])  # (+) pulled back through alpha (.) 1
    phi_prime = F.mul[s.phi, s.psi[F.one]]
    rep.holds("phi_prime_bijective", _first_repeat(phi_prime.tolist(), F.m))
    pulled = transport(F.add, phi_prime)
    ij = _first_false(t1 == pulled)
    rep.holds("box_one_equals_pullback", None if ij is None else (*ij, int(t1[ij]), int(pulled[ij])))
    rep.counts["pairs"] = F.m**2
    return rep


@dataclass
class QmcResult:
    report: Report
    conditions: dict[str, bool]
    lam: int
    gamma: int

    @property
    def is_quasi_multiplicative(self) -> bool:
        return all(self.conditions.values())


# The detail of each condition, shared by every result a pass keeps.
_HOLDS = {True: "holds: True", False: "holds: False"}


def check_qmc_equivalence(field_: FiniteField, phi: np.ndarray) -> QmcResult:
    """Evaluate the five equivalent characterizations of a right
    quasi-multiplicative bijection, each independently and exhaustively.

    The characterizations must agree (that is the lemma); disagreement is
    reported as a failed agreement check, never papered over.
    """
    phi = np.asarray(_integer(phi, "phi"), dtype=np.int64)
    M = field_.mul
    m = field_.m
    if not is_permutation(phi, m):
        raise DomainError("phi must be a bijection of the carrier")
    phi_inv = np.argsort(phi)
    lam = int(phi[field_.one])
    gamma = int(phi_inv[field_.one])
    invertible = lam != field_.zero and gamma != field_.zero

    conds: dict[str, bool] = {}
    if not invertible:
        conds = {f"condition_{i}": False for i in range(1, 6)}
    else:
        # 1: phi = (mult bijection) * lam, with the candidate forced as phi/lam
        cand = M[phi, field_.inv[lam]]
        conds["condition_1"] = is_mult_bijection(field_, cand) and bool(
            np.array_equal(M[cand, lam], phi)
        )
        # 2: phi(x y) = phi(x) phi(gamma y)
        pg = phi[M[gamma]]
        conds["condition_2"] = bool(np.array_equal(phi[M], _grid(M, phi, pg)))
        # 3: phi(x y) = phi(x gamma) phi(y)
        pmg = phi[M[:, gamma]]
        conds["condition_3"] = bool(np.array_equal(phi[M], _grid(M, pmg, phi)))
        # 4: x -> phi(x gamma) is a multiplicative bijection
        conds["condition_4"] = is_mult_bijection(field_, phi[M[:, gamma]])
        # 5: x -> phi(gamma x) is a multiplicative bijection
        conds["condition_5"] = is_mult_bijection(field_, phi[M[gamma]])

    rep = Report("quasi-multiplicative equivalence")
    for name, ok in conds.items():
        rep.add(name, True, detail=_HOLDS[ok])
    rep.holds("conditions_agree", None if len(set(conds.values())) == 1 else conds)
    rep.counts["pairs"] = m * m
    return QmcResult(rep, conds, lam, gamma)


@dataclass(frozen=True)
class QuasiMultSpec:
    """A right quasi-multiplicative endobijection, as (mult part, lambda)."""

    field_: FiniteField
    phi_mult: np.ndarray
    lam: int

    def __post_init__(self):
        # a copy, so the caller keeps its array
        phi_mult = np.array(_integer(self.phi_mult, "phi_mult"), dtype=np.int64)
        if not is_mult_bijection(self.field_, phi_mult):
            raise DomainError("phi_mult is not a multiplicative bijection")
        lam = index(self.lam)
        if not 0 < lam < self.field_.m:
            raise DomainError(
                f"lambda must index an invertible element (1..{self.field_.m - 1}), got {lam}"
            )
        phi_mult.flags.writeable = False
        object.__setattr__(self, "phi_mult", phi_mult)
        object.__setattr__(self, "lam", lam)

    def as_table(self) -> np.ndarray:
        return self.field_.mul[self.phi_mult, self.lam]


def qm_compose(f: QuasiMultSpec, g: QuasiMultSpec) -> QuasiMultSpec:
    """f after g, verified extensionally against pointwise composition."""
    fld = f.field_
    out = QuasiMultSpec(fld, f.phi_mult[g.phi_mult], int(fld.mul[f.phi_mult[g.lam], f.lam]))
    if not np.array_equal(out.as_table(), f.as_table()[g.as_table()]):
        raise IntegrityError("composition formula disagrees with pointwise composition")
    return out


def qm_invert(f: QuasiMultSpec) -> QuasiMultSpec:
    """Group inverse, verified extensionally."""
    fld = f.field_
    phi_inv = np.argsort(f.phi_mult)
    out = QuasiMultSpec(fld, phi_inv, int(phi_inv[fld.inv[f.lam]]))
    if not np.array_equal(out.as_table()[f.as_table()], np.arange(fld.m)):
        raise IntegrityError("inverse formula disagrees with pointwise inverse")
    return out
