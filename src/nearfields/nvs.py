"""Elementary near-vector spaces over a finite field.

A pair of tables builds the space: psi, a bijection fixing 0 and commuting
with negation, transports native addition; phi, a multiplicative bijection,
twists the scalar action. The derived operations are

    alpha (+) beta  = psi^-1(psi(alpha) + psi(beta))
    alpha (.) beta  = psi^-1(phi(alpha) * psi(beta))

and every structural claim about them (abelian group, action laws,
freeness, quasi-kernel generation, the addition at the vector 1) is
checked exhaustively, never assumed. Only finite carriers live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .finite import FiniteField, is_mult_bijection, is_permutation, transport
from .kernels import _first_false, assoc_witness, left_distrib_witness
from .report import Report

__all__ = [
    "ElementaryNVS",
    "build_elementary",
    "verify_nvs_axioms",
    "check_elementary_box1",
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
    box_smul = psi_inv[field.mul[phi[:, None], psi[None, :]]]
    return ElementaryNVS(field, psi, psi_inv, phi, box_add, box_smul)


def build_elementary(field: FiniteField, psi: np.ndarray, phi: np.ndarray) -> ElementaryNVS:
    """Assemble the space, validating the hypotheses exhaustively."""
    psi = np.asarray(psi, dtype=np.int64)
    phi = np.asarray(phi, dtype=np.int64)
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
    """
    F = s.field
    m = F.m
    rep = Report("elementary near-vector-space axioms")
    A, S = s.box_add, s.box_smul

    wit = assoc_witness(A)
    rep.add("add_associative", wit is None, witness=wit)
    rep.add("add_commutative", bool(np.array_equal(A, A.T)))
    rep.add("add_zero", bool(np.array_equal(A[F.zero], np.arange(m))))
    box_neg = s.psi_inv[F.neg[s.psi]]
    rep.add(
        "add_inverses",
        bool(np.array_equal(A[np.arange(m), box_neg], np.full(m, F.zero))),
    )

    rep.add("action_identity", bool(np.array_equal(S[F.one], np.arange(m))))
    rep.add("action_minus_one", bool(np.array_equal(S[F.minus_one], box_neg)))
    rep.add("action_zero", bool((S[F.zero] == F.zero).all()))
    wit = _first_false(S[F.mul] == S[:, S])
    rep.add("action_associative", wit is None, witness=wit)
    wit = left_distrib_witness(S, A)
    rep.add("action_distributes", wit is None, witness=wit)

    pairs = ((alpha, gamma) for gamma in range(m) if gamma != F.zero for alpha in range(m))
    bad = next(((a, g) for a, g in pairs if S[a, g] == g and a != F.one), None)
    rep.add("action_free_off_zero", bad is None, witness=bad)

    quasi = []
    for v in range(m):
        col = S[:, v]
        if bool(np.isin(A[np.ix_(col, col)], col).all()):
            quasi.append(v)
    rep.add("quasi_kernel_is_everything", quasi == list(range(m)), witness=quasi)
    reached = set(quasi)
    frontier = list(quasi)
    while frontier:
        nxt = []
        for v in frontier:
            for w in (set(int(x) for x in A[v]) | set(int(x) for x in S[:, v])):
                if w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    rep.add("quasi_kernel_generates", reached == set(range(m)))
    rep.add("orbit_of_one_full", is_permutation(S[:, F.one], m))

    rep.add(
        "transport_multiplicative",
        bool(
            np.array_equal(
                s.psi[S], F.mul[s.phi[:, None], s.psi[None, :]]
            )
        ),
    )
    rep.add(
        "transport_additive",
        bool(np.array_equal(s.psi[A], F.add[np.ix_(s.psi, s.psi)])),
    )
    rep.counts["triples"] = m**3
    return rep


def check_elementary_box1(s: ElementaryNVS) -> Report:
    """Compare the addition at 1 against the pullback of native addition
    through phi'(alpha) = phi(alpha) * psi(1), computed independently."""
    F = s.field
    rep = Report("addition at one vs quasi-multiplicative pullback")
    t1 = transport(s.box_add, s.box_smul[:, F.one])  # (+) pulled back through alpha (.) 1
    phi_prime = F.mul[s.phi, s.psi[F.one]]
    rep.add("phi_prime_bijective", is_permutation(phi_prime, F.m))
    pulled = transport(F.add, phi_prime)
    ij = _first_false(t1 == pulled)
    wit = None if ij is None else (*ij, int(t1[ij]), int(pulled[ij]))
    rep.add("box_one_equals_pullback", ij is None, witness=wit)
    rep.counts["pairs"] = F.m**2
    return rep
