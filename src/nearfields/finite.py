"""Small finite fields on explicit tables, and every addition they carry.

Each supported (p, n) comes with a fixed irreducible modulus. Elements are
indices 0..p**n-1, and an index is the base-p code of its residue class:
index c0 + c1*p + ... is c0 + c1*x + .... Every structure map is
materialized as an index table so the kernels can sweep identities
exhaustively. Sum and negation act digit by digit on the codes. Product,
inverse and the logarithm tables all come from one generator's powers,
walked once by polynomial multiplication mod the modulus.

The exotic additions are the exponent family a |-> (alpha**a + beta**a)
raised to a**-1 (inverse taken mod p**n - 1, least positive representative),
one for each unit a of Z/(p**n - 1). Raising to the p-th power is a field
automorphism, so a and p*a induce the same table; the distinct tables
correspond to cosets of <p> in the unit group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import DomainError, IntegrityError
from .report import Report

__all__ = [
    "FiniteField",
    "AdditionTable",
    "EnumerationResult",
    "make_field",
    "native_addition",
    "addition_from_exponent",
    "verify_addition_table",
    "transport",
    "is_permutation",
    "is_mult_bijection",
    "enumerate_additions",
    "check_isomorphic_additions",
    "modnear_ring_check",
    "SUPPORTED_FIELDS",
]

# Ascending coefficient tuples, constant term first; all degree 2 or 3, so
# irreducibility over F_p is equivalent to having no roots.
SUPPORTED_FIELDS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (3, 2): (1, 0, 1),  # x^2 + 1
    (5, 2): (2, 0, 1),  # x^2 + 2
    (3, 3): (1, 2, 0, 1),  # x^3 + 2x + 1
}


def _poly_mul_mod(u: tuple, v: tuple, modulus: tuple, p: int) -> tuple:
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % p
    # Reduce by the monic modulus.
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg):
                prod[i - deg + j] = (prod[i - deg + j] - c * modulus[j]) % p
    return tuple(prod[:deg])


class FiniteField:
    """F_{p^n} with all structure maps as readonly index tables."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.m = p**n
        self.modulus = modulus
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree n")
        for r in range(p):
            if sum(c * r**i for i, c in enumerate(modulus)) % p == 0:
                raise DomainError(f"modulus has root {r} mod {p}, not irreducible")

        m = self.m
        weights = p ** np.arange(n)
        digits = (np.arange(m)[:, None] // weights) % p  # digits[x, i] = (x // p**i) % p
        self.add = ((digits[:, None] + digits[None, :]) % p) @ weights
        self.neg = (-digits % p) @ weights
        self.zero = 0
        self.one = 1

        # The first candidate whose powers reach every unit generates the
        # unit group. Its m - 1 powers are distinct units, so they are all of
        # them: they are exp, and every product and inverse is read off logs.
        one = (1,) + (0,) * (n - 1)
        for g in range(2, m):
            step = x = tuple(digits[g].tolist())
            powers = [self.one]
            while x != one and len(powers) < m - 1:
                powers.append(sum(c * p**i for i, c in enumerate(x)))
                x = _poly_mul_mod(x, step, modulus, p)
            if x == one and len(powers) == m - 1:
                break
        else:
            raise IntegrityError("no cyclic generator found")
        self.generator = g
        self.exp = np.array(powers, dtype=np.int64)  # exp[e] = generator**e
        self.dlog = np.full(m, -1, dtype=np.int64)
        self.dlog[self.exp] = np.arange(m - 1)
        logs = self.dlog[1:]
        self.mul = np.zeros((m, m), dtype=np.int64)
        self.mul[1:, 1:] = self.exp[(logs[:, None] + logs[None, :]) % (m - 1)]
        self.inv = np.zeros(m, dtype=np.int64)  # inv[0] stays 0 as a sentinel; callers skip zero
        self.inv[1:] = self.exp[-logs % (m - 1)]
        self.minus_one = int(self.neg[self.one])

        for t in (self.add, self.mul, self.neg, self.inv, self.dlog, self.exp):
            t.flags.writeable = False
        self._self_check()

    def _self_check(self) -> None:
        if kernels.assoc_witness(self.add) or kernels.assoc_witness(self.mul):
            raise IntegrityError("construction produced a non-associative table")
        if kernels.left_distrib_witness(self.mul, self.add) or kernels.right_distrib_witness(
            self.mul, self.add
        ):
            raise IntegrityError("construction broke distributivity")
        if not (self.add == self.add.T).all() or not (self.mul == self.mul.T).all():
            raise IntegrityError("construction broke commutativity")

    def power_table(self, k: int) -> np.ndarray:
        """The zero-fixing power map x -> x**k as an index array, k >= 1."""
        if k < 1:
            raise DomainError("power maps need k >= 1")
        out = np.zeros(self.m, dtype=np.int64)
        nz = np.arange(self.m)[self.dlog >= 0]
        out[nz] = self.exp[(self.dlog[nz] * k) % (self.m - 1)]
        return out

    def scale_table(self, c: int) -> np.ndarray:
        """The map x -> c*x as an index array, for an index 0 <= c < m."""
        if not 0 <= c < self.m:
            raise DomainError(f"scale index {c} outside the carrier")
        return self.mul[c].copy()

    def exponent_units(self) -> list[int]:
        """Units of Z/(m-1): the valid addition exponents."""
        return [a for a in range(1, self.m - 1) if math.gcd(a, self.m - 1) == 1]

    def __repr__(self):
        return f"FiniteField({self.p}, {self.n})"


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FiniteField:
    """One of the supported fields F_4, F_8, F_9, F_25, F_27."""
    key = (p, n)
    if key not in SUPPORTED_FIELDS:
        raise DomainError(f"unsupported field F_{p}^{n}; supported: {sorted(SUPPORTED_FIELDS)}")
    return FiniteField(p, n, SUPPORTED_FIELDS[key])


@dataclass(frozen=True)
class AdditionTable:
    """An addition on a field's carrier, tagged with where it came from."""

    field: FiniteField
    table: np.ndarray
    provenance: str

    def __post_init__(self):
        self.table.flags.writeable = False

    def same_table(self, other: "AdditionTable") -> bool:
        return np.array_equal(self.table, other.table)


def native_addition(field: FiniteField) -> AdditionTable:
    return AdditionTable(field, field.add.copy(), "native")


def is_permutation(t: np.ndarray, m: int) -> bool:
    """Whether t lists each of 0..m-1 exactly once."""
    return sorted(t.tolist()) == list(range(m))


def is_mult_bijection(field: FiniteField, t: np.ndarray) -> bool:
    """Whether t is a bijection of the carrier fixing one with
    t(x y) = t(x) t(y) for every pair."""
    return (
        is_permutation(t, field.m)
        and int(t[field.one]) == field.one
        and bool(np.array_equal(t[field.mul], field.mul[np.ix_(t, t)]))
    )


def transport(op: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The operation the bijection f pulls back from op:
    alpha (op_f) beta = f^-1(op(f(alpha), f(beta)))."""
    return np.argsort(f)[op[np.ix_(f, f)]]


def addition_from_exponent(field: FiniteField, a: int) -> AdditionTable:
    """The addition (alpha**a + beta**a)**(a**-1 mod m-1), native addition
    pulled back through the power map x -> x**a."""
    m1 = field.m - 1
    a = a % m1
    if math.gcd(a, m1) != 1:
        raise DomainError(f"exponent {a} is not a unit mod {m1}")
    return AdditionTable(field, transport(field.add, field.power_table(a)), f"a={a}")


def verify_addition_table(t: AdditionTable) -> Report:
    """Field-axiom suite for an addition table against the field's product.

    Every axiom is checked exhaustively: associativity and both
    distributivities over all m**3 index triples (at most 19,683 for the
    supported fields), commutativity, the neutral element and inverses over
    all pairs. A failing cubic sweep reports its lexicographically first
    failing triple as the witness.
    """
    f = t.field
    tab = t.table
    rep = Report(f"field axioms for {t.provenance} on {f!r}")
    m = f.m

    rep.add("closure", bool(((tab >= 0) & (tab < m)).all()))
    w = kernels._first_false(tab == tab.T)
    rep.add("commutativity", w is None, witness=w)
    zero_rows = [e for e in range(m) if (tab[e] == np.arange(m)).all()]
    rep.add("zero", zero_rows == [f.zero], witness=zero_rows)
    inv_ok = all((tab[i] == f.zero).any() for i in range(m))
    rep.add("inverses", inv_ok)

    w = kernels.assoc_witness(tab)
    rep.add("associativity", w is None, witness=w)
    wl = kernels.left_distrib_witness(f.mul, tab)
    rep.add("left_distributivity", wl is None, witness=wl)
    wr = kernels.right_distrib_witness(f.mul, tab)
    rep.add("right_distributivity", wr is None, witness=wr)
    rep.counts["triples"] = m**3
    return rep


@dataclass
class EnumerationResult:
    field: FiniteField
    units: list[int]
    tables: list[AdditionTable]  # distinct, in order of least exponent
    classes: list[list[int]]  # exponents grouped by equal table
    report: Report

    def to_json(self) -> dict:
        return {
            "field": [self.field.p, self.field.n],
            "units": self.units,
            "classes": self.classes,
            "distinct_tables": len(self.tables),
            "ok": self.report.ok,
        }


def enumerate_additions(field: FiniteField) -> EnumerationResult:
    """All exponent additions, deduplicated, each verified as a field addition.

    Also verifies the Frobenius collapse a ~ p*a for every unit a.
    """
    units = field.exponent_units()
    by_exp = {a: addition_from_exponent(field, a) for a in units}

    groups: dict[bytes, list[int]] = {}
    for a in units:
        groups.setdefault(by_exp[a].table.tobytes(), []).append(a)
    classes = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
    tables = [by_exp[g[0]] for g in classes]

    report = Report(f"addition enumeration on {field!r}")
    m1 = field.m - 1
    collapse_ok = all(by_exp[a].same_table(by_exp[p_a]) for a in units for p_a in [(field.p * a) % m1])
    report.add("frobenius_collapse", collapse_ok)
    native_class = next(g for g in classes if 1 in g)
    report.add("native_in_class_of_1", by_exp[1].same_table(native_addition(field)), witness=native_class)
    for t in tables:
        sub = verify_addition_table(t)
        report.add(f"axioms[{t.provenance}]", sub.ok, witness=None if sub.ok else sub.first_failure())
        report.counts[f"triples[{t.provenance}]"] = sub.counts["triples"]
    report.counts["units"] = len(units)
    report.counts["distinct_tables"] = len(tables)
    return EnumerationResult(field, units, tables, classes, report)


def check_isomorphic_additions(field: FiniteField, t1: AdditionTable, t2: AdditionTable) -> int:
    """Smallest k with x -> x**k an isomorphism (F,t1,mul) -> (F,t2,mul).

    Power maps are the only multiplicative automorphism candidates on a
    cyclic unit group, so the scan is complete; no witness means the tables
    are genuinely non-isomorphic, which the enumeration lemma rules out.
    """
    m1 = field.m - 1
    for k in range(1, m1 + 1):
        if math.gcd(k, m1) != 1:
            continue
        pk = field.power_table(k)
        if np.array_equal(pk[t1.table], t2.table[np.ix_(pk, pk)]):
            return k
    raise IntegrityError(
        f"no power-map isomorphism between {t1.provenance} and {t2.provenance} on {field!r}"
    )


def _box_scalar_reps(box: np.ndarray, p: int, m: int) -> np.ndarray:
    """rep[c, u] = u box-added to itself c times (c in 0..p-1)."""
    rep = np.zeros((p, m), dtype=np.int64)
    for c in range(1, p):
        rep[c] = box[rep[c - 1], np.arange(m)]
    return rep


def modnear_ring_check() -> Report:
    """The homomorphism set M = Hom((F9,+), (F9,+3)) as a right modnear-ring.

    +3 is the cubing-exponent addition (a=3); composition is the scalar
    action and the two pointwise additions are the module and ring sums.
    All axiom sweeps run over every triple of members.
    """
    f = make_field(3, 2)
    box = addition_from_exponent(f, 3).table  # equals native +: cubing is x -> x**p
    native = f.add
    m = f.m
    rep = Report("modnear-ring check on Hom((F9,+),(F9,+3))")
    rep.add("cubing_addition_is_native", bool(np.array_equal(box, native)),
            detail="informational: x**3 is the Frobenius here")

    # A group hom out of (F9,+) = (Z/3)^2 is fixed by the images u, v of the
    # basis e1 = 1, e2 = x; candidate f(c0 + c1 x) = c0*u boxplus c1*v, all
    # m**2 of them at once in u-major order.
    reps = _box_scalar_reps(box, f.p, m)
    c0 = np.arange(m) % f.p
    c1 = np.arange(m) // f.p
    cands = box[reps[c0].T[:, None, :], reps[c1].T[None, :, :]].reshape(m * m, m)
    is_hom = (cands[:, native] == box[cands[:, :, None], cands[:, None, :]]).all(axis=(1, 2))
    maps = cands[is_hom]
    n = maps.shape[0]
    rep.add("member_count", n == 81, witness=n)
    rep.counts["members"] = n

    # A map's values are its base-m digits, so its code names it.
    weights = m ** np.arange(m)
    codes = maps @ weights
    order = np.argsort(codes)

    def member_of(rows: np.ndarray) -> np.ndarray:
        """Member index of each map along the last axis of rows, -1 if none."""
        c = rows @ weights
        i = order[np.searchsorted(codes, c, sorter=order) % n]
        return np.where(codes[i] == c, i, -1)

    def table_of(rows: np.ndarray, name: str) -> np.ndarray | None:
        """Index table of a pointwise operation, or None if not closed;
        rows[i, j] is the map that member i and member j give."""
        out = member_of(rows)
        w = kernels._first_false(out >= 0)
        rep.add(f"closure[{name}]", w is None, witness=w)
        return out if w is None else None

    box_idx = table_of(box[maps[:, None], maps[None, :]], "boxplus")
    nat_idx = table_of(native[maps[:, None], maps[None, :]], "plus")
    comp_idx = table_of(maps[:, maps], "compose")  # maps[i] after maps[j]
    if box_idx is None or nat_idx is None or comp_idx is None:
        return rep

    def group_axioms(idx: np.ndarray, name: str, abelian: bool) -> None:
        w = kernels.assoc_witness(idx)
        rep.add(f"group_assoc[{name}]", w is None, witness=w)
        if abelian:
            rep.add(f"group_comm[{name}]", bool((idx == idx.T).all()))
        zeros = [e for e in range(n) if (idx[e] == np.arange(n)).all()]
        rep.add(f"group_zero[{name}]", len(zeros) == 1, witness=zeros)
        if len(zeros) == 1:
            rep.add(f"group_inverses[{name}]", bool((idx == zeros[0]).any(axis=1).all()))

    group_axioms(box_idx, "boxplus", abelian=True)  # axiom 1, module side
    group_axioms(nat_idx, "plus", abelian=True)  # axiom 1, ring side

    # Axiom 2: composition is a monoid with the identity map as 1.
    ident = int(member_of(np.arange(m)))
    w = kernels.assoc_witness(comp_idx)
    rep.add("monoid_assoc[compose]", w is None, witness=w,
            detail="also discharges axiom 4': with the action equal to ring "
                   "multiplication, gamma(f.g) = gamma(f boxdot g) is associativity")
    rep.add("monoid_identity[compose]",
            bool((comp_idx[ident] == np.arange(n)).all() and (comp_idx[:, ident] == np.arange(n)).all()),
            witness=ident)

    # Axiom 3': h(f + g) = h(f) boxplus h(g), pointwise over all 81^3 triples.
    w = kernels.hom_left_distrib_witness(maps, native, box)
    rep.add("axiom_3_left_distrib", w is None, witness=w)
    rep.counts["triples"] = n**3

    # Axiom 5': f -> 1 boxdot f is a bijection; the identity acts as 1.
    rep.add("axiom_5_unit_action_bijective", bool((comp_idx[ident] == np.arange(n)).all()))

    # Axiom 6': (f boxplus g) o h = (f o h) boxplus (g o h), over all triples.
    w = kernels.right_distrib_witness(comp_idx, box_idx)
    rep.add("axiom_6_right_distrib", w is None, witness=w)

    # Parenthetical: (f + g) o h = (f o h) + (g o h) as well.
    w = kernels.right_distrib_witness(comp_idx, nat_idx)
    rep.add("parenthetical_right_distrib_plus", w is None, witness=w)
    return rep
