"""Small finite fields on explicit tables, and every addition they carry.

Each supported (p, n) comes with a fixed irreducible modulus. Elements are
indices 0..p**n-1, and an index is the base-p code of its residue class:
index c0 + c1*p + ... is c0 + c1*x + .... Every structure map is
materialized as an index table so the kernels can sweep identities
exhaustively. Sum and negation act digit by digit on the codes. Product,
inverse and the logarithm tables all come from one generator's powers,
walked once by polynomial multiplication mod the modulus. That walk is also
the field test: a modulus with no generator is reducible and is refused.

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
from .kernels import _grid
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

# Ascending coefficient tuples, constant term first; FiniteField's generator
# walk finds a unit of order p**n - 1 for each, so each is irreducible.
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
    """F_{p^n} with all structure maps as readonly index tables.

    A p that is not prime, or a modulus that is not monic, of degree n >= 1
    and irreducible mod p, is refused with DomainError before any table is
    built; the generator walk is the one irreducibility test. The tables it
    builds pass verify_addition_table, or IntegrityError names the failure.

    The product needs no check of its own. The walk accepts a generator
    only when its first return to one comes after m - 1 steps, so its
    powers exp are m - 1 distinct units, and dlog inverts them. Then
    mul[a, b] = exp[(dlog a + dlog b) mod (m - 1)] is commutative and
    associative because addition mod m - 1 is, and zero absorbs."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.m = p**n
        self.modulus = modulus
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise DomainError(f"characteristic must be a prime, got {p}")
        if n < 1 or len(modulus) != n + 1 or modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree n >= 1")

        m = self.m
        weights = p ** np.arange(n)
        digits = (np.arange(m)[:, None] // weights) % p  # digits[x, i] = (x // p**i) % p
        self.zero = 0
        self.one = 1

        # A ring of m elements is a field exactly when some element has
        # order m - 1, and F_p[x]/(modulus) is a field exactly when the
        # modulus is irreducible, so this walk is the field test. The first
        # candidate whose powers reach every unit generates the unit group.
        # Its m - 1 powers are distinct units, so they are all of them: they
        # are exp, and every product and inverse is read off logs. The
        # search starts at one, which generates the unit group of F_2 alone.
        one = (1,) + (0,) * (n - 1)
        for g in range(1, m):
            step = x = tuple(digits[g].tolist())
            powers = [self.one]
            while x != one and len(powers) < m - 1:
                powers.append(sum(c * p**i for i, c in enumerate(x)))
                x = _poly_mul_mod(x, step, modulus, p)
            if x == one and len(powers) == m - 1:
                break
        else:
            raise DomainError(f"modulus {modulus} is reducible mod {p}")

        self.add = ((digits[:, None] + digits[None, :]) % p) @ weights
        self.neg = (-digits % p) @ weights
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
        if bad := verify_addition_table(native_addition(self)).first_failure():
            raise IntegrityError(f"construction of {self!r} fails {bad.name}, witness {bad.witness}")

    def power_table(self, k: int) -> np.ndarray:
        """The zero-fixing power map x -> x**k as an index array, k >= 1."""
        if k < 1:
            raise DomainError("power maps need k >= 1")
        k %= self.m - 1  # x**(m-1) = 1: the same map, and dlog * k fits in int64
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
        """Units of Z/(m-1), by least positive representative: the valid
        addition exponents. F_2 has one, 1, as Z/1 is the zero ring."""
        return [a for a in range(1, self.m) if math.gcd(a, self.m - 1) == 1]

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


def _compact(field: FiniteField, table: np.ndarray) -> np.ndarray:
    """A copy of table in the smallest unsigned dtype that holds every index
    of the carrier. Only for tables this module builds, whose entries are
    indices by construction: a -1 or m from outside would wrap around."""
    return table.astype(np.min_scalar_type(field.m - 1))


def native_addition(field: FiniteField) -> AdditionTable:
    return AdditionTable(field, _compact(field, field.add), "native")


def is_permutation(t: np.ndarray, m: int) -> bool:
    """Whether t lists each of 0..m-1 exactly once."""
    return sorted(t.tolist()) == list(range(m))


def _first_repeat(values, m: int) -> int | None:
    """The first index whose value leaves range(m) or repeats an earlier
    one's, or None: why m values are no permutation, which is_permutation tests."""
    seen, carrier = set(), range(m)
    for i, y in enumerate(values):
        if y in seen or y not in carrier:
            return i
        seen.add(y)
    return None


def is_mult_bijection(field: FiniteField, t: np.ndarray) -> bool:
    """Whether t is a bijection of the carrier fixing one with
    t(x y) = t(x) t(y) for every pair."""
    return (
        is_permutation(t, field.m)
        and int(t[field.one]) == field.one
        and bool(np.array_equal(t[field.mul], _grid(field.mul, t, t)))
    )


def transport(op: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The operation the bijection f pulls back from op:
    alpha (op_f) beta = f^-1(op(f(alpha), f(beta)))."""
    return np.argsort(f)[_grid(op, f, f)]


def addition_from_exponent(field: FiniteField, a: int) -> AdditionTable:
    """The addition (alpha**a + beta**a)**(a**-1 mod m-1), native addition
    pulled back through the power map x -> x**a."""
    m1 = field.m - 1
    if math.gcd(a, m1) != 1:
        raise DomainError(f"exponent {a % m1} is not a unit mod {m1}")
    a = a % m1 or m1  # the least positive representative, 1 on F_2
    return AdditionTable(field, _compact(field, transport(field.add, field.power_table(a))), f"a={a}")


def verify_addition_table(t: AdditionTable) -> Report:
    """Field-axiom suite for an addition table against the field's product.

    Every axiom is checked exhaustively: associativity and both
    distributivities over all m**3 index triples (at most 19,683 for the
    supported fields), commutativity, the neutral element and inverses over
    all pairs. A failing cubic sweep reports its lexicographically first
    failing triple as the witness. A table that is not m-by-m, of an
    integer dtype, with entries in [0, m) fails closure, and nothing is
    swept on it; closure's witness is the dtype's name, the shape, or the
    first (i, j) whose entry is outside [0, m), in that order.
    """
    f = t.field
    tab = t.table
    rep = Report(f"field axioms for {t.provenance} on {f!r}")
    m = f.m

    if tab.dtype.kind not in "iu":
        outside = tab.dtype.name
    elif tab.shape != (m, m):
        outside = tab.shape
    else:
        outside = kernels._first_false((tab >= 0) & (tab < m))
    if not rep.holds("closure", outside).ok:
        rep.counts["triples"] = 0
        return rep
    rep.holds("commutativity", kernels._first_false(tab == tab.T))
    zero_rows = np.flatnonzero((tab == np.arange(m)).all(axis=1)).tolist()
    rep.add("zero", zero_rows == [f.zero], witness=zero_rows)
    rep.holds("inverses", kernels._first_false((tab == f.zero).any(axis=1)))  # the first row with no zero

    rep.holds("associativity", kernels.assoc_witness(tab))
    rep.holds("left_distributivity", kernels.left_distrib_witness(f.mul, tab))
    rep.holds("right_distributivity", kernels.right_distrib_witness(f.mul, tab))
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

    Also verifies the Frobenius collapse a ~ p*a for every unit a, with the
    first unit whose table differs from p*a's as its witness.
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
    collapse = (a for a in units if not by_exp[a].same_table(by_exp[field.p * a % m1 or m1]))
    report.holds("frobenius_collapse", next(collapse, None))
    # Informational: exponent 1's power map is the identity, so its table is
    # native_addition's whatever the field's +, and this check cannot fail.
    native_class = next(g for g in classes if 1 in g)
    report.add("native_in_class_of_1", by_exp[1].same_table(native_addition(field)), witness=native_class)
    for t in tables:
        sub = verify_addition_table(t)
        report.holds(f"axioms[{t.provenance}]", sub.first_failure())
        report.counts[f"triples[{t.provenance}]"] = sub.counts["triples"]
    report.counts["units"] = len(units)
    report.counts["distinct_tables"] = len(tables)
    return EnumerationResult(field, units, tables, classes, report)


def check_isomorphic_additions(field: FiniteField, t1: AdditionTable, t2: AdditionTable) -> int:
    """Smallest k with x -> x**k an isomorphism (F,t1,mul) -> (F,t2,mul).

    Power maps are the only multiplicative automorphism candidates on a
    cyclic unit group, so the scan is complete; no witness means the tables
    are genuinely non-isomorphic, which the enumeration lemma rules out.
    Tables of another field are refused with DomainError.
    """
    if t1.field is not field or t2.field is not field:
        raise DomainError(f"{t1.provenance} on {t1.field!r} and {t2.provenance} on {t2.field!r} "
                          f"are not both additions on {field!r}")
    # tab1 is an index array, so intp as in the kernels. Unlike the kernels'
    # gathers, which compare two uint8 sides, tab2's gather is compared with
    # pk's int64 values, so it is widened once here rather than on every k.
    tab1, tab2 = t1.table.astype(np.intp), t2.table.astype(np.intp)
    for k in field.exponent_units():
        pk = field.power_table(k)
        if np.array_equal(pk[tab1], _grid(tab2, pk, pk)):
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


def _plane_homs(f: FiniteField, box: np.ndarray) -> np.ndarray:
    """Every group hom from (F,+) to (F,box) for F of degree 2, one a row.

    A hom out of (F,+) = (Z/p)^2 is fixed by the images u, v of the basis
    e1 = 1, e2 = x; candidate f(c0 + c1 x) = c0*u boxplus c1*v, all m**2 of
    them at once in u-major order, and the homs among them are kept."""
    m = f.m
    reps = _box_scalar_reps(box, f.p, m)
    c0 = np.arange(m) % f.p
    c1 = np.arange(m) // f.p
    cands = box[reps[c0].T[:, None, :], reps[c1].T[None, :, :]].reshape(m * m, m)
    is_hom = (cands[:, f.add] == box[cands[:, :, None], cands[:, None, :]]).all(axis=(1, 2))
    return cands[is_hom]


def _member_namer(maps: np.ndarray, basis: tuple[int, int]):
    """member_of(rows): the index in maps of each map along the first axis
    of rows, -1 if it is none of them. Each of maps, homs of an m-element
    plane, is fixed by its values at the two basis indices, so those values
    name it through an m*m-entry lookup, and a map keeps the name only if
    it equals that member at every point. The comparison runs point-first,
    one pass over whole tables per point."""
    m = maps.shape[1]
    e1, e2 = basis
    by_basis = np.full(m * m, -1, dtype=np.intp)
    by_basis[maps[:, e1].astype(np.intp) * m + maps[:, e2]] = np.arange(len(maps))
    values = np.ascontiguousarray(maps.T)  # values[x, i] = maps[i, x]

    def member_of(rows: np.ndarray) -> np.ndarray:
        i = by_basis[rows[e1].astype(np.intp) * m + rows[e2]]
        return np.where((values.take(i, axis=1) == rows).all(axis=0) & (i >= 0), i, -1)

    return member_of


def _pointwise_rows(maps: np.ndarray, box: np.ndarray, native: np.ndarray) -> dict[str, np.ndarray]:
    """The maps that members i, j give under boxplus, + and composition
    (maps[i] after maps[j]), point-first: rows[name][:, i, j]. At each
    point x a sum is one grid gather of its table at (f(x), g(x)); a flat
    gather of all points at once would widen its index to an intp cube."""
    values = np.ascontiguousarray(maps.T)  # values[x, i] = maps[i, x]
    sums = np.empty((2, *values.shape, len(maps)), dtype=np.result_type(box, native))
    for x, v in enumerate(values):
        sums[0, x], sums[1, x] = _grid(box, v, v), _grid(native, v, v)
    return {"boxplus": sums[0], "plus": sums[1], "compose": maps.take(values, axis=1).transpose(1, 0, 2)}


def modnear_ring_check() -> Report:
    """The homomorphism set M = Hom((F9,+), (F9,+3)) as a right modnear-ring.

    +3 is the cubing-exponent addition (a=3); composition is the scalar
    action and the two pointwise additions are the module and ring sums.
    Each axiom is decided over every triple of members. The associativity
    and right-distributivity checks decide theirs from generators of the
    sum or composition table (kernels.generators): Light's test, or its
    analogue, at each generator and every pair, and a sweep of all 81**3
    triples only if that fails, for the first failing one. Axiom 3' tests
    each member h once on each pair of values (a, b), which decides it at
    every (h, f, g, x) with a = f(x) and b = g(x).
    """
    f = make_field(3, 2)
    box = addition_from_exponent(f, 3).table  # equals native +: cubing is x -> x**p
    native = native_addition(f).table
    m = f.m
    rep = Report("modnear-ring check on Hom((F9,+),(F9,+3))")
    rep.add("cubing_addition_is_native", bool(np.array_equal(box, native)),
            detail="informational: x**3 is the Frobenius here")

    maps = _plane_homs(f, box)
    n = maps.shape[0]
    rep.add("member_count", n == 81, witness=n)
    rep.counts["members"] = n
    member_of = _member_namer(maps, (f.one, f.p))

    def table_of(rows: np.ndarray, name: str) -> np.ndarray | None:
        """Index table of a pointwise operation, or None if not closed;
        rows[:, i, j] is the map that member i and member j give."""
        out = member_of(rows)
        return out if rep.holds(f"closure[{name}]", kernels._first_false(out >= 0)).ok else None

    box_idx, nat_idx, comp_idx = (table_of(r, k) for k, r in _pointwise_rows(maps, box, native).items())
    if box_idx is None or nat_idx is None or comp_idx is None:
        return rep
    # Each table's generators, found once for the checks on it.
    box_gens, nat_gens, comp_gens = (kernels.generators(t) for t in (box_idx, nat_idx, comp_idx))

    def group_axioms(idx: np.ndarray, gens: list[int], name: str) -> None:
        rep.holds(f"group_assoc[{name}]", kernels.assoc_witness(idx, gens=gens))
        rep.holds(f"group_comm[{name}]", kernels._first_false(idx == idx.T))
        zeros = np.flatnonzero((idx == np.arange(n)).all(axis=1)).tolist()
        rep.add(f"group_zero[{name}]", len(zeros) == 1, witness=zeros)
        if len(zeros) == 1:
            rep.holds(f"group_inverses[{name}]", kernels._first_false((idx == zeros[0]).any(axis=1)))

    group_axioms(box_idx, box_gens, "boxplus")  # axiom 1, module side
    group_axioms(nat_idx, nat_gens, "plus")  # axiom 1, ring side

    # Axiom 2: composition is a monoid with the identity map as 1.
    ident = int(member_of(np.arange(m)))
    rep.holds("monoid_assoc[compose]", kernels.assoc_witness(comp_idx, gens=comp_gens),
              "also discharges axiom 4': with the action equal to ring "
              "multiplication, gamma(f.g) = gamma(f boxdot g) is associativity")
    rep.add("monoid_identity[compose]",
            bool((comp_idx[ident] == np.arange(n)).all() and (comp_idx[:, ident] == np.arange(n)).all()),
            witness=ident)

    # Axiom 3': h(f + g) = h(f) boxplus h(g), pointwise over all 81^3 triples.
    # It cannot fail: _plane_homs kept just the maps that hold it, on these tables.
    rep.holds("axiom_3_left_distrib", kernels.hom_left_distrib_witness(maps, native, box))
    rep.counts["triples"] = n**3

    # Axiom 5': f -> 1 boxdot f is a bijection; the identity acts as 1.
    rep.holds("axiom_5_unit_action_bijective", kernels._first_false(comp_idx[ident] == np.arange(n)))

    # Axiom 6': (f boxplus g) o h = (f o h) boxplus (g o h), over all triples.
    rep.holds("axiom_6_right_distrib", kernels.right_distrib_witness(comp_idx, box_idx, gens=box_gens))

    # Parenthetical: (f + g) o h = (f o h) + (g o h) as well.
    rep.holds("parenthetical_right_distrib_plus",
              kernels.right_distrib_witness(comp_idx, nat_idx, gens=nat_gens))
    return rep
