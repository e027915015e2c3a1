"""Array kernels for exhaustive checks over operation tables.

Everything here answers one question shape: does an identity hold at every
point of a finite index table, and if not, at which first witness? Tables
are m-by-m arrays mapping index pairs to indices in [0, m); an entry
outside that range is refused with DomainError. Each table is swept in
the smallest unsigned dtype that holds its indices, one byte per entry for
every supported table (m <= 81). The table kernels evaluate both sides of
their identity over the (m, m, m) index cube, by row gathers such as t[t]
and by gathers whose index arrays alone are intp (an index like a * m + b
outgrows a byte), and return the lexicographically first failing index
triple, or None. The largest table checked is the 81-member modnear-ring:
81**3 = 531,441 triples. The homomorphism kernel does not sweep its
(h, f, g, x) cube: it tests each (h, f(x), g(x)) of values once, and
gathers over (f, g, x) only for an h with a bad pair.

Given a generating set of the table (gens=, as generators() reads one off
it), assoc_witness and right_distrib_witness first decide their identity
from it: Light's associativity test, and its analogue for a product that
distributes over an associative sum, each over |gens| * m**2 pairs. Only a
reduced test that fails leads to the sweep, which then finds the first
failing triple. The modnear-ring passes generators; the field tables
(m <= 27) do not, since at that size finding the greedy generators costs
more than the whole cube. Median of 300 calls in process on a 2-core x86
VM, sweep against generators found and tested, on F9, F25 and F27:
associativity 13, 33, 38 us against 58, 79, 86 us; right distributivity
22, 50, 57 us against 77, 103, 112 us.

One loop, _sweep, runs every test a slab at a time, up to the first slab
that fails. A slab is rows of the cube, or a run of generators of a reduced
test, each an (m, m) plane. It has the most rows whose widest temporary fits
in _SLAB_BYTES, under glibc's default 128 KiB mmap threshold (18 rows of an
81**3 byte cube, 2 of an intp one), so it reuses heap that the slab before
it freed, where a whole 531 KB cube would be mapped and faulted in afresh
on every sweep. Nothing is kept between calls.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "HAS_NUMBA",
    "backend",
    "assoc_witness",
    "left_distrib_witness",
    "right_distrib_witness",
    "hom_left_distrib_witness",
    "generators",
]

# Read by the benchmark's environment stamp; there is one kernel path.
HAS_NUMBA = False


def backend() -> str:
    """Name of the kernel path, read by the benchmark's environment stamp."""
    return "numpy"


def _integer(t, name: str) -> np.ndarray:
    """t as an array, refused unless its dtype is an integer one."""
    t = np.asarray(t)
    if t.dtype.kind not in "iu":
        raise DomainError(f"{name} is not an integer table (dtype {t.dtype})")
    return t


def _table(t, name: str) -> np.ndarray:
    """t as a C-contiguous array in the smallest unsigned dtype that holds
    an index below m, the length of t's last axis. An entry outside
    [0, m) raises DomainError naming the table, since it would wrap."""
    t = _integer(t, name)
    m = t.shape[-1]
    if t.size and (t.min() < 0 or t.max() >= m):
        raise DomainError(f"{name} has entries outside [0, {m}): min {t.min()}, max {t.max()}")
    return np.ascontiguousarray(t, dtype=np.min_scalar_type(m - 1))


def _square(t, name: str, m: int | None = None) -> np.ndarray:
    """_table for an m-by-m table, m by default its own side."""
    t = np.asarray(t)
    m = len(t) if m is None else m
    if t.shape != (m, m):
        raise DomainError(f"{name} has shape {t.shape}, not ({m}, {m})")
    return _table(t, name)


_SLAB_BYTES = 120_000  # a slab's widest temporary, under the mmap threshold


def _first_false(eq: np.ndarray):
    """The row-major first index at which eq is False, or None."""
    if eq.all():
        return None
    return tuple(int(v) for v in np.unravel_index(eq.argmin(), eq.shape))


def _sweep(n: int, m: int, slab, itemsize: int):
    """The row-major first (i, j, k) at which an identity fails, or None.
    slab(rows) is its truth at the rows of range(n) in the slice rows, one
    (m, m) plane a row, whose widest temporary takes itemsize bytes an
    entry. A row is a row of the index cube, or a generator of a reduced
    test."""
    rows = max(1, _SLAB_BYTES // max(1, itemsize * m * m))
    for i0 in range(0, n, rows):
        w = _first_false(slab(slice(i0, i0 + rows)))
        if w is not None:
            return (i0 + w[0], w[1], w[2])
    return None


def _grid(t: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The table t[rows[i], cols[j]] over every (i, j), which is
    t[np.ix_(rows, cols)]; two takes skip building the index grid."""
    return t.take(rows, axis=0).take(cols, axis=1)


def _close(t: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The boolean mask span grown, in place, to the closure of its members
    under the table t, and returned."""
    # The gather takes the members: take would read the mask as 0 and 1.
    while not span[sums := _grid(t, members := np.flatnonzero(span), members)].all():
        span[sums] = True
    return span


def generators(t) -> list[int]:
    """A generating set of the magma t, read off the table: take the least
    index not yet in the closure, close the set again, and repeat until
    every index is in it. [] for an empty table."""
    t = _square(t, "table")
    span = np.zeros(len(t), dtype=bool)
    gens = []
    while not span.all():
        gens.append(g := int(span.argmin()))
        span[g] = True
        _close(t, span)
    return gens


def _light(t: np.ndarray, gens) -> bool:
    """Light's test: (x t s) t y == x t (s t y) for every x, y and each s
    in gens. The middles s for which this holds are closed under t, so
    when gens generate t it proves t associative."""
    tT, gens = t.T.copy(), np.asarray(gens, dtype=np.intp)
    # (s, x, y), each side a row gather: t[t[x, s], y] against t[x, t[s, y]],
    # which tT[t[s]] holds at (s, y, x).
    return _sweep(len(gens), len(t), lambda r: t[tT[gens[r]]] == tT[t[gens[r]]].transpose(0, 2, 1),
                  t.itemsize) is None


def assoc_witness(t, *, gens=None):
    """First (i, j, k) with t[t[i,j],k] != t[i,t[j,k]], or None.

    With gens, a generating set of t, Light's test decides it, and the
    cube is swept only if that test fails."""
    t = _square(t, "table")
    if gens is not None and _light(t, gens):
        return None
    # t[t[r]] against t[r][:, t], both (i, j, k) row-major over rows r.
    return _sweep(len(t), len(t), lambda r: t[t[r]] == np.take(t[r], t, axis=1), t.itemsize)


def left_distrib_witness(mul, add):
    """First failure of mul[i, add[j,k]] == add[mul[i,j], mul[i,k]]."""
    mul = _square(mul, "multiplication")
    add = _square(add, "addition", len(mul))
    m, a = len(mul), mul.astype(np.intp)
    am, flat = a * m, add.ravel()
    # The right side is one gather of add at the flat index
    # mul[i,j]*m + mul[i,k], which outgrows a byte: an intp slab.
    return _sweep(
        m, m,
        lambda r: np.take(mul[r], add, axis=1) == flat[am[r, :, None] + a[r, None, :]],
        np.dtype(np.intp).itemsize,
    )


def right_distrib_witness(mul, add, *, gens=None):
    """First failure of mul[add[i,j], k] == add[mul[i,k], mul[j,k]].

    With gens, a generating set of add, it is decided from them when add
    is associative (Light's test): for each k, the j at which x -> mul[x,k]
    is additive for every i are closed under an associative add, so the
    identity holds everywhere if it holds at j in gens. The cube is swept
    only if either test fails."""
    mul = _square(mul, "multiplication")
    add = _square(add, "addition", len(mul))
    m = len(mul)
    # Row i of a[mul] as an (m, m*m) array holds a[mul[i,k], x] at k*m + x,
    # so the right side at (i, j, k) is its column k*m + mul[j,k]: an (m, m)
    # index, where a flat gather of a would need a cube.
    cols = np.arange(0, m * m, m) + mul.astype(np.intp)

    def truth(a, rows):  # the identity over a, at rows i of the cube
        return mul[a[rows]] == np.take(a[mul[rows]].reshape(-1, m * m), cols, axis=1)

    # Over add.T the identity holds at (s, i, k) exactly when it holds over
    # add at (i, s, k), so the reduced test is add.T's at rows s in gens.
    if gens is not None and _light(add, gens):
        gens, addT = np.asarray(gens, dtype=np.intp), add.T.copy()
        if _sweep(len(gens), m, lambda r: truth(addT, gens[r]), add.itemsize) is None:
            return None
    return _sweep(m, m, lambda r: truth(add, r), add.itemsize)


def hom_left_distrib_witness(maps, add_native, add_box):
    """First (h, f, g) where h(f + g) != h(f) boxplus h(g) pointwise.

    maps is an (n, m) array of maps on a common m-point domain; + is the
    add_native table applied pointwise, boxplus the add_box table. At a
    point x the identity depends only on h and the values a = f(x),
    b = g(x), so one (n, m, m) table bad[h, a, b] = h[a + b] != h[a]
    boxplus h[b] tests each (h, a, b) once. An h with no bad pair cannot
    fail. For each other h, in order, the (f, g) with some x at which
    bad[h, f(x), g(x)] holds are its failures, and the row-major first of
    them is the witness, as a sweep of all n**3 * m points would find it.
    A bad pair that no (f(x), g(x)) realizes makes no failure.
    """
    maps = _table(maps, "maps")
    m = maps.shape[-1]
    add_native, add_box = _square(add_native, "native addition", m), _square(add_box, "box addition", m)
    bad = maps[:, add_native] != add_box[maps[:, :, None], maps[:, None, :]]  # (n, m, m)
    for hi in np.flatnonzero(bad.any(axis=(1, 2))):
        fails = bad[hi][maps[:, None, :], maps[None, :, :]].any(axis=2)  # (n, n)
        if fails.any():
            fi, gi = (int(v) for v in np.argwhere(fails)[0])
            return (int(hi), fi, gi)
    return None
