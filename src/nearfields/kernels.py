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
associativity 15, 40, 43 us against 68, 92, 96 us; right distributivity
26, 60, 64 us against 88, 118, 130 us.

A cube is swept a slab of rows at a time, up to the first slab that fails.
A slab has the most rows whose widest temporary fits in _SLAB_BYTES, under
glibc's default 128 KiB mmap threshold (18 rows of an 81**3 byte cube, 2
of an intp one), so it reuses heap that the slab before it freed, where a
whole 531 KB cube would be mapped and faulted in afresh on every sweep.
Nothing is kept between calls.
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


def _sweep(m: int, slab, itemsize: int):
    """The row-major first (i, j, k) at which an identity fails, or None.
    slab(i0, i1) is its (i1 - i0, m, m) truth over rows i0:i1, whose widest
    temporary takes itemsize bytes an entry."""
    rows = max(1, _SLAB_BYTES // max(1, itemsize * m * m))
    for i0 in range(0, m, rows):
        w = _first_false(slab(i0, min(i0 + rows, m)))
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


def _holds_at(gens, m: int, itemsize: int, holds) -> bool:
    """Whether holds(s), an (m, len(s), m) truth, is True everywhere for
    each run s of gens, as intp. A run has the most generators whose widest
    temporary, itemsize bytes an entry, fits in _SLAB_BYTES, as in _sweep."""
    gens = np.asarray(gens, dtype=np.intp)
    step = max(1, _SLAB_BYTES // max(1, itemsize * m * m))
    return all(holds(gens[g0:g0 + step]).all() for g0 in range(0, len(gens), step))


def _light(t: np.ndarray, gens) -> bool:
    """Light's test: (x t s) t y == x t (s t y) for every x, y and each s
    in gens. The middles s for which this holds are closed under t, so
    when gens generate t it proves t associative."""
    return _holds_at(gens, len(t), t.itemsize, lambda s: t[t[:, s]] == np.take(t, t[s], axis=1))


def assoc_witness(t, *, gens=None):
    """First (i, j, k) with t[t[i,j],k] != t[i,t[j,k]], or None.

    With gens, a generating set of t, Light's test decides it, and the
    cube is swept only if that test fails."""
    t = _square(t, "table")
    if gens is not None and _light(t, gens):
        return None
    # t[t[i0:i1]] against t[i0:i1][:, t], both (i, j, k) row-major.
    return _sweep(len(t), lambda i0, i1: t[t[i0:i1]] == np.take(t[i0:i1], t, axis=1), t.itemsize)


def left_distrib_witness(mul, add):
    """First failure of mul[i, add[j,k]] == add[mul[i,j], mul[i,k]]."""
    mul = _square(mul, "multiplication")
    add = _square(add, "addition", len(mul))
    m, a = len(mul), mul.astype(np.intp)
    am, flat = a * m, add.ravel()
    # The right side is one gather of add at the flat index
    # mul[i,j]*m + mul[i,k], which outgrows a byte: an intp slab.
    return _sweep(
        m,
        lambda i0, i1: np.take(mul[i0:i1], add, axis=1) == flat[am[i0:i1, :, None] + a[i0:i1, None, :]],
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
    if gens is not None and _light(add, gens):
        # (i, s, k): mul[add[i, s], k] against add[mul[i, k], mul[s, k]],
        # the latter one flat gather of add at the intp mul[i, k] * m + mul[s, k].
        am, flat = mul.astype(np.intp)[:, None, :] * m, add.ravel()
        if _holds_at(gens, m, am.itemsize, lambda s: mul[add[:, s]] == flat.take(am + mul[s])):
            return None
    # Row i of add[mul] as an (m, m*m) array holds add[mul[i,k], x] at
    # k*m + x, so the right side at (i, j, k) is its column k*m + mul[j,k]:
    # an (m, m) index, where a flat gather of add would need a cube.
    cols = np.arange(0, m * m, m) + mul.astype(np.intp)

    def slab(i0, i1):
        rhs = np.take(add[mul[i0:i1]].reshape(i1 - i0, m * m), cols, axis=1)
        return mul[add[i0:i1]] == rhs

    return _sweep(m, slab, add.itemsize)


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
