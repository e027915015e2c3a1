"""Array kernels for exhaustive checks over operation tables.

Everything here answers one question shape: does an identity hold at every
point of a finite index table, and if not, at which first witness? Tables
are m-by-m integer arrays mapping index pairs to indices. The table kernels
evaluate both sides of their identity on the whole (m, m, m) index cube with
numpy fancy indexing and return the lexicographically first failing index
triple, or None. The largest table swept is the 81-member modnear-ring, so
a sweep covers at most 81**3 = 531,441 triples. The homomorphism kernel
does not sweep its (h, f, g, x) cube: it tests each (h, f(x), g(x)) of
values once, and gathers over (f, g, x) only for an h with a bad pair.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HAS_NUMBA",
    "backend",
    "assoc_witness",
    "left_distrib_witness",
    "right_distrib_witness",
    "hom_left_distrib_witness",
]

# Read by the benchmark's environment stamp; there is one kernel path.
HAS_NUMBA = False


def backend() -> str:
    """Name of the kernel path, read by the benchmark's environment stamp."""
    return "numpy"


def _table(t) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(t, dtype=np.int64))


def _first_false(eq: np.ndarray):
    if eq.all():
        return None
    return tuple(int(v) for v in np.argwhere(~eq)[0])


def assoc_witness(t):
    """First (i, j, k) with t[t[i,j],k] != t[i,t[j,k]], or None."""
    t = _table(t)
    return _first_false(t[t] == t[:, t])


def left_distrib_witness(mul, add):
    """First failure of mul[i, add[j,k]] == add[mul[i,j], mul[i,k]]."""
    mul, add = _table(mul), _table(add)
    return _first_false(mul[:, add] == add[mul[:, :, None], mul[:, None, :]])


def right_distrib_witness(mul, add):
    """First failure of mul[add[i,j], k] == add[mul[i,k], mul[j,k]]."""
    mul, add = _table(mul), _table(add)
    return _first_false(mul[add, :] == add[mul[:, None, :], mul[None, :, :]])


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
    maps, add_native, add_box = _table(maps), _table(add_native), _table(add_box)
    bad = maps[:, add_native] != add_box[maps[:, :, None], maps[:, None, :]]  # (n, m, m)
    for hi in np.flatnonzero(bad.any(axis=(1, 2))):
        fails = bad[hi][maps[:, None, :], maps[None, :, :]].any(axis=2)  # (n, n)
        if fails.any():
            fi, gi = (int(v) for v in np.argwhere(fails)[0])
            return (int(hi), fi, gi)
    return None
