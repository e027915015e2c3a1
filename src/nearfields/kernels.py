"""Array kernels for exhaustive checks over operation tables.

Everything here answers one question shape: does an identity hold at every
point of a finite index table, and if not, at which first witness? Tables
are m-by-m integer arrays mapping index pairs to indices. Each kernel
evaluates both sides of its identity on the whole (m, m, m) index cube with
numpy fancy indexing and returns the lexicographically first failing index
triple, or None. The largest table swept is the 81-member modnear-ring, so
a sweep covers at most 81**3 = 531,441 triples.
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
    add_native table applied pointwise, boxplus the add_box table. One h
    at a time keeps the working set at n*n*m instead of n**3 * m.
    """
    maps, add_native, add_box = _table(maps), _table(add_native), _table(add_box)
    sums = add_native[maps[:, None, :], maps[None, :, :]]  # (n, n, m): f + g
    for hi, h in enumerate(maps):
        hf = h[maps]  # (n, m)
        eq = (h[sums] == add_box[hf[:, None, :], hf[None, :, :]]).all(axis=2)
        if not eq.all():
            fi, gi = (int(v) for v in np.argwhere(~eq)[0])
            return (hi, fi, gi)
    return None
