"""Array kernels for exhaustive checks over operation tables.

Everything here answers one question shape: does an identity hold at every
point of a finite index table, and if not, at which first witness? Tables
are m-by-m arrays mapping index pairs to indices in [0, m); an entry
outside that range is refused with DomainError. Each table is swept in
the smallest unsigned dtype that holds its indices, one byte per entry for
every supported table (m <= 81). The table kernels evaluate both sides of
their identity at every triple of the (m, m, m) index cube as byte cubes,
built by row gathers such as t[t] and by gathers whose index arrays alone
are intp (an index like a * m + b outgrows a byte), and return the
lexicographically first failing index triple, or None. The largest table
swept is the 81-member modnear-ring, so a sweep covers at most 81**3 =
531,441 triples. The homomorphism kernel does not sweep its (h, f, g, x)
cube: it tests each (h, f(x), g(x)) of values once, and gathers over
(f, g, x) only for an h with a bad pair.

The cubes of a sweep are written into work arrays that each thread keeps
between calls, instead of fresh arrays: a fresh 531 KB cube is above
glibc's default mmap threshold (128 KB), so every sweep would map it and
fault in its pages again. A thread holds one flat byte buffer per slot, at most
_WORK_SLOTS of them, each grown to the largest cube swept and never past
81**3 bytes; a cube larger than that (an intp index cube at m = 81, or any
cube at m > 81) is allocated per call as before. The gathers write into
them with np.take(..., out=..., mode="clip") and the comparisons with
np.equal(..., out=...). "clip" never clips here, since _table has proved
every index lies in [0, m); it is chosen because np.take with the default
mode="raise" gathers into a temporary and copies it into out.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DomainError

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


def _table(t, name: str) -> np.ndarray:
    """t as a C-contiguous array in the smallest unsigned dtype that holds
    an index below m, the length of t's last axis. An entry outside
    [0, m) raises DomainError naming the table, since it would wrap."""
    t = np.asarray(t)
    m = t.shape[-1]
    if t.dtype.kind not in "iu":
        raise DomainError(f"{name} is not an integer table (dtype {t.dtype})")
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


# Slots of per-thread work arrays, and the largest one in bytes.
_WORK_SLOTS = 4
_WORK_BYTES = 81**3
_work = threading.local()


def _cube(slot: int, m: int, dtype) -> np.ndarray:
    """An (m, m, m) array of dtype to overwrite, this thread's work array
    in slot when it fits in _WORK_BYTES and a fresh one otherwise."""
    dtype = np.dtype(dtype)
    nbytes = m**3 * dtype.itemsize
    if nbytes > _WORK_BYTES:
        return np.empty((m, m, m), dtype)
    bufs = getattr(_work, "bufs", None)
    if bufs is None:
        bufs = _work.bufs = [np.empty(0, np.uint8)] * _WORK_SLOTS
    if bufs[slot].size < nbytes:
        bufs[slot] = np.empty(nbytes, np.uint8)
    return bufs[slot][:nbytes].view(dtype).reshape(m, m, m)


def _first_false(eq: np.ndarray):
    """The row-major first index at which eq is False, or None."""
    if eq.all():
        return None
    return tuple(int(v) for v in np.unravel_index(eq.argmin(), eq.shape))


def _rows(t: np.ndarray, idx: np.ndarray, slot: int) -> np.ndarray:
    """t[idx] for an (m, m) idx, gathered into slot's work array."""
    return np.take(t, idx, axis=0, out=_cube(slot, len(idx), t.dtype), mode="clip")


def _equal(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs == rhs for two (m, m, m) cubes, into the last slot's work array."""
    return np.equal(lhs, rhs, out=_cube(_WORK_SLOTS - 1, len(lhs), np.bool_))


def assoc_witness(t):
    """First (i, j, k) with t[t[i,j],k] != t[i,t[j,k]], or None."""
    t = _square(t, "table")
    # t[:, t] from a row gather of t's columns: (j, k, i) moved to (i, j, k).
    return _first_false(_equal(_rows(t, t, 0), _rows(np.ascontiguousarray(t.T), t, 1).transpose(2, 0, 1)))


def left_distrib_witness(mul, add):
    """First failure of mul[i, add[j,k]] == add[mul[i,j], mul[i,k]]."""
    mul = _square(mul, "multiplication")
    add = _square(add, "addition", len(mul))
    m = len(mul)
    lhs = _rows(np.ascontiguousarray(mul.T), add, 0).transpose(2, 0, 1)  # mul[:, add], as in assoc_witness
    # The flat index mul[i,j]*m + mul[i,k] of add is an intp cube, held in
    # a work array up to m = 40 (every field swept here) and fresh above.
    a = mul.astype(np.intp)
    idx = np.add((a * m)[:, :, None], a[:, None, :], out=_cube(2, m, np.intp))
    rhs = np.take(add.ravel(), idx, out=_cube(1, m, add.dtype), mode="clip")
    return _first_false(_equal(lhs, rhs))


def right_distrib_witness(mul, add):
    """First failure of mul[add[i,j], k] == add[mul[i,k], mul[j,k]]."""
    mul = _square(mul, "multiplication")
    add = _square(add, "addition", len(mul))
    m = len(mul)
    # rows[i, k*m + x] = add[mul[i,k], x], and the right side at (i, j, k)
    # is its column k*m + mul[j,k]: an (m, m) index, where a flat gather
    # of add would need an (m, m, m) one.
    rows = _rows(add, mul, 0).reshape(m, m * m)
    cols = np.arange(0, m * m, m) + mul.astype(np.intp)
    rhs = np.take(rows, cols, axis=1, out=_cube(1, m, add.dtype), mode="clip")
    return _first_false(_equal(_rows(mul, add, 2), rhs))


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
