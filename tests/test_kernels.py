import numpy as np

from nearfields import kernels


def _first_failure(m, holds):
    """Reference oracle: the lexicographically first (i, j, k) in range(m)**3
    where holds(i, j, k) is false, found by a plain triple loop."""
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if not holds(i, j, k):
                    return (i, j, k)
    return None


def _assoc_ref(t):
    return _first_failure(len(t), lambda i, j, k: t[t[i, j], k] == t[i, t[j, k]])


def _ldist_ref(mul, add):
    return _first_failure(
        len(mul), lambda i, j, k: mul[i, add[j, k]] == add[mul[i, j], mul[i, k]]
    )


def _rdist_ref(mul, add):
    return _first_failure(
        len(mul), lambda i, j, k: mul[add[i, j], k] == add[mul[i, k], mul[j, k]]
    )


def _hom_ref(maps, add_native, add_box):
    m = maps.shape[1]

    def holds(h, f, g):
        for x in range(m):
            fx, gx = maps[f, x], maps[g, x]
            if maps[h, add_native[fx, gx]] != add_box[maps[h, fx], maps[h, gx]]:
                return False
        return True

    return _first_failure(len(maps), holds)


def _mod_tables(m):
    add = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    mul = (np.arange(m)[:, None] * np.arange(m)[None, :]) % m
    return add, mul


def test_assoc_passes_on_modular_addition():
    add, _ = _mod_tables(7)
    assert kernels.assoc_witness(add) is None
    assert _assoc_ref(add) is None


def test_assoc_witness_is_first_failure():
    add, _ = _mod_tables(5)
    for i, j, v in [(1, 2, 0), (0, 0, 3), (4, 4, 4)]:
        bad = add.copy()
        bad[i, j] = v  # break one entry
        w = kernels.assoc_witness(bad)
        assert w is not None
        assert w == _assoc_ref(bad)
    rng = np.random.default_rng(3)
    scrambled = rng.integers(0, 6, (6, 6))
    assert kernels.assoc_witness(scrambled) == _assoc_ref(scrambled) is not None


def test_distrib_kernels():
    add, mul = _mod_tables(7)
    assert kernels.left_distrib_witness(mul, add) is None
    assert kernels.right_distrib_witness(mul, add) is None
    for i, j, v in [(3, 4, 1), (0, 6, 2), (6, 6, 0)]:
        bad = add.copy()
        bad[i, j] = v
        wl = kernels.left_distrib_witness(mul, bad)
        wr = kernels.right_distrib_witness(mul, bad)
        assert wl is not None and wr is not None
        assert wl == _ldist_ref(mul, bad)
        assert wr == _rdist_ref(mul, bad)
    # A one-sided break: row 2 now multiplies like row 1. Every row is still
    # additive, so the left law holds and only the right law fails.
    lopsided = mul.copy()
    lopsided[2] = lopsided[1]
    assert kernels.left_distrib_witness(lopsided, add) is None
    wr = kernels.right_distrib_witness(lopsided, add)
    assert wr is not None
    assert wr == _rdist_ref(lopsided, add)


def test_hom_left_distrib_witness():
    # Maps x -> c*x mod 5 are additive; a non-linear map is not.
    add, _ = _mod_tables(5)
    maps = np.array([(c * np.arange(5)) % 5 for c in range(5)])
    assert kernels.hom_left_distrib_witness(maps, add, add) is None
    broken = maps.copy()
    broken[2] = np.array([0, 2, 4, 1, 2])  # last entry wrong: 4*2=3 mod 5
    w = kernels.hom_left_distrib_witness(broken, add, add)
    assert w is not None
    assert w == _hom_ref(broken, add, add)
    # Break the image-side addition instead, so the first failing h is not 0.
    box = add.copy()
    box[1, 2] = box[2, 1] = 4
    w = kernels.hom_left_distrib_witness(maps, add, box)
    assert w is not None
    assert w == _hom_ref(maps, add, box)
