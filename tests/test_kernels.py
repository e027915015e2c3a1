import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfields import kernels
from nearfields.errors import DomainError
from nearfields.finite import addition_from_exponent, make_field


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


def test_hom_left_distrib_witness_on_seeded_tables():
    # Linear maps mod 5 with a few entries scrambled, under a box table with
    # a few entries scrambled: the kernel's first witness is the loop's.
    add, _ = _mod_tables(5)
    linear = np.array([(c * np.arange(5)) % 5 for c in range(5)])
    rng = np.random.default_rng(32)
    witnesses = 0
    for _ in range(60):
        maps = linear.copy()
        for _ in range(rng.integers(0, 3)):
            maps[rng.integers(5), rng.integers(5)] = rng.integers(5)
        box = add.copy()
        for _ in range(rng.integers(0, 3)):
            box[rng.integers(5), rng.integers(5)] = rng.integers(5)
        w = kernels.hom_left_distrib_witness(maps, add, box)
        assert w == _hom_ref(maps, add, box), (maps.tolist(), box.tolist())
        witnesses += w is not None
    assert 10 < witnesses < 60
    # A nonzero linear map vanishes at 0 alone, so no (f(x), g(x)) of two of
    # them is (0, b) with b != 0. Scrambling box[0, 3] makes (0, b) bad for
    # each h with h(b) = 3, and breaks nothing that their triples reach.
    units = linear[1:]
    box = add.copy()
    box[0, 3] = 1
    assert (units[:, add] != box[units[:, :, None], units[:, None, :]]).any()
    assert kernels.hom_left_distrib_witness(units, add, box) is None
    assert _hom_ref(units, add, box) is None


def _hom_per_h(maps, add_native, add_box):
    """Reference: the full sweep, one h at a time in order, comparing
    h(f + g) with h(f) boxplus h(g) at every (f, g, x)."""
    sums = add_native[maps[:, None, :], maps[None, :, :]]
    for hi, h in enumerate(maps):
        hf = h[maps]
        eq = (h[sums] == add_box[hf[:, None, :], hf[None, :, :]]).all(axis=2)
        if not eq.all():
            fi, gi = (int(v) for v in np.argwhere(~eq)[0])
            return (hi, fi, gi)
    return None


def _f9_additive_maps():
    """The 81 additive maps of F9 = (Z/3)^2, x = c0 + 3*c1 -> c0*u + c1*v,
    as an int64 (81, 9) array in u-major order."""
    add = make_field(3, 2).add
    mult = np.stack([np.zeros(9, dtype=np.int64), np.arange(9), add[np.arange(9), np.arange(9)]])  # c*u
    c0, c1 = np.arange(9) % 3, np.arange(9) // 3
    maps = np.array([add[mult[c0, u], mult[c1, v]] for u in range(9) for v in range(9)])
    assert len({m.tobytes() for m in maps}) == 81
    return maps


def test_hom_left_distrib_witness_on_the_modnear_members():
    # The 81 additive maps of F9 against box tables with one to three
    # entries scrambled.
    add = make_field(3, 2).add
    maps = _f9_additive_maps()
    assert kernels.hom_left_distrib_witness(maps, add, add) is None
    rng = np.random.default_rng(7)
    witnesses = 0
    for _ in range(40):
        box = add.copy()
        for _ in range(rng.integers(1, 4)):
            box[rng.integers(9), rng.integers(9)] = rng.integers(9)
        w = kernels.hom_left_distrib_witness(maps, add, box)
        assert w == _hom_per_h(maps, add, box), box.tolist()
        witnesses += w is not None
    assert witnesses > 30


# --- oracles over input forms, sizes up to the modnear-ring's 81 ---------

def _forms(t):
    """The same table as int64, int32 and uint8 arrays, a nested list, and a
    transposed view that is not C-contiguous."""
    t = np.asarray(t, dtype=np.int64)
    view = np.ascontiguousarray(t.T).T
    assert not view.flags["C_CONTIGUOUS"] or len(t) == 1
    return [t, t.astype(np.int32), t.astype(np.uint8), t.tolist(), view]


def _cube_first(eq):
    bad = np.argwhere(~eq)
    return None if len(bad) == 0 else tuple(int(v) for v in bad[0])


def _assoc_cube(t):
    """The int64 full-cube sweep the byte kernels replaced."""
    return _cube_first(t[t] == t[:, t])


def _ldist_cube(mul, add):
    return _cube_first(mul[:, add] == add[mul[:, :, None], mul[:, None, :]])


def _rdist_cube(mul, add):
    return _cube_first(mul[add, :] == add[mul[:, None, :], mul[None, :, :]])


def _mutated(t, rng):
    t = t.copy()
    m = len(t)
    for _ in range(rng.integers(1, 4)):
        t[rng.integers(m), rng.integers(m)] = rng.integers(m)
    return t


def _check_against(assoc_ref, ldist_ref, rdist_ref, add, mul):
    for t in (add, mul):
        want = assoc_ref(t)
        for form in _forms(t):
            assert kernels.assoc_witness(form) == want
    for ref, kernel in ((ldist_ref, kernels.left_distrib_witness), (rdist_ref, kernels.right_distrib_witness)):
        want = ref(mul, add)
        for mul_form, add_form in zip(_forms(mul), _forms(add)):
            assert kernel(mul_form, add_form) == want
        assert kernel(mul.astype(np.uint8), add.tolist()) == want  # mixed forms


def test_kernels_match_the_triple_loop_on_every_input_form():
    rng = np.random.default_rng(34)
    for m in (1, 2, 9, 27):
        add, mul = _mod_tables(m)
        _check_against(_assoc_ref, _ldist_ref, _rdist_ref, add, mul)
        for _ in range(3):
            _check_against(_assoc_ref, _ldist_ref, _rdist_ref, _mutated(add, rng), _mutated(mul, rng))


def test_kernels_match_the_int64_cube_at_81():
    add, mul = _mod_tables(81)
    _check_against(_assoc_cube, _ldist_cube, _rdist_cube, add, mul)
    rng = np.random.default_rng(81)
    witnesses = 0
    for _ in range(3):
        bad_add, bad_mul = _mutated(add, rng), _mutated(mul, rng)
        _check_against(_assoc_cube, _ldist_cube, _rdist_cube, bad_add, mul)
        _check_against(_assoc_cube, _ldist_cube, _rdist_cube, add, bad_mul)
        witnesses += kernels.assoc_witness(bad_add) is not None
    assert witnesses > 0


def test_distrib_kernels_read_pairs_past_a_byte():
    # bad[80, 79] sits at 80 * 81 + 79 = 6559 of bad.ravel(); an index to
    # it held in a byte would wrap to 159 and read bad[1, 78] instead.
    add, mul = _mod_tables(81)
    bad = add.copy()
    bad[80, 79] = 0
    assert bad.ravel()[6559 % 256] == bad[1, 78] != bad[80, 79]
    for kernel, ref in ((kernels.left_distrib_witness, _ldist_cube), (kernels.right_distrib_witness, _rdist_cube)):
        w = kernel(mul.astype(np.uint8), bad.astype(np.uint8))
        assert w is not None and w == ref(mul, bad)
    assert kernels.assoc_witness(bad) == _assoc_cube(bad) is not None


def test_kernels_refuse_entries_outside_the_carrier():
    # -1 once wrapped to the last row, so this non-table passed as associative.
    with pytest.raises(DomainError, match="table"):
        kernels.assoc_witness(np.array([[0, -1], [-1, 0]]))
    add, mul = _mod_tables(9)
    for bad_entry in (-1, 9):
        bad = add.copy()
        bad[3, 5] = bad_entry
        with pytest.raises(DomainError, match=r"outside \[0, 9\)"):
            kernels.assoc_witness(bad)
        with pytest.raises(DomainError, match="addition"):
            kernels.left_distrib_witness(mul, bad)
        with pytest.raises(DomainError, match="multiplication"):
            kernels.right_distrib_witness(bad, add)
        maps = np.array([(c * np.arange(9)) % 9 for c in range(9)])
        maps[2, 4] = bad_entry
        with pytest.raises(DomainError, match="maps"):
            kernels.hom_left_distrib_witness(maps, add, add)
    with pytest.raises(DomainError, match="shape"):
        kernels.right_distrib_witness(mul, add[:8, :8])
    with pytest.raises(DomainError, match="integer"):
        kernels.assoc_witness(add + 0.5)  # would truncate to a valid table


# --- row slabs ------------------------------------------------------------

def _check_sweeps(add, mul, assoc_ref, ldist_ref, rdist_ref):
    assert kernels.assoc_witness(add) == assoc_ref(add)
    assert kernels.assoc_witness(mul) == assoc_ref(mul)
    assert kernels.left_distrib_witness(mul, add) == ldist_ref(mul, add)
    assert kernels.right_distrib_witness(mul, add) == rdist_ref(mul, add)


def test_slabs_leak_nothing_between_sizes():
    # Each size cuts its rows into slabs of its own, from heap that the
    # sweeps before it freed: each answer is the oracle's whatever ran
    # before it, failing or not.
    rng = np.random.default_rng(35)
    oracles = {81: (_assoc_cube, _ldist_cube, _rdist_cube)}
    for m in (81, 9, 27, 81, 9):
        add, mul = _mod_tables(m)
        refs = oracles.get(m, (_assoc_ref, _ldist_ref, _rdist_ref))
        _check_sweeps(add, mul, *refs)
        for _ in range(2):
            _check_sweeps(_mutated(add, rng), _mutated(mul, rng), *refs)
            _check_sweeps(add, mul, *refs)


def test_threads_sweep_their_own_tables_at_once():
    import sys
    import threading

    add, mul = _mod_tables(81)
    cases = []
    for i, j in ((3, 5), (10, 2), (40, 70), (80, 79)):
        bad = add.copy()
        bad[i, j] = (bad[i, j] + 1) % 81
        cases.append((bad, _assoc_cube(bad), _rdist_cube(mul, bad)))
    assert len({(w_a, w_r) for _, w_a, w_r in cases}) == len(cases)
    barrier = threading.Barrier(len(cases))
    wrong = []

    def sweep(bad, want_assoc, want_rdist):
        barrier.wait(timeout=30)
        for _ in range(10):
            got = (kernels.assoc_witness(bad), kernels.right_distrib_witness(mul, bad))
            if got != (want_assoc, want_rdist):
                wrong.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep, args=case) for case in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_slabs_stay_within_their_bound():
    # A slab's widest temporary takes at most _SLAB_BYTES, under glibc's
    # 128 KiB mmap threshold: 18 rows of an 81**3 byte cube, 2 of an intp
    # one. A repeat sweep holds a few slabs at once and never a whole cube,
    # at m = 81 and past it (a byte cube at m = 90 is 729,000 bytes).
    import tracemalloc

    assert kernels._SLAB_BYTES < 128 * 1024
    assert kernels._SLAB_BYTES // 81**2 == 18 and kernels._SLAB_BYTES // (8 * 81**2) == 2
    for m in (81, 90):
        add, mul = _mod_tables(m)
        late_add, late_mul = _failing_from_row(m - 1, m)  # witnesses in the last row
        for kernel, args in (
            (kernels.assoc_witness, (add,)),
            (kernels.left_distrib_witness, (mul, add)),
            (kernels.right_distrib_witness, (mul, add)),
            (kernels.assoc_witness, (late_add,)),
            (kernels.left_distrib_witness, (late_mul, late_add)),
            (kernels.right_distrib_witness, (late_mul, late_add)),
        ):
            want = kernel(*args)
            assert want is None or want[0] == m - 1
            tracemalloc.start()
            try:
                for _ in range(3):
                    assert kernel(*args) == want
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * kernels._SLAB_BYTES, (m, kernel.__name__, peak)


def _failing_from_row(r, m=81):
    """Tables on range(m) whose rows below r satisfy every identity swept
    here (add's are left identities, mul's are zero) and whose rows from r
    on are those of Z/m, so that each sweep first fails in row r (r >= 2)."""
    x = np.arange(m)
    add = np.where(x[:, None] < r, x[None, :], (x[:, None] + x[None, :]) % m)
    mul = np.where(x[:, None] < r, 0, (x[:, None] * x[None, :]) % m)
    return add, mul


def _witnesses(add, mul):
    return [_assoc_cube(add), _assoc_cube(mul), _ldist_cube(mul, add), _rdist_cube(mul, add)]


def test_witnesses_in_the_first_and_the_last_slab():
    # Row 0 broken: the first failure lies in the first slab of every sweep.
    add, mul = _mod_tables(81)
    add[0, 5], mul[0, 5] = 2, 1
    assert [w[0] for w in _witnesses(add, mul)] == [0, 0, 0, 0]
    _check_sweeps(add, mul, _assoc_cube, _ldist_cube, _rdist_cube)
    # Byte slabs hold rows 0-17, 18-35, ..., 72-80, and intp slabs rows
    # 0-1, ..., 78-79, 80: first failures at the edges of the first and
    # the last byte slab, and in the last intp slab.
    for r in (2, 17, 18, 71, 72, 80):
        add, mul = _failing_from_row(r)
        assert [w[0] for w in _witnesses(add, mul)] == [r] * 4
        _check_sweeps(add, mul, _assoc_cube, _ldist_cube, _rdist_cube)


# --- decided from generators ----------------------------------------------

def _closure_ref(t, gens):
    """The closure of gens under t, by a plain loop over pairs."""
    span = set(gens)
    while True:
        grown = span | {int(t[a][b]) for a in span for b in span}
        if grown == span:
            return span
        span = grown


def _modnear_tables():
    """The boxplus, plus and composition tables of the modnear-ring's 81
    members, each named by a dict from a map's values to its index."""
    f = make_field(3, 2)
    box = addition_from_exponent(f, 3).table.astype(np.int64)
    maps = _f9_additive_maps()
    name = {m.tobytes(): i for i, m in enumerate(maps)}

    def table(op):
        return np.array([[name[op(g, h).tobytes()] for h in maps] for g in maps])

    return {
        "boxplus": table(lambda g, h: box[g, h]),
        "plus": table(lambda g, h: f.add[g, h]),
        "compose": table(lambda g, h: g[h]),
    }


def test_generators_generate_every_table():
    for m in (1, 2, 9, 27, 81):
        for t in _mod_tables(m):
            gens = kernels.generators(t)
            assert gens == sorted(gens) and gens[0] == 0
            assert _closure_ref(t, gens) == set(range(m)), (m, gens)
    tables = _modnear_tables()
    assert kernels.generators(tables["boxplus"]) == [0, 1, 3, 9, 27]
    for t in tables.values():
        assert _closure_ref(t, kernels.generators(t)) == set(range(81))
    assert kernels.generators(np.zeros((0, 0), dtype=np.int64)) == []


def _check_from_generators(add, mul):
    """With generators, both kernels give the full sweep's answer."""
    assert kernels.assoc_witness(add, gens=kernels.generators(add)) == kernels.assoc_witness(add)
    assert kernels.assoc_witness(mul, gens=kernels.generators(mul)) == kernels.assoc_witness(mul)
    want = kernels.right_distrib_witness(mul, add)
    assert kernels.right_distrib_witness(mul, add, gens=kernels.generators(add)) == want
    return want


def test_generators_decide_the_modnear_tables_as_the_sweep_does():
    tables = _modnear_tables()
    mul = tables["compose"]
    for name in ("boxplus", "plus"):
        assert _check_from_generators(tables[name], mul) is None
    assert kernels.assoc_witness(mul) is None
    # One to three entries scrambled, in the sum or in the composition.
    rng = np.random.default_rng(44)
    fallbacks = failures = 0
    for name in ("boxplus", "plus"):
        for _ in range(40):
            bad = _mutated(tables[name], rng)
            failures += _check_from_generators(bad, mul) is not None
            fallbacks += kernels.assoc_witness(bad) is not None
    for _ in range(40):
        failures += _check_from_generators(tables["plus"], _mutated(mul, rng)) is not None
    # Sums no longer associative, where right distributivity falls back to
    # the sweep, and products that break it over an associative sum.
    assert fallbacks > 40 and failures > 100, (fallbacks, failures)


@st.composite
def _magmas(draw):
    """A sum and a product on range(m), m in 1..7: either random tables, or
    Z/m's sum and a product distributing over it on the right (k-th column
    x -> c_k * x), relabelled by a permutation; then a few entries set."""
    m = draw(st.integers(1, 7))
    entries = st.lists(st.integers(0, m - 1), min_size=m * m, max_size=m * m)
    if draw(st.booleans()):
        add = np.array(draw(entries)).reshape(m, m)
        mul = np.array(draw(entries)).reshape(m, m)
    else:
        add, _ = _mod_tables(m)
        mul = (np.arange(m)[:, None] * np.array(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))) % m
        perm = np.array(draw(st.permutations(range(m))))
        inv = np.argsort(perm)
        add, mul = perm[add[inv][:, inv]], perm[mul[inv][:, inv]]
    for table in (add, mul):
        for i, j, v in draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * 3), max_size=2)):
            table[i, j] = v
    return add, mul


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_magmas())
def test_generators_decide_random_magmas_as_the_triple_loop_does(tables):
    add, mul = tables
    gens = kernels.generators(add)
    assert kernels.assoc_witness(add, gens=gens) == _assoc_ref(add)
    assert kernels.right_distrib_witness(mul, add, gens=gens) == _rdist_ref(mul, add)
    assert kernels.assoc_witness(mul, gens=kernels.generators(mul)) == _assoc_ref(mul)


def test_tests_from_generators_stay_within_the_slab_bound():
    # The reduced tests take their generators in runs whose widest
    # temporary fits in _SLAB_BYTES, however many generators there are:
    # a left-zero table t[i, j] = i needs all 81 of its indices.
    import tracemalloc

    add, mul = _mod_tables(81)
    left_zero = np.repeat(np.arange(81)[:, None], 81, axis=1)
    for t in (add, mul, left_zero):
        gens = kernels.generators(t)
        cases = [(kernels.assoc_witness, (t,))]
        if t is add:
            cases.append((kernels.right_distrib_witness, (mul, t)))
        for kernel, args in cases:
            want = kernel(*args)
            tracemalloc.start()
            try:
                assert kernel(*args, gens=gens) == want
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * kernels._SLAB_BYTES, (len(gens), kernel.__name__, peak)
    assert len(kernels.generators(left_zero)) == 81


def _failing_at_the_last_generators():
    """Tables at m = 81 with 81 generators each, 18 a run, whose reduced
    tests fail only at generators in the last run:

    - for assoc_witness, x o y = x, except 80 o 0 = 1 and 80 o y = 0 for
      y != 0, so that Light's test fails only with 80 in the middle;
    - for right_distrib_witness, the sum max(x, y) and a product whose
      columns are x -> x, except that column 0 swaps 79 and 80, so that it
      distributes over max except at the pairs {79, 80}."""
    x = np.arange(81)
    left_zero = np.repeat(x[:, None], 81, axis=1)
    left_zero[80] = np.where(x == 0, 1, 0)
    mul = np.repeat(x[:, None], 81, axis=1)
    mul[[79, 80], 0] = [80, 79]
    return left_zero, np.maximum(x[:, None], x[None, :]), mul


def test_a_reduced_test_that_fails_in_its_last_run_finds_the_sweeps_witness():
    # The slab loop runs every generator run before it: each reduced test
    # fails only in its last run, whereupon the sweep finds the first
    # failing triple, all within the slab bound.
    import tracemalloc

    left_zero, add, mul = _failing_at_the_last_generators()
    gens_t, gens_add = kernels.generators(left_zero), kernels.generators(add)
    assert gens_t == gens_add == list(range(81))
    light_fails = [s for s in gens_t if (left_zero[left_zero[:, s]] != left_zero[:, left_zero[s]]).any()]
    rdist_fails = [s for s in gens_add if (mul[add[:, s]] != add[mul, mul[s]]).any()]
    assert light_fails == [80] and rdist_fails == [79, 80] and _assoc_cube(add) is None
    for kernel, args, gens, want in (
        (kernels.assoc_witness, (left_zero,), gens_t, (80, 80, 1)),
        (kernels.right_distrib_witness, (mul, add), gens_add, (79, 80, 0)),
    ):
        assert kernel(*args) == want
        tracemalloc.start()
        try:
            assert kernel(*args, gens=gens) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * kernels._SLAB_BYTES, (kernel.__name__, peak)
    assert (_assoc_cube(left_zero), _rdist_cube(mul, add)) == ((80, 80, 1), (79, 80, 0))
