"""The paper's general claim on every field of the family: the imaginary
quadratic fields Q(sqrt(D)) whose ring of integers Z[(1 + sqrt(D))/2] has
unique factorization and units +-1, D = -7, -11, -19, -43, -67 and -163.

Each D runs on a copy of the package whose one `DISCRIMINANT = -19` line
is changed, in its own interpreter with the copy first on its path, so
the package in src/ is tied to 19 only by that line. The script checks,
per D: the splitting law against sympy's Kronecker symbol; factor_quad
round trips; the canonical norms held by the correspondence (its split
bitmap and its extra norms) against the law; preimage_of_prime against
image_of_prime on every pair held up to norm 10**5, the preimages taken
first on a fresh correspondence so that no memo answers; sigma(a (+) b) =
sigma(a) + sigma(b) on seeded sums; and verify_exotic_field_axioms.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "nearfields"
LINE = "DISCRIMINANT = -19\n"

SCRIPT = r"""
import json, random, sys
from fractions import Fraction

import numpy as np
import sympy

import nearfields
from nearfields import quadratic
from nearfields.errors import ResourceLimitError
from nearfields.induced import exotic_add_q, verify_exotic_field_axioms
from nearfields.maps import PrimeCorrespondence, sigma_apply
from nearfields.quadratic import QuadInt, QuadRat, factor_quad, is_canonical_prime, primes_above, rebuild_quad
from nearfields.rationals import primes_upto

D, root = int(sys.argv[1]), sys.argv[2]
assert nearfields.__file__.startswith(root), nearfields.__file__  # the copy, not an installed package
assert (quadratic.DISCRIMINANT, quadratic.RAMIFIED, quadratic.W_NORM) == (D, -D, (1 - D) // 4)


def law(p):  # Euler's criterion for odd p, D mod 8 for p = 2
    if p == 2:
        return 1 if D % 8 == 1 else -1
    return 0 if p == -D else 1 if pow(D, (p - 1) // 2, p) == 1 else -1


kinds = {1: "split", -1: "inert", 0: "ramified"}
norms = {"split": lambda p: [p, p], "inert": lambda p: [p * p], "ramified": lambda p: [p]}
for p in sympy.primerange(3000):
    s = primes_above(p)
    assert s.kind == kinds[sympy.kronecker_symbol(D, p)] == kinds[law(p)], p
    assert [pi.norm() for pi in s.primes] == norms[s.kind](p), p

rng = random.Random(-D)
for _ in range(300):
    x = QuadRat(QuadInt(rng.randint(-10**4, 10**4), rng.randint(1, 10**4)), rng.randint(1, 100))
    f = factor_quad(x)
    assert rebuild_quad(f) == x and all(map(is_canonical_prime, f.exponents)), x

corr = PrimeCorrespondence()
corr.extend_to_norm(10**5)
cap = corr._data.capacity
expected = sorted(n for p in primes_upto(cap) for n in norms[kinds[law(p)]](p) if n <= cap)
assert corr._pair_arrays()[1].tolist() == expected
pairs = corr.pairs()
keys = [(pi.norm(), pi.a, pi.b) for _, pi in pairs]
assert keys == sorted(keys) and all(is_canonical_prime(pi) for _, pi in pairs)
if D == -7:  # 2 splits: its second prime is the one extra at place 1
    assert keys[0][0] == keys[1][0] == 2 and quadratic._place_in_norm(pairs[1][1]) == 1
assert all(corr.preimage_of_prime(pi) == p for p, pi in pairs)  # fresh: the rank formula answers
fresh = PrimeCorrespondence()
assert all(fresh.image_of_prime(p) == pi for p, pi in pairs)
assert all(fresh.preimage_of_prime(fresh.image_of_prime(p)) == p for p, _ in pairs)

default = nearfields.default_correspondence()
rng = np.random.default_rng(0)
sums = [0, 0]
for _ in range(300):
    a, b = (Fraction(int(rng.integers(-200, 201)), int(rng.integers(1, 201))) for _ in range(2))
    try:
        total = exotic_add_q(a, b)
    except ResourceLimitError:
        sums[1] += 1
        continue
    assert sigma_apply(default, total) == sigma_apply(default, a) + sigma_apply(default, b), (a, b)
    sums[0] += 1

rep = verify_exotic_field_axioms(seed=0)
print(json.dumps({
    "pairs": len(pairs),
    "one_plus_one": str(exotic_add_q(1, 1)),
    "sums": sums,
    "failures": [[c.name, c.witness is None] for c in rep.failures()],
    "counts": rep.counts,
}))
"""

# 1 (+) 1, and the distributivity samples of verify_exotic_field_axioms(seed=0)
# skipped at the default ceilings, out of 1,000. The skips rise with |D|:
# W_NORM = (1 - D)/4 grows, so the same operands have larger norms.
EXPECTED = {
    -7: ("-6", 15),
    -11: ("5", 30),
    -19: ("2", 134),
    -43: ("2", 318),
    -67: ("2", 457),
    -163: ("2", 713),
}


def _run(d: int, root: Path) -> subprocess.CompletedProcess:
    package = root / "nearfields"
    shutil.copytree(SOURCE, package, ignore=shutil.ignore_patterns("__pycache__"))
    quadratic = package / "quadratic.py"
    text = quadratic.read_text()
    assert text.count(LINE) == 1, "quadratic.py must set DISCRIMINANT on one line"
    quadratic.write_text(text.replace(LINE, f"DISCRIMINANT = {d}\n"))
    path = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}  # the copy first
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, str(d), str(root)],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    # two fields at a time, each in its own interpreter
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {d: pool.submit(_run, d, tmp_path_factory.mktemp(f"d{-d}")) for d in EXPECTED}


@pytest.mark.parametrize("d", sorted(EXPECTED, reverse=True))
def test_field(runs, d):
    done = runs[d].result()
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    one_plus_one, skipped = EXPECTED[d]
    assert got["one_plus_one"] == one_plus_one
    assert got["pairs"] > 9_000
    assert got["sums"][0] >= 295  # of 300 at height 200; -67 and -163 refuse 1 and 2
    counts = got["counts"]
    assert counts["skipped_distributivity"] == skipped
    assert counts["materialized_distributivity"] == 1_000 - skipped
    if d == -163:
        # The skip rule, not a wrong answer: more distributivity samples are
        # refused than checked (713 against 287), mostly at the sum-norm
        # ceiling of 10**12, so the check fails with no witness. A larger
        # norm_ceiling (10**14) passes it; the defaults are kept here.
        assert got["failures"] == [["distributivity_materialized", True]]
    else:
        assert got["failures"] == []
