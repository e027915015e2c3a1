"""The three workloads, each a closed loop of one caller in one process.

A workload builds its inputs from the seed, runs them once as the warm-up
pass (which drives all lazy growth), and then replays the same pass in the
timed region, so a timed operation never pays for growth. Every workload
calls the package through ``nearfields`` attributes at call time, which is
what lets a traced run substitute its wrappers.

The correctness gate runs outside the timed region: the warm-up outcomes are
checked against independent paths and pinned values, and every timed outcome
must equal the warm-up outcome of the same input.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import nearfields as nf

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

# Command lines whose JSON output must equal the checked-in goldens byte for byte.
GOLDEN_ARGV = {
    "exotic_add_1_1.json": ["exotic-add", "1", "1", "--json"],
    "enumerate_f9.json": ["enumerate-additions", "--field", "f9", "--json"],
    "sigma_6_5.json": ["sigma", "--json", "6/5"],
    "char_map_exotic_12.json": ["char-map", "--carrier", "q", "--addition", "exotic", "--bound", "12", "--json"],
    "qmc_scale4_f9.json": ["qmc-check", "--field", "f9", "--map", "scale:4", "--json"],
    "verify_rho_f9_a5.json": ["verify-rho", "--carrier", "f9", "--addition", "a=5", "--json"],
}

# Residues of squares mod 19: an odd prime p != 19 splits in Z[w] exactly when
# p mod 19 is one of them; 2 is inert, 19 ramifies.
_SQUARES_MOD_19 = frozenset(x * x % 19 for x in range(1, 19))

Q_SIDE = (
    "induced.exotic_add_q",
    "maps.sigma_apply",
    "maps.image_of_prime",
    "maps.sigma_invert",
    "maps.preimage_of_prime",
    "maps.extend_to_norm",
    "quadratic.factor_quad",
    "quadratic.primes_above",
    "quadratic.is_canonical_prime",
    "rationals.factor_int",
    "rationals.factor_rat",
    "rationals.is_prime",
    "rationals.prime_mask",
)
FINITE_SIDE = (
    "finite.make_field",
    "finite.enumerate_additions",
    "finite.check_isomorphic_additions",
    "finite.modnear_ring_check",
    "kernels.assoc_witness",
    "kernels.left_distrib_witness",
    "kernels.right_distrib_witness",
    "kernels.hom_left_distrib_witness",
    "nvs.verify_nvs_axioms",
    "nvs.check_elementary_box1",
    "maps.check_qmc_equivalence",
)


class CheckFailed(Exception):
    """A wrong answer. The run aborts; it is never counted as slow or refused."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# The two ceilings a refusal can name, by the label the metrics use.
CEILINGS = {
    nf.DEFAULT_CORRESPONDENCE_CEILING: "correspondence",
    nf.DEFAULT_SUM_NORM_CEILING: "sum_norm",
}


def ceiling_label(ceiling) -> str:
    require(ceiling in CEILINGS, f"refusal names an unknown ceiling {ceiling}")
    return CEILINGS[ceiling]


@dataclass(frozen=True)
class Refusal:
    """A typed refusal, kept as an outcome so replays can be compared."""

    ceiling: int


# Longest run of operations between two measurements of the machine's speed.
CALIBRATE_EVERY_S = 0.1


class Recorder:
    """Latencies of completed operations and refusals by ceiling.

    Given a calibrate callable (returning the machine's current slowdown),
    it also measures the slowdown between operations at least every
    ``every`` seconds, and keeps the time that took apart.
    """

    def __init__(self, calibrate=None, every: float = CALIBRATE_EVERY_S):
        self.latencies: list[float] = []
        self.refused: Counter = Counter()
        self.slowdowns: list[float] = []
        self.calibrating_s = 0.0
        self._calibrations_before: list[int] = []  # per completed operation
        self._calibrate = calibrate
        self._every = every
        self._last = -math.inf

    @property
    def attempted(self) -> int:
        return len(self.latencies) + sum(self.refused.values())

    def calibrate(self) -> None:
        if self._calibrate is None:
            return
        t0 = time.perf_counter()
        self.slowdowns.append(self._calibrate())
        self._last = time.perf_counter()
        self.calibrating_s += self._last - t0

    def call(self, fn, *args):
        if self._calibrate is not None and time.perf_counter() - self._last >= self._every:
            self.calibrate()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except nf.ResourceLimitError as err:
            self.refused[err.ceiling] += 1
            raise
        self.latencies.append(time.perf_counter() - t0)
        self._calibrations_before.append(len(self.slowdowns))
        return out

    def scaled_latencies(self) -> list[float]:
        """Each latency divided by the mean slowdown measured just before
        and just after its operation."""
        if not self.slowdowns:
            return list(self.latencies)
        sd = self.slowdowns
        return [lat / statistics.fmean(sd[max(c - 1, 0):c + 1]) for lat, c in zip(self.latencies, self._calibrations_before)]


@dataclass
class Slice:
    """Consecutive steps of a timed region, with the mean slowdown measured
    at its ends and inside it; time spent calibrating is not counted."""

    completed: int  # operations completed in the slice
    seconds: float
    slowdown: float
    whole: bool  # False for the cut-off end of the region


def run_steps(wl, rec: Recorder, *, seconds: float | None = None, passes: int | None = None):
    """Replay the workload's pass, step by step, for a time or a pass count.

    Returns the raw outcomes in order and the region cut into slices of
    ``wl.slice_steps`` steps.
    """
    n = len(wl.steps)
    outcomes = []
    slices = []
    rec.calibrate()
    t0 = t_slice = time.perf_counter()
    calibrating_s, first, done = rec.calibrating_s, len(rec.slowdowns) - 1, 0
    i = 0

    def cut(whole: bool) -> None:
        nonlocal t_slice, calibrating_s, first, done
        took = time.perf_counter() - t_slice - (rec.calibrating_s - calibrating_s)
        rec.calibrate()
        slowdown = statistics.fmean(rec.slowdowns[first:]) if rec.slowdowns else 1.0
        slices.append(Slice(len(rec.latencies) - done, took, slowdown, whole))
        t_slice = time.perf_counter()
        calibrating_s, first, done = rec.calibrating_s, len(rec.slowdowns) - 1, len(rec.latencies)

    while (i < passes * n) if passes is not None else (time.perf_counter() - t0 < seconds):
        outcomes.append(wl.run_step(i % n, rec))
        i += 1
        if i % wl.slice_steps == 0:
            cut(whole=True)
    if i % wl.slice_steps:
        cut(whole=False)
    return outcomes, slices


def check_goldens(names) -> None:
    """In-process ``cli.main`` output must equal each golden byte for byte."""
    from nearfields import cli

    for name in names:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(GOLDEN_ARGV[name])
        require(code == 0, f"cli {GOLDEN_ARGV[name]} exited {code}")
        require(out.getvalue() == (GOLDEN_DIR / name).read_text(), f"cli output differs from golden {name}")


def _canonical_norm_above(p: int) -> int:
    """Norm of a canonical prime over the rational prime p (mod-19 rule)."""
    split = p == 19 or (p != 2 and p % 19 in _SQUARES_MOD_19)
    return p if split else p * p


class _QWorkload:
    """Shared checks for the workloads on the exotic rationals."""

    goldens = ("exotic_add_1_1.json", "sigma_6_5.json", "char_map_exotic_12.json")

    def check_sums(self, sums) -> None:
        """Each (a, b, outcome): a sum must satisfy the forward identity
        sigma(r) == sigma(a) + sigma(b), which goes through factor_rat and
        never through factor_quad; a refusal must be justified by the
        ceiling it names."""
        corr = nf.default_correspondence()
        for a, b, r in set(sums):
            image = nf.sigma_apply(corr, a) + nf.sigma_apply(corr, b)
            if isinstance(r, Refusal):
                norm = image.norm()
                over_sum = abs(norm.numerator) > nf.DEFAULT_SUM_NORM_CEILING or norm.denominator > nf.DEFAULT_SUM_NORM_CEILING
                if ceiling_label(r.ceiling) == "sum_norm":
                    require(over_sum, f"{a} + {b} refused at the sum-norm ceiling with image norm {norm}")
                else:
                    primes = nf.factor_int(image.num.norm()).exponents.keys() | nf.factor_int(image.den).exponents.keys()
                    need = max((_canonical_norm_above(p) for p in primes), default=1)
                    require(
                        not over_sum and need > corr.max_norm,
                        f"{a} + {b} refused at the correspondence ceiling but needs norm {need} only",
                    )
            else:
                try:
                    forward = nf.sigma_apply(corr, r)
                except nf.ResourceLimitError:  # every prime of a true sum is in the correspondence
                    forward = None
                require(forward == image, f"sigma({a} (+) {b} = {r}) != sigma({a}) + sigma({b})")

    def check_pinned(self) -> None:
        F = Fraction
        pinned = {(1, 1): 2, (1, 2): 13, (-2, -1): -13, (F(1, 3), F(1, 5)): F(31, 15)}
        for (a, b), want in pinned.items():
            got = nf.exotic_add_q(a, b)
            require(got == want, f"{a} (+) {b} gave {got}, pinned {want}")
        sigma = nf.sigma_apply(nf.default_correspondence(), F(6, 5))
        require(sigma == nf.QuadRat(nf.QuadInt(8, 2), 5), f"sigma(6/5) gave {sigma}, pinned (8+2w)/5")


class QSum(_QWorkload):
    """exotic_add_q on seeded random rationals of height 10**4."""

    HEIGHT = 10**4
    COUNT = 4000
    slice_steps = 250
    trace_passes = 1
    expected = Q_SIDE + ("cli.main",)
    bypassed = FINITE_SIDE

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        nums = rng.integers(-self.HEIGHT, self.HEIGHT + 1, size=(self.COUNT, 2))
        dens = rng.integers(1, self.HEIGHT + 1, size=(self.COUNT, 2))
        self.steps = [
            (Fraction(int(n0), int(d0)), Fraction(int(n1), int(d1)))
            for (n0, n1), (d0, d1) in zip(nums.tolist(), dens.tolist())
        ]

    def run_step(self, i: int, rec: Recorder):
        try:
            return rec.call(nf.exotic_add_q, *self.steps[i])
        except nf.ResourceLimitError as err:
            return Refusal(err.ceiling)

    def summary(self, outcome):
        return outcome

    def check(self, reference) -> None:
        self.check_sums((a, b, r) for (a, b), r in zip(self.steps, reference))
        self.check_pinned()


class RhoChain(_QWorkload):
    """char_map of rho(x) = 1 (+) x, then verify_rho_axioms at height 60.

    One step is the whole char_map/verify pair; one operation is one exotic
    sum issued through the add callable below.
    """

    BOUND = 300
    TRIALS = 200
    HEIGHT = 60
    slice_steps = 1
    trace_passes = 3
    expected = Q_SIDE + ("rho.char_map", "rho.verify_rho_axioms", "cli.main")
    bypassed = FINITE_SIDE

    def __init__(self, seed: int):
        self.seed = seed
        self.steps = ["char_map+verify_rho_axioms"]
        self._rec: Recorder | None = None
        self._sums: list = []

    def _add(self, a, b):
        try:
            r = self._rec.call(nf.exotic_add_q, a, b)
        except nf.ResourceLimitError as err:
            self._sums.append((a, b, Refusal(err.ceiling)))
            raise  # char_map and verify_rho_axioms count it as a skip
        self._sums.append((a, b, r))
        return r

    def _sample(self, rng):
        h = self.HEIGHT
        return Fraction(int(rng.integers(-h, h + 1)), int(rng.integers(1, h + 1)))

    def run_step(self, i: int, rec: Recorder):
        self._rec, self._sums = rec, []
        rho = nf.rho_from_add(nf.rational_carrier(), self._add)
        chi = nf.char_map(rho, self.BOUND, seed=self.seed)
        axioms = nf.verify_rho_axioms(
            rho, sampler=self._sample, trials=self.TRIALS, rng=np.random.default_rng(self.seed)
        )
        return self._sums, chi, axioms

    def summary(self, outcome):
        sums, chi, axioms = outcome
        return sums, chi.report.to_json(), axioms.to_json()

    def check(self, reference) -> None:
        sums, chi, axioms = reference[0]
        require(chi.report.ok, f"char_map failed: {chi.report.first_failure()}")
        require(axioms.ok, f"verify_rho_axioms failed: {axioms.first_failure()}")
        require(chi.characteristic == 0 and chi.evidence_bounded, "exotic rationals gave a characteristic")
        require(chi.chi(3) == 13 and chi.chi(-11) == 323, f"chi(3), chi(-11) = {chi.chi(3)}, {chi.chi(-11)}")
        self.check_sums(sums)
        self.check_pinned()


class FiniteSweep:
    """Exhaustive verification calls on F4, F8, F9, F25 and F27.

    One step is one public verification call.
    """

    FIELDS = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3))
    QMC_PER_FIELD = 4
    trace_passes = 40
    goldens = ("enumerate_f9.json", "qmc_scale4_f9.json", "verify_rho_f9_a5.json")
    expected = FINITE_SIDE + ("rho.verify_rho_axioms", "cli.main")
    bypassed = Q_SIDE

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        fields = [nf.make_field(p, n) for p, n in self.FIELDS]
        steps = [("enumerate_additions", (F,)) for F in fields]
        for F in fields:
            tables = nf.enumerate_additions(F).tables
            for i, t1 in enumerate(tables):
                for t2 in tables[i + 1:]:
                    steps.append(("check_isomorphic_additions", (F, t1, t2)))
        steps.append(("modnear_ring_check", ()))
        F9 = nf.make_field(3, 2)
        ident = np.arange(F9.m, dtype=np.int64)
        configs = [  # the psi/phi configurations of acceptance criterion 8
            (ident, ident),
            (ident, F9.power_table(3)),
            (F9.power_table(5), ident),
            (F9.power_table(5), F9.power_table(3)),
            (F9.scale_table(4), ident),
            (F9.power_table(5)[F9.scale_table(7)], F9.power_table(3)),
        ]
        for psi, phi in configs:
            space = nf.build_elementary(F9, psi, phi)
            steps.append(("verify_nvs_axioms", (space,)))
            steps.append(("check_elementary_box1", (space,)))
        for F in fields:
            units = F.exponent_units()
            nonzero = [x for x in range(F.m) if x != F.zero]
            for _ in range(self.QMC_PER_FIELD):
                k = units[int(rng.integers(len(units)))]
                lam = nonzero[int(rng.integers(len(nonzero)))]
                spec = nf.QuasiMultSpec(F, F.power_table(k), lam)
                steps.append(("check_qmc_equivalence", (F, spec.as_table())))
        self.steps = steps
        self.slice_steps = len(steps)

    def run_step(self, i: int, rec: Recorder):
        name, args = self.steps[i]
        return rec.call(getattr(nf, name), *args)

    def summary(self, outcome):
        if isinstance(outcome, int):  # an isomorphism exponent
            return outcome
        if isinstance(outcome, nf.Report):
            return outcome.to_json()
        if isinstance(outcome, nf.EnumerationResult):
            return outcome.to_json(), outcome.report.to_json()
        return outcome.conditions, outcome.lam, outcome.gamma, outcome.report.to_json()  # a QmcResult

    def check(self, reference) -> None:
        for (kind, args), out in zip(self.steps, reference):
            if kind == "check_isomorphic_additions":
                F, t1, t2 = args
                pk = F.power_table(out)
                require(
                    math.gcd(out, F.m - 1) == 1 and np.array_equal(pk[t1.table], t2.table[np.ix_(pk, pk)]),
                    f"x -> x**{out} is no isomorphism {t1.provenance} -> {t2.provenance} on {F!r}",
                )
                continue
            report = getattr(out, "report", out)
            require(report.ok, f"{kind}{args[:1]}: {report.first_failure()}")
            if kind == "enumerate_additions":
                F = args[0]
                require(
                    all(report.counts[f"triples[{t.provenance}]"] == F.m**3 for t in out.tables),
                    f"enumeration on {F!r} did not sweep every triple",
                )
                if (F.p, F.n) == (3, 2):
                    require(out.classes == [[1, 3], [5, 7]], f"F9 classes {out.classes}")
            elif kind == "modnear_ring_check":
                require(report.counts.get("members") == 81, f"modnear-ring has {report.counts.get('members')} members")
            elif kind == "check_qmc_equivalence":
                require(out.is_quasi_multiplicative, f"constructed map not quasi-multiplicative: {out.conditions}")


WORKLOADS = {"qsum-h1e4": QSum, "rho-chain-q": RhoChain, "finite-sweep": FiniteSweep}
