"""Per-layer spans recorded from outside the package.

Every traced function is replaced by a wrapper at each module of
``nearfields`` that binds it. Bindings are found by identity, not by name,
so ``from .rationals import factor_int`` in ``quadratic`` and an import
under another name are both caught. Methods of ``PrimeCorrespondence`` are
replaced on the class. A wrapper records calls, inclusive time and self
time (inclusive time minus the time of the traced calls made inside it).

Only the benchmark's own processes install the tracer, and only in a traced
run; end-to-end figures always come from unwrapped code.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# Traced functions by layer (the module of nearfields that defines them).
LAYERS: dict[str, tuple[str, ...]] = {
    "induced": ("exotic_add_q",),
    "maps": (
        "sigma_apply",
        "PrimeCorrespondence.image_of_prime",
        "sigma_invert",
        "PrimeCorrespondence.preimage_of_prime",
        "PrimeCorrespondence.extend_to_norm",
        "check_qmc_equivalence",
    ),
    "quadratic": ("factor_quad", "primes_above", "is_canonical_prime"),
    "rationals": ("factor_int", "factor_rat", "is_prime", "prime_mask"),
    "rho": ("char_map", "verify_rho_axioms"),
    "finite": (
        "make_field",
        "enumerate_additions",
        "check_isomorphic_additions",
        "modnear_ring_check",
    ),
    "kernels": (
        "assoc_witness",
        "left_distrib_witness",
        "right_distrib_witness",
        "hom_left_distrib_witness",
    ),
    "nvs": ("verify_nvs_axioms", "check_elementary_box1"),
    "cli": ("main",),
}

# Frequently called functions that also get inclusive microseconds per call.
HOT_LEAVES = frozenset({
    "maps.image_of_prime",
    "maps.preimage_of_prime",
    "quadratic.primes_above",
    "quadratic.is_canonical_prime",
    "rationals.factor_int",
    "rationals.is_prime",
})


def span_keys() -> list[str]:
    """``layer.function`` for every traced function, in LAYERS order."""
    return [f"{layer}.{name.rsplit('.', 1)[-1]}" for layer, names in LAYERS.items() for name in names]


def _triples(key: str, args) -> int:
    """Index triples a kernel sweeps, computed from its argument shapes.

    The table kernels sweep m**3 triples of an m-by-m table; the
    homomorphism kernel sweeps n**3 triples of its n maps.
    """
    first = args[0] if key in ("kernels.assoc_witness", "kernels.hom_left_distrib_witness") else args[1]
    return len(first) ** 3


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {key: [0, 0.0, 0.0] for key in span_keys()}  # calls, total_s, self_s
        self.sites: dict[str, list[str]] = {}
        self.refusals: Counter = Counter()  # (key, ceiling) -> ResourceLimitErrors raised out of key
        self.growth: list[tuple[float, int, int]] = []  # (seconds, pairs before, pairs after)
        self.triples = 0
        self._open: list[float] = []  # child time of each open span

    def install(self) -> None:
        from nearfields.errors import ResourceLimitError

        self._limit_error = ResourceLimitError
        layers = {layer: importlib.import_module(f"nearfields.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "nearfields" or n.startswith("nearfields.")]
        for layer, names in LAYERS.items():
            mod = layers[layer]
            for name in names:
                key = f"{layer}.{name.rsplit('.', 1)[-1]}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(key, orig))
                    self.sites[key] = [f"nearfields.{layer}.{name}"]
                    continue
                orig = getattr(mod, name)
                wrapper = self._wrap(key, orig)
                sites = []
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            sites.append(f"{m.__name__}.{attr}")
                self.sites[key] = sites

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        opened = self._open
        limit_error = self._limit_error
        if key == "maps.extend_to_norm":
            fn = self._growth_recorder(fn)
        count_triples = key.startswith("kernels.")

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_triples:
                self.triples += _triples(key, args)
            opened.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except limit_error as err:
                self.refusals[key, err.ceiling] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = opened.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if opened:
                    opened[-1] += dt

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _growth_recorder(self, extend):
        def extend_to_norm(corr, limit):
            before = corr.pair_count
            t0 = time.perf_counter()
            extend(corr, limit)
            if self.active and corr.pair_count != before:
                self.growth.append((time.perf_counter() - t0, before, corr.pair_count))

        return extend_to_norm

    def layer_metrics(self, pairs_final: int, ceilings: dict[int, str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, each as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for key in span_keys():
            calls, total, self_s = self.stats[key]
            out[f"{key}.calls"] = (calls, "count")
            out[f"{key}.self_s"] = (self_s, "s")
            if key in HOT_LEAVES:
                out[f"{key}.us_per_call"] = (total / calls * 1e6 if calls else 0.0, "us")
        for ceiling, label in ceilings.items():
            out[f"induced.refused.{label}"] = (self.refusals["induced.exotic_add_q", ceiling], "count")
        built = sum(after for _, _, after in self.growth)
        out["maps.corr_growths"] = (len(self.growth), "count")
        out["maps.corr_pairs_final"] = (pairs_final, "count")
        out["maps.corr_pairs_built"] = (built, "count")
        out["maps.corr_rebuild_ratio"] = (built / pairs_final if pairs_final else 0.0, "ratio")
        out["kernels.triples_swept"] = (self.triples, "count")
        return out
