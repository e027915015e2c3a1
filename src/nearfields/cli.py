"""Command-line front end.

One executable, fifteen subcommands, every verifier and constructor in the
package behind reproducible seeds. Reports go to standard output (JSON with
--json, plain text otherwise), diagnostics to standard error. Exit status:
0 for success/pass, 1 for a verification failure (the report carries a
witness), 2 for usage or domain errors, including inputs beyond the
configured resource ceilings; a reader that closes early ends the run
with 1 and no traceback. The tuning flags (--seed, --trials,
--height-bound, --norm-ceiling) exist only on the subcommands that read
them, so a flag that would be ignored is a usage error instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields as dc_fields
from fractions import Fraction

import numpy as np

from .errors import DomainError, IntegrityError, ResourceLimitError
from .finite import (
    FiniteField,
    SUPPORTED_FIELDS,
    addition_from_exponent,
    check_isomorphic_additions,
    enumerate_additions,
    make_field,
    modnear_ring_check,
    native_addition,
)
from .induced import DEFAULT_SUM_NORM_CEILING, _rand_rat, check_norm_ceiling, exotic_add_q
from .maps import (
    EndoBijectionSpecQ,
    check_qmc_equivalence,
    default_correspondence,
    endo_q_apply,
    epsilon_inverse_param,
    eval_epsilon,
    sigma_apply,
    sigma_invert,
)
from .nvs import build_elementary, check_elementary_box1, verify_nvs_axioms
from .quadratic import QuadInt, QuadRat, factor_quad
from .rationals import factor_int, factor_rat
from .rho import char_map, field_carrier, rational_carrier, rho_from_add, verify_rho_axioms

__all__ = ["RunConfig", "main"]

CONFIG_ENV = "NEARFIELDS_CONFIG"

_FIELDS = {f"f{p**n}": (p, n) for p, n in SUPPORTED_FIELDS}


@dataclass
class RunConfig:
    seed: int = 0
    height_bound: int = 10**6
    norm_ceiling: int = DEFAULT_SUM_NORM_CEILING
    trials: int = 300
    output: str = "text"

    def __post_init__(self):
        for f in dc_fields(self):
            if type(getattr(self, f.name)) is not type(f.default):
                raise DomainError(f"{f.name} must be {type(f.default).__name__}")
        if self.seed < 0 or self.height_bound < 1 or self.norm_ceiling < 1 or self.trials < 1:
            raise DomainError("the seed must be non-negative, bounds and trial counts positive")
        if self.output not in ("text", "json"):
            raise DomainError(f"unknown output mode {self.output!r}")


def _load_config(args) -> RunConfig:
    """Defaults, then the config file named by the environment, then flags."""
    values = {}
    path = os.environ.get(CONFIG_ENV)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read {CONFIG_ENV}={path}: {exc}") from None
        if not isinstance(raw, dict):
            raise DomainError(f"{CONFIG_ENV}={path} must hold a JSON object")
        allowed = {f.name for f in dc_fields(RunConfig)}
        unknown = set(raw) - allowed
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    for key in ("seed", "height_bound", "norm_ceiling", "trials"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "json", False):
        values["output"] = "json"
    return RunConfig(**values)


def _num(kind, text: str):
    """kind(text) for a command-line value; one that does not parse is a
    usage error, not a library fault."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot read {text!r} as {kind.__name__}") from None


def _field_arg(name: str) -> FiniteField:
    if name not in _FIELDS:
        raise DomainError(f"unknown field {name!r}; choose from {sorted(_FIELDS)}")
    return make_field(*_FIELDS[name])


def _map_arg(field: FiniteField, spec: str) -> np.ndarray:
    """Index-table grammar: id, pow:K, scale:K, or table:i,j,..."""
    if spec == "id":
        return np.arange(field.m, dtype=np.int64)
    kind, _, rest = spec.partition(":")
    if kind == "pow" and rest:
        return field.power_table(_num(int, rest))
    if kind == "scale" and rest:
        return field.scale_table(_num(int, rest))
    if kind == "table" and rest:
        t = np.array([_num(int, x) for x in rest.split(",")], dtype=np.int64)
        if len(t) != field.m:
            raise DomainError(f"table needs {field.m} entries, got {len(t)}")
        return t
    raise DomainError(f"bad map spec {spec!r}; use id, pow:K, scale:K or table:...")


def _prime_dict(spec: str | None) -> dict[int, int]:
    if not spec:
        return {}
    out = {}
    for part in spec.split(","):
        k, _, v = part.partition(":")
        out[_num(int, k)] = _num(int, v)
    return out


def _gate_height(text: str, bound: int) -> Fraction:
    q = _num(Fraction, text)
    if max(abs(q.numerator), q.denominator) > bound:
        raise DomainError(
            f"operand height {max(abs(q.numerator), q.denominator)} exceeds the bound {bound}"
        )
    return q


def _carrier_and_add(args, cfg: RunConfig):
    """Shared --carrier/--addition plumbing for verify-rho and char-map."""
    name = args.carrier
    if name in _FIELDS:
        F = _field_arg(name)
        spec = args.addition or "native"
        if spec == "native":
            table = native_addition(F).table
        elif spec.startswith("a="):
            table = addition_from_exponent(F, _num(int, spec[2:])).table
        elif spec.startswith("table:"):
            vals = [_num(int, x) for x in spec[6:].split(",")]
            if len(vals) != F.m * F.m:
                raise DomainError(f"addition table needs {F.m * F.m} entries, got {len(vals)}")
            table = np.array(vals, dtype=np.int64).reshape(F.m, F.m)
            if table.min() < 0 or table.max() >= F.m:
                raise DomainError("addition table entries must index the carrier")
        else:
            raise DomainError(f"bad addition {spec!r} for a finite carrier")
        return field_carrier(F), (lambda a, b: int(table[a, b])), None
    if name == "q":
        spec = args.addition or "native"
        if spec == "native":
            add = lambda a, b: a + b
        elif spec == "exotic":
            add = lambda a, b: exotic_add_q(a, b, norm_ceiling=cfg.norm_ceiling)
        else:
            raise DomainError(f"bad addition {spec!r} for the rational carrier")
        h = min(60, cfg.height_bound)
        sampler = lambda rng: _rand_rat(rng, h)
        return rational_carrier(), add, sampler
    raise DomainError(f"unknown carrier {name!r}; choose from {sorted(_FIELDS) + ['q']}")


def _cmd_factor_int(args, cfg):
    f = factor_int(_num(int, args.n))
    return {"input": args.n, "result": f.to_json()}, True


def _cmd_factor_rat(args, cfg):
    f = factor_rat(_num(Fraction, args.q))
    return {"input": args.q, "result": f.to_json()}, True


def _cmd_factor_quad(args, cfg):
    x = QuadRat(QuadInt(_num(int, args.a), _num(int, args.b)), _num(int, args.den))
    check_norm_ceiling(x.norm(), cfg.norm_ceiling, "input")
    f = factor_quad(x)
    return {"input": x.to_json(), "result": f.to_json()}, True


def _cmd_sigma(args, cfg):
    q = _gate_height(args.q, cfg.height_bound)
    img = sigma_apply(default_correspondence(), q)
    return {"input": str(q), "result": img.to_json(), "pretty": str(img)}, True


def _cmd_sigma_inv(args, cfg):
    x = QuadRat(QuadInt(_num(int, args.a), _num(int, args.b)), _num(int, args.den))
    check_norm_ceiling(x.norm(), cfg.norm_ceiling, "input")
    q = sigma_invert(default_correspondence(), x)
    return {"input": x.to_json(), "result": str(q)}, True


def _cmd_exotic_add(args, cfg):
    a = _gate_height(args.a, cfg.height_bound)
    b = _gate_height(args.b, cfg.height_bound)
    s = exotic_add_q(a, b, norm_ceiling=cfg.norm_ceiling)
    return {"input": [str(a), str(b)], "result": str(s)}, True


def _cmd_endoq(args, cfg):
    spec = EndoBijectionSpecQ(
        perm=_prime_dict(args.perm), eta=_prime_dict(args.eta), nu=_prime_dict(args.nu)
    )
    q = _num(Fraction, args.q)
    return {"input": str(q), "result": str(endo_q_apply(spec, q))}, True


def _cmd_verify_rho(args, cfg):
    carrier, add, sampler = _carrier_and_add(args, cfg)
    rho = rho_from_add(carrier, add)
    rep = verify_rho_axioms(
        rho, sampler=sampler, trials=cfg.trials, rng=np.random.default_rng(cfg.seed)
    )
    return {"report": rep.to_json()}, rep.ok


def _cmd_char_map(args, cfg):
    carrier, add, sampler = _carrier_and_add(args, cfg)
    rho = rho_from_add(carrier, add)
    res = char_map(rho, args.bound, seed=cfg.seed)
    payload = {
        "characteristic": res.characteristic,
        "evidence_bounded": res.evidence_bounded,
        "chi": [[n, str(v)] for n, v in res.table],
        "prime_subfield": [str(v) for v in res.prime_subfield],
        "report": res.report.to_json(),
    }
    return payload, res.report.ok


def _cmd_enumerate_additions(args, cfg):
    F = _field_arg(args.field)
    res = enumerate_additions(F)
    payload = res.to_json()
    payload["report"] = res.report.to_json()
    return payload, res.report.ok


def _cmd_isom_check(args, cfg):
    F = _field_arg(args.field)
    def table(spec):
        return native_addition(F) if spec == "native" else addition_from_exponent(F, _num(int, spec))
    t1, t2 = table(args.a1), table(args.a2)
    k = check_isomorphic_additions(F, t1, t2)
    return {
        "field": args.field,
        "tables": [t1.provenance, t2.provenance],
        "witness_exponent": k,
    }, True


def _cmd_modnear_check(args, cfg):
    rep = modnear_ring_check()
    return {"report": rep.to_json()}, rep.ok


def _cmd_nvs_verify(args, cfg):
    F = _field_arg(args.field)
    s = build_elementary(F, _map_arg(F, args.psi), _map_arg(F, args.phi))
    rep = verify_nvs_axioms(s)
    box1 = check_elementary_box1(s)
    return {
        "report": rep.to_json(),
        "box1_report": box1.to_json(),
    }, rep.ok and box1.ok


def _cmd_qmc_check(args, cfg):
    F = _field_arg(args.field)
    res = check_qmc_equivalence(F, _map_arg(F, args.map))
    return {
        "conditions": res.conditions,
        "is_quasi_multiplicative": res.is_quasi_multiplicative,
        "lam": res.lam,
        "gamma": res.gamma,
        "report": res.report.to_json(),
    }, res.report.ok


def _cmd_epsilon(args, cfg):
    alpha = _num(complex, args.alpha)
    z = _num(complex, args.z)
    w = eval_epsilon(alpha, z, conjugate=args.conjugate)
    beta = epsilon_inverse_param(alpha, conjugate=args.conjugate)
    back = eval_epsilon(beta, w, conjugate=args.conjugate)
    return {
        "input": {"alpha": str(alpha), "z": str(z), "conjugate": args.conjugate},
        "result": str(w),
        "inverse_param": str(beta),
        "round_trip_error": f"{abs(back - z):.3e}",
    }, True


def _render_text(payload: dict) -> str:
    lines = []

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            if set(obj) >= {"title", "ok", "checks"}:
                lines.append(f"{pad}{obj['title']}: {'ok' if obj['ok'] else 'FAILED'}")
                for c in obj["checks"]:
                    mark = "ok  " if c["ok"] else "FAIL"
                    extra = f"  witness={c['witness']}" if c["witness"] is not None else ""
                    lines.append(f"{pad}  [{mark}] {c['name']}{extra}")
                if obj["counts"]:
                    lines.append(f"{pad}  counts: {obj['counts']}")
                return
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)) and v and not isinstance(v, str):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v):
                    lines.append(f"{pad}- {v}")
                elif isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(payload, 0)
    return "\n".join(lines) + "\n"


def _flag(name: str, text: str) -> argparse.ArgumentParser:
    """A parent parser holding one integer option, for the subcommands that use it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(name, type=int, default=None, help=text)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    seed = _flag("--seed", "PRNG seed")
    trials = _flag("--trials", "sample count for sampled checks")
    height = _flag("--height-bound", "largest accepted numerator/denominator")
    ceiling = _flag("--norm-ceiling", "largest norm this command will factor")

    p = argparse.ArgumentParser(
        prog="nearfields",
        description="Exact constructions and verifiers for exotic additions on scalar groups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("factor-int", parents=[common], help="factor a nonzero integer")
    sp.add_argument("n")
    sp.set_defaults(handler=_cmd_factor_int)

    sp = sub.add_parser("factor-rat", parents=[common], help="factor a nonzero rational")
    sp.add_argument("q")
    sp.set_defaults(handler=_cmd_factor_rat)

    sp = sub.add_parser("factor-quad", parents=[common, ceiling],
                        help="factor a nonzero quadratic integer (a + b*w)/den")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--den", default="1")
    sp.set_defaults(handler=_cmd_factor_quad)

    sp = sub.add_parser("sigma", parents=[common, height], help="image of a rational under sigma")
    sp.add_argument("q")
    sp.set_defaults(handler=_cmd_sigma)

    sp = sub.add_parser("sigma-inv", parents=[common, ceiling],
                        help="rational preimage of (a + b*w)/den under sigma")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--den", default="1")
    sp.set_defaults(handler=_cmd_sigma_inv)

    sp = sub.add_parser("exotic-add", parents=[common, height, ceiling],
                        help="exotic sum of two rationals")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(handler=_cmd_exotic_add)

    sp = sub.add_parser("endoq", parents=[common],
                        help="apply a prime-twist multiplicative endobijection")
    sp.add_argument("q")
    sp.add_argument("--perm", help="prime permutation, e.g. 2:3,3:2")
    sp.add_argument("--eta", help="sign twists, e.g. 5:-1")
    sp.add_argument("--nu", help="inversion twists, e.g. 7:-1")
    sp.set_defaults(handler=_cmd_endoq)

    carrier = argparse.ArgumentParser(add_help=False)
    carrier.add_argument("--carrier", required=True,
                         help=f"one of {sorted(_FIELDS)} or q")
    carrier.add_argument("--addition", default=None,
                         help="native (default), a=K for finite fields, exotic for q")

    sp = sub.add_parser("verify-rho", parents=[common, seed, trials, height, ceiling, carrier],
                        help="check the near-field-addition-map axioms")
    sp.set_defaults(handler=_cmd_verify_rho)

    sp = sub.add_parser("char-map", parents=[common, seed, ceiling, carrier],
                        help="characteristic map and prime subfield")
    sp.add_argument("--bound", type=int, default=20)
    sp.set_defaults(handler=_cmd_char_map)

    sp = sub.add_parser("enumerate-additions", parents=[common],
                        help="all exponent additions on a finite field")
    sp.add_argument("--field", required=True)
    sp.set_defaults(handler=_cmd_enumerate_additions)

    sp = sub.add_parser("isom-check", parents=[common],
                        help="power-map isomorphism between two additions")
    sp.add_argument("--field", required=True)
    sp.add_argument("--a1", required=True, help="exponent or 'native'")
    sp.add_argument("--a2", required=True, help="exponent or 'native'")
    sp.set_defaults(handler=_cmd_isom_check)

    sp = sub.add_parser("modnear-check", parents=[common],
                        help="right modnear-ring axioms for Hom((F9,+),(F9,+3))")
    sp.set_defaults(handler=_cmd_modnear_check)

    sp = sub.add_parser("nvs-verify", parents=[common],
                        help="elementary near-vector-space axioms")
    sp.add_argument("--field", required=True)
    sp.add_argument("--psi", required=True, help="id, pow:K, scale:K or table:...")
    sp.add_argument("--phi", required=True, help="id, pow:K, scale:K or table:...")
    sp.set_defaults(handler=_cmd_nvs_verify)

    sp = sub.add_parser("qmc-check", parents=[common],
                        help="five-way quasi-multiplicative equivalence")
    sp.add_argument("--field", required=True)
    sp.add_argument("--map", required=True, help="id, pow:K, scale:K or table:...")
    sp.set_defaults(handler=_cmd_qmc_check)

    sp = sub.add_parser("epsilon", parents=[common],
                        help="evaluate the complex epsilon map")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--conjugate", action="store_true")
    sp.set_defaults(handler=_cmd_epsilon)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        payload, ok = args.handler(args, cfg)
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1
    payload = {"schema": 1, "command": args.command, "ok": ok, **payload}
    if cfg.output == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = _render_text(payload)
    try:
        out = getattr(sys.stdout, "buffer", None)  # None on an in-memory stream
        if out is None:
            sys.stdout.write(text)
        else:  # every byte: unbuffered, the text layer would drop a short write
            sys.stdout.flush()
            data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                data = data[out.write(data):]
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early, as `| head` does. Point stdout at devnull
        # so the flush at exit cannot raise again, and exit without a
        # traceback (the Python docs' SIGPIPE recipe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if ok else 1
