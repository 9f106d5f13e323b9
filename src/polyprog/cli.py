"""Command-line interface: classification, counting, norms, and torus runs.

Subcommands
    analyze     full classification report for a progression expression
    relations   relation-space basis listing
    count       polynomial count vs. linear model over an N schedule
    gowers      uniformity-norm table for a named signal family
    popdiff     popular common difference scan
    weyl        orbit closure + discrepancy table from a scenario file
    verify      run the acceptance suite (exit 0 iff everything passes)

All tolerances, caps, seeds and schedules live in one Config; a JSON config
file supplies overrides, and individual flags override that again.

Exit codes: 0 success; 1 a `weyl` or `verify` check failed, or the reader
of stdout closed it early; 2 bad input or work refused above a cost
ceiling, with a message; 3 a broken internal invariant, with one JSON line
on stderr naming the check.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cyclic, weyl
from .parser import parse_progression
from .progression import complexity_report, relation_space


@dataclass
class Config:
    cap: int | None = None
    r_max: int = 4
    seed: int = 20259
    alpha: float = 0.5
    epsilon: float = 0.02
    n_schedule: tuple = (101, 211, 401, 809)
    n_weyl: int = 2000
    radius: int = 3
    decay_threshold: float = 0.05
    confinement_tol: float = 1e-6
    threads: int = 1
    out_dir: str | None = None
    fmt: str = "json"

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        cfg = cls()
        types = {f.name: f.type for f in fields(cls)}
        for key, value in data.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            if not _has_type(value, types[key]):
                what = "a nonempty list of ints" if key == "n_schedule" else types[key]
                raise ValueError(f"config key {key!r} must be {what}, got {value!r}")
            setattr(cfg, key, tuple(value) if key == "n_schedule" else value)
        return cfg


def _has_type(value, annotation):
    """Whether a JSON value fits a Config field annotation: int, float, str,
    tuple (a nonempty list of ints), or one of them | None."""
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return bool(optional)
    if kind == "tuple":
        return isinstance(value, list) and bool(value) and all(_has_type(v, "int") for v in value)
    return not isinstance(value, bool) and \
        isinstance(value, {"int": int, "float": (int, float), "str": str}[kind])


def _apply_overrides(cfg: Config, args):
    for key in ("cap", "r_max", "seed", "alpha", "epsilon", "threads",
                "radius", "out_dir", "fmt", "decay_threshold"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "n_schedule", None):
        cfg.n_schedule = tuple(int(v) for v in args.n_schedule.split(","))
    if cfg.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {cfg.threads}")
    for key in ("alpha", "epsilon", "decay_threshold"):
        if not math.isfinite(getattr(cfg, key)):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, got {getattr(cfg, key)}")
    if cfg.epsilon <= 0:
        raise ValueError(f"--epsilon must be > 0, got {cfg.epsilon}")
    return cfg


def _emit(doc, cfg: Config, name: str):
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:     # a NaN or infinity: checked input cannot give one
        raise AssertionError(f"{name} report is not JSON: {exc}") from None
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.json").write_text(text + "\n")
        if cfg.fmt == "csv":
            _emit_csv(doc, out / f"{name}.csv")
    else:
        print(text)


def _emit_csv(doc, path):
    rows = doc.get("rows") or doc.get("table")
    if not rows:
        return
    keys = sorted({k for row in rows for k in row})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _parse_expr(text):
    # ProgressionSyntaxError is a ValueError; main() reports it as exit 2
    return parse_progression(text)


def _subset(cfg: Config, args, n):
    if getattr(args, "subset_file", None):
        return cyclic.read_subset(args.subset_file, n)
    return cyclic.bernoulli_subset(n, cfg.alpha, cfg.seed)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_analyze(cfg: Config, args):
    expr = _parse_expr(args.progression)
    report = complexity_report(expr.progression, cap=cfg.cap,
                               eligibility_r_max=cfg.r_max)
    report["canonical"] = expr.canonical
    _emit(report, cfg, "analyze")
    return 0


def cmd_relations(cfg: Config, args):
    expr = _parse_expr(args.progression)
    cap = expr.progression.default_cap() if cfg.cap is None else cfg.cap
    space = relation_space(expr.progression, cap)
    doc = {
        "schema": "polyprog-relations/1",
        "progression": expr.canonical,
        "cap": space.degree_cap,
        "stabilized": space.stabilized,
        "dim": space.dim,
        "rows": [{"relation": rel.text(),
                  "degrees": [str(d) for d in rel.degree_profile]}
                 for rel in space.basis],
    }
    _emit(doc, cfg, "relations")
    return 0


def cmd_count(cfg: Config, args):
    expr = _parse_expr(args.progression)
    cyclic.check_count_cost(cfg.n_schedule, expr.progression)
    rows = []
    for n in cfg.n_schedule:
        mask = _subset(cfg, args, n)
        rep = cyclic.compare_poly_vs_linear(mask, expr.progression, cap=cfg.cap)
        rows.append(rep.to_json() | {"N": n})
    doc = {"schema": "polyprog-countrun/1", "progression": expr.canonical,
           "seed": cfg.seed, "alpha": cfg.alpha, "rows": rows}
    _emit(doc, cfg, "count")
    return 0


def _check_modulus(n):
    if n < 1:
        raise ValueError(f"modulus N must be >= 1, got {n}")
    return n


def cmd_gowers(cfg: Config, args):
    n = _check_modulus(101 if args.N is None else args.N)
    if args.s_max < 1:
        raise ValueError(f"--s-max must be >= 1, got {args.s_max}")
    cyclic.check_gowers_cost(n, args.s_max)
    rng = np.random.default_rng(cfg.seed)
    families = {
        "ones": cyclic.Signal.ones(n),
        "quadratic": cyclic.Signal.quadratic_phase(n),
        "character": cyclic.Signal.character(n, 1),
        "random": cyclic.Signal(rng.choice([-1.0, 1.0], size=n).astype(complex)),
        "subset": cyclic.Signal.from_subset(_subset(cfg, args, n)),
    }
    name = args.signal
    if name not in families:
        print(f"error: unknown signal {name!r}; choices {sorted(families)}",
              file=sys.stderr)
        return 2
    sig = families[name]
    rows = [{"s": s, "norm": cyclic.gowers_norm(sig, s)}
            for s in range(1, args.s_max + 1)]
    doc = {"schema": "polyprog-gowers/1", "N": n, "signal": name,
           "u2_fourier": cyclic.gowers_norm_u2_fourier(sig), "rows": rows}
    _emit(doc, cfg, "gowers")
    return 0


def cmd_popdiff(cfg: Config, args):
    expr = _parse_expr(args.progression)
    n = _check_modulus(cfg.n_schedule[-1] if args.N is None else args.N)
    cyclic.check_popdiff_cost(n, expr.progression)
    mask = _subset(cfg, args, n)
    rep = cyclic.popular_differences(mask, expr.progression, cfg.epsilon)
    _emit(rep.to_json(), cfg, "popdiff")
    return 0


def _atom_from_text(text):
    text = str(text).strip()
    if not text or text == "0":
        return Fraction(0)
    for sep in ("+", "-"):
        head, mid, tail = text.partition(sep)
        head = head.strip()
        if mid and head in weyl._CATALOG:
            off = Fraction(tail.strip())
            return weyl.Irrational(head, off if sep == "+" else -off)
    if text in weyl._CATALOG:
        return weyl.Irrational(text)
    return Fraction(text)


def _atoms(value):
    """A list of torus coordinates, each a string such as "sqrt2+1/3" or an int."""
    return isinstance(value, list) and all(_has_type(v, "str") or _has_type(v, "int")
                                           for v in value)


# scenario key: (what it must be, check)
_SCENARIO_TYPES = {
    **{key: ("int", lambda v: _has_type(v, "int")) for key in ("order", "N", "radius")},
    "progression": ("str", lambda v: _has_type(v, "str")),
    "system": ('"standard" or "generators"', lambda v: v in ("standard", "generators")),
    "rotation": ("a string or an int", lambda v: _atoms([v])),
    "base": ("a list of strings or ints", _atoms),
    "generators": ("a list of lists of strings or ints",
                   lambda v: isinstance(v, list) and all(map(_atoms, v))),
}


def load_scenario(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"scenario {path}: the top level must be a JSON object")
    if "dependencies" in data:
        raise ValueError("scenario key 'dependencies' is not supported; declare a "
                         "rational dependence by a shared symbol with an offset, "
                         "e.g. \"sqrt2+1/3\" in place of a separate symbol")
    for key, (kind, fits) in _SCENARIO_TYPES.items():
        if key in data and not fits(data[key]):
            raise ValueError(f"scenario key {key!r} must be {kind}, got {data[key]!r}")
    generators = data.get("system") == "generators"
    for key in ("order", "progression", *(["generators"] if generators else ["rotation", "base"])):
        if key not in data:
            raise ValueError(f"scenario {path}: missing key {key!r}")
    order = data["order"]
    if generators:
        gens = [tuple(_atom_from_text(v) for v in vec)
                for vec in data["generators"]]
        base = tuple(_atom_from_text(v) for v in data.get("base", ["0"] * order))
        system = weyl.WeylSystem.from_generators(order, gens, base)
    else:
        rotation = _atom_from_text(data["rotation"])
        base = tuple(_atom_from_text(v) for v in data["base"])
        system = weyl.WeylSystem.standard(order, rotation, base)
    expr = parse_progression(data["progression"])
    return system, expr, data


def cmd_weyl(cfg: Config, args):
    system, expr, raw = load_scenario(args.scenario)
    n = _check_modulus(raw.get("N", cfg.n_weyl) if args.N is None else args.N)
    # flag, then scenario, then config (cfg.radius also holds the flag)
    radius = args.radius if args.radius is not None else raw.get("radius", cfg.radius)
    prog = expr.progression
    weyl.check_sweep_cost(system, prog, n, radius)
    closure = weyl.closure_subspaces(prog, system, cap=cfg.cap)
    confined = len(closure.coset_shifts) > 1
    if confined:
        weyl.check_confinement_cost(closure, n)
    # one tail table serves the sweep and the confinement check
    tails = weyl._orbit_tail_tables(system, prog, n)
    table = weyl.equidistribution_test(system, prog, closure, n, radius=radius,
                                       threads=cfg.threads, tails=tails)
    doc = closure.to_json()
    doc["progression"] = expr.canonical
    doc["discrepancy"] = table.to_json()
    passed = table.worst_generic() <= cfg.decay_threshold
    if confined:
        dist = weyl.coset_confinement(system, prog, closure, n, tails=tails)
        doc["confinement_distance"] = dist
        passed = passed and dist <= cfg.confinement_tol
    doc["passed"] = passed
    _emit(doc, cfg, "weyl")
    return 0 if passed else 1


def cmd_verify(cfg: Config, args):
    from . import acceptance
    results = acceptance.run_all(fast=args.fast)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polyprog",
        description="classification and desk-scale verification of polynomial progressions")
    ap.add_argument("--config", help="JSON config file with default overrides")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--alpha", type=float)
    common.add_argument("--epsilon", type=float)
    common.add_argument("--threads", type=int)
    common.add_argument("--out", dest="out_dir")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"))
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common])
    p.add_argument("progression")
    p.add_argument("--rmax", dest="r_max", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("relations", parents=[common])
    p.add_argument("progression")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("count", parents=[common])
    p.add_argument("progression")
    p.add_argument("--N", dest="n_schedule", help="comma separated moduli")
    p.add_argument("--subset-file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gowers", parents=[common])
    p.add_argument("--N", type=int)
    p.add_argument("--signal", default="quadratic")
    p.add_argument("--s-max", dest="s_max", type=int, default=3)
    p.add_argument("--subset-file")
    p.set_defaults(func=cmd_gowers)

    p = sub.add_parser("popdiff", parents=[common])
    p.add_argument("progression")
    p.add_argument("--N", type=int)
    p.add_argument("--subset-file")
    p.set_defaults(func=cmd_popdiff)

    p = sub.add_parser("weyl", parents=[common])
    p.add_argument("scenario")
    p.add_argument("--N", type=int)
    p.add_argument("--radius", type=int)
    p.add_argument("--decay-threshold", dest="decay_threshold", type=float)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--fast", action="store_true",
                   help="skip the slowest criteria (popular differences, torus runs)")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = Config.load(args.config) if args.config else Config()
        cfg = _apply_overrides(cfg, args)
        code = args.func(cfg, args)
        sys.stdout.flush()      # a closed reader surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (say `| head`): send the rest of the output,
        # and the flush at exit, to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, OSError) as exc:   # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        # A broken internal invariant (failed exact re-check, Vandermonde
        # bound, kernel structure), not bad input: exit 3, naming the check.
        print(json.dumps({"error": "invariant", "exception": type(exc).__name__,
                          "check": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
