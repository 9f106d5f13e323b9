"""Inputs and operations of the three workloads.

Every input comes from the workload seed.  One operation is one CLI
command; a round is a fixed list of operations, and a run repeats rounds.
In `classify` the package's caches are emptied before every operation
(`cold`), so that each starts as a new `polyprog` process would and every
round costs the same; it also draws a fresh corpus for every round, so that
no cache the benchmark does not know of can answer a repeated input.
`zn-count` and `torus` repeat the same commands with the caches kept: their
cost is in the numeric engines, and the exact layer's share of it stays
small once the first round has filled the caches.  Each workload also names
the kind of reference unit (reference.UNITS) that has the shape of its hot
loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from exact import progression_text, rank_q

ZN_COUNT_PRIMES = (101, 151, 211, 307)  # largest N^3 stays far below the 2^31 budget
ZN_POPDIFF_N = 809
ZN_GOWERS_N = 809
ZN_DENSITY = 0.5
# At density 1/2 a random 5-term pattern has density 1/32 ~ 0.031; at
# epsilon 0.005 some shifts fall below the bar and most clear it.
ZN_EPSILON = 0.005

TORUS_PROGRESSION = "x, x+y, x+2y, x+y^2"
TORUS_N = 1500        # worst generic character ~0.03 against the 0.05 bar
TORUS_RADIUS = 3
TORUS_SCENARIOS = {
    # name: (generators, expected closure dim, expected cosets)
    "dependent": ([["sqrt2", "0"], ["0", "sqrt2+1/3"]], 6, 3),
    "independent": ([["sqrt2", "0"], ["0", "sqrt3"]], 7, 1),
}

# The paper's named examples.  Each round multiplies all P_i of an example
# by an integer m: x -> x/m maps the relations of one progression onto those
# of the other degree for degree, so every answer is unchanged while the
# input, and so every cache key, is new.
FIVE_TERM = ((0, 1), (0, 2), (0, 0, 1), (0, 0, 2))      # x, x+y^2, x+2y^2, x+y^3, x+2y^3
RUNNING = ((1,), (2,), (0, 1))                          # x, x+y, x+2y, x+y^2
DEGREE_FIVE = ((0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0, 1))   # x, x+y^2, ..., x+y^5
SCALES = 120


@dataclass
class Op:
    argv: list
    kind: str
    meta: dict = field(default_factory=dict)


def _nonzero(rng, bound):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _random_poly(rng, deg, bound=3):
    """Random integer polynomial of exact degree `deg`, every coefficient
    nonzero (so the cost of a slot depends little on the draw)."""
    return tuple(_nonzero(rng, bound) for _ in range(deg))


def _scale(poly, m):
    return tuple(m * c for c in poly)


def _square(poly):
    out = [0] * (2 * len(poly))
    for i, a in enumerate(poly, start=1):
        for j, b in enumerate(poly, start=1):
            out[i + j - 1] += a * b
    return tuple(out)


def _ap(rng, t):
    a = _nonzero(rng, 9)
    return [(j * a,) for j in range(1, t + 1)]


def _independent(rng, degrees):
    """Random polynomials of the given degrees, redrawn until their exact
    rank over Q shows them linearly independent."""
    width = max(degrees)
    while True:
        polys = [_random_poly(rng, d) for d in rng.sample(degrees, len(degrees))]
        if rank_q([list(p) + [0] * (width - len(p)) for p in polys]) == len(polys):
            return polys


def _linear_only(rng):
    """x, x+aP, x+bP, x+cR for P = y, R = y^3, with seeded coefficients:
    the one relation is the linear one of the AP x, x+aP, x+bP, and R takes
    part in none (with R = y^2 it would, through c P^2, and the family
    would be inhomogeneous)."""
    a, b = rng.sample([v for v in range(-4, 5) if v], 2)
    return [(a,), (b,), (0, 0, _nonzero(rng, 4))]


def _inhomogeneous(rng, deg, copies):
    """x, x+aP, x+bP, ..., x+cP^2 with `copies` multiples of P: any two of
    them give P, and c P^2 against them is a relation mixing degrees 1 and
    2, so the progression is inhomogeneous by construction."""
    base = _random_poly(rng, deg)
    mults = rng.sample([v for v in range(-4, 5) if v], copies)
    return [_scale(base, a) for a in mults] + [_scale(_square(base), _nonzero(rng, 3))]


def classify_corpus(seed, round_index):
    """(label, polys) pairs of one round.  Labels 'ap', 'independent' and
    'inhomogeneous' carry known answers; 'linear' and 'named' do not.

    With cold caches, two operations take under 0.2 s, seven take 0.2 to
    0.45 s, the linear family about 0.7 s and three take two seconds or
    more.  The median operation of any number of rounds is thus well inside
    the group of seven, an order statistic of many operations, so
    `op_p50_s` neither jumps between groups nor follows a single draw.  Every generated polynomial has a
    nonzero leading coefficient."""
    rng = random.Random(f"classify:{seed}:{round_index}")
    scales = list(range(1, SCALES + 1))
    random.Random(f"classify-scales:{seed}").shuffle(scales)
    m = [scales[(3 * round_index + k) % SCALES] for k in range(3)]
    return [
        ("ap", _ap(rng, 3)),
        ("independent", _independent(rng, [1, 2])),
        ("ap", _ap(rng, 4)),
        ("ap", _ap(rng, 4)),
        ("named", [_scale(p, m[0]) for p in RUNNING]),
        ("inhomogeneous", _inhomogeneous(rng, 1, 2)),
        ("inhomogeneous", _inhomogeneous(rng, 1, 2)),
        ("independent", _independent(rng, [1, 3])),
        ("independent", _independent(rng, [2, 3])),
        ("linear", _linear_only(rng)),
        ("named", [_scale(p, m[1]) for p in FIVE_TERM]),
        ("inhomogeneous", _inhomogeneous(rng, 2, 2)),
        ("named", [_scale(p, m[2]) for p in DEGREE_FIVE]),
    ]


class Classify:
    name = "classify"
    cold = True
    reference = "exact"

    def __init__(self, seed, workdir):
        self.seed = seed

    def round_ops(self, r):
        return [Op(["analyze", progression_text(polys), "--threads", "1"], "analyze",
                   {"label": label, "polys": polys})
                for label, polys in classify_corpus(self.seed, r)]


def bernoulli_mask(rng, n, density):
    return [rng.random() < density for _ in range(n)]


class ZnCount:
    name = "zn-count"
    cold = False
    reference = "gather"

    def __init__(self, seed, workdir):
        rng = random.Random(f"zn-count:{seed}")
        text = progression_text(FIVE_TERM)
        self.ops = []
        sizes = sorted(set(ZN_COUNT_PRIMES) | {ZN_POPDIFF_N})
        masks = {n: bernoulli_mask(rng, n, ZN_DENSITY) for n in sizes}
        files = {}
        for n, mask in masks.items():
            path = Path(workdir) / f"subset-{n}.txt"
            path.write_text("".join(f"{x}\n" for x, inside in enumerate(mask) if inside))
            files[n] = str(path)
        for n in ZN_COUNT_PRIMES:
            self.ops.append(Op(["count", text, "--N", str(n), "--subset-file", files[n],
                                "--threads", "1"], "count",
                               {"polys": FIVE_TERM, "n": n, "mask": masks[n]}))
        n = ZN_POPDIFF_N
        self.ops.append(Op(["popdiff", text, "--N", str(n), "--subset-file", files[n],
                            "--epsilon", str(ZN_EPSILON), "--threads", "1"], "popdiff",
                           {"polys": FIVE_TERM, "n": n, "mask": masks[n],
                            "epsilon": ZN_EPSILON}))
        self.ops.append(Op(["gowers", "--N", str(ZN_GOWERS_N), "--signal", "quadratic",
                            "--s-max", "3", "--threads", "1"], "gowers",
                           {"n": ZN_GOWERS_N}))

    def round_ops(self, r):
        return self.ops


class Torus:
    name = "torus"
    cold = False
    reference = "walk"

    def __init__(self, seed, workdir):
        import json
        rng = random.Random(f"torus:{seed}")
        self.ops = []
        for name, (gens, dim, cosets) in TORUS_SCENARIOS.items():
            # The base point only translates the orbit: it moves the offset
            # and the phases, never a magnitude or the closure.
            base = [f"{rng.randint(0, 12)}/{rng.randint(1, 13)}" for _ in range(2)]
            scenario = {"order": 2, "system": "generators", "generators": gens,
                        "base": base, "progression": TORUS_PROGRESSION,
                        "N": TORUS_N, "radius": TORUS_RADIUS}
            path = Path(workdir) / f"scenario-{name}.json"
            path.write_text(json.dumps(scenario, indent=2) + "\n")
            self.ops.append(Op(["weyl", str(path), "--threads", "1"], "weyl",
                               {"scenario": name, "dim": dim, "cosets": cosets}))

    def round_ops(self, r):
        return self.ops


WORKLOADS = {w.name: w for w in (Classify, ZnCount, Torus)}
