"""Finitary engine on Z/NZ: uniformity norms, pattern counting, and the
comparison of polynomial configurations against their linear models.

Everything here is double-precision numerics over exact integer shift
tables; the linear algebra that justifies the comparisons (complexity
checks, integral bases) is delegated to the exact `progression` module.
The linear-model count is taken on the Fourier side, as a sum over the
solutions of the dual linear system mod a prime N, and refuses work above
its budget.  Summation error is kept below 1e-9 relative by compensated
accumulation, which is all the stated tolerances need.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import ratlinalg as rl
from .polycore import poly_text, trim, value
from .progression import Progression, Relation, complexity_profile, relation_space

TWO_PI = 2.0 * np.pi


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass
class Signal:
    """A complex-valued function on Z/NZ."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("signal must be a nonempty vector")

    @property
    def modulus(self):
        return self.values.size

    @classmethod
    def ones(cls, n):
        return cls(np.ones(n))

    @classmethod
    def from_subset(cls, mask):
        return cls(np.asarray(mask, dtype=np.float64))

    @classmethod
    def character(cls, n, xi):
        x = np.arange(n)
        return cls(np.exp(TWO_PI * 1j * (xi * x % n) / n))

    @classmethod
    def quadratic_phase(cls, n):
        x = np.arange(n)
        return cls(np.exp(TWO_PI * 1j * (x * x % n) / n))


def bernoulli_subset(n, density, seed):
    rng = np.random.default_rng(seed)
    return rng.random(n) < density


def read_subset(path, n):
    mask = np.zeros(n, dtype=bool)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                mask[int(line) % n] = True
    return mask


def poly_shift_table(p, n: int):
    """P(y) mod n for y = 0..n-1, from the exact integer values of P (held
    by its binomial coordinates)."""
    return np.array([value(p, y) % n for y in range(n)], dtype=np.int64)


# ---------------------------------------------------------------------------
# Gowers uniformity norms

def gowers_norm(f: Signal, s: int) -> float:
    """The degree-s uniformity norm, by the multiplicative-derivative
    recursion; the s = 1 base is |mean|."""
    if s < 1:
        raise ValueError("norm degree must be >= 1")
    power = _gowers_power(f.values, s)
    return max(power, 0.0) ** (1.0 / (1 << s))


def _gowers_power(vals, s):
    """||f||_{U^s}^{2^s}.  The s = 2 case averages |autocorrelation|^2 over
    shifts (FFT-accelerated; still the recursion, not the Fourier identity)."""
    n = vals.size
    if s == 1:
        m = vals.mean()
        return float(m.real * m.real + m.imag * m.imag)
    if s == 2:
        fhat = np.fft.fft(vals)
        corr = np.fft.ifft(fhat * np.conj(fhat)) / n  # corr[h] = E_x f(x+h) conj f(x)
        return float(np.mean(np.abs(corr) ** 2))
    parts = []
    for h in range(n):
        delta = np.roll(vals, -h) * np.conj(vals)
        parts.append(_gowers_power(delta, s - 1))
    return math.fsum(parts) / n


def gowers_norm_u2_fourier(f: Signal) -> float:
    """Independent route for the degree-2 norm: fourth moment of the
    Fourier coefficients."""
    fhat = np.fft.fft(f.values) / f.modulus
    return float(np.sum(np.abs(fhat) ** 4)) ** 0.25


# ---------------------------------------------------------------------------
# Counting operators

def count_operator(signals, prog: Progression) -> complex:
    """E_{x,y} f_0(x) f_1(x+P_1(y)) ... f_t(x+P_t(y)), shifts exact mod N."""
    if len(signals) != prog.t + 1:
        raise ValueError(f"need {prog.t + 1} signals, got {len(signals)}")
    n = signals[0].modulus
    if any(f.modulus != n for f in signals):
        raise ValueError("signals must share a modulus")
    tables = [poly_shift_table(p, n) for p in prog.polys]
    f0 = signals[0].values
    partials = []
    for y in range(n):
        prod = f0.copy()
        for f, tab in zip(signals[1:], tables):
            prod *= np.roll(f.values, -int(tab[y]))
        partials.append(prod.sum())
    total = math.fsum(p.real for p in partials) + 1j * math.fsum(p.imag for p in partials)
    return total / n ** 2


class BudgetExceeded(RuntimeError):
    pass


# Refusal thresholds for the `gowers`, `count` and `popdiff` commands, each
# checked before any work.  Measured on a 2-vCPU machine, one BLAS thread:
# - Gowers norms up to degree S cost sum_{s <= S} N^(s-1) log2 N (about the
#   FFT work of the recursion): N = 257, S = 4 (cost 1.4e8) ran in 6.1 s;
# - the count's polynomial side loops over every y with t rolls of length
#   N, N^2 t per modulus: the README five-term count at N = 4001 (cost 6.4e7)
#   ran in 2.0 s;
# - popdiff does the same scan on integers: N = 12007 (cost 5.8e8) in 0.85 s.
# Each ceiling allows about four to seven times its measured cost.  At tiny
# N the fixed cost of each Gowers recursion call dominates: N = 2, S = 18
# made 262,126 calls in 9.3 s, 35 us or 800 units of 44 ns (6.1 s / 1.4e8) a
# call.  The recursion nests S - 1 deep, within the interpreter's recursion
# limit less the frames of its callers.
GOWERS_BUDGET = 5 * 10 ** 8
GOWERS_CALL_COST = 800
GOWERS_CALLER_FRAMES = 100
COUNT_BUDGET = 25 * 10 ** 7
POPDIFF_BUDGET = 4 * 10 ** 9
# |K| (t+1) Fourier gathers in the linear-model count, K its dual kernel mod N.
LINEAR_COUNT_BUDGET = 2 ** 31


def _refuse_above(cost, budget, name, what, formula):
    if cost > budget:
        raise BudgetExceeded(f"{what} cost {cost:.4g} exceeds {name} = {budget:.4g} "
                             f"({formula})")
    return cost


def check_gowers_cost(n: int, s_max: int):
    """Refuse a Gowers norm table of degrees 1..s_max on Z/nZ whose recursion
    (s_max - 1 deep, 1 + N + ... + N^(s-2) calls at degree s) the stack cannot
    take, or whose cost exceeds GOWERS_BUDGET; float sums overflow to inf."""
    depth, limit = s_max - 1, sys.getrecursionlimit() - GOWERS_CALLER_FRAMES
    if depth > limit:
        raise BudgetExceeded(
            f"Gowers norm recursion depth {depth} exceeds {limit} (the recursion limit "
            f"{sys.getrecursionlimit()} less GOWERS_CALLER_FRAMES = {GOWERS_CALLER_FRAMES})")
    span = calls = 0.0
    width = 1.0
    for _ in range(s_max):
        calls += max(span, 1.0)
        span += width
        width *= n
    cost = span * max(math.log2(n), 1.0) + GOWERS_CALL_COST * calls
    return _refuse_above(cost, GOWERS_BUDGET, "GOWERS_BUDGET", "Gowers norm",
                         f"sum_s N^(s-1) log2 N + GOWERS_CALL_COST = {GOWERS_CALL_COST} "
                         f"per recursion call")


def check_count_cost(moduli, prog: Progression):
    """Refuse a count over the moduli schedule above COUNT_BUDGET."""
    cost = sum(n * n for n in moduli) * prog.t
    return _refuse_above(cost, COUNT_BUDGET, "COUNT_BUDGET", "count", "sum over N of N^2 t")


def check_popdiff_cost(n: int, prog: Progression):
    """Refuse a popular-difference scan above POPDIFF_BUDGET."""
    return _refuse_above(n * n * prog.t, POPDIFF_BUDGET, "POPDIFF_BUDGET",
                        "popdiff", "N^2 t")


LINEAR_COUNT_CHUNK = 1 << 14  # points of K gathered at once; bounds memory


def linear_count_operator(signals, coeffs, d: int) -> complex:
    """E_{x, y_1..y_d} prod_i f_i(x + sum_j a_ij y_j), on the Fourier side.

    `coeffs` is the (t+1) x d integer matrix of the linear forms (row 0 is
    normally zero).  For prime N the average equals
    sum_{xi in K} prod_i fhat_i(xi_i), where fhat is the normalized DFT and
    K = {xi in (Z/N)^(t+1) : sum_i xi_i = 0, sum_i a_ij xi_i = 0 for all j}
    (Gowers-Wolf).  K is enumerated from an exact mod-N kernel basis in
    chunks of at most LINEAR_COUNT_CHUNK points; the work is |K| (t+1)
    gathers, refused above LINEAR_COUNT_BUDGET."""
    if d < 1:
        raise ValueError("need at least one linear variable")
    n = signals[0].modulus
    if any(f.modulus != n for f in signals):
        raise ValueError("signals must share a modulus")
    if not is_prime(n):
        raise ValueError("modulus must be prime")
    if len(coeffs) != len(signals) or any(len(row) != d for row in coeffs):
        raise ValueError("need one coefficient row of length d per signal")
    m = len(signals)
    constraints = [[1] * m] + [[int(coeffs[i][j]) for i in range(m)] for j in range(d)]
    basis = _kernel_mod_prime(constraints, m, n)
    size = n ** len(basis)
    _refuse_above(size * m, LINEAR_COUNT_BUDGET, "LINEAR_COUNT_BUDGET", "linear count",
                  "|K| (t+1)")
    fhats = [np.fft.fft(f.values) / n for f in signals]
    vecs = np.array(basis, dtype=np.int64).reshape(len(basis), m)
    radix = n ** np.arange(len(basis), dtype=np.int64)
    partials = []
    for start in range(0, size, LINEAR_COUNT_CHUNK):
        index = np.arange(start, min(start + LINEAR_COUNT_CHUNK, size), dtype=np.int64)
        digits = index[:, None] // radix[None, :] % n      # (chunk, dim K)
        xi = digits @ vecs % n                              # (chunk, t+1)
        prod = fhats[0][xi[:, 0]]
        for i in range(1, m):
            prod = prod * fhats[i][xi[:, i]]
        partials.append(prod.sum())
    return math.fsum(p.real for p in partials) + 1j * math.fsum(p.imag for p in partials)


def _kernel_mod_prime(rows, ncols, p):
    """Basis of {v in (Z/p)^ncols : rows v = 0}, by exact Gauss-Jordan
    elimination in Python ints; entries are reduced to 0..p-1."""
    mat = [[int(a) % p for a in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [a * inv % p for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc] % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Polynomial count vs. linear model

@dataclass
class CountReport:
    poly_count: complex
    linear_count: complex
    n: int
    d: int
    basis: list
    coeffs: list

    @property
    def difference(self):
        return abs(self.poly_count - self.linear_count)

    def to_json(self):
        return {
            "schema": "polyprog-count/1",
            "N": self.n,
            "poly_count": [self.poly_count.real, self.poly_count.imag],
            "linear_count": [self.linear_count.real, self.linear_count.imag],
            "difference": self.difference,
            "d": self.d,
            "basis": self.basis,
            "coeffs": self.coeffs,
        }


class ComplexityTooHigh(ValueError):
    def __init__(self, profile, witness):
        self.profile = profile
        self.witness = witness
        super().__init__(
            f"count comparison needs complexity <= 1 at every index; profile {profile}"
            + (f"; witness relation {witness.text()}" if witness else ""))


def integral_span_basis(prog: Progression):
    """Basis Q_1..Q_d of the group of integer combinations of the P_i, as
    the Hermite form of their binomial coordinate rows; the decomposition
    coefficients are integers by construction."""
    width = prog.max_degree() + 1
    rows = [list(p) + [0] * (width - len(p)) for p in prog.polys]
    lattice = rl.hnf_rows(rows)
    basis = [trim(row) for row in lattice]
    coeffs = []
    for row in rows:
        combo = rl.solve_integer_combination(row, lattice)
        if combo is None:
            raise AssertionError("every P_i must decompose over the lattice basis")
        coeffs.append(combo)
    return basis, coeffs


def compare_poly_vs_linear(mask, prog: Progression, cap=None) -> CountReport:
    """Count the progression pattern in A and in its linear model.

    Requires complexity <= 1 at every index (rejected with the witness
    relation otherwise) and prime N."""
    n = len(mask)
    if not is_prime(n):
        raise ValueError("modulus must be prime")
    profile, _ = complexity_profile(prog, cap)
    if max(profile) > 1:
        space = relation_space(prog, cap or prog.default_cap())
        witness = next((r for r in space.basis
                        if any(len(q) > 2 for q in r.qs)), None)
        raise ComplexityTooHigh(profile, witness)
    basis, coeffs = integral_span_basis(prog)
    d = len(basis)
    f = Signal.from_subset(mask)
    signals = [f] * (prog.t + 1)
    poly = count_operator(signals, prog)
    linear = linear_count_operator(signals, [[0] * d] + coeffs, d)
    return CountReport(poly_count=poly, linear_count=linear, n=n, d=d,
                       basis=[poly_text(q) for q in basis], coeffs=coeffs)


# ---------------------------------------------------------------------------
# Popular common differences

@dataclass
class PopDiffReport:
    alpha: float
    epsilon: float
    n: int
    tuple_len: int
    qualifying: np.ndarray
    counts: np.ndarray

    @property
    def fraction(self):
        return float(len(self.qualifying)) / self.n

    @property
    def threshold(self):
        return (self.alpha ** self.tuple_len - self.epsilon) * self.n

    def to_json(self):
        return {
            "schema": "polyprog-popdiff/1",
            "N": self.n,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "qualifying_count": int(len(self.qualifying)),
            "fraction": self.fraction,
            "threshold": self.threshold,
            "qualifying": [int(v) for v in self.qualifying],
        }


def popular_differences(mask, prog: Progression, epsilon: float) -> PopDiffReport:
    """For each n, the size of A ∩ (A+P_1(n)) ∩ ... ∩ (A+P_t(n)) by direct
    intersection; qualifying n beat the random-set benchmark strictly."""
    n = len(mask)
    chi = np.asarray(mask, dtype=np.int64)
    alpha = float(chi.mean())
    tables = [poly_shift_table(p, n) for p in prog.polys]
    counts = np.empty(n, dtype=np.int64)
    for shift_idx in range(n):
        inter = chi
        for tab in tables:
            inter = inter * np.roll(chi, int(tab[shift_idx]))
        counts[shift_idx] = inter.sum()
    report = PopDiffReport(alpha=alpha, epsilon=epsilon, n=n,
                           tuple_len=prog.t + 1,
                           qualifying=np.empty(0, dtype=np.int64), counts=counts)
    report.qualifying = np.nonzero(counts > report.threshold)[0]
    return report


# ---------------------------------------------------------------------------
# Structured obstructions from relations

def build_obstruction(prog: Progression, rel: Relation, n: int, m: int):
    """Phase signals f_i(u) = e(m (L Q_i(u) mod N) / N) from a relation.

    L clears the binomial-coordinate denominators so L*Q_i is integer
    valued; the relation identity makes the product over the progression
    exactly 1 pointwise, while each f_i with deg Q_i = k >= 1 is a
    degree-k phase: uniform at degree k, trivial at degree k+1."""
    if not is_prime(n):
        raise ValueError("modulus must be prime")
    if m % n == 0:
        raise ValueError("phase multiplier must be nonzero mod N")
    if not rel.holds_for(prog):
        raise ValueError("relation does not hold for the progression")
    lcm = math.lcm(*(b.denominator for q in rel.qs for b in q))
    if math.gcd(lcm, n) != 1:
        raise ValueError(f"denominator lcm {lcm} shares a factor with N = {n}")
    if max(len(q) for q in rel.qs) > n:
        raise ValueError("relation degree must be below N")
    signals = []
    for q in rel.qs:
        scaled = [b.numerator * (lcm // b.denominator) for b in q]
        phases = np.array([(m * (value(scaled, u) % n)) % n for u in range(n)],
                          dtype=np.float64)
        signals.append(Signal(np.exp(TWO_PI * 1j * phases / n)))
    return signals
