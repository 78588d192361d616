"""Coherent structures and their dual distortion functions.

A coherent structure is given by its component count and minimal path sets.
Combined with an exchangeable survival copula it induces the dual distortion
h: [0,1] -> [0,1] mapping common component reliability p to system
reliability, with h(0) = 0, h(1) = 1 and h nondecreasing.  The distortion is
assembled from the structure function: a table over the subsets of the m
components outside the common part of every path set counts the path sets
each subset contains (the superset zeta transform; Bjorklund et al. 2007).
It checks minimality and gives N_k, the number of k-subsets of components
that contain a path set (the signature counts; Samaniego 2007), and so the
integer coefficients c_j of h = sum_j c_j K_j under an exchangeable copula,
K_j(p) = K(p, ..., p, 1, ..., 1) with j coordinates at p.

On top of h the module provides its derivative h', the elasticity
functionals

    H(p) = p h'(p) / h(p)        R(p) = (1-p) h'(p) / (1 - h(p))

and their derivatives in closed form from h, 1-h, h' and h'':

    (1-p) H'/H = (1-p) (1/p + h''/h' - h'/h)
    p R'/R     = p (-1/(1-p) + h''/h' + h'/(1-h))

so an elasticity and its relative slope on a p-grid cost three evaluations
of the distortion.  Where the copula makes h a polynomial, h, 1-h, h' and
h'' are evaluated in Bernstein form, sum_k w_k p^k (1-p)^(deg-k), from the
weights of h it gives (under independence the counts of component subsets
that contain a path set, the structure's signature representation): the
terms of h, 1-h and h' are nonnegative, so nothing cancels near p = 0 or
p = 1.  The powers p^k and (1-p)^k come from a ``GridBasis`` of the points,
which keeps them for k < POWER_BUDGET / (2 x bytes of the points); a verify
config holds its p-grid's, so verifies under one config share them.  Other
copulas use the signed sum of c_j K_j, which can cancel in 1-h and h' near
p = 1 for parallel-heavy structures.  A system's cumulative
hazard -ln h(sf(x)) reads h on every point and 1-h only where h > 1/2, and
its reversed one the other way round: each form only where it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce
from math import comb
from operator import and_, or_

import numpy as np

from ._num import _integer
from .copulas import _FLOATS, Copula
from .distributions import LifetimeDistribution, _check_unit, as_float_array, match_input, on_points

__all__ = [
    "Structure",
    "Distortion",
    "build_distortion",
    "k_of_n_paths",
    "SystemModel",
]

# endpoint clamp for the elasticity functionals, defined on the open interval
EPS_CLAMP = 1e-9
# the elasticities' degenerate points read IEEE's flags (see Distortion.H), quietly
_IEEE_FLAGS = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}
# bytes of powers a GridBasis keeps: p^k and q^k for k < POWER_BUDGET / (2 x bytes
# of the points), so k <= 31 on 2001 points
POWER_BUDGET = 1 << 20
# the counted table holds 2^m entries for the m components outside the
# common part of every path set; refuse beyond
MAX_COMPONENTS = 20


@dataclass(frozen=True)
class Structure:
    """Coherent structure: component count n and minimal path sets.

    paths holds the path sets as integer masks, bit i-1 for component i, in
    increasing order.  They must be mutually non-nested (minimality) and
    jointly cover all components (every component relevant).  counts[k] is
    N_k, the number of k-subsets of components that contain a path set.
    """

    n: int
    paths: tuple[int, ...]
    counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "component count"))
        if self.n < 1:
            raise ValueError("component count must be at least 1")
        if not self.paths:
            raise ValueError("structure needs at least one path set")
        # each mask under the spec rule for integers; a Python int, the common case, is taken as it is
        object.__setattr__(self, "paths", tuple(sorted(
            path if type(path) is int else _integer(path, "path mask") for path in self.paths)))
        if self.paths[0] <= 0:
            raise ValueError("path sets must be nonempty")
        if self.paths[-1] >> self.n:
            raise ValueError(f"path {_members(self.paths[-1])} uses components outside 1..{self.n}")
        missing = ((1 << self.n) - 1) & ~reduce(or_, self.paths)
        if missing:
            raise ValueError(f"components {_members(missing)} appear in no path set (not coherent)")
        common = reduce(and_, self.paths)
        free = [i for i in range(self.n) if not common >> i & 1]
        if len(free) > MAX_COMPONENTS:
            raise ValueError(f"structure has {len(free)} components outside the common part "
                             f"of its path sets; refusing more than {MAX_COMPONENTS}")
        # table[s]: how many path sets (at most all) lie in the common part plus
        # the subset s of the free components, the common bits squeezed out of
        # s; pass i adds each set without free component i into the same set with it
        if common:
            # each mask's little-endian bytes, unpacked to bits, at any width
            width = (self.n + 7) // 8
            raw = np.frombuffer(b"".join(path.to_bytes(width, "little") for path in self.paths), np.uint8)
            bits = np.unpackbits(raw.reshape(-1, width), axis=1, count=self.n, bitorder="little")
            index = bits[:, free].astype(np.int64) @ (1 << np.arange(len(free)))
        else:
            index = np.array(self.paths)
        table = np.bincount(index, minlength=1 << len(free)).astype(np.min_scalar_type(len(self.paths)))
        for i in range(len(free)):
            halves = table.reshape(-1, 2, 1 << i)
            halves[:, 1] += halves[:, 0]
        # minimal: no path set lies in another or repeats; the first inside b is b for a repeat
        within = table[index]
        if within.max() > 1:
            b = self.paths[int(np.argmax(within))]
            a = next(a for a in self.paths if (a & ~b) == 0)
            raise ValueError(f"duplicate path set {_members(b)}" if a == b else
                             f"path {_members(a)} is contained in {_members(b)}; path sets must be minimal")
        working = np.bincount(_popcounts(len(free))[table > 0], minlength=len(free) + 1)
        object.__setattr__(self, "counts", (0,) * (self.n - len(free)) + tuple(working.tolist()))

    @classmethod
    def from_paths(cls, n: int, paths) -> "Structure":
        # each label under the spec rule for integers; a Python int, the common case, is taken as it is
        n = _integer(n, "component count")
        members = [sorted({i if type(i) is int else _integer(i, "path label") for i in path}) for path in paths]
        for path in members:
            if path and not 1 <= path[0] <= path[-1] <= n:
                raise ValueError(f"path {path} uses components outside 1..{n}")
        return cls(n, tuple(sum(1 << (i - 1) for i in path) for path in members))

    @classmethod
    def series(cls, n: int) -> "Structure":
        return cls(n, ((1 << n) - 1,))

    @classmethod
    def parallel(cls, n: int) -> "Structure":
        return cls(n, tuple(1 << i for i in range(n)))


def _members(mask: int) -> list[int]:
    """The components of a path-set mask, in increasing order."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def k_of_n_paths(k: int, n: int) -> Structure:
    """Structure whose minimal path sets are all k-subsets of {1..n}, as masks in increasing order."""
    k, n = _integer(k, "k"), _integer(n, "n")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k < n and n > MAX_COMPONENTS:
        # k < n leaves all n components free, and parallel(n) refuses as many
        Structure.parallel(n)
    masks = np.flatnonzero(_popcounts(n) == k).tolist() if k < n else [(1 << n) - 1]
    return Structure(n, tuple(masks))


@cache
def _popcounts(m: int) -> np.ndarray:
    """Bit counts of 0 .. 2^m - 1 (np.bitwise_count needs numpy 2)."""
    pop = np.zeros(1, dtype=np.uint8)
    for _ in range(m):
        pop = np.concatenate((pop, pop + 1))
    pop.setflags(write=False)  # one cached array serves every caller
    return pop


@dataclass(frozen=True)
class Distortion:
    """h(p) = sum_j c_j K_j(p) with signed integer coefficients over one copula,
    with its derivatives and elasticity functionals.

    counts are a structure's N_k, k = 0..n, with N_0 = 0 (h(0) = 0) and
    N_n = 1 (h(1) = 1).  With independent components
    h = sum_k N_k p^k (1-p)^(n-k), so expanding (1-p)^(n-k) gives
    c_j = sum_k (-1)^(j-k) C(n-k, j-k) N_k, summed over the nonzero N_k
    only (series(n) has one).  Where the copula gives h's Bernstein weights,
    h, 1-h, h' and h'' are evaluated from weights derived once from them.
    """

    copula: Copula
    counts: tuple[int, ...]
    coeffs: tuple[tuple[int, int], ...] = field(init=False, compare=False)
    # (h, 1-h, h', h'') Bernstein weights where the copula gives h's, None otherwise
    _bernstein: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.counts) - 1
        if n != self.copula.dim or self.counts[0] != 0 or self.counts[n] != 1:
            raise ValueError(f"counts must run from N_0 = 0 to N_{self.copula.dim} = 1")
        sums = [0] * (n + 1)
        for k, count in enumerate(self.counts):
            if count:
                for j in range(k, n + 1):
                    sums[j] += (-1) ** (j - k) * comb(n - k, j - k) * count
        object.__setattr__(self, "coeffs", tuple((j, c) for j, c in enumerate(sums) if c))
        if (weights := self.copula._bernstein(self.counts)) is not None:
            object.__setattr__(self, "_bernstein", _bernstein_weights(weights))

    # each public function validates its argument once; _evaluate and _elasticity never do
    def h(self, p):
        return match_input(p, self._evaluate(_check_unit(p, "distortion argument"), 0))

    def one_minus_h(self, p):
        # signed form: coefficients sum to 1, so 1-h = sum c_j (1 - K_j); each
        # complement is computed in its stable per-family form
        return match_input(p, self._evaluate(_check_unit(p, "distortion argument"), 1))

    def h_prime(self, p):
        return match_input(p, self._evaluate(self._check_open(p), 2))

    def _evaluate(self, p, which: int) -> np.ndarray:
        """h, 1-h, h' or h'' (which = 0, 1, 2, 3) on a validated argument (or its GridBasis): from
        the Bernstein weights where the copula gives them, on its GridBasis (made here for an array),
        else the copula's one-call signed sum ``_sum``, sum_j c_j times K_j, 1-K_j, K_j' or K_j''."""
        points = p.p if isinstance(p, GridBasis) else p
        if points.ndim != 1:
            # a scalar runs as a one-point array, to match an array call bit for bit
            return on_points(self._evaluate, points, which)
        if self._bernstein is not None:
            return _bernstein_sum(p, self._bernstein[which])
        return self.copula._sum(points, self.coeffs, which)

    def H(self, p):
        """Hazard-transfer elasticity p h'(p)/h(p), clamped to the open interval.

        Degenerate points are flagged by IEEE arithmetic, without a warning:
        x/0 is inf, of x's sign, where h underflows and 0/0 is nan where
        numerator and denominator both do.
        """
        return match_input(p, self._elasticity(self._clamped(p), "H", slope=False))

    def R(self, p):
        """Reversed-hazard elasticity (1-p) h'(p)/(1-h(p)) with the same flag policy."""
        return match_input(p, self._elasticity(self._clamped(p), "R", slope=False))

    def H_prime(self, p):
        """dH/dp = H (1/p + h''/h' - h'/h), in closed form."""
        value, dlog = self._elasticity(self._check_open(p), "H")
        with np.errstate(**_IEEE_FLAGS):
            return match_input(p, value * dlog)

    def R_prime(self, p):
        """dR/dp = R (-1/(1-p) + h''/h' + h'/(1-h)), in closed form."""
        value, dlog = self._elasticity(self._check_open(p), "R")
        with np.errstate(**_IEEE_FLAGS):
            return match_input(p, value * dlog)

    def elasticity_profile(self, p, kind: str):
        """(H, (1-p) H'/H) for kind "H", or (R, p R'/R) for kind "R".

        Both come from three evaluations on the clamped argument, h, h' and
        h'' for H and 1-h, h' and h'' for R, with the flag policy of H and R.
        These are the arrays behind conditions (i)-(iii) of a certificate;
        a verify passes its config's kept GridBasis, clamped already.
        """
        if kind not in ("H", "R"):
            raise ValueError(f"kind must be 'H' or 'R', got {kind!r}")
        b = p if isinstance(p, GridBasis) else GridBasis(self._clamped(p))
        value, dlog = self._elasticity(b, kind)
        return match_input(b.p, value), match_input(b.p, (b.q if kind == "H" else b.p) * dlog)

    def _elasticity(self, p, kind: str, slope: bool = True):
        """H or R on a validated argument in the open interval (or its
        GridBasis), and with slope its logarithmic derivative d ln H/dp or d ln R/dp.
        h (or 1-h), h' and h'' come first, so the quiet block keeps their warnings."""
        b = _basis(p)
        d1, den = self._evaluate(b, 2), self._evaluate(b, 0 if kind == "H" else 1)
        d2 = self._evaluate(b, 3) if slope else None
        with np.errstate(**_IEEE_FLAGS):
            value = (b.p if kind == "H" else b.q) * d1 / den
            if not slope:
                return value
            if kind == "H":
                return value, 1.0 / b.p + d2 / d1 - d1 / den
            return value, -1.0 / b.q + d2 / d1 + d1 / den

    def _levels(self, q_lo: float, q_hi: float) -> tuple[float, float]:
        """The reliabilities p with 1 - h(p) = q_lo and with h(p) = 1 - q_hi,
        at which a margin's isf gives the system's q_lo and q_hi quantiles.

        Each is a safeguarded Newton iteration on x = 1-p (the first) or
        x = p (the second) in the coordinate ln x, where ln(1-h) and ln h
        have the slopes R(p) and H(p), so a power-law tail takes one step.
        A round reads 1-h or h, and h', on Python floats: from the Bernstein
        weights where the copula gives them, by ``_bernstein_float``, whose
        powers are libm's, so it stays within 8 ulps of the array sum but
        not on its bits; else from the copula's ``_sum`` on the float
        namespace ``_FLOATS``, whose numpy ufuncs on Python floats return
        the bits of the same ``_sum`` on an array.
        The brackets, x in [2^-53, 1] and [2^-1074, 1], span the floats p in
        (0, 1), and 1-h <= n(1-p) and h <= n p put the level inside.  A step
        that leaves its bracket bisects it in ln x instead.  The iteration
        stops once a Newton step is below 2^-26 of ln x, taking that step,
        or once the bisection finds no float p strictly inside the bracket.
        """
        out = []
        for level, upper in ((q_lo, True), (1.0 - q_hi, False)):
            def evaluable(v):
                # the x of the float p that 1 - v, or v, rounds to
                return 1.0 - (1.0 - v) if upper else v

            lo, hi, x = (2.0**-53 if upper else math.ulp(0.0)), 1.0, 0.5
            while True:
                p = 1.0 - x if upper else x
                value, d1 = (_bernstein_float(p, self._bernstein[which]) if self._bernstein is not None else
                             self.copula._sum(p, self.coeffs, which, _FLOATS) for which in (int(upper), 2))
                lo, hi = (x, hi) if value < level else (lo, x)
                # over the slope x h'/(1-h) = R or x h'/h = H; a step that is not finite bisects
                step = math.log(level / value) * value / (x * d1) if value > 0.0 and x * d1 > 0.0 else math.inf
                if abs(step) <= 2.0**-26 * abs(math.log(x)):
                    x *= math.exp(step)
                    break
                # ln x spans less than 745 in either bracket
                newton = evaluable(x * math.exp(step)) if abs(step) < 745.0 else math.nan
                x = newton if lo < newton < hi else evaluable(math.sqrt(lo) * math.sqrt(hi))
                if not lo < x < hi:
                    break
            out.append(1.0 - x if upper else x)
        return out[0], out[1]

    @staticmethod
    def _clamped(p) -> np.ndarray:
        # h's [0, 1] rule, then the clamp to the open interval
        return np.clip(_check_unit(p, "distortion argument"), EPS_CLAMP, 1.0 - EPS_CLAMP)

    @staticmethod
    def _check_open(p) -> np.ndarray:
        pa = as_float_array(p)
        if ((pa <= 0.0) | (pa >= 1.0)).any():
            raise ValueError("derivative argument must lie in the open interval (0, 1)")
        return pa


def _bernstein_weights(weights) -> tuple[tuple[float, ...], ...]:
    """Bernstein weights of h, 1-h, h' and h'' from h's exact weights W_k
    (integers or fractions) of degree n, each derived exactly and rounded once:
    1-h has C(n,k) - W_k, h' the degree-(n-1) D_k = (k+1) W_(k+1) - (n-k) W_k
    and h'' the degree-(n-2) (k+1) D_(k+1) - (n-1-k) D_k, which changes sign
    where h' turns."""
    n = len(weights) - 1
    # integers over the weights' common denominator; int / int rounds once
    den = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    compl = [comb(n, k) * den - nums[k] for k in range(n + 1)]
    deriv = [(k + 1) * nums[k + 1] - (n - k) * nums[k] for k in range(n)]
    second = [(k + 1) * deriv[k + 1] - (n - 1 - k) * deriv[k] for k in range(n - 1)]
    return tuple(tuple(w / den for w in derived) for derived in (nums, compl, deriv, second))


class GridBasis:
    """Points p, q = 1-p and the Bernstein powers p^k and q^k, each power
    made on first use by the functionals' own numpy operation.  q, and the
    powers with k < POWER_BUDGET / (2 x p's bytes), are kept read-only, so
    the kept powers fit POWER_BUDGET bytes whatever the order of use; a
    higher power is made per use."""

    def __init__(self, p: np.ndarray):
        self.p, self.q, self._powers = p, 1.0 - p, {}
        # setflags(False) is write=False; the keyword form parses twice as slowly
        self.q.setflags(False)
        self._kept = POWER_BUDGET // (2 * p.nbytes) if p.nbytes else 0

    def power(self, k: int, of_q: bool = False) -> np.ndarray:
        """p^k, or q^k with of_q; of two threads that make a kept power, both get the first's."""
        out = self._powers.get((k, of_q))
        if out is None:
            out = (self.q if of_q else self.p) ** k
            if k < self._kept:
                out.setflags(False)
                out = self._powers.setdefault((k, of_q), out)
        return out


def _basis(p) -> GridBasis:
    return p if isinstance(p, GridBasis) else GridBasis(as_float_array(p))


def _bernstein_sum(p, weights: tuple[float, ...]) -> np.ndarray:
    """sum_k w_k p^k (1-p)^(deg-k), deg = len(weights) - 1 (zero for no
    weights), from p's GridBasis; with nonnegative weights every term is
    nonnegative, so nothing cancels."""
    b = _basis(p)
    deg = len(weights) - 1
    out = np.zeros(b.p.shape)
    for k, w in enumerate(weights):
        if w:
            out += w * b.power(k) * b.power(deg - k, True)
    return out


def _bernstein_float(p: float, weights: tuple[float, ...]) -> float:
    """_bernstein_sum at a Python float p, in its order and grouping (a loop: sum() compensates from 3.12).

    Its powers are Python's ``**``, libm's pow, which can differ from numpy's
    array kernel in the last ulp, so the sum stays within 8 ulps of the array
    sum (TestLevels::test_float_bernstein_sum_within_8_ulps), not on its bits."""
    q, deg, out = 1.0 - p, len(weights) - 1, 0.0
    for k, w in enumerate(weights):
        if w:
            out += w * p**k * q ** (deg - k)
    return out


def build_distortion(structure: Structure, copula: Copula) -> Distortion:
    """The dual distortion of a structure under a survival copula, from its counts N_k."""
    if copula.dim != structure.n:
        raise ValueError(f"copula dimension {copula.dim} does not match component count {structure.n}")
    return Distortion(copula, structure.counts)


@dataclass
class SystemModel:
    """A coherent system: structure + survival copula + common component margin."""

    structure: Structure
    copula: Copula
    margin: LifetimeDistribution
    distortion: Distortion = field(init=False)

    def __post_init__(self):
        self.distortion = build_distortion(self.structure, self.copula)

    def cum_hazard(self, x):
        """-ln h(sf(x)): h on every point, and 1 - h only where _minus_log reads it."""
        return match_input(x, self._minus_log_at(x, 0))

    def cum_rev_hazard(self, x):
        """-ln(1 - h(sf(x))): 1 - h on every point, and h only where _minus_log reads it."""
        return match_input(x, self._minus_log_at(x, 1))

    def _minus_log_at(self, x, which: int) -> np.ndarray:
        """-ln of h (which 0) or 1 - h (which 1) at sf(x), each in its stable form."""
        d = self.distortion
        return on_points(lambda s: _minus_log(d._evaluate(s, which), lambda far: d._evaluate(s[far], 1 - which)),
                         as_float_array(self.margin.sf(x)))


def _minus_log(value: np.ndarray, complement_at) -> np.ndarray:
    """-ln value on a 1-D array, accurate near 0 and near 1: -log of the value on every point, then at
    far = ~(value <= 0.5) (near 1, or nan) -log1p of complement_at(far), the stable complement 1 - value
    evaluated at just those points, so each form is evaluated only where it is read."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.log(np.maximum(value, 0.0))
        far = ~(value <= 0.5)
        if far.any():
            out[far] = -np.log1p(-np.minimum(complement_at(far), 1.0))
    return out
