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
of the distortion.  Under independent components h is a polynomial and h,
1-h, h' and h'' are evaluated in Bernstein form, sum_k w_k p^k (1-p)^(deg-k),
whose weights for h count the component subsets that contain a path set
(the structure's signature representation): the terms of h, 1-h and h' are
nonnegative, so nothing cancels near p = 0 or p = 1.  Dependent copulas use
the signed sum of c_j K_j, which can cancel in 1-h and h' near p = 1 for
parallel-heavy structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from .copulas import Copula, _is_independence
from .distributions import LifetimeDistribution, as_float_array, match_input

__all__ = [
    "Structure",
    "Distortion",
    "build_distortion",
    "k_of_n_paths",
    "SystemModel",
]

# endpoint clamp for the elasticity functionals, defined on the open interval
EPS_CLAMP = 1e-9
# the counted table holds 2^m entries for the m components outside the
# common part of every path set; refuse beyond
MAX_COMPONENTS = 20


@dataclass(frozen=True)
class Structure:
    """Coherent structure: component count n and minimal path sets.

    Path sets must be mutually non-nested (minimality) and jointly cover all
    components (every component relevant).  counts[k] is N_k, the number of
    k-subsets of components that contain a path set, for k = 0..n.
    """

    n: int
    paths: tuple[frozenset[int], ...]
    counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("component count must be at least 1")
        if not self.paths:
            raise ValueError("structure needs at least one path set")
        components = frozenset(range(1, self.n + 1))
        seen = set()
        for path in self.paths:
            if not path:
                raise ValueError("path sets must be nonempty")
            if not path <= components:
                raise ValueError(f"path {sorted(path)} uses components outside 1..{self.n}")
            if path in seen:
                raise ValueError(f"duplicate path set {sorted(path)}")
            seen.add(path)
        missing = components.difference(*self.paths)
        if missing:
            raise ValueError(f"components {sorted(missing)} appear in no path set (not coherent)")
        common = frozenset.intersection(*self.paths)
        free = sorted(components - common)
        if len(free) > MAX_COMPONENTS:
            raise ValueError(f"structure has {len(free)} components outside the common part "
                             f"of its path sets; refusing more than {MAX_COMPONENTS}")
        # table[s]: how many path sets (at most all of them) lie in the common
        # part plus the subset s of the free components; pass i adds each set
        # without free component i into the same set with it
        weight = dict.fromkeys(common, 0) | {c: 1 << i for i, c in enumerate(free)}
        masks = np.array([sum(map(weight.__getitem__, path)) for path in self.paths])
        table = np.zeros(1 << len(free), dtype=np.min_scalar_type(len(self.paths)))
        table[masks] = 1
        for i in range(len(free)):
            halves = table.reshape(-1, 2, 1 << i)
            halves[:, 1] += halves[:, 0]
        # a minimal path set contains no path set but itself
        within = table[masks]
        if within.max() > 1:
            b = self.paths[int(np.argmax(within))]
            a = next(a for a in self.paths if a < b)
            raise ValueError(f"path {sorted(a)} is contained in {sorted(b)}; path sets must be minimal")
        working = np.bincount(_popcounts(len(free))[table > 0], minlength=len(free) + 1)
        object.__setattr__(self, "counts", (0,) * len(common) + tuple(working.tolist()))

    @classmethod
    def from_paths(cls, n: int, paths) -> "Structure":
        norm = tuple(sorted((frozenset(int(i) for i in p) for p in paths), key=lambda s: (len(s), sorted(s))))
        return cls(n=n, paths=norm)

    @classmethod
    def series(cls, n: int) -> "Structure":
        return cls.from_paths(n, [range(1, n + 1)])

    @classmethod
    def parallel(cls, n: int) -> "Structure":
        return cls.from_paths(n, [[i] for i in range(1, n + 1)])


def k_of_n_paths(k: int, n: int) -> Structure:
    """Structure whose minimal path sets are all k-subsets of {1..n}."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    # combinations come in from_paths order
    return Structure(n, tuple(map(frozenset, combinations(range(1, n + 1), k))))


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
    only (series(n) has one).  Under the independence law (Independence,
    GumbelHougaard at theta = 1, FGM at theta = 0) h, 1-h, h' and h'' are
    evaluated in Bernstein form instead, from weights derived once from the
    counts.
    """

    copula: Copula
    counts: tuple[int, ...]
    coeffs: tuple[tuple[int, int], ...] = field(init=False, compare=False)
    # (h, 1-h, h', h'') Bernstein weights under the independence law, None otherwise
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
        if _is_independence(self.copula):
            object.__setattr__(self, "_bernstein", _bernstein_weights(self.counts))

    # each public function validates its argument once; _evaluate and _elasticity never do
    def h(self, p):
        return match_input(p, self._evaluate(self._check_unit(p), 0))

    def one_minus_h(self, p):
        # signed form: coefficients sum to 1, so 1-h = sum c_j (1 - K_j); each
        # complement is computed in its stable per-family form
        return match_input(p, self._evaluate(self._check_unit(p), 1))

    def h_prime(self, p):
        return match_input(p, self._evaluate(self._check_open(p), 2))

    def _evaluate(self, p, which: int) -> np.ndarray:
        """h, 1-h, h' or h'' (which = 0, 1, 2, 3) on a validated argument:
        Bernstein weights under independence, else the copula's one-call
        signed sum ``_sum``, sum_j c_j times K_j, 1-K_j, K_j' or K_j''
        (Clayton-Oakes shares ln p and expm1(-theta ln p) across its terms)."""
        # a 0-d array for scalar input, never a numpy scalar: scalar and
        # array powers can differ in the last ulp, and a scalar call must
        # match the same point of an array call
        pa = as_float_array(p)
        if self._bernstein is not None:
            return _bernstein_sum(pa, self._bernstein[which])
        return self.copula._sum(pa, self.coeffs, which)

    def H(self, p):
        """Hazard-transfer elasticity p h'(p)/h(p), clamped to the open interval.

        Degenerate points are flagged: inf when h underflows with a nonzero
        numerator, nan when numerator and denominator both underflow.
        """
        return match_input(p, self._elasticity(self._clamped(p), "H", slope=False))

    def R(self, p):
        """Reversed-hazard elasticity (1-p) h'(p)/(1-h(p)) with the same flag policy."""
        return match_input(p, self._elasticity(self._clamped(p), "R", slope=False))

    def H_prime(self, p):
        """dH/dp = H (1/p + h''/h' - h'/h), in closed form."""
        value, dlog = self._elasticity(self._check_open(p), "H")
        return match_input(p, value * dlog)

    def R_prime(self, p):
        """dR/dp = R (-1/(1-p) + h''/h' + h'/(1-h)), in closed form."""
        value, dlog = self._elasticity(self._check_open(p), "R")
        return match_input(p, value * dlog)

    def elasticity_profile(self, p, kind: str):
        """(H, (1-p) H'/H) for kind "H", or (R, p R'/R) for kind "R".

        Both come from three evaluations on the clamped argument, h, h' and
        h'' for H and 1-h, h' and h'' for R, with the flag policy of H and R.
        These are the arrays behind conditions (i)-(iii) of a certificate.
        """
        if kind not in ("H", "R"):
            raise ValueError(f"kind must be 'H' or 'R', got {kind!r}")
        pa = self._clamped(p)
        value, dlog = self._elasticity(pa, kind)
        return match_input(p, value), match_input(p, (1.0 - pa if kind == "H" else pa) * dlog)

    def _elasticity(self, pa, kind: str, slope: bool = True):
        """H or R on a validated argument in the open interval, and with
        slope its logarithmic derivative d ln H/dp or d ln R/dp."""
        d1 = self._evaluate(pa, 2)
        if kind == "H":
            hv = self._evaluate(pa, 0)
            value = _flagged_ratio(pa * d1, hv)
        else:
            omh = self._evaluate(pa, 1)
            value = _flagged_ratio((1.0 - pa) * d1, omh)
        if not slope:
            return value
        curvature = _flagged_ratio(self._evaluate(pa, 3), d1)
        if kind == "H":
            return value, 1.0 / pa + curvature - _flagged_ratio(d1, hv)
        return value, -1.0 / (1.0 - pa) + curvature + _flagged_ratio(d1, omh)

    def _clamped(self, p) -> np.ndarray:
        # h's [0, 1] rule, then the clamp to the open interval
        return np.clip(self._check_unit(p), EPS_CLAMP, 1.0 - EPS_CLAMP)

    @staticmethod
    def _check_unit(p) -> np.ndarray:
        pa = as_float_array(p)
        if np.any((pa < 0.0) | (pa > 1.0)):
            raise ValueError("distortion argument must lie in [0, 1]")
        return pa

    @staticmethod
    def _check_open(p) -> np.ndarray:
        pa = as_float_array(p)
        if np.any((pa <= 0.0) | (pa >= 1.0)):
            raise ValueError("derivative argument must lie in the open interval (0, 1)")
        return pa


def _bernstein_weights(counts) -> tuple[tuple[float, ...], ...]:
    """Bernstein weights of h, 1-h, h' and h'' under independence.

    h = sum_k N_k p^k (1-p)^(n-k) has the degree-n weights N_k, the number
    of k-subsets of components that contain a path set; 1-h has
    C(n,k) - N_k; h' has the degree-(n-1) weights
    D_k = (k+1) N_(k+1) - (n-k) N_k, and h'' the degree-(n-2) weights
    (k+1) D_(k+1) - (n-1-k) D_k.  The first three are nonnegative for a
    coherent structure; h'' changes sign where h' turns.
    """
    n = len(counts) - 1
    compl = [comb(n, k) - counts[k] for k in range(n + 1)]
    deriv = [(k + 1) * counts[k + 1] - (n - k) * counts[k] for k in range(n)]
    second = [(k + 1) * deriv[k + 1] - (n - 1 - k) * deriv[k] for k in range(n - 1)]
    return tuple(tuple(float(w) for w in weights) for weights in (counts, compl, deriv, second))


def _bernstein_sum(pa: np.ndarray, weights: tuple[float, ...]) -> np.ndarray:
    """sum_k w_k p^k (1-p)^(deg-k), deg = len(weights) - 1 (zero for no
    weights); with nonnegative weights every term is nonnegative, so nothing
    cancels."""
    q = 1.0 - pa
    deg = len(weights) - 1
    out = np.zeros_like(pa)
    for k, w in enumerate(weights):
        if w:
            out += w * pa**k * q ** (deg - k)
    return out


def _flagged_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    bad = den == 0.0
    if np.any(bad):
        out = np.where(bad & (num == 0.0), np.nan, out)
        out = np.where(bad & (num != 0.0), np.inf, out)
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
        """-ln h(sf(x))."""
        return match_input(x, _minus_log(*self._h_pair(x)))

    def cum_rev_hazard(self, x):
        """-ln(1 - h(sf(x)))."""
        return match_input(x, _minus_log(*reversed(self._h_pair(x))))

    def _h_pair(self, x):
        """h(sf(x)) and 1 - h(sf(x)), each in its stable form, from one sf."""
        p = self.margin.sf(x)
        return self.distortion._evaluate(p, 0), self.distortion._evaluate(p, 1)


def _minus_log(value, compl) -> np.ndarray:
    """-ln value: log of the value where it is small, log1p of its stable
    complement where it is near 1, accurate in both regimes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(value <= 0.5, -np.log(np.maximum(value, 0.0)), -np.log1p(-np.minimum(compl, 1.0)))
