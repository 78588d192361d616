"""Coherent structures and their dual distortion functions.

A coherent structure is given by its component count and minimal path sets.
Combined with an exchangeable survival copula it induces the dual distortion
h: [0,1] -> [0,1] mapping common component reliability p to system
reliability, with h(0) = 0, h(1) = 1 and h nondecreasing.  The distortion is
assembled by inclusion-exclusion over unions of path-set subfamilies, which
for an exchangeable copula reduces h to a signed combination of the
functions K_j(p) = K(p, ..., p, 1, ..., 1) with j coordinates at p.  The
integer coefficients c_j are summed grouped by union, adding one path set at
a time, so the cost is one step per distinct union per path set: small for
k-out-of-n structures, whose unions repeat, and still 2^r when every union
of the r path sets is distinct, as in parallel(r).

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
# inclusion-exclusion grouped by union is exact, but holds up to 2^r - 1
# unions when they are all distinct (parallel(r)); refuse beyond
MAX_PATH_SETS = 20


@dataclass(frozen=True)
class Structure:
    """Coherent structure: component count n and minimal path sets.

    Path sets must be mutually non-nested (minimality) and jointly cover all
    components (every component relevant).
    """

    n: int
    paths: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("component count must be at least 1")
        if not self.paths:
            raise ValueError("structure needs at least one path set")
        seen = set()
        for path in self.paths:
            if not path:
                raise ValueError("path sets must be nonempty")
            if not path <= set(range(1, self.n + 1)):
                raise ValueError(f"path {sorted(path)} uses components outside 1..{self.n}")
            if path in seen:
                raise ValueError(f"duplicate path set {sorted(path)}")
            seen.add(path)
        for a in self.paths:
            for b in self.paths:
                if a != b and a <= b:
                    raise ValueError(
                        f"path {sorted(a)} is contained in {sorted(b)}; path sets must be minimal"
                    )
        covered = set().union(*self.paths)
        if covered != set(range(1, self.n + 1)):
            missing = sorted(set(range(1, self.n + 1)) - covered)
            raise ValueError(f"components {missing} appear in no path set (not coherent)")

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
    return Structure.from_paths(n, combinations(range(1, n + 1), k))


@dataclass(frozen=True)
class Distortion:
    """h(p) = sum_j c_j K_j(p) with signed integer coefficients over one copula,
    with its derivatives and elasticity functionals.

    Coefficients must sum to 1 (h(1) = 1) and carry j >= 1 only (h(0) = 0).
    Under the independence law (Independence, GumbelHougaard at theta = 1,
    FGM at theta = 0) h, 1-h, h' and h'' are evaluated in Bernstein form
    instead, from weights derived once from the exact coefficients.
    """

    copula: Copula
    coeffs: tuple[tuple[int, int], ...]
    # (h, 1-h, h', h'') Bernstein weights under the independence law, None otherwise
    _bernstein: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("distortion needs at least one coefficient")
        total = 0
        for j, c in self.coeffs:
            if j < 1 or j > self.copula.dim:
                raise ValueError(f"coefficient index {j} outside 1..{self.copula.dim}")
            if c == 0:
                raise ValueError("zero coefficients must be dropped")
            total += c
        if total != 1:
            raise ValueError(f"coefficients must sum to 1, got {total}")
        if _is_independence(self.copula):
            object.__setattr__(self, "_bernstein", _bernstein_weights(self.copula.dim, self.coeffs))

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


def _bernstein_weights(n: int, coeffs) -> tuple[tuple[float, ...], ...]:
    """Bernstein weights of h, 1-h, h' and h'' for h = sum_j c_j p^j.

    p^j = sum_k C(n-j, k-j) p^k (1-p)^(n-k), so h has the degree-n weights
    N_k = sum_j c_j C(n-j, k-j), the number of k-subsets of components that
    contain a path set; 1-h has C(n,k) - N_k; h' has the degree-(n-1)
    weights D_k = (k+1) N_(k+1) - (n-k) N_k, and h'' the degree-(n-2)
    weights (k+1) D_(k+1) - (n-1-k) D_k.  The first three are nonnegative
    for a coherent structure; h'' changes sign where h' turns.
    """
    counts = [sum(c * comb(n - j, k - j) for j, c in coeffs if j <= k) for k in range(n + 1)]
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
    """Assemble the dual distortion of a structure under a survival copula.

    Inclusion-exclusion over nonempty subfamilies of minimal path sets: a
    subfamily S contributes (-1)^(|S|+1) to the coefficient of
    j = |union of S|.  The sum is grouped by union: path sets are added one
    at a time to a map from union bitmask to the signed count of subfamilies
    with that union, and c_j is the total count over unions of size j.  Each
    path set costs one step per distinct union so far, so k-out-of-n
    structures build in well under a millisecond, but the map still holds
    2^r - 1 unions when every union is distinct, as in parallel(r).  Exact
    for up to MAX_PATH_SETS path sets.
    """
    if copula.dim != structure.n:
        raise ValueError(
            f"copula dimension {copula.dim} does not match component count {structure.n}"
        )
    r = len(structure.paths)
    if r > MAX_PATH_SETS:
        raise ValueError(f"structure has {r} minimal path sets; refusing more than {MAX_PATH_SETS}")

    counts: dict[int, int] = {}
    for path in structure.paths:
        m = 0
        for i in path:
            m |= 1 << (i - 1)
        # adding m to a subfamily with union u flips its sign and moves it to
        # u | m; unions that collide may cancel, and are dropped at zero.  The
        # snapshot is two lists rather than a list of pairs, which keeps the
        # tracemalloc peak of parallel(20) at 94 MB instead of 119 MB
        for u, c in zip(list(counts), list(counts.values())):
            v = u | m
            total = counts.get(v, 0) - c
            if total:
                counts[v] = total
            else:
                del counts[v]
        # minimality: no union of other path sets equals m
        counts[m] = 1

    sums = [0] * (structure.n + 1)
    for u, c in counts.items():
        sums[u.bit_count()] += c
    pairs = tuple((j, c) for j, c in enumerate(sums) if c != 0)
    return Distortion(copula=copula, coeffs=pairs)


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
