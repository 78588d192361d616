"""50-digit reference computations for the benchmark's correctness checks.

Everything here is computed apart from the program, with mpmath:

- the copula reductions K_t(p) (t coordinates at p, the rest at 1) from the
  closed forms of each family;
- h and 1-h by enumerating the 2^n component states: N_s counts the working
  states with s components up, and an exchangeable copula gives every state
  with s components up the same probability q_s(p), so
  h = sum_s N_s q_s and 1-h = sum_s (C(n,s) - N_s) q_s;
- the margin survival functions;
- the system cumulative (reversed) hazard ratio, on a grid bracketed here at
  the 0.001-0.999 quantiles of the equal mixture of the two systems.

Systems and margins are the spec-shaped dicts the command line reads.  Each
figure is recomputed at twice the digits and must agree, so a loss of
precision in the reference itself raises instead of passing a wrong value.
"""

from __future__ import annotations

from math import comb

from mpmath import mp, mpf

DPS = 50
# digits the twice-precision rerun must agree to
AGREE_DIGITS = 30


class ReferenceError(ArithmeticError):
    """The reference disagreed with itself at twice the digits."""


def _kt(copula: dict, t: int, p):
    if t == 0:
        return mpf(1)
    if p == 0:
        return mpf(0)
    family = copula["copula"]
    if family == "independence":
        return p**t
    theta = mpf(copula["theta"])
    if family == "fgm":
        return p**t if t < 3 else p**3 * (1 + theta * (1 - p) ** 3)
    if family == "gumbel":
        return mp.exp(mpf(t) ** (1 / theta) * mp.log(p))
    if family == "clayton":
        return (t * p ** (-theta) - (t - 1)) ** (-1 / theta)
    raise ValueError(f"unknown copula {family!r}")


def working_counts(n: int, paths) -> list[int]:
    """N_s: number of component states with s components up in which the
    system works (some minimal path set is fully up)."""
    masks = [sum(1 << (i - 1) for i in path) for path in paths]
    counts = [0] * (n + 1)
    for state in range(1 << n):
        if any(state & m == m for m in masks):
            counts[state.bit_count()] += 1
    return counts


def margin_sf(margin: dict, x):
    x = mpf(x)
    family = margin["family"]
    if family == "exp":
        return mp.exp(-mpf(margin["rate"]) * x)
    if family == "lfr":
        return mp.exp(-mpf(margin["alpha"]) * (x + mpf(margin.get("beta", 0.0)) * x * x))
    if family == "weibull":
        return mp.exp(-((x / mpf(margin.get("scale", 1.0))) ** mpf(margin["shape"])))
    raise ValueError(f"unknown margin family {family!r}")


class RefSystem:
    """Reference model of one spec system block (structure, copula, margin)."""

    def __init__(self, block: dict):
        structure = block.get("structure", {"n": 1, "paths": [[1]]})
        self.n = int(structure["n"])
        self.copula = block.get("copula", {"copula": "independence"})
        self.margin = block["margin"]
        self.counts = working_counts(self.n, structure["paths"])

    def _state_probs(self, p):
        n = self.n
        if self.copula["copula"] == "independence":
            q = 1 - p
            return [p**s * q ** (n - s) for s in range(n + 1)]
        k = [_kt(self.copula, t, p) for t in range(n + 1)]
        return [
            sum((-1) ** (t - s) * comb(n - s, t - s) * k[t] for t in range(s, n + 1))
            for s in range(n + 1)
        ]

    def h_pair(self, p):
        """(h(p), 1 - h(p)) at the current working precision."""
        q = self._state_probs(mpf(p))
        h = sum(c * qs for c, qs in zip(self.counts, q))
        omh = sum((comb(self.n, s) - c) * qs for s, (c, qs) in enumerate(zip(self.counts, q)))
        return h, omh

    def h(self, p):
        return self.h_pair(p)[0]

    def cum_hazards(self, x):
        """(-ln h(sf(x)), -ln(1 - h(sf(x)))); log1p of the small one of h
        and 1-h, so a value far below the working precision still counts."""
        h, omh = self.h_pair(margin_sf(self.margin, x))
        cum = -mp.log(h) if h <= 0.5 else -mp.log1p(-omh)
        cum_rev = -mp.log(omh) if omh <= 0.5 else -mp.log1p(-h)
        return cum, cum_rev


def _close(a, b) -> bool:
    scale = max(abs(a), abs(b))
    return scale == 0 or abs(a - b) <= scale * mpf(10) ** (-AGREE_DIGITS)


def twice_checked(fn, *args):
    """fn(*args) at DPS digits, confirmed by a rerun at twice the digits.

    fn returns a number or a tuple of numbers.  The signed state sums of a
    dependent copula cancel near p = 1, so when the two runs disagree the
    digits are doubled (up to 8*DPS) until a run and its double agree; the
    lower-precision result of the agreeing pair is returned.
    """
    dps = DPS
    with mp.workdps(dps):
        low = fn(*args)
    while True:
        with mp.workdps(2 * dps):
            high = fn(*args)
        pairs = zip(low, high) if isinstance(low, tuple) else [(low, high)]
        if all(_close(a, b) for a, b in pairs):
            return low
        if dps >= 4 * DPS:
            raise ReferenceError(f"{fn.__name__}{args}: no agreement up to {2 * dps} digits")
        dps, low = 2 * dps, high


def h_values(block: dict, ps) -> list[tuple[float, float]]:
    """[(h(p), 1-h(p))] as floats for the given reliabilities."""
    system = RefSystem(block)
    return [tuple(float(v) for v in twice_checked(system.h_pair, p)) for p in ps]


def distortion_table(block: dict, ps) -> list[tuple[float, float, float, float]]:
    """[(h, h', H, R)] at each p; h' by mpmath's high-precision differentiation."""
    system = RefSystem(block)

    def row(p):
        p = mpf(p)
        h, omh = system.h_pair(p)
        hp = mp.diff(system.h, p)
        return h, hp, p * hp / h, (1 - p) * hp / omh

    return [tuple(float(v) for v in twice_checked(row, p)) for p in ps]


def _mixture_quantile(sys1: RefSystem, sys2: RefSystem, target, iters: int = 12):
    """x where the equal mixture of the two system lifetimes has cdf = target,
    by doubling then bisection in log x."""

    def cdf(x):
        return (sys1.h_pair(margin_sf(sys1.margin, x))[1] + sys2.h_pair(margin_sf(sys2.margin, x))[1]) / 2

    lo = hi = mpf(1)
    while cdf(lo) > target:
        lo /= 2
    while cdf(hi) < target:
        hi *= 2
    lo = min(lo, hi / 2)
    for _ in range(iters):
        mid = mp.sqrt(lo * hi)
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return mp.sqrt(lo * hi)


def direct_ratio(block1: dict, block2: dict, relation: str, points: int = 31, tol: float = 1e-9) -> dict:
    """Reference check that system 1 ages faster than system 2.

    c_star: the ratio of system cumulative hazards must be increasing;
    b_star: the ratio of cumulative reversed hazards must be decreasing.
    The grid is log-spaced between the 0.001 and 0.999 quantiles of the
    mixture.  The worst reversal between any earlier and later grid point
    must not exceed tol, the program's own certificate tolerance.
    """
    if relation not in ("c_star", "b_star"):
        raise ValueError(f"unknown relation {relation!r}")
    sys1, sys2 = RefSystem(block1), RefSystem(block2)
    which = 0 if relation == "c_star" else 1
    with mp.workdps(DPS):
        lo = _mixture_quantile(sys1, sys2, mpf("0.001"))
        hi = _mixture_quantile(sys1, sys2, mpf("0.999"))
        step = (hi / lo) ** (mpf(1) / (points - 1))
        xs = [lo * step**i for i in range(points)]

    def ratio(x):
        return sys1.cum_hazards(x)[which] / sys2.cum_hazards(x)[which]

    with mp.workdps(DPS):
        values = [ratio(x) for x in xs]
    sign = 1 if relation == "c_star" else -1
    worst, worst_i, best = mpf(0), 0, sign * values[0]
    for i, v in enumerate(values[1:], start=1):
        if best - sign * v > worst:
            worst, worst_i = best - sign * v, i
        best = max(best, sign * v)
    # the figures the verdict rests on must survive a rerun at twice the digits
    twice_checked(ratio, xs[worst_i])
    twice_checked(ratio, xs[0])
    return {
        "holds": bool(worst <= tol),
        "violation": float(worst),
        "x_lo": float(lo),
        "x_hi": float(hi),
    }


def kofn_h(k: int, n: int, p):
    """Binomial tail sum_{j>=k} C(n,j) p^j (1-p)^(n-j): the k-out-of-n
    distortion under independence, for the reference's own tests."""
    p = mpf(p)
    return sum(comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))
