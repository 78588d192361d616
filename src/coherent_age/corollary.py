"""The k-out-of-n corollary as an index predicate.

The corollary's condition between a k-out-of-n and an l-out-of-m system is
a predicate on four integers, so this module imports nothing numeric and the
``corollary`` command runs without numpy.
"""

__all__ = ["corollary_index_check"]


def corollary_index_check(k: int, n: int, l: int, m: int, relation: str) -> bool:
    """Index predicate under which the k-out-of-n conclusions hold.

    c_star: k-out-of-n ages faster than l-out-of-m when k <= l and
    m - l <= n - k.  b_star: when l <= k and n - k <= m - l.
    """
    if not (1 <= k <= n and 1 <= l <= m):
        raise ValueError(f"need 1 <= k <= n and 1 <= l <= m, got k={k}, n={n}, l={l}, m={m}")
    if relation == "c_star":
        return k <= l and m - l <= n - k
    if relation == "b_star":
        return l <= k and n - k <= m - l
    raise ValueError(f"relation must be 'c_star' or 'b_star', got {relation!r}")
