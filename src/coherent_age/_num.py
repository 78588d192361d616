"""The one rule that reads a run spec, and the one tolerance rule.

Every field of a spec passes through the rule here: a JSON object's field
names through ``_require``, each number through ``_number`` (an int or
float, never a bool or a string), each real through ``_real`` and each
integer through ``_integer``.  ``read_fragment`` reads a margin or copula
fragment under the same rule: its field list and defaults are the family
class's constructor fields, so no family keeps a key table of its own.  The
module imports neither numpy nor ``dataclasses``, so the ``corollary``
command reads its spec without them: ``read_fragment`` imports
``dataclasses`` when it runs, after the family classes' own modules have
loaded it.
"""

from __future__ import annotations

import math
import sys


class SpecError(ValueError):
    """Raised for any schema violation in a run spec; maps to exit code 1."""


def _tolerance(value: float, what: str) -> None:
    """The one tolerance rule, of VerifyConfig and orders.verdict alike:
    finite and >= 0, else ValueError."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")


def _require(d: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise SpecError(f"{where} must be a JSON object")
    unknown = set(d) - required - optional
    if unknown:
        raise SpecError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise SpecError(f"missing fields in {where}: {sorted(missing)}")


def _number(value, what: str) -> int | float:
    """A spec number: an int or float (a JSON one, or numpy's), not a bool
    and not a string.  No numpy scalar exists before numpy is loaded, so the
    rule looks numpy up instead of importing it."""
    np = sys.modules.get("numpy")
    kinds = (int, float) if np is None else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise SpecError(f"{what} must be a number, got {value!r}")
    return value


def _real(value, what: str) -> float:
    """A spec number read as a float; an integer beyond the float range is refused."""
    try:
        return float(_number(value, what))
    except OverflowError:
        raise SpecError(f"{what} is too large for a float") from None


def _integer(value, what: str) -> int:
    """A spec integer: a spec number with an integral value (31.0 reads as 31)."""
    value = _number(value, what)
    # a numpy integer always fits a float; a Python int may not
    if not isinstance(value, int) and not float(value).is_integer():
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return int(value)


def read_fragment(fragment, tag: str, families: dict[str, type], where: str, **fixed):
    """Build the family named by ``fragment[tag]`` from the fragment's reals.

    The fields a fragment may carry are the family's constructor fields
    other than ``fixed`` (arguments the caller supplies, such as a copula's
    dimension); those without a default are required.  A value the family
    constructor refuses is reported against ``where``.
    """
    import dataclasses

    if not isinstance(fragment, dict):
        raise SpecError(f"{where} must be a JSON object")
    name = fragment.get(tag)
    # a list or object as the tag is unhashable, so test the type first
    if not isinstance(name, str) or name not in families:
        raise SpecError(f"{where}.{tag} must be one of {sorted(families)}, got {name!r}")
    cls = families[name]
    fields = [f for f in dataclasses.fields(cls) if f.init and f.name not in fixed]
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    _require(fragment, required | {tag}, {f.name for f in fields}, where)
    params = {key: _real(value, f"{where}.{key}") for key, value in fragment.items() if key != tag}
    try:
        return cls(**params, **fixed)
    except ValueError as exc:
        raise SpecError(f"invalid {where}: {exc}") from exc
