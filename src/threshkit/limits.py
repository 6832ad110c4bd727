"""Capacity limits for the exact algorithms, passed in by the caller."""

from __future__ import annotations

import os

from .records import frozen


class CapacityError(Exception):
    """A requested computation exceeds the configured exact-search limits."""


# each Limits field -> the variable that sets it on the CLI
ENV_VARS = {
    "canonical_max_n": "THRESHKIT_CANONICAL_MAX_N",
    "coloring_budget": "THRESHKIT_COLORING_BUDGET",
    "enumeration_max_n": "THRESHKIT_ENUMERATION_MAX_N",
}


@frozen
class Limits:
    """Bounds for the exhaustive parts of the toolkit.

    The caller passes them in; a library call never reads the environment.
    The CLI builds its own with from_env(), each field from its ENV_VARS
    variable. Every guarded search calls require() before its work, so a
    refusal always names the field, its bound and that variable.

    canonical_max_n: largest graph the canonical-form search will accept
    coloring_budget: maximum number of colorings or switch sets an
        exponential search may enumerate in the worst case, checked before
        it starts (k-threshold for k >= 3, the walk over a switching
        class, the special and switching suites, whose oracles may keep
        every coloring or switch set of a class);
        the pruned coloring search usually stops far below it, and the
        polynomial searches, 2-colored ones and both switch searches
        included, need no bound
    enumeration_max_n: largest size the isomorph-free generator will produce
    """

    canonical_max_n: int = 10
    coloring_budget: int = 1 << 20
    enumeration_max_n: int = 8

    def require(self, field: str, value: int, what: str) -> None:
        """Raise CapacityError when value exceeds the bound named field;
        what is the message up to the bound, as in "2^21 switch sets exceed"."""
        bound = getattr(self, field)
        if value > bound:
            raise CapacityError(f"{what} {field} {bound} (set {ENV_VARS[field]})")

    @classmethod
    def from_env(cls) -> Limits:
        """The defaults, overridden by THRESHKIT_* variables.

        Raises ValueError naming the variable when a value is not a
        non-negative integer.
        """

        def pick(name: str, default: int) -> int:
            raw = os.environ.get(name)
            if raw is None:
                return default
            try:
                value = int(raw)
            except ValueError:
                value = -1
            if value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {raw!r}")
            return value

        return cls(**{field: pick(name, getattr(cls, field)) for field, name in ENV_VARS.items()})


DEFAULT_LIMITS = Limits()
