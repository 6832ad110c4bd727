"""Capacity limits for the exact algorithms, passed in by the caller."""

from __future__ import annotations

import os

from .records import frozen


class CapacityError(Exception):
    """A requested computation exceeds the configured exact-search limits."""


@frozen
class Limits:
    """Bounds for the exhaustive parts of the toolkit.

    The caller passes them in; a library call never reads the environment.
    The CLI builds its own with from_env().

    canonical_max_n: largest graph the canonical-form search will accept
    coloring_budget: maximum number of colorings or switch sets an
        exponential search may enumerate in the worst case, checked before
        it starts (k-threshold for k >= 3, the brute-force oracles, the
        depth-first switch-cograph certificate search); the pruned
        coloring and switch searches usually stop far below it, and the
        polynomial searches, 2-colored ones included, need no bound
    enumeration_max_n: largest size the isomorph-free generator will produce
    """

    canonical_max_n: int = 10
    coloring_budget: int = 1 << 20
    enumeration_max_n: int = 8

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

        return cls(
            canonical_max_n=pick("THRESHKIT_CANONICAL_MAX_N", cls.canonical_max_n),
            coloring_budget=pick("THRESHKIT_COLORING_BUDGET", cls.coloring_budget),
            enumeration_max_n=pick("THRESHKIT_ENUMERATION_MAX_N", cls.enumeration_max_n),
        )


DEFAULT_LIMITS = Limits()
