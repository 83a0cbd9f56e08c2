"""Small, shared argument-validation helpers.

These keep error messages consistent across the package and avoid
re-implementing the same bounds checks in every public entry point.
All helpers raise the exception class passed as ``err`` so each
subpackage can surface its own error type.
"""

from __future__ import annotations

from typing import Any, Optional, Type

from .errors import ReproError

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_fraction",
    "check_support",
    "check_query",
    "support_count",
]


def support_count(ratio: float, n_transactions: int) -> int:
    """Absolute support count for a fractional threshold.

    A ratio ``r`` means "support ratio >= r", i.e. an absolute count of
    ``ceil(r * n_transactions)``, floored at 1 so empty or tiny
    databases still have a meaningful threshold. This is the single
    rounding rule every miner shares — Partition's per-chunk local
    thresholds use it too, so local and global acceptance agree.
    """
    # ceil without importing math: -(-x // 1) rounds x up.
    return max(1, int(-(-ratio * n_transactions // 1)))


def check_positive_int(value: Any, name: str, err: Type[ReproError] = ReproError) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as ``int``.

    Booleans are rejected even though they are ``int`` subclasses, because
    a ``True`` block size or item count is almost certainly a bug.
    """
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise err(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise err(f"{name} must be >= 1, got {value}")
    return int(value)


def check_non_negative_int(value: Any, name: str, err: Type[ReproError] = ReproError) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise err(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise err(f"{name} must be >= 0, got {value}")
    return int(value)


def check_fraction(value: Any, name: str, err: Type[ReproError] = ReproError) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise err(f"{name} must be a number in [0, 1], got {value!r}") from None
    if not 0.0 <= out <= 1.0:
        raise err(f"{name} must be in [0, 1], got {out}")
    return out


def check_support(min_support: Any, n_transactions: int, err: Type[ReproError]) -> int:
    """Normalize a minimum-support argument to an absolute count.

    ``min_support`` may be a fraction in (0, 1] (a *support ratio*, as the
    paper uses) or an absolute integer count in [1, n_transactions].
    Returns the absolute count; a fractional threshold is rounded up, which
    matches the paper's ``support_ratio >= threshold`` acceptance rule.
    """
    if isinstance(min_support, bool):
        raise err("min_support must be a fraction or an absolute count, got bool")
    if isinstance(min_support, float):
        if not 0.0 < min_support <= 1.0:
            raise err(f"fractional min_support must be in (0, 1], got {min_support}")
        return support_count(min_support, n_transactions)
    if isinstance(min_support, int):
        if min_support < 1:
            raise err(f"absolute min_support must be >= 1, got {min_support}")
        if n_transactions and min_support > n_transactions:
            raise err(
                f"absolute min_support {min_support} exceeds the number of "
                f"transactions {n_transactions}"
            )
        return min_support
    raise err(
        f"min_support must be a float ratio or int count, got {type(min_support).__name__}"
    )


def check_query(
    min_support: Any, n_transactions: int, max_k: Optional[int], err: Type[ReproError]
) -> int:
    """:func:`check_support`, then ``max_k`` (``None`` or an int >= 1): every miner's prologue."""
    min_count = check_support(min_support, n_transactions, err)
    if max_k is not None:
        check_positive_int(max_k, "max_k", err)
    return min_count
