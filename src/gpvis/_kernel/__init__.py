"""Kernel backend selection.

Two interchangeable engines implement the hot primitives (pair visibility,
set verification, branch-and-bound maximum-set search): ``pure`` uses
Python integers as bitsets and works for any order, ``fast`` is a
hand-written C mirror of it (``_fast.c``) restricted to order <= 64.
The compiled kernel is preferred when it imported successfully; set
GPVIS_KERNEL=pure or GPVIS_KERNEL=fast to force a backend.  Orders above
64 always use the pure kernel.
"""

from __future__ import annotations

import os

from . import pure

try:
    from . import _fast as fast  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - build environment dependent
    fast = None

_FAST_MAX_N = 64


def _forced(raw: str) -> str | None:
    """The backend that a raw GPVIS_KERNEL value forces."""
    value = raw.strip().lower()
    if not value:
        return None
    if value not in ("pure", "fast"):
        raise ValueError(f"GPVIS_KERNEL must be 'pure' or 'fast', got {value!r}")
    if value == "fast" and fast is None:
        raise ImportError(
            "GPVIS_KERNEL=fast but the compiled kernel is not available; "
            "rebuild the package or unset GPVIS_KERNEL"
        )
    return value


def get_kernel(n: int | None = None):
    """Return the backend module to use for a graph of order ``n``."""
    choice = _forced(os.environ.get("GPVIS_KERNEL", ""))
    if choice == "pure":
        return pure
    if n is not None and n > _FAST_MAX_N:
        return pure
    if fast is not None:
        return fast
    if choice == "fast":  # pragma: no cover - guarded in _forced
        raise ImportError("compiled kernel unavailable")
    return pure


def backend_name(n: int | None = None) -> str:
    return get_kernel(n).NAME
