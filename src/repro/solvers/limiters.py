"""Slope limiters for MUSCL (higher-resolution) reconstruction.

Given the one-sided differences ``a = q_i - q_{i-1}`` and
``b = q_{i+1} - q_i``, a limiter returns the limited cell slope.  All
limiters are total-variation-diminishing: they return zero at extrema
(where the differences disagree in sign) so reconstruction introduces no
new extrema — the van Leer higher-resolution framework the paper cites
as reference [6].

Each limiter writes its result and temporaries into ``work`` (see
:mod:`repro.solvers.workspace`).  The formula in each docstring is
evaluated one numpy operation at a time, in that order, and every
``where`` becomes a masked ``np.copyto`` that picks the same values.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.solvers.workspace import Workspace, scratch

__all__ = ["minmod", "van_leer", "mc", "superbee", "get_limiter", "LIMITERS"]

Limiter = Callable[..., np.ndarray]


def _opposed(a: np.ndarray, b: np.ndarray, work: Workspace) -> np.ndarray:
    """``not (a * b > 0.0)``: where every limiter returns zero."""
    ab = np.multiply(a, b, out=work.take(a.shape))
    mask = np.greater(ab, 0.0, out=work.take(a.shape, np.bool_))
    return np.logical_not(mask, out=mask)


def minmod(a: np.ndarray, b: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
    """The most diffusive TVD limiter: smaller-magnitude difference.

    ``where(a * b > 0, where(|a| < |b|, a, b), 0)``."""
    work = scratch(work)
    opposed = _opposed(a, b, work)
    abs_a = np.abs(a, out=work.take(a.shape))
    abs_b = np.abs(b, out=work.take(a.shape))
    smaller = np.less(abs_a, abs_b, out=work.take(a.shape, np.bool_))
    out = work.take(a.shape)
    np.copyto(out, b)
    np.copyto(out, a, where=smaller)
    np.copyto(out, 0.0, where=opposed)
    return out


def van_leer(a: np.ndarray, b: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
    """Van Leer's harmonic-mean limiter (smooth, second order).

    ``where(a * b > 0, 2 a b / safe, 0)`` with ``safe = a + b``, or 1
    where ``|a + b| <= 1e-300``."""
    work = scratch(work)
    opposed = _opposed(a, b, work)
    safe = np.add(a, b, out=work.take(a.shape))
    tiny = np.abs(safe, out=work.take(a.shape))
    tiny_mask = np.greater(tiny, 1e-300, out=work.take(a.shape, np.bool_))
    np.logical_not(tiny_mask, out=tiny_mask)
    np.copyto(safe, 1.0, where=tiny_mask)
    out = np.multiply(2.0, a, out=work.take(a.shape))
    out *= b
    out /= safe
    np.copyto(out, 0.0, where=opposed)
    return out


def mc(a: np.ndarray, b: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
    """Monotonized-central limiter: min(2|a|, 2|b|, |a+b|/2), signed.

    ``where(a * b > 0, sign(c) * min(min(2|a|, 2|b|), |c|), 0)`` with
    ``c = 0.5 (a + b)``."""
    work = scratch(work)
    opposed = _opposed(a, b, work)
    central = np.add(a, b, out=work.take(a.shape))
    central *= 0.5
    lim = np.abs(a, out=work.take(a.shape))
    lim *= 2.0
    other = np.abs(b, out=work.take(a.shape))
    other *= 2.0
    np.minimum(lim, other, out=lim)
    np.minimum(lim, np.abs(central, out=other), out=lim)
    out = np.sign(central, out=central)
    out *= lim
    np.copyto(out, 0.0, where=opposed)
    return out


def superbee(a: np.ndarray, b: np.ndarray, work: Optional[Workspace] = None) -> np.ndarray:
    """Roe's superbee: the most compressive classic TVD limiter.

    ``where(a * b > 0, where(|s1| > |s2|, s1, s2), 0)`` with
    ``s1 = where(|a| < |2b|, a, 2b)``, ``s2 = where(|2a| < |b|, 2a, b)``."""
    work = scratch(work)
    opposed = _opposed(a, b, work)
    abs_x = work.take(a.shape)
    abs_y = work.take(a.shape)
    mask = work.take(a.shape, np.bool_)
    s1 = np.multiply(2, b, out=work.take(a.shape))
    np.less(np.abs(a, out=abs_x), np.abs(s1, out=abs_y), out=mask)
    np.copyto(s1, a, where=mask)
    s2 = np.multiply(2, a, out=work.take(a.shape))
    np.less(np.abs(s2, out=abs_x), np.abs(b, out=abs_y), out=mask)
    np.copyto(s2, b, where=np.logical_not(mask, out=mask))
    np.greater(np.abs(s1, out=abs_x), np.abs(s2, out=abs_y), out=mask)
    np.copyto(s2, s1, where=mask)  # the pick
    np.copyto(s2, 0.0, where=opposed)
    return s2


LIMITERS: Dict[str, Limiter] = {
    "minmod": minmod,
    "van_leer": van_leer,
    "mc": mc,
    "superbee": superbee,
}


def get_limiter(name: str) -> Limiter:
    """Look up a limiter by name; raises ValueError for unknown names."""
    try:
        return LIMITERS[name]
    except KeyError:
        raise ValueError(
            f"unknown limiter {name!r}; available: {sorted(LIMITERS)}"
        ) from None
