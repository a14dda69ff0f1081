"""One flat scratch buffer for the stage kernel's intermediates.

Every intermediate of :meth:`repro.solvers.scheme.FVScheme.flux_divergence`
— primitives, pencils, slopes, face states, fluxes, wave speeds, the
Powell source — is a view carved out of one flat buffer owned by the
caller, AMReX's per-tile ``FArrayBox`` scratch in numpy form: the tile
loop (:class:`repro.solvers.sweep.PoolSweep`) keeps one
:class:`Workspace` and every kernel call reuses it, so once the first
call of a shape has sized it a sweep allocates nothing.  Callers without
one get a throwaway workspace (:func:`scratch`), which allocates each
intermediate afresh — the same code, the same operations.

Calls share memory, never values: every view a call takes is written
before it is read (``tests/test_batched_engine.py`` poisons the buffer
with NaN before every tile to prove it).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["Workspace", "scratch"]

#: Byte alignment of every view (one cache line).
_ALIGN = 64


class Workspace:
    """Bump allocator over one flat buffer, reset once per kernel call.

    :meth:`take` hands out uninitialised views in call order.  A call
    that needs more than the buffer holds gets plain arrays for the
    overflow, and the next :meth:`reset` grows the buffer to that call's
    high-water mark.  :meth:`mark` / :meth:`release` scope the scratch
    of one axis, one hook, one limiter, so that the next reuses its
    memory.  :meth:`shared` computes a value of an array once per scope
    (the MHD layout's ``|B|^2`` and floors, used by the flux, the
    conversion and the wave speed of the same face states).
    """

    def __init__(self) -> None:
        self._buf = np.empty(0, np.uint8)
        self._top = 0
        self._peak = 0
        #: (offset, shape, dtype) -> (view, end offset): a call repeats
        #: the previous call's takes, so views are made once
        self._views: Dict[Tuple[int, tuple, Any], Tuple[np.ndarray, int]] = {}
        #: (id(array), name) -> (array, value, offset the value starts at)
        self._memo: Dict[Tuple[int, str], Tuple[np.ndarray, Any, int]] = {}

    @property
    def buffer(self) -> np.ndarray:
        """The flat byte buffer every view of the current size lives in."""
        return self._buf

    def reset(self) -> None:
        """Start a kernel call: every earlier view may be overwritten."""
        if self._peak > self._buf.size:
            self._buf = np.empty(self._peak, np.uint8)
            self._views.clear()
        self._top = 0
        self._memo.clear()

    def take(self, shape: Tuple[int, ...], dtype: Any = np.float64) -> np.ndarray:
        """An uninitialised ``shape`` array, valid until the scope that
        took it is released or the workspace is reset."""
        key = (self._top, shape, dtype)
        hit = self._views.get(key)
        if hit is not None:
            view, self._top = hit
            return view
        nbytes = math.prod(shape) * (8 if dtype is np.float64 else np.dtype(dtype).itemsize)
        start = self._top
        self._top = start + -(-nbytes // _ALIGN) * _ALIGN
        self._peak = max(self._peak, self._top)
        if self._top > self._buf.size:
            return np.empty(shape, dtype)
        view = self._buf[start:start + nbytes].view(dtype).reshape(shape)
        self._views[key] = (view, self._top)
        return view

    def like(self, a: np.ndarray) -> np.ndarray:
        """An uninitialised float64 array shaped *and laid out* like ``a``
        (``np.empty_like``'s memory order): elementwise operations
        between the two then run without numpy's transposing buffers."""
        if a.flags.c_contiguous:
            return self.take(a.shape)
        order = sorted(range(a.ndim), key=lambda i: -a.strides[i])
        buf = self.take(tuple(a.shape[i] for i in order))
        return buf.transpose(np.argsort(order))

    def copy(self, a: np.ndarray) -> np.ndarray:
        """A C-contiguous copy of ``a``."""
        out = self.take(a.shape)
        np.copyto(out, a)
        return out

    def contiguous(self, a: np.ndarray) -> np.ndarray:
        """``a``, or a C-contiguous copy of it (numpy buffers strided
        operands, at two to three times the cost of contiguous ones)."""
        return a if a.flags.c_contiguous else self.copy(a)

    def full(self, shape: Tuple[int, ...], value: float) -> np.ndarray:
        """A ``shape`` array of ``value``."""
        out = self.take(shape)
        out[...] = value
        return out

    def mark(self) -> int:
        """Open a scope: views taken from here on die at :meth:`release`."""
        return self._top

    def release(self, mark: int) -> None:
        """Close the scope :meth:`mark` opened (and forget the
        :meth:`shared` values it held)."""
        self._top = mark
        if self._memo:
            self._memo = {k: v for k, v in self._memo.items() if v[2] < mark}

    def shared(self, w: np.ndarray, name: str, compute: Callable[[], Any]) -> Any:
        """``compute()`` once per array ``w`` and ``name``, until the scope
        it was computed in is released or the workspace is reset."""
        key = (id(w), name)
        hit = self._memo.get(key)
        if hit is None or hit[0] is not w:
            start = self._top
            hit = self._memo[key] = (w, compute(), start)
        return hit[1]


class _Allocating(Workspace):
    """The throwaway workspace: every view is a fresh array (the buffer
    bookkeeping would only slow down a call that is never repeated)."""

    def take(self, shape: Tuple[int, ...], dtype: Any = np.float64) -> np.ndarray:
        self._top += 1  # orders scopes and shared values, as offsets do
        return np.empty(shape, dtype)


def scratch(work: Optional[Workspace]) -> Workspace:
    """``work``, or a throwaway workspace that allocates as it goes."""
    return _Allocating() if work is None else work
