"""Canonical checksum path (SDC defense).

This module is the *single* owner of content checksums for live
simulation state.  Lint rule REPRO105 forbids ``zlib``/``hashlib``
checksum calls outside the integrity/checkpoint/supervisor modules so
there is exactly one way a block, a mirror copy, or a wire payload gets
tagged — and therefore exactly one place a tag-format change has to
happen.

:func:`content_crc` / :func:`crc_bytes` / :func:`crc_text` are the
canonical CRC32 helpers everything else calls.  The verification pass
itself (the tags, what to scrub, when, and how to heal) lives in
:mod:`repro.resilience.scrub`; this module is deliberately
dependency-free so ``core`` never imports ``resilience``.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "content_crc",
    "crc_bytes",
    "crc_text",
]


def crc_bytes(data: bytes) -> int:
    """CRC32 of raw bytes, normalized to an unsigned 32-bit value."""
    return zlib.crc32(data) & 0xFFFFFFFF


def crc_text(text: str) -> int:
    """CRC32 of a string (UTF-8) — deterministic hashing for seeds/jitter."""
    return crc_bytes(text.encode("utf-8"))


def content_crc(arr: np.ndarray) -> int:
    """CRC32 of an array's contents.

    Contiguity-normalized (C order), so a strided interior view and a
    compacted copy of the same cells produce the same tag.
    """
    return crc_bytes(np.ascontiguousarray(arr).tobytes())
