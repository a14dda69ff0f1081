"""Checkpoint I/O and grid reporting.

Forests serialize to a single ``.npz`` file: block IDs (level + coords)
and the stacked interior data, plus the construction parameters needed
to rebuild the forest.  Ghost cells are not stored — they are
reconstructed by a ghost exchange after loading.

Checkpoints are written for *restart*, so the format is defensive:

* writes are atomic (``path + ".tmp"`` then :func:`os.replace`), so a
  crash mid-write never leaves a half-written file under the final name;
* every file carries a ``format_version`` field and a CRC32 content
  checksum over all arrays;
* :func:`load_forest` raises :class:`CheckpointError` — never a raw
  ``KeyError``/``ValueError`` — on truncated files, missing keys,
  version mismatches, checksum failures, or unreachable topologies, so
  a corrupt checkpoint is always rejected loudly instead of loaded
  silently.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.core.block_id import BlockID
from repro.core.forest import BlockForest, ForestError
from repro.util.geometry import Box

__all__ = [
    "CheckpointError",
    "FORMAT_VERSION",
    "save_forest",
    "load_forest",
    "checkpoint_metadata",
    "verify_checkpoint",
    "grid_report",
    "history_to_csv",
]

#: Checkpoint format version.  Version 2 added the version field itself,
#: the content checksum, and the optional simulation time/step metadata.
FORMAT_VERSION = 2

#: Keys every checkpoint must carry to be loadable.
_REQUIRED_KEYS = (
    "format_version",
    "checksum",
    "levels",
    "coords",
    "data",
    "domain_lo",
    "domain_hi",
    "n_root",
    "m",
    "nvar",
    "n_ghost",
    "periodic",
    "max_level",
    "max_level_jump",
    "prolong_order",
)


class CheckpointError(RuntimeError):
    """Raised when a checkpoint file is missing, corrupt, or incompatible."""


def _array_checksum(payload: Dict[str, np.ndarray]) -> int:
    """CRC32 over every array's name, dtype, shape, and bytes (sorted by
    name so the result is independent of insertion order)."""
    crc = 0
    for name in sorted(payload):
        if name == "checksum":
            continue
        arr = np.ascontiguousarray(payload[name])
        crc = zlib.crc32(name.encode(), crc)
        crc = zlib.crc32(str(arr.dtype).encode(), crc)
        crc = zlib.crc32(str(arr.shape).encode(), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc


def history_to_csv(history, path: "Union[str, Path]") -> None:
    """Dump a simulation's step history as CSV (step, time, dt, blocks,
    cells, refined, coarsened) — handy for plotting adaptation dynamics
    with any external tool.

    When the records carry per-step wall-clock timings (see
    :class:`repro.amr.driver.StepRecord`) a ``wall_time`` column is
    appended; when any record carries a fault-recovery duration (runs
    driven by :func:`repro.resilience.recovery.run_with_recovery`) a
    ``recovery_time`` column follows, so benchmark runs can track
    recovery cost over time.  An empty history produces a header-only
    file.
    """
    path = Path(path)
    records = list(history)
    has_wall = any(getattr(r, "wall_time", None) is not None for r in records)
    has_recovery = any(
        getattr(r, "recovery_time", None) is not None for r in records
    )
    with path.open("w") as f:
        header = "step,time,dt,n_blocks,n_cells,refined,coarsened"
        if has_wall:
            header += ",wall_time"
        if has_recovery:
            header += ",recovery_time"
        f.write(header + "\n")
        for rec in records:
            refined = rec.adapted.refined if rec.adapted else 0
            coarsened = rec.adapted.coarsened if rec.adapted else 0
            row = (
                f"{rec.step},{rec.time:.12g},{rec.dt:.12g},"
                f"{rec.n_blocks},{rec.n_cells},{refined},{coarsened}"
            )
            if has_wall:
                wall = getattr(rec, "wall_time", None)
                row += f",{wall:.6g}" if wall is not None else ","
            if has_recovery:
                rec_t = getattr(rec, "recovery_time", None)
                row += f",{rec_t:.6g}" if rec_t is not None else ","
            f.write(row + "\n")


def save_forest(
    forest: BlockForest,
    path: Union[str, Path],
    *,
    time: Optional[float] = None,
    step: Optional[int] = None,
) -> None:
    """Write a forest checkpoint (topology + interior data + metadata).

    The write is atomic: data goes to ``path + ".tmp"`` first and is
    moved into place with :func:`os.replace`, so readers never observe a
    partially written checkpoint.  ``time``/``step`` optionally record
    the simulation clock for restarts (see :func:`checkpoint_metadata`).
    """
    path = Path(path)
    ids = forest.sorted_ids()
    payload: Dict[str, np.ndarray] = {
        "levels": np.array([b.level for b in ids], dtype=np.int64),
        "coords": np.array([b.coords for b in ids], dtype=np.int64).reshape(
            len(ids), forest.ndim
        ),
        "data": np.stack([forest.blocks[b].interior for b in ids]),
        "domain_lo": np.array(forest.domain.lo),
        "domain_hi": np.array(forest.domain.hi),
        "n_root": np.array(forest.n_root, dtype=np.int64),
        "m": np.array(forest.m, dtype=np.int64),
        "nvar": np.int64(forest.nvar),
        "n_ghost": np.int64(forest.n_ghost),
        "periodic": np.array(forest.periodic, dtype=bool),
        "max_level": np.int64(forest.max_level),
        "max_level_jump": np.int64(forest.max_level_jump),
        "prolong_order": np.int64(forest.prolong_order),
        "format_version": np.int64(FORMAT_VERSION),
    }
    if time is not None:
        payload["sim_time"] = np.float64(time)
    if step is not None:
        payload["sim_step"] = np.int64(step)
    payload["checksum"] = np.uint32(_array_checksum(payload))
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # failed mid-write: don't leave debris
            tmp.unlink()


def _open_checkpoint(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read and verify a checkpoint file into an in-memory dict."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        with np.load(path) as f:
            payload = {name: f[name] for name in f.files}
    except CheckpointError:
        raise
    except Exception as exc:  # truncated zip, bad member CRC, ...
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc
    missing = [k for k in _REQUIRED_KEYS if k not in payload]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} is missing required keys: {', '.join(missing)}"
        )
    version = int(payload["format_version"])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, "
            f"expected {FORMAT_VERSION}"
        )
    stored = int(payload["checksum"])
    actual = _array_checksum(payload)
    if stored != actual:
        raise CheckpointError(
            f"checkpoint {path} failed checksum verification "
            f"(stored {stored:#010x}, computed {actual:#010x}); "
            "the file is corrupt"
        )
    return payload


def checkpoint_metadata(path: Union[str, Path]) -> Dict[str, float]:
    """Verified metadata of a checkpoint without rebuilding the forest.

    Returns ``format_version``, ``n_blocks``, and — when the writer
    recorded them — ``time`` and ``step``.
    """
    payload = _open_checkpoint(path)
    meta: Dict[str, float] = {
        "format_version": int(payload["format_version"]),
        "n_blocks": int(payload["levels"].shape[0]),
    }
    if "sim_time" in payload:
        meta["time"] = float(payload["sim_time"])
    if "sim_step" in payload:
        meta["step"] = int(payload["sim_step"])
    return meta


def verify_checkpoint(path: Union[str, Path]) -> Dict[str, object]:
    """Audit one checkpoint file without rebuilding the forest.

    Unlike :func:`checkpoint_metadata` this never raises: every failure
    mode (missing file, truncated zip, missing keys, version mismatch,
    checksum mismatch) is folded into the returned record, so a
    directory audit can tabulate good and bad files side by side.

    Returns a dict with ``path``, ``ok`` and ``error`` always present;
    readable files additionally carry ``format_version``, ``n_blocks``,
    ``stored_crc`` and ``computed_crc`` (equal iff the content is
    intact) plus ``step``/``time`` when the writer recorded them.
    """
    path = Path(path)
    record: Dict[str, object] = {"path": path, "ok": False, "error": None}
    try:
        with np.load(path) as f:
            payload = {name: f[name] for name in f.files}
    except Exception as exc:  # missing, truncated zip, bad member CRC, ...
        record["error"] = str(exc)
        return record
    missing = [k for k in _REQUIRED_KEYS if k not in payload]
    if missing:
        record["error"] = f"missing required keys: {', '.join(missing)}"
        return record
    record["format_version"] = int(payload["format_version"])
    record["n_blocks"] = int(payload["levels"].shape[0])
    if "sim_step" in payload:
        record["step"] = int(payload["sim_step"])
    if "sim_time" in payload:
        record["time"] = float(payload["sim_time"])
    stored = int(payload["checksum"])
    computed = _array_checksum(payload)
    record["stored_crc"] = stored
    record["computed_crc"] = computed
    if int(payload["format_version"]) != FORMAT_VERSION:
        record["error"] = (
            f"format version {int(payload['format_version'])}, "
            f"expected {FORMAT_VERSION}"
        )
    elif stored != computed:
        record["error"] = (
            f"checksum mismatch (stored {stored:#010x}, "
            f"computed {computed:#010x})"
        )
    else:
        record["ok"] = True
    return record


def load_forest(path: Union[str, Path]) -> BlockForest:
    """Rebuild a forest from a checkpoint (ghosts left unfilled).

    Raises :class:`CheckpointError` if the file is truncated, fails its
    checksum, was written by a different format version, or encodes a
    topology not reachable by pure refinement from the root tiling.
    """
    f = _open_checkpoint(path)
    domain = Box(tuple(f["domain_lo"]), tuple(f["domain_hi"]))
    forest = BlockForest(
        domain,
        tuple(int(x) for x in f["n_root"]),
        tuple(int(x) for x in f["m"]),
        int(f["nvar"]),
        n_ghost=int(f["n_ghost"]),
        periodic=tuple(bool(x) for x in f["periodic"]),
        max_level=int(f["max_level"]),
        max_level_jump=int(f["max_level_jump"]),
        prolong_order=int(f["prolong_order"]),
    )
    ids = [
        BlockID(int(lvl), tuple(int(c) for c in cs))
        for lvl, cs in zip(f["levels"], f["coords"])
    ]
    expected_shape = (len(ids), forest.nvar) + forest.m
    if f["data"].shape != expected_shape:
        raise CheckpointError(
            f"checkpoint {path} data array has shape {f['data'].shape}, "
            f"expected {expected_shape}"
        )
    # Reconstruct the topology: refine until exactly the saved leaf
    # set exists.  A live leaf is then either saved or a proper ancestor
    # of a saved leaf (and must split); anything else — or a saved leaf
    # that would have to split — can never become the saved set, and
    # refining on in search of it is exponential in ``max_level``.
    target = set(ids)
    ancestors = set()
    for bid in target:
        while bid.level > 0 and bid.parent not in ancestors:
            bid = bid.parent
            ancestors.add(bid)
    unreachable = CheckpointError(
        f"checkpoint {path} topology is not reachable by pure refinement "
        "from the root tiling"
    )
    if not ancestors.isdisjoint(target):
        raise unreachable
    changed = True
    while changed:
        changed = False
        for bid in list(forest.blocks):
            if bid in target:
                continue
            if bid not in ancestors or bid.level >= forest.max_level:
                raise unreachable
            try:
                forest.refine(bid, update=False)
            except ForestError as exc:
                raise unreachable from exc
            changed = True
    forest.update_neighbors()
    if set(forest.blocks) != target:
        raise unreachable
    for bid, block_data in zip(ids, f["data"]):
        forest.blocks[bid].interior[...] = block_data
    return forest


def grid_report(forest: BlockForest) -> str:
    """Human-readable summary of a forest (blocks, cells, levels,
    ghost overhead, neighbor stats)."""
    hist = forest.level_histogram()
    stats = forest.neighbor_count_stats()
    lines = [
        f"blocks: {forest.n_blocks}   cells: {forest.n_cells}",
        f"block size: {'x'.join(map(str, forest.m))}   ghost width: {forest.n_ghost}",
        f"levels: {forest.levels[0]}..{forest.levels[1]}   "
        + "  ".join(f"L{k}:{v}" for k, v in hist.items()),
        f"ghost/computational cell ratio: {forest.ghost_cell_ratio():.3f}",
        f"face neighbors: max {stats['max']:.0f}, mean {stats['mean']:.2f}",
        f"refinements: {forest.n_refinements}   coarsenings: {forest.n_coarsenings}",
    ]
    return "\n".join(lines)
