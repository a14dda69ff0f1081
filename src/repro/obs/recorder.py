"""Structured JSONL run-event stream.

A :class:`RunRecorder` appends one JSON object per line to a file (or
any text stream): the machine-readable twin of the driver's progress
printout.  Every event carries the envelope

``{"v": <schema>, "t": <monotonic seconds>, "kind": <event kind>, ...}``

plus the kind's required payload (see :data:`EVENT_SCHEMA`).  Timestamps
are read through :func:`repro.util.timing.wall_clock` — the repo's only
sanctioned time source for deterministic-replay code — so recording a
sanitized or fault-recovered run never perturbs it and a
replay harness can stub one function to script time.

The stream is append-only and flushed per event, so a crashed run still
leaves a parseable prefix.  :func:`read_events` and
:func:`validate_events` are the consumer half: ``repro report`` and the
CI ``obs-smoke`` job read a stream back and check it against the schema
before rendering.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, IO, List, Optional, Union

from repro.util.timing import wall_clock

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_SCHEMA",
    "RunRecorder",
    "read_events",
    "validate_events",
]

#: Version of the event envelope; bump on incompatible changes.
SCHEMA_VERSION = 1

#: Required payload fields per event kind (the envelope fields ``v``,
#: ``t``, ``kind`` are implicit).  Extra fields are always allowed —
#: consumers read only the keys they know, like the BENCH_*.json
#: records.
EVENT_SCHEMA: Dict[str, FrozenSet[str]] = {
    # run identification: what produced this stream
    "meta": frozenset({"source"}),
    # one completed driver/machine step
    "step": frozenset({"step", "t_sim", "dt", "n_blocks", "n_cells"}),
    # one adaptation that changed the forest
    "adapt": frozenset({"step", "refined", "coarsened"}),
    # wire-traffic totals of an emulated run
    "exchange": frozenset({"n_messages", "n_bytes"}),
    # one fault recovery (localized or global rollback)
    "recovery": frozenset({"step", "fault", "strategy", "replayed_steps"}),
    # one scrub-detected silent-data-corruption incident and the
    # self-healing action taken (mirror-repair | rewind | rollback)
    "corruption": frozenset({"step", "regions", "action"}),
    # one supervision action of the real-process backend (rank death,
    # respawn, degradation); the event name carries its own fields
    "supervisor": frozenset({"event"}),
    # one engine's profiled run: phase breakdown + headline numbers
    "profile": frozenset({"engine", "wall_s", "phases"}),
    # cross-engine comparison written once per profiled run
    "summary": frozenset({"engines"}),
}


class RunRecorder:
    """Append structured run events to a JSONL file or stream.

    Parameters
    ----------
    target:
        Path to create/truncate, or an open text stream to append to
        (the stream is then *not* closed by :meth:`close`).
    clock:
        Timestamp source; defaults to
        :func:`repro.util.timing.wall_clock`.  Tests inject a scripted
        clock to make streams reproducible.
    """

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        *,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        self._clock = clock
        self.n_events = 0
        self._stream: Optional[IO[str]]
        if isinstance(target, (str, Path)):
            self.path: Optional[Path] = Path(target)
            self._stream = self.path.open("w")
            self._owns_stream = True
        else:
            self.path = None
            self._stream = target
            self._owns_stream = False

    def emit(self, kind: str, **payload: Any) -> Dict[str, Any]:
        """Write one event; returns the full event dict.

        Raises ``ValueError`` for an unknown kind or missing required
        fields — a recorder bug should fail loudly at the write site,
        not show up later as an invalid stream.
        """
        required = EVENT_SCHEMA.get(kind)
        if required is None:
            raise ValueError(
                f"unknown event kind {kind!r}; known: "
                f"{', '.join(sorted(EVENT_SCHEMA))}"
            )
        missing = required - payload.keys()
        if missing:
            raise ValueError(
                f"event kind {kind!r} requires field(s) "
                f"{', '.join(sorted(missing))}"
            )
        if self._stream is None:
            raise ValueError("recorder is closed")
        event: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "t": self._clock(),
            "kind": kind,
        }
        event.update(payload)
        self._stream.write(json.dumps(event, sort_keys=True) + "\n")
        self._stream.flush()
        self.n_events += 1
        return event

    def close(self) -> None:
        """Close an owned file (idempotent; streams are left open)."""
        if self._stream is not None and self._owns_stream:
            self._stream.close()
        self._stream = None

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL event stream back into a list of event dicts.

    Raises ``ValueError`` on a line that is not a JSON object (a
    truncated final line from a crashed run is reported with its line
    number).
    """
    events: List[Dict[str, Any]] = []
    with Path(path).open() as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc.msg})"
                ) from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: event is not an object")
            events.append(obj)
    return events


def validate_events(events: List[Dict[str, Any]]) -> List[str]:
    """Check an event stream against the schema.

    Returns a list of human-readable problems (empty for a valid
    stream): envelope fields present, schema version known, event kinds
    known, required payload fields present, and timestamps
    non-decreasing (they come from one monotonic clock).
    """
    problems: List[str] = []
    last_t: Optional[float] = None
    for i, ev in enumerate(events):
        where = f"event {i}"
        for key in ("v", "t", "kind"):
            if key not in ev:
                problems.append(f"{where}: missing envelope field {key!r}")
        if ev.get("v") is not None and ev["v"] != SCHEMA_VERSION:
            problems.append(
                f"{where}: schema version {ev['v']!r} != {SCHEMA_VERSION}"
            )
        kind = ev.get("kind")
        if kind is not None:
            required = EVENT_SCHEMA.get(kind)
            if required is None:
                problems.append(f"{where}: unknown kind {kind!r}")
            else:
                missing = required - ev.keys()
                if missing:
                    problems.append(
                        f"{where} ({kind}): missing field(s) "
                        f"{', '.join(sorted(missing))}"
                    )
        t = ev.get("t")
        if isinstance(t, (int, float)):
            if last_t is not None and t < last_t:
                problems.append(
                    f"{where}: timestamp {t} decreases (previous {last_t})"
                )
            last_t = float(t)
        elif t is not None:
            problems.append(f"{where}: timestamp is not a number")
    return problems
