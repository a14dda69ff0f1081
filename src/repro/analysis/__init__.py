"""Static and dynamic correctness tooling for the adaptive-block code.

Two independent layers, both opt-in and zero-cost when disabled:

* :mod:`repro.analysis.poison` — a runtime **ghost-poison sanitizer**:
  ghost layers are filled with a signaling-NaN bit pattern before every
  exchange and the exact region each stencil kernel reads is verified
  clean afterwards, so a stale or never-filled ghost read is reported
  (block, face, cell count) instead of silently corrupting fluxes.
  On the rank machines it localizes a transfer missing from the
  schedule; an ordering fault there (stages swapped, a phase skipped)
  shows as a bitwise difference from the serial driver instead.
* :mod:`repro.analysis.lint` — a custom **AST lint** (``repro lint``)
  encoding project invariants (no ``Block.data`` mutation outside
  kernel modules, no unseeded RNG, no bare ``except`` in recovery
  paths, no wall-clock reads in deterministic-replay code) with
  per-rule codes and ``# repro: noqa[RULE]`` suppression.

A third, fully static layer verifies the distributed backends
(``repro check``):

* :mod:`repro.analysis.protocol` — a declarative, machine-readable
  **spec of the supervisor/worker wire protocol** (phases, sequence
  numbers, CRC-checked replies, supervision timeouts, fault
  transitions, the heal ladder) plus an AST conformance layer that
  keeps the spec honest against the real modules;
* :mod:`repro.analysis.effects` — a **phase-effect analyzer** inferring
  which arena regions (interior/ghost/mirror/staging) each
  ``@phase_effect``-annotated function reads and writes, checked
  against the spec's per-phase contracts (lint rule REPRO106);
* :mod:`repro.analysis.modelcheck` — a bounded **explicit-state model
  checker** exploring protocol interleavings under fault injection and
  reporting deadlocks, lost wakeups, sequence divergence, double-frees,
  and unverified-mirror heals as replayable counterexample schedules.

See ``docs/static-analysis.md`` for the rule catalog and semantics.
"""

from repro.analysis.effects import (
    FunctionEffects,
    check_source as effect_check_source,
    infer_module_effects,
)
from repro.analysis.lint import (
    LintViolation,
    Rule,
    RULES,
    lint_paths,
    lint_source,
    rule_codes,
)
from repro.analysis.modelcheck import (
    CounterexampleTrace,
    EXPECTED_VIOLATION,
    MODEL_FAULTS,
    MUTATIONS,
    ModelCheckResult,
    check_protocol,
    replay_trace,
    schedule_faults,
)
from repro.analysis.protocol import (
    PROTOCOL,
    PROTOCOL_MODULES,
    ConformanceIssue,
    ProtocolSpec,
    check_conformance,
    contract_for,
    mutated,
    phase_effect,
)
from repro.analysis.poison import (
    GhostSanitizer,
    PoisonError,
    PoisonSite,
    POISON_BITS,
    check_interior_clean,
    check_stencil_ghosts,
    poison_value,
    poisoned_mask,
    poison_ghosts,
    poison_forest,
)

__all__ = [
    "GhostSanitizer",
    "PoisonError",
    "PoisonSite",
    "POISON_BITS",
    "check_interior_clean",
    "check_stencil_ghosts",
    "poison_value",
    "poisoned_mask",
    "poison_ghosts",
    "poison_forest",
    "LintViolation",
    "Rule",
    "RULES",
    "lint_paths",
    "lint_source",
    "rule_codes",
    "PROTOCOL",
    "PROTOCOL_MODULES",
    "ConformanceIssue",
    "ProtocolSpec",
    "check_conformance",
    "contract_for",
    "mutated",
    "phase_effect",
    "FunctionEffects",
    "effect_check_source",
    "infer_module_effects",
    "CounterexampleTrace",
    "EXPECTED_VIOLATION",
    "MODEL_FAULTS",
    "MUTATIONS",
    "ModelCheckResult",
    "check_protocol",
    "replay_trace",
    "schedule_faults",
]
