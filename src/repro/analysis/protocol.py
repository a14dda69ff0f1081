"""Declarative, machine-readable spec of the supervisor<->worker protocol.

The process backend (PR 6/7) speaks a barrier-phase pipe protocol:
seq-numbered commands fan out from :class:`ProcessMachine`, CRC-tagged
replies come back from :func:`worker_main`, and a supervision ladder
(soft-timeout probe, heartbeat staleness, hard deadline, CRC retry
budget) turns every worker misbehavior into a classified
:class:`~repro.parallel.supervisor.RankDeath`.  That protocol lived
only in the implementation; this module states it as *data* so the
rest of the analysis layer can reason about it:

* :data:`PROTOCOL` — the spec itself: the phase catalogue with
  per-phase arena-region contracts, the step programs, the command and
  reply schemas, the fault taxonomy (scripted worker hooks and the
  failure kinds they are observed as), the supervision transitions,
  the self-healing ladder, and the registry of *message-constructor
  sites* — the only functions allowed to build or send wire messages.
* :func:`check_conformance` — an AST pass over the three protocol
  modules asserting the spec matches the code (ops, worker dispatch,
  constructor sites, reply CRC fields, phase-kind tables, hook
  actions, corruption regions), so the spec cannot silently rot.
* :func:`phase_effect` — a zero-cost decorator registering a function
  as the implementation of one protocol phase; the static analyzer in
  :mod:`repro.analysis.effects` checks each annotated body against the
  phase's declared region contract (lint rule REPRO106).

The spec is consumed by :mod:`repro.analysis.modelcheck` (bounded
explicit-state exploration of the protocol) and by the REPRO107 lint
rule (protocol message built outside a registered constructor).

Everything here is pure stdlib and import-light: the parallel modules
import only :func:`phase_effect` from this file, and conformance works
on source text, never on live objects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

__all__ = [
    "REGIONS",
    "PhaseSpec",
    "FaultSpec",
    "HealTransition",
    "ConstructorSite",
    "ProtocolSpec",
    "PROTOCOL",
    "PHASE_ATTR",
    "contract_for",
    "phase_effect",
    "ConformanceIssue",
    "check_conformance",
    "scoped_nodes",
    "protocol_sources",
]

#: Arena-region taxonomy shared with the scrubber and the heal ladder
#: (must match ``repro.resilience.scrub.CORRUPT_REGIONS``).
REGIONS: Tuple[str, ...] = ("interior", "ghost", "mirror", "staging")


@dataclass(frozen=True)
class PhaseSpec:
    """One protocol phase (a wire op, or a supervisor-side duty).

    ``reads``/``writes`` are the phase's arena-region contract: the
    regions its implementation may touch.  The static analyzer treats
    any inferred access outside the contract as REPRO106.
    """

    op: str
    kind: str  # "control" | "exchange" | "compute" | "service"
    injectable: bool = False  # replies may carry injected message faults
    carries_dt: bool = False
    may_carry_payload: bool = False
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class FaultSpec:
    """One scripted worker misbehavior and how the supervisor sees it."""

    action: str  # test-hook spelling ("kill" is delivered, not a hook)
    observed_as: str  # FailureKind, or "recovered" for absorbed faults
    detected_by: str  # which supervision mechanism catches it


@dataclass(frozen=True)
class HealTransition:
    """One rung of the self-healing SDC ladder (scrub -> repair)."""

    region: str
    source: str  # "mirror" | "exchange" | "rewind" | "checkpoint"
    requires_verified_mirror: bool
    escalates_to: Optional[str] = None


@dataclass(frozen=True)
class ConstructorSite:
    """A function allowed to build/send protocol wire messages."""

    module: str  # package-relative path, e.g. "repro/parallel/procworker.py"
    qualname: str  # dotted scope path without "<locals>"
    role: str  # "command" | "reply" | "probe" | "config" | "shutdown"


@dataclass(frozen=True)
class ProtocolSpec:
    """The whole protocol as data.

    The boolean flags at the bottom are the invariants the model
    checker interprets; mutating one (see
    ``repro.analysis.modelcheck.MUTATIONS``) produces the buggy
    protocol variant whose counterexample the checker must find.
    """

    phases: Tuple[PhaseSpec, ...]
    step_program_single: Tuple[str, ...]
    step_program_double: Tuple[str, ...]
    command_fields: Tuple[str, ...]
    optional_command_fields: Tuple[str, ...]
    reply_fields: Tuple[str, ...]
    worker_ops: Tuple[str, ...]  # dispatched by procworker._execute
    non_injectable_ops: Tuple[str, ...]
    failure_kinds: Tuple[str, ...]
    faults: Tuple[FaultSpec, ...]
    constructors: Tuple[ConstructorSite, ...]
    heal_ladder: Tuple[HealTransition, ...]
    regions: Tuple[str, ...] = REGIONS
    max_reply_retries_key: str = "max_retries"
    # -- model-checked invariants (mutation targets) -------------------
    probe_on_soft_timeout: bool = True
    guard_segment_free: bool = True
    verify_mirror_before_heal: bool = True
    check_reply_seq: bool = True
    gather_before_write: bool = True

    def ops(self) -> Tuple[str, ...]:
        return tuple(p.op for p in self.phases if p.kind != "service")

    def phase(self, op: str) -> PhaseSpec:
        for p in self.phases:
            if p.op == op:
                return p
        raise KeyError(f"unknown protocol phase {op!r}")

    def injectable_ops(self) -> Tuple[str, ...]:
        return tuple(p.op for p in self.phases if p.injectable)

    def constructor_qualnames(self, module: str) -> FrozenSet[str]:
        return frozenset(
            c.qualname for c in self.constructors if c.module == module
        )


#: Wire phases in canonical order, with their arena-region contracts.
#: The contracts mirror what the rank phase methods in
#: ``procworker.RankPhases`` actually do (see docs/static-analysis.md):
#: exch1 copies/restricts neighbor interiors into own ghosts;
#: exch2-gather stages bordered coarse sources (and CRC-tags them,
#: re-reading its own staging); exch2-write prolongs staged payloads
#: into ghosts (mutating staging only for scripted bitflips and the
#: end-of-phase reset); compute phases advance interiors, with the
#: predictor/corrector pair parking half-step snapshots in staging.
_WIRE_PHASES: Tuple[PhaseSpec, ...] = (
    PhaseSpec(
        "config", "control", may_carry_payload=True,
        writes=frozenset({"staging"}),
    ),
    PhaseSpec(
        "exch1", "exchange", injectable=True,
        reads=frozenset({"interior"}), writes=frozenset({"ghost"}),
    ),
    PhaseSpec(
        "exch2-gather", "exchange", injectable=True, may_carry_payload=True,
        reads=frozenset({"interior", "ghost", "staging"}),
        writes=frozenset({"staging"}),
    ),
    PhaseSpec(
        "exch2-write", "exchange", injectable=True, may_carry_payload=True,
        reads=frozenset({"staging"}),
        writes=frozenset({"ghost", "staging"}),
    ),
    PhaseSpec(
        "step", "compute", injectable=True, carries_dt=True,
        reads=frozenset({"interior", "ghost"}),
        writes=frozenset({"interior"}),
    ),
    PhaseSpec(
        "predictor", "compute", injectable=True, carries_dt=True,
        reads=frozenset({"interior", "ghost"}),
        writes=frozenset({"interior", "staging"}),
    ),
    PhaseSpec(
        "corrector", "compute", injectable=True, carries_dt=True,
        reads=frozenset({"interior", "ghost", "staging"}),
        writes=frozenset({"interior", "staging"}),
    ),
    PhaseSpec("resend", "control"),
    PhaseSpec("shutdown", "control"),
)

#: Supervisor-side duties that are not wire ops but still have region
#: contracts: the combined emulator exchange, partner-mirror refresh,
#: scrub verification (reads everything, writes nothing), and the heal
#: ladder (may touch anything while repairing).
_SERVICE_PHASES: Tuple[PhaseSpec, ...] = (
    PhaseSpec(
        "exchange", "service",
        reads=frozenset({"interior", "ghost", "staging"}),
        writes=frozenset({"ghost", "staging"}),
    ),
    PhaseSpec(
        "mirror-refresh", "service",
        reads=frozenset({"interior"}), writes=frozenset({"mirror"}),
    ),
    PhaseSpec(
        "scrub", "service",
        reads=frozenset(REGIONS), writes=frozenset(),
    ),
    PhaseSpec(
        "heal", "service",
        reads=frozenset(REGIONS), writes=frozenset(REGIONS),
    ),
)

PROTOCOL: ProtocolSpec = ProtocolSpec(
    phases=_WIRE_PHASES + _SERVICE_PHASES,
    step_program_single=("exch1", "exch2-gather", "exch2-write", "step"),
    step_program_double=(
        "exch1", "exch2-gather", "exch2-write", "predictor",
        "exch1", "exch2-gather", "exch2-write", "corrector",
    ),
    command_fields=("op", "seq", "step"),
    optional_command_fields=("dt", "payload"),
    reply_fields=("seq", "rank", "body", "crc"),
    worker_ops=(
        "config", "exch1", "exch2-gather", "exch2-write",
        "step", "predictor", "corrector", "shutdown",
    ),
    non_injectable_ops=("config", "shutdown"),
    failure_kinds=("clean-exit", "sigkill", "crash", "hang", "unreachable"),
    faults=(
        FaultSpec("kill", "sigkill", "exit-code"),
        FaultSpec("exit", "clean-exit", "exit-code"),
        FaultSpec("hang", "hang", "heartbeat"),
        FaultSpec("slow", "recovered", "soft-timeout-probe"),
        FaultSpec("mute", "recovered", "soft-timeout-probe"),
        FaultSpec("garble", "recovered", "crc-retry"),
        FaultSpec("garble-forever", "unreachable", "crc-retry-budget"),
    ),
    constructors=(
        ConstructorSite(
            "repro/parallel/procmachine.py",
            "ProcessMachine._spawn_rank", "config",
        ),
        ConstructorSite(
            "repro/parallel/procmachine.py",
            "ProcessMachine._phase", "command",
        ),
        ConstructorSite(
            "repro/parallel/procmachine.py",
            "ProcessMachine._await_reply.probe", "probe",
        ),
        ConstructorSite(
            "repro/parallel/procmachine.py",
            "ProcessMachine.close", "shutdown",
        ),
        ConstructorSite(
            "repro/parallel/procworker.py", "worker_main", "reply",
        ),
        ConstructorSite(
            "repro/parallel/procworker.py",
            "worker_main.send_reply", "reply",
        ),
    ),
    heal_ladder=(
        HealTransition("mirror", "exchange", False,
                       escalates_to="checkpoint"),
        HealTransition("ghost", "exchange", False),
        HealTransition("interior", "mirror", True,
                       escalates_to="checkpoint"),
        HealTransition("staging", "rewind", True,
                       escalates_to="checkpoint"),
    ),
)

#: Attribute set on functions by :func:`phase_effect`.
PHASE_ATTR: str = "__protocol_phase__"

_F = TypeVar("_F", bound=Callable[..., Any])


def phase_effect(op: str) -> Callable[[_F], _F]:
    """Register ``fn`` as the implementation of protocol phase ``op``.

    Zero runtime cost (sets one attribute).  The registration is read
    statically — by decorator name, via AST — so the phase-effect
    analyzer works without importing the annotated module; the runtime
    attribute exists so tooling can also ask a live function which
    phase it implements.
    """
    if op not in {p.op for p in PROTOCOL.phases}:
        raise ValueError(f"unknown protocol phase {op!r}")

    def mark(fn: _F) -> _F:
        setattr(fn, PHASE_ATTR, op)
        return fn

    return mark


def contract_for(op: str) -> PhaseSpec:
    """The region contract for a phase (wire op or service duty)."""
    return PROTOCOL.phase(op)


# ----------------------------------------------------------------------
# conformance: the spec must match the code, discovered by AST
# ----------------------------------------------------------------------

#: The modules that *are* the protocol implementation.
PROTOCOL_MODULES: Tuple[str, ...] = (
    "repro/parallel/supervisor.py",
    "repro/parallel/procworker.py",
    "repro/parallel/procmachine.py",
)


@dataclass(frozen=True)
class ConformanceIssue:
    """One spec/code divergence found by :func:`check_conformance`."""

    module: str
    line: int
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.module}:{self.line}: [{self.kind}] {self.message}"


def scoped_nodes(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Yield every node with the dotted qualname of its enclosing scope.

    Qualnames drop the ``<locals>`` marker: a function ``probe`` nested
    in ``ProcessMachine._await_reply`` is
    ``ProcessMachine._await_reply.probe``.
    """

    def walk(node: ast.AST, scope: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                inner = f"{scope}.{child.name}" if scope else child.name
                yield inner, child
                yield from walk(child, inner)
            else:
                yield scope, child
                yield from walk(child, scope)

    yield from walk(tree, "")


def protocol_sources(root: Optional[Path] = None) -> Dict[str, str]:
    """Source text of the protocol modules, keyed by package path."""
    base = _package_root(root)
    out: Dict[str, str] = {}
    for module in PROTOCOL_MODULES:
        rel = module.split("/", 1)[1]  # drop the leading "repro/"
        out[module] = (base / rel).read_text(encoding="utf-8")
    return out


def _package_root(root: Optional[Path]) -> Path:
    """The ``repro`` package directory (``root`` may be the repo root,
    a ``src`` dir, or the package itself)."""
    if root is None:
        root = Path(__file__).resolve().parent.parent
    for cand in (root, root / "repro", root / "src" / "repro"):
        if (cand / "parallel" / "procworker.py").is_file():
            return cand
    raise FileNotFoundError(
        f"cannot locate the repro package under {root}"
    )


def _dict_keys(node: ast.Dict) -> Set[str]:
    return {
        k.value for k in node.keys
        if isinstance(k, ast.Constant) and isinstance(k.value, str)
    }


def _dict_str_value(node: ast.Dict, key: str) -> Optional[str]:
    for k, v in zip(node.keys, node.values):
        if (
            isinstance(k, ast.Constant) and k.value == key
            and isinstance(v, ast.Constant) and isinstance(v.value, str)
        ):
            return v.value
    return None


def _compare_constants(node: ast.Compare, name: str) -> Set[str]:
    """String constants compared (``==``/``!=``/``in``) against ``name``."""
    out: Set[str] = set()
    is_name = (
        isinstance(node.left, ast.Name) and node.left.id == name
    ) or (
        isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Attribute)
        and node.left.func.attr == "get"
        and any(
            isinstance(a, ast.Constant) and a.value == name
            for a in node.left.args
        )
    )
    if not is_name:
        return out
    for comp in node.comparators:
        if isinstance(comp, ast.Constant) and isinstance(comp.value, str):
            out.add(comp.value)
        elif isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
            for elt in comp.elts:
                if isinstance(elt, ast.Constant) and isinstance(
                    elt.value, str
                ):
                    out.add(elt.value)
    return out


def _module_constant_tuple(tree: ast.AST, name: str) -> Optional[Set[str]]:
    """The string elements of a module-level tuple assignment."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if name in targets and isinstance(
                node.value, (ast.Tuple, ast.List)
            ):
                return {
                    e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)
                    and isinstance(e.value, str)
                }
    return None


def check_conformance(
    root: Optional[Path] = None,
    sources: Optional[Dict[str, str]] = None,
    spec: ProtocolSpec = PROTOCOL,
) -> List[ConformanceIssue]:
    """Assert the spec matches the implementation; [] means conformant.

    ``sources`` overrides file loading (tests feed mutated source text
    through it).  Checks, all AST-driven so renames/moves are caught:

    1. every op the supervisor phases through, and every constant op in
       a constructed message, is a spec op — and every spec op appears;
    2. the worker dispatch (``_execute`` + the ``resend`` fast path)
       handles exactly the spec's worker ops;
    3. every ``*.send(...)`` call sits inside a spec-registered
       message-constructor function;
    4. every reply-shaped dict literal (seq/rank/body) carries ``crc``;
    5. the phase-kind tables (``_EXCHANGE_OPS``/``_COMPUTE_OPS``) match
       the spec's phase kinds, and the non-injectable tuple in
       ``_phase`` matches the spec;
    6. the ``FailureKind`` catalogue matches the spec's failure kinds;
    7. the worker's scripted hook actions cover the spec's fault
       actions (minus the delivered ``kill``).
    """
    if sources is None:
        sources = protocol_sources(root)
    issues: List[ConformanceIssue] = []

    def issue(module: str, line: int, kind: str, message: str) -> None:
        issues.append(ConformanceIssue(module, line, kind, message))

    trees = {m: ast.parse(src) for m, src in sources.items()}
    spec_ops = set(spec.ops())

    # --- collect from procmachine ------------------------------------
    mach = "repro/parallel/procmachine.py"
    mach_tree = trees[mach]
    code_ops: Set[str] = set()
    for scope, node in scoped_nodes(mach_tree):
        if isinstance(node, ast.Dict):
            op = _dict_str_value(node, "op")
            if op is not None:
                code_ops.add(op)
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in ("_phase", "_compute") and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    code_ops.add(first.value)
        if isinstance(node, ast.Assign) and scope.endswith("._phase"):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "injectable" in targets:
                found: Set[str] = set()
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str
                    ):
                        found.add(sub.value)
                if found != set(spec.non_injectable_ops):
                    issue(
                        mach, node.lineno, "injectable",
                        f"non-injectable ops in _phase are "
                        f"{sorted(found)}, spec says "
                        f"{sorted(spec.non_injectable_ops)}",
                    )
    for const, kind in (("_EXCHANGE_OPS", "exchange"),
                        ("_COMPUTE_OPS", "compute")):
        table = _module_constant_tuple(mach_tree, const)
        want = {p.op for p in spec.phases if p.kind == kind}
        if table is None:
            issue(mach, 1, "phase-kinds", f"{const} tuple not found")
        elif table != want:
            issue(
                mach, 1, "phase-kinds",
                f"{const} is {sorted(table)}, spec {kind} phases are "
                f"{sorted(want)}",
            )

    # --- collect from procworker -------------------------------------
    work = "repro/parallel/procworker.py"
    work_tree = trees[work]
    dispatch_ops: Set[str] = set()
    hook_actions: Set[str] = set()
    for scope, node in scoped_nodes(work_tree):
        if isinstance(node, ast.Compare):
            dispatch_ops |= _compare_constants(node, "op")
            hook_actions |= _compare_constants(node, "action")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "action"
        ):
            for a in node.args:
                if isinstance(a, ast.Constant) and isinstance(a.value, str):
                    hook_actions.add(a.value.rstrip(":"))
    want_dispatch = set(spec.worker_ops) | {"resend"}
    if dispatch_ops != want_dispatch:
        issue(
            work, 1, "worker-ops",
            f"worker dispatches {sorted(dispatch_ops)}, spec expects "
            f"{sorted(want_dispatch)}",
        )
    code_ops |= dispatch_ops
    want_hooks = {f.action for f in spec.faults} - {"kill"}
    if not want_hooks <= hook_actions:
        issue(
            work, 1, "hook-actions",
            f"worker handles hook actions {sorted(hook_actions)}, spec "
            f"faults need {sorted(want_hooks)}",
        )

    # --- op catalogue closure ----------------------------------------
    if code_ops != spec_ops:
        extra = sorted(code_ops - spec_ops)
        missing = sorted(spec_ops - code_ops)
        detail = []
        if extra:
            detail.append(f"code uses unknown op(s) {extra}")
        if missing:
            detail.append(f"spec op(s) {missing} never appear in code")
        issue(mach, 1, "ops", "; ".join(detail))

    # --- constructor sites + reply CRC, across all modules -----------
    for module, tree in trees.items():
        registered = spec.constructor_qualnames(module)
        for scope, node in scoped_nodes(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
            ):
                if scope not in registered:
                    issue(
                        module, node.lineno, "constructor",
                        f"wire send in {scope or '<module>'!r} is not a "
                        "spec-registered message constructor",
                    )
            if isinstance(node, ast.Dict):
                keys = _dict_keys(node)
                if {"seq", "rank", "body"} <= keys and "crc" not in keys:
                    issue(
                        module, node.lineno, "reply-crc",
                        "reply constructed without a crc field",
                    )
        defined = {
            scope
            for scope, node in scoped_nodes(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for qual in sorted(registered - defined):
            issue(
                module, 1, "constructor",
                f"spec registers constructor {qual!r} but no such "
                "function exists",
            )

    # --- failure kinds (supervisor) ----------------------------------
    sup = "repro/parallel/supervisor.py"
    sup_tree = trees[sup]
    kinds: Set[str] = set()
    for node in ast.walk(sup_tree):
        if isinstance(node, ast.ClassDef) and node.name == "FailureKind":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(
                    sub.value, str
                ):
                    kinds.add(sub.value)
    kinds = {k for k in kinds if not k[:1].isupper() and " " not in k}
    if kinds and kinds != set(spec.failure_kinds):
        issue(
            sup, 1, "failure-kinds",
            f"FailureKind catalogue {sorted(kinds)} != spec "
            f"{sorted(spec.failure_kinds)}",
        )
    if not kinds:
        issue(sup, 1, "failure-kinds", "FailureKind class not found")

    issues.sort(key=lambda i: (i.module, i.line, i.kind))
    return issues


def mutated(spec: ProtocolSpec = PROTOCOL, **flags: Any) -> ProtocolSpec:
    """A spec variant with invariant flags flipped (model-check seeds)."""
    return replace(spec, **flags)
