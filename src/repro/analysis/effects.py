"""Static phase-effect analyzer: arena regions a function reads/writes.

A run witnesses only the exchange orderings that *happen to occur*
(a rank machine's final state against the serial driver's, bit for
bit); this module checks every phase statically.  An AST/dataflow pass
infers, per function, which arena regions (``interior`` / ``ghost`` /
``mirror`` / ``staging``) the body can touch, and checks the inferred
effect set of every ``@phase_effect("...")``-annotated function against
that phase's declared contract in
:data:`repro.analysis.protocol.PROTOCOL`.

A write to a region the phase's contract forbids — the classic seeded
bug being a ghost write inside the ``step`` phase, which the exchange
schedule would silently overwrite on some ranks and not others — is
lint rule **REPRO106**.

Inference is deliberately conservative-by-table rather than fully
general dataflow: the repo's arena regions are only reachable through
a small, stable vocabulary (``.interior``, ``.data``, ``.view()``,
``.ghost_region()``, ``.mirror_view()``, the worker's staging
attributes, and a handful of kernel entry points — the compiled-plan
executors and the tiled sweep the rank phases call), so a name-driven
classification plus single-assignment local aliasing covers the real
access paths without false mazes.  Misses are safe: an effect the
analyzer cannot see simply goes unchecked; an effect it *does* see
must be inside the contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.protocol import PROTOCOL, PhaseSpec

__all__ = [
    "FunctionEffects",
    "infer_module_effects",
    "check_source",
    "effect_findings",
]


@dataclass(frozen=True)
class FunctionEffects:
    """Inferred region effects of one phase-annotated function."""

    module_path: str
    qualname: str
    line: int
    phase: str
    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def violations(self) -> List[Tuple[str, str]]:
        """(kind, region) pairs outside the phase contract."""
        contract: PhaseSpec = PROTOCOL.phase(self.phase)
        out: List[Tuple[str, str]] = []
        for region in sorted(self.reads - contract.reads):
            out.append(("read", region))
        for region in sorted(self.writes - contract.writes):
            out.append(("write", region))
        return out


#: Attribute names that *are* a region when accessed on any object.
_ATTR_REGION: Dict[str, FrozenSet[str]] = {
    "interior": frozenset({"interior"}),
    "data": frozenset({"interior", "ghost"}),
    "_payloads": frozenset({"staging"}),
    "_payload_crcs": frozenset({"staging"}),
}

#: Method names whose *result* aliases a region (local-variable
#: assignment from these propagates the region to the name).
_CALL_RESULT_REGION: Dict[str, FrozenSet[str]] = {
    "ghost_region": frozenset({"ghost"}),
    "mirror_view": frozenset({"mirror"}),
    "copy_view": frozenset({"mirror"}),
    "gather_prolong": frozenset({"staging"}),
}

#: ``x.view(box)`` reads interior when loaded, targets ghost when the
#: subscript is stored through — handled specially in the visitor.
_VIEW_METHODS = ("view",)

#: Known call side effects: function/method name -> (reads, writes).
#: ``arg0`` entries additionally read/write the region aliased by the
#: first argument (resolved through the local environment).
_CALL_EFFECTS: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {
    # executors of a compiled ghost plan (repro.core.ghost)
    "run_copies": (frozenset({"interior"}), frozenset({"ghost"})),
    "run_restrictions": (frozenset({"interior"}), frozenset({"ghost"})),
    "run_boundaries": (frozenset(), frozenset({"ghost"})),
    "gather_prolong": (frozenset({"interior", "ghost"}), frozenset()),
    "write_prolongs": (frozenset(), frozenset({"ghost"})),
    # stages of the tiled sweep (repro.solvers.sweep.PoolSweep); the
    # snapshot it parks between predictor and corrector is staging
    "snapshot": (frozenset({"interior"}), frozenset({"staging"})),
    "forward": (frozenset({"interior", "ghost"}), frozenset({"interior"})),
    "correct": (
        frozenset({"interior", "ghost", "staging"}), frozenset({"interior"})
    ),
    "remirror_block": (frozenset({"interior"}), frozenset({"mirror"})),
    "copy_is_valid": (frozenset({"mirror"}), frozenset()),
    "adopt_block": (frozenset(), frozenset({"interior"})),
}

#: Calls that read the region aliased by one positional argument:
#: function name -> argument index.
_ARG_READS: Dict[str, int] = {
    "content_crc": 0,
    "crc_bytes": 0,
    "write_prolongs": 1,
}

#: Methods on the scheme object (``*.scheme.step(data, ...)``) that
#: mutate the interior of the array they are handed.
_SCHEME_WRITERS = ("step",)


def _scheme_call(node: ast.Call) -> bool:
    """True for ``<...>.scheme.step(...)`` / ``scheme.step(...)``."""
    fn = node.func
    if not isinstance(fn, ast.Attribute):
        return False
    base = fn.value
    return (
        isinstance(base, ast.Attribute) and base.attr == "scheme"
    ) or (isinstance(base, ast.Name) and base.id == "scheme")


class _FunctionEffectVisitor(ast.NodeVisitor):
    """Collect region reads/writes inside one function body."""

    def __init__(self) -> None:
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        #: local name -> regions it aliases (single forward pass).
        self.env: Dict[str, FrozenSet[str]] = {}
        #: ids of nodes consumed as write bases (skip as loads).
        self._consumed: Set[int] = set()

    # -- region classification of expressions --------------------------

    def _regions_of(self, node: ast.AST) -> FrozenSet[str]:
        """Regions an expression aliases (not a read by itself)."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            return _ATTR_REGION.get(node.attr, frozenset())
        if isinstance(node, ast.Subscript):
            return self._regions_of(node.value)
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else (
                fn.id if isinstance(fn, ast.Name) else None
            )
            if name in _CALL_RESULT_REGION:
                return _CALL_RESULT_REGION[name]
            if name in _VIEW_METHODS:
                return frozenset({"interior"})
            if name == "copy" and isinstance(fn, ast.Attribute):
                return self._regions_of(fn.value)
        return frozenset()

    def _write_target_regions(self, node: ast.AST) -> FrozenSet[str]:
        """Regions written when ``node`` is a store target; marks the
        base nodes consumed so the load pass does not double-count."""
        base = node
        while isinstance(base, ast.Subscript):
            base = base.value
        self._consumed.add(id(base))
        if isinstance(base, ast.Call) and isinstance(
            base.func, ast.Attribute
        ) and base.func.attr in _VIEW_METHODS:
            # subscript-store through .view() lands in ghost storage
            # (the exchange's destination views)
            return frozenset({"ghost"})
        return self._regions_of(base)

    # -- statements -----------------------------------------------------

    def _handle_store(self, target: ast.AST, value_regions: FrozenSet[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_store(elt, value_regions)
            return
        if isinstance(target, ast.Name):
            # plain rebinding: the name now aliases the value's regions
            self.env[target.id] = value_regions
            return
        regions = self._write_target_regions(target)
        self.writes |= regions

    def visit_Assign(self, node: ast.Assign) -> None:
        value_regions = self._regions_of(node.value)
        for target in node.targets:
            self._handle_store(target, value_regions)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_store(node.target, self._regions_of(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        regions = self._write_target_regions(node.target)
        self.writes |= regions
        self.reads |= regions
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._handle_store(node.target, self._regions_of(node.iter))
        self.generic_visit(node)

    # -- loads ----------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            id(node) not in self._consumed
            and isinstance(node.ctx, ast.Load)
            and node.attr in _ATTR_REGION
        ):
            self.reads |= _ATTR_REGION[node.attr]
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else None
        )
        if name is not None:
            if name in _CALL_EFFECTS:
                reads, writes = _CALL_EFFECTS[name]
                self.reads |= reads
                self.writes |= writes
            if name in _VIEW_METHODS and id(node) not in self._consumed:
                self.reads |= frozenset({"interior"})
            if name in _SCHEME_WRITERS and _scheme_call(node):
                self.writes |= frozenset({"interior"})
            if node.args:
                arg_regions = self._regions_of(node.args[0])
                if name == "apply_bitflip":
                    self.writes |= arg_regions
            reads_arg = _ARG_READS.get(name)
            if reads_arg is not None and len(node.args) > reads_arg:
                self.reads |= self._regions_of(node.args[reads_arg])
        self.generic_visit(node)


def _phase_of(node: ast.AST) -> Optional[str]:
    """The phase named by a ``@phase_effect("...")`` decorator, if any."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call) or not dec.args:
            continue
        fn = dec.func
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else None
        )
        if name == "phase_effect":
            arg = dec.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
    return None


def infer_module_effects(
    source: str, module_path: str
) -> List[FunctionEffects]:
    """Effects of every phase-annotated function in ``source``.

    Raises ``SyntaxError`` on unparseable input (callers that lint
    already guard; ``repro check`` wants the hard failure).
    """
    tree = ast.parse(source)
    out: List[FunctionEffects] = []

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                inner = f"{scope}.{child.name}" if scope else child.name
                phase = _phase_of(child)
                if phase is not None:
                    visitor = _FunctionEffectVisitor()
                    for stmt in child.body:  # type: ignore[union-attr]
                        visitor.visit(stmt)
                    out.append(
                        FunctionEffects(
                            module_path=module_path,
                            qualname=inner,
                            line=child.lineno,
                            phase=phase,
                            reads=frozenset(visitor.reads),
                            writes=frozenset(visitor.writes),
                        )
                    )
                walk(child, inner)

    walk(tree, "")
    return out


def check_source(
    source: str, module_path: str
) -> List[Tuple[int, int, str, str]]:
    """REPRO106 findings for one module, as (line, col, code, message).

    Returned in the shape :func:`repro.analysis.lint.lint_source`
    merges, so phase-effect violations ride the normal lint pipeline
    (``# repro: noqa[REPRO106]`` works on the ``def`` line).
    """
    out: List[Tuple[int, int, str, str]] = []
    try:
        effects = infer_module_effects(source, module_path)
    except SyntaxError:
        return out  # the lint driver already reports REPRO000
    for fx in effects:
        known_phases = {p.op for p in PROTOCOL.phases}
        if fx.phase not in known_phases:
            out.append(
                (fx.line, 0, "REPRO106",
                 f"`{fx.qualname}` declares unknown protocol phase "
                 f"{fx.phase!r}")
            )
            continue
        for kind, region in fx.violations():
            out.append(
                (fx.line, 0, "REPRO106",
                 f"`{fx.qualname}` ({fx.phase} phase) {kind}s the "
                 f"{region} region, outside the phase's declared "
                 f"contract; move the access or fix the contract in "
                 f"repro.analysis.protocol")
            )
    return out


def effect_findings(
    sources: Dict[str, str]
) -> List[Tuple[str, FunctionEffects]]:
    """Inventory pass for ``repro check``: (module, effects) pairs for
    every annotated function across ``sources``."""
    out: List[Tuple[str, FunctionEffects]] = []
    for module_path in sorted(sources):
        for fx in infer_module_effects(sources[module_path], module_path):
            out.append((module_path, fx))
    return out
