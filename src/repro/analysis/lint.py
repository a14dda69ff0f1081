"""``repro lint`` — AST-based lint rules encoding project invariants.

Generic linters cannot know that ``Block.data`` is owned by the kernel
and exchange layers, that every RNG in a resilience code path must be
seeded, or that wall-clock reads break deterministic replay.  These
rules do:

========== =============================================================
Code       Invariant
========== =============================================================
REPRO101   ``Block.data`` may be mutated only in data-owner modules
           (``core/``, ``solvers/``, the driver's rollback path, the
           validator's snapshot/restore) — everything else must go
           through ``interior`` / ``view()`` or stay read-only.
REPRO102   No unseeded RNG construction: ``default_rng()`` without a
           seed, ``random.Random()`` without a seed, or the legacy
           global-state ``np.random.*`` / ``random.*`` functions.
REPRO103   No bare ``except:`` — and in resilience/recovery paths, no
           silently-swallowing ``except ...: pass`` either: recovery
           must never mask the failure it is recovering from.
REPRO104   No wall-clock reads (``time.time``, ``perf_counter``,
           ``datetime.now``, ...) in deterministic-replay code
           (``resilience/``, the rank emulator): route them through
           ``repro.util.timing.wall_clock`` so replays can stub time.
REPRO105   No raw ``zlib.crc32``/``zlib.adler32``/``hashlib.*`` calls
           outside the checksum-owner modules (``core/integrity.py``,
           the checkpoint format, the wire supervisor): everything else
           must go through the :mod:`repro.core.integrity` helpers so
           checksum policy stays in one auditable place.
REPRO106   Functions annotated ``@phase_effect("op")`` may only read
           and write the arena regions the protocol spec declares for
           that phase (:mod:`repro.analysis.effects` infers the
           regions; :data:`repro.analysis.protocol.PROTOCOL` declares
           the contracts).
REPRO107   Protocol wire messages (``conn.send(...)`` calls and dict
           literals carrying both ``op`` and ``seq``) may be built only
           inside the spec-registered constructor functions — new
           message sites must be added to the spec first.
========== =============================================================

Suppression: append ``# repro: noqa`` (any rule) or
``# repro: noqa[REPRO104]`` (specific rules, comma-separated) to the
offending line.  Suppressions are deliberate and auditable — grep for
``repro: noqa`` to review every exception.

Per-directory configuration: ``lint_paths`` applies
:data:`DIR_CONFIGS` to files under ``tests/`` and ``benchmarks/`` —
REPRO101 is dropped there (tests legitimately poke ``.data`` to build
fixtures and corrupt state on purpose) while REPRO102 stays on and
REPRO104 is *forced* in ``tests/`` (scoped rules otherwise never fire
outside the package).  ``benchmarks/`` keep wall-clock access: timing
is their purpose.

The checker is pure stdlib ``ast`` — no third-party dependency — and
is exposed both as a library (:func:`lint_source`, :func:`lint_paths`)
and as the ``repro lint`` CLI subcommand.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.effects import check_source as _effect_check
from repro.analysis.protocol import PROTOCOL, PROTOCOL_MODULES

__all__ = [
    "DIR_CONFIGS",
    "DirConfig",
    "LintViolation",
    "Rule",
    "RULES",
    "rule_codes",
    "lint_source",
    "lint_paths",
]


@dataclass(frozen=True)
class LintViolation:
    """One rule breach at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One lint rule: code, summary, and module scope (path prefixes
    relative to the package root; empty = every module)."""

    code: str
    summary: str
    scope: Tuple[str, ...] = ()

    def applies_to(self, module_path: str) -> bool:
        if not self.scope:
            return True
        return any(module_path.startswith(p) for p in self.scope)


#: Modules allowed to mutate ``.data`` arrays directly: the kernel and
#: exchange layers that own the arrays, the serial driver (safe-mode
#: rollback restores snapshots), the invariant validator (side-effect-
#: free ghost probing restores the original bytes), the ghost-poison
#: sanitizer (whose whole job is writing into ghost storage), and the
#: cell-tree baseline (its tree nodes own their private ``.data``).
DATA_MUTATOR_MODULES: Tuple[str, ...] = (
    "repro/core/",
    "repro/solvers/",
    "repro/tree/",
    "repro/amr/driver.py",
    "repro/resilience/validate.py",
    "repro/analysis/poison.py",
)

#: Deterministic-replay modules: recovery must replay bit-for-bit, so
#: time may only enter through the stubbable ``wall_clock`` indirection.
REPLAY_MODULES: Tuple[str, ...] = (
    "repro/resilience/",
    "repro/parallel/emulator.py",
    "repro/parallel/procmachine.py",
    "repro/parallel/procworker.py",
    "repro/parallel/supervisor.py",
    "repro/parallel/shared_arena.py",
)

#: Recovery code paths where a swallowed exception can mask the very
#: fault being recovered from (bare ``except:`` is banned everywhere).
RECOVERY_MODULES: Tuple[str, ...] = ("repro/resilience/",)

#: Modules allowed to call ``zlib``/``hashlib`` checksum primitives
#: directly: the integrity helpers themselves, the checkpoint format
#: (file-level array checksum), the rotating checkpoint store, and the
#: wire supervisor (per-message reply CRCs).  Everything else must go
#: through :mod:`repro.core.integrity` so checksum policy — algorithm,
#: masking, what bytes a tag covers — stays in one auditable place.
CHECKSUM_OWNER_MODULES: Tuple[str, ...] = (
    "repro/core/integrity.py",
    "repro/amr/io.py",
    "repro/resilience/checkpoint.py",
    "repro/parallel/supervisor.py",
)

#: Modules whose ``@phase_effect`` annotations are checked against the
#: protocol spec's per-phase region contracts (REPRO106).
EFFECT_MODULES: Tuple[str, ...] = (
    "repro/core/",
    "repro/parallel/",
    "repro/resilience/",
)

RULES: Tuple[Rule, ...] = (
    Rule(
        "REPRO101",
        "Block.data mutated outside kernel/exchange data-owner modules",
    ),
    Rule("REPRO102", "unseeded RNG construction or global-state RNG call"),
    Rule(
        "REPRO103",
        "bare except (everywhere) / exception swallowed in recovery path",
    ),
    Rule(
        "REPRO104",
        "wall-clock read in deterministic-replay code",
        scope=REPLAY_MODULES,
    ),
    Rule(
        "REPRO105",
        "raw zlib/hashlib checksum call outside checksum-owner modules",
    ),
    Rule(
        "REPRO106",
        "phase-effect violation: region access outside the phase's "
        "declared contract",
        scope=EFFECT_MODULES,
    ),
    Rule(
        "REPRO107",
        "protocol message built outside spec-registered constructors",
        scope=PROTOCOL_MODULES,
    ),
)


def rule_codes() -> Tuple[str, ...]:
    return tuple(r.code for r in RULES)


#: Legacy module-level RNG entry points backed by hidden global state.
_GLOBAL_RNG_FUNCS = {
    "numpy.random": {
        "rand", "randn", "random", "random_sample", "ranf", "sample",
        "randint", "random_integers", "choice", "shuffle", "permutation",
        "uniform", "normal", "standard_normal", "seed", "bytes",
    },
    "random": {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "seed", "betavariate",
        "expovariate", "triangular",
    },
}

#: Wall-clock reads that make a replay diverge from the original run.
_WALL_CLOCK_FUNCS = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9 ,]+)\])?", re.IGNORECASE
)


def _collect_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppressions: line -> None (all rules) or a code set."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if not m:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return out


class _ImportAliases(ast.NodeVisitor):
    """Map local names to the dotted path they were imported as."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )


def _dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted path, following import
    aliases at the root (``_time.perf_counter`` -> ``time.perf_counter``)."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = aliases.get(cur.id, cur.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _normalize(dotted: str) -> str:
    """Fold the ``np``/``numpy`` spelling difference."""
    if dotted == "np.random" or dotted.startswith("np.random."):
        return "numpy" + dotted[2:]
    return dotted


class _Checker(ast.NodeVisitor):
    def __init__(
        self,
        module_path: str,
        aliases: Dict[str, str],
        force: FrozenSet[str] = frozenset(),
    ) -> None:
        self.module_path = module_path
        self.aliases = aliases
        self.found: List[Tuple[int, int, str, str]] = []
        self.in_replay = "REPRO104" in force or any(
            module_path.startswith(p) for p in REPLAY_MODULES
        )
        self.in_recovery = any(
            module_path.startswith(p) for p in RECOVERY_MODULES
        )
        self.is_data_owner = any(
            module_path.startswith(p) for p in DATA_MUTATOR_MODULES
        )
        self.is_checksum_owner = any(
            module_path.startswith(p) for p in CHECKSUM_OWNER_MODULES
        )
        self.is_protocol_module = module_path in PROTOCOL_MODULES
        self._constructors: FrozenSet[str] = (
            PROTOCOL.constructor_qualnames(module_path)
            if self.is_protocol_module else frozenset()
        )
        self._scope: List[str] = []

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.found.append(
            (getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
             code, message)
        )

    # -- scope tracking (REPRO107 constructor qualnames) ----------------

    def _visit_scope(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node, node.name)

    def _in_registered_constructor(self) -> bool:
        qual = ".".join(self._scope)
        return any(
            qual == reg or qual.startswith(reg + ".")
            for reg in self._constructors
        )

    # -- REPRO101: Block.data mutation ----------------------------------

    def _data_attr(self, target: ast.AST) -> Optional[ast.Attribute]:
        """The ``X.data`` attribute node if ``target`` writes through one
        (``X.data = ...``, ``X.data[...] = ...``, any subscript depth),
        else None."""
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr == "data":
            return node
        return None

    def _check_data_write(self, target: ast.AST) -> None:
        if self.is_data_owner:
            return
        attr = self._data_attr(target)
        if attr is not None:
            self._emit(
                target,
                "REPRO101",
                "direct mutation of `.data` outside kernel/exchange "
                "data-owner modules; use `interior` / `view()` or move "
                "the write into a data-owner module",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            targets = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for t in targets:
                self._check_data_write(t)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_data_write(node.target)
        self.generic_visit(node)

    # -- REPRO102: unseeded RNG -----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func, self.aliases)
        if dotted is not None:
            dotted = _normalize(dotted)
            head, _, leaf = dotted.rpartition(".")
            if leaf == "default_rng":
                seed_missing = not node.args and not any(
                    kw.arg in ("seed", None) for kw in node.keywords
                )
                seed_none = bool(node.args) and (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if seed_missing or seed_none:
                    self._emit(
                        node,
                        "REPRO102",
                        "default_rng() without a seed is entropy-seeded and "
                        "unreproducible; pass an explicit seed",
                    )
            elif dotted in ("random.Random", "numpy.random.RandomState") and not node.args:
                self._emit(
                    node,
                    "REPRO102",
                    f"{leaf}() without a seed is unreproducible; pass an "
                    "explicit seed",
                )
            elif head in _GLOBAL_RNG_FUNCS and leaf in _GLOBAL_RNG_FUNCS[head]:
                self._emit(
                    node,
                    "REPRO102",
                    f"global-state RNG call `{dotted}`; construct a seeded "
                    "Generator (`np.random.default_rng(seed)`) instead",
                )
            elif self.in_replay and dotted in _WALL_CLOCK_FUNCS:
                self._emit(
                    node,
                    "REPRO104",
                    f"wall-clock read `{dotted}` in deterministic-replay "
                    "code; use repro.util.timing.wall_clock() so replays "
                    "can stub time",
                )
            elif not self.is_checksum_owner and (
                dotted in ("zlib.crc32", "zlib.adler32")
                or head == "hashlib"
                or dotted == "hashlib"
            ):
                self._emit(
                    node,
                    "REPRO105",
                    f"raw checksum call `{dotted}` outside a checksum-owner "
                    "module; use the repro.core.integrity helpers "
                    "(crc_bytes / content_crc / crc_text) so integrity "
                    "policy stays centralized",
                )
        if (
            self.is_protocol_module
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send"
            and not self._in_registered_constructor()
        ):
            self._emit(
                node,
                "REPRO107",
                "wire `.send(...)` outside a spec-registered message "
                "constructor; register the site in "
                "repro.analysis.protocol.PROTOCOL.constructors first",
            )
        self.generic_visit(node)

    # -- REPRO107: protocol message literals ----------------------------

    def visit_Dict(self, node: ast.Dict) -> None:
        if self.is_protocol_module and not self._in_registered_constructor():
            keys = {
                k.value for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            }
            if "op" in keys and "seq" in keys:
                self._emit(
                    node,
                    "REPRO107",
                    "protocol command literal (op+seq dict) built outside "
                    "a spec-registered message constructor",
                )
        self.generic_visit(node)

    # -- REPRO103: bare / swallowing except -----------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                node,
                "REPRO103",
                "bare `except:` catches SystemExit/KeyboardInterrupt and "
                "hides the real failure; name the exception type",
            )
        elif self.in_recovery and self._swallows(node):
            self._emit(
                node,
                "REPRO103",
                "exception silently swallowed in a recovery path; recovery "
                "code must surface or translate the failure it catches",
            )
        self.generic_visit(node)

    @staticmethod
    def _swallows(node: ast.ExceptHandler) -> bool:
        return len(node.body) == 1 and isinstance(
            node.body[0], (ast.Pass, ast.Continue)
        )


def lint_source(
    source: str,
    module_path: str,
    *,
    select: Optional[Iterable[str]] = None,
    display_path: Optional[str] = None,
    force: Optional[Iterable[str]] = None,
) -> List[LintViolation]:
    """Lint one module's source text.

    ``module_path`` is the package-relative path (``repro/core/block.py``)
    used for rule scoping; ``display_path`` (default: ``module_path``)
    is what violations report.  ``select`` restricts to specific codes;
    ``force`` treats the named scoped rules as in-scope regardless of
    ``module_path`` (how ``tests/`` gets REPRO104 despite living outside
    the package).
    """
    display = display_path if display_path is not None else module_path
    wanted = set(select) if select is not None else set(rule_codes())
    forced = frozenset(force) if force is not None else frozenset()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            LintViolation(
                display, exc.lineno or 1, exc.offset or 0,
                "REPRO000", f"syntax error: {exc.msg}",
            )
        ]
    imports = _ImportAliases()
    imports.visit(tree)
    checker = _Checker(module_path, imports.aliases, forced)
    checker.visit(tree)
    found = list(checker.found)
    if "REPRO106" in wanted and (
        "REPRO106" in forced
        or any(module_path.startswith(p) for p in EFFECT_MODULES)
    ):
        found.extend(_effect_check(source, module_path))
    suppressed = _collect_suppressions(source)
    out: List[LintViolation] = []
    for line, col, code, message in found:
        if code not in wanted:
            continue
        if line in suppressed:
            codes = suppressed[line]
            if codes is None or code in codes:
                continue
        out.append(LintViolation(display, line, col, code, message))
    out.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return out


def _module_path_for(path: Path) -> str:
    """Package-relative path used for rule scoping: everything from the
    last ``repro`` component on (files outside the package get their
    plain name and only unscoped rules)."""
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


@dataclass(frozen=True)
class DirConfig:
    """Per-directory rule configuration applied by :func:`lint_paths`.

    ``drop`` removes rules that are meaningless or counterproductive in
    the directory; ``force`` treats scoped rules as in-scope there (see
    :func:`lint_source`).
    """

    drop: Tuple[str, ...] = ()
    force: Tuple[str, ...] = ()


#: Directory-name keyed configs, matched against any path component.
#: Tests poke ``.data`` to build fixtures and corrupt state on purpose
#: (REPRO101 off) but must stay deterministic (REPRO102 on, REPRO104
#: forced).  Benchmarks additionally own their wall clocks — timing is
#: the product, so REPRO104 stays off there.
DIR_CONFIGS: Dict[str, DirConfig] = {
    "tests": DirConfig(drop=("REPRO101",), force=("REPRO104",)),
    "benchmarks": DirConfig(drop=("REPRO101", "REPRO104")),
}


def _config_for(path: Path) -> Optional[DirConfig]:
    # Files inside the package keep the default scoping even if some
    # ancestor directory happens to be named "tests".
    parts = path.parts
    if "repro" in parts:
        return None
    for part in parts:
        cfg = DIR_CONFIGS.get(part)
        if cfg is not None:
            return cfg
    return None


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
) -> List[LintViolation]:
    """Lint files and directory trees; returns all violations found.

    An explicit ``select`` narrows the rule set everywhere; on top of
    that, files under a :data:`DIR_CONFIGS` directory get that
    directory's dropped/forced rules.
    """
    out: List[LintViolation] = []
    for path in iter_python_files([Path(p) for p in paths]):
        cfg = _config_for(path)
        wanted = set(select) if select is not None else set(rule_codes())
        force: Tuple[str, ...] = ()
        if cfg is not None:
            wanted -= set(cfg.drop)
            force = cfg.force
        out.extend(
            lint_source(
                path.read_text(encoding="utf-8"),
                _module_path_for(path),
                select=wanted,
                display_path=str(path),
                force=force,
            )
        )
    return out
