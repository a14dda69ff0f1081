"""Tests for the correctness tooling (repro.analysis).

Every layer is tested from both sides: each detector must *fire* on a
seeded violation, and must be *silent* on the clean code paths — a
sanitized run reproduces the plain run bit-for-bit, and the AMR lint
reports zero violations over ``src/repro``.  The machine-mutant matrix
pins which check catches each seeded rank-machine fault.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.amr import Simulation, advecting_pulse, sedov_blast
from repro.analysis import (
    POISON_BITS,
    GhostSanitizer,
    PoisonError,
    check_interior_clean,
    check_stencil_ghosts,
    lint_paths,
    lint_source,
    poison_forest,
    poison_ghosts,
    poison_value,
    poisoned_mask,
    rule_codes,
)
from repro.cli import _refine_center
from repro.core import BlockForest, BlockID
from repro.core.ghost import fill_ghosts
from repro.parallel import emulator
from repro.parallel.emulator import EmulatedMachine, RankMachine
from repro.parallel.procmachine import ProcessMachine
from repro.parallel.procworker import RankPhases
from repro.util.geometry import Box

REPO = Path(__file__).resolve().parents[1]


def make_amr_forest(nvar=1):
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=nvar,
        n_ghost=2, periodic=(True, True), max_level=3,
    )
    f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
    f.adapt([BlockID(1, (1, 1))])
    return f


# ---------------------------------------------------------------------------
# poison primitives
# ---------------------------------------------------------------------------

class TestPoisonPrimitives:
    def test_poison_value_is_nan_with_exact_bits(self):
        v = poison_value()
        assert np.isnan(v)
        assert np.float64(v).view(np.uint64) == POISON_BITS

    def test_mask_is_bit_exact_not_any_nan(self):
        arr = np.zeros(4)
        arr[1] = poison_value()
        arr[2] = np.nan  # ordinary quiet NaN must NOT match
        mask = poisoned_mask(arr)
        assert mask.tolist() == [False, True, False, False]

    def test_mask_survives_noncontiguous_views(self):
        arr = np.zeros((4, 4))
        arr[:, 3] = poison_value()
        assert poisoned_mask(arr[:, 1:])[:, 2].all()

    def test_arithmetic_on_poison_loses_the_pattern(self):
        # The whole attribution story rests on this IEEE fact: any
        # arithmetic involving an sNaN yields a (different) quiet NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = np.float64(poison_value()) + 1.0
        assert np.isnan(out) and not poisoned_mask(np.array([out]))[0]

    def test_poison_ghosts_fills_ghosts_only(self):
        f = make_amr_forest()
        for b in f:
            b.data[...] = 7.0
        n = poison_forest(f)
        assert n > 0
        for b in f:
            assert (b.interior == 7.0).all()
            assert poisoned_mask(b.data).sum() * b.nvar == poison_ghosts(b)


class TestPoisonChecks:
    def test_clean_after_full_exchange(self):
        f = make_amr_forest()
        for b in f:
            b.data[...] = 1.0
        poison_forest(f)
        fill_ghosts(f, None)
        assert check_stencil_ghosts(f) == []
        # The exchange fills even corner ghosts on this forest.
        assert all(not poisoned_mask(b.data).any() for b in f)

    def test_unfilled_face_slab_is_reported_with_face_and_block(self):
        f = make_amr_forest()
        for b in f:
            b.data[...] = 1.0
        poison_forest(f)
        fill_ghosts(f, None)
        victim = next(iter(f))
        g = victim.n_ghost
        victim.data[0, :g, :] = poison_value()  # re-stale face 0 slab
        sites = check_stencil_ghosts(f)
        assert len(sites) == 1
        site = sites[0]
        assert site.block == victim.id and site.face == 0
        assert site.where == "ghost" and site.variables == (0,)

    def test_depth_limits_the_checked_slab(self):
        f = make_amr_forest()
        for b in f:
            b.data[...] = 1.0
        victim = next(iter(f))
        victim.data[0, 0, :] = poison_value()  # outermost layer only
        assert check_stencil_ghosts(f, depth=1) == []
        assert check_stencil_ghosts(f, depth=2) != []

    def test_interior_check_reports_nonfinite(self):
        f = make_amr_forest()
        for b in f:
            b.data[...] = 1.0
        victim = next(iter(f))
        victim.interior[0, 2, 2] = np.inf
        sites = check_interior_clean(f)
        assert [s.block for s in sites] == [victim.id]
        assert sites[0].where == "interior"


# ---------------------------------------------------------------------------
# sanitizer end-to-end (serial driver)
# ---------------------------------------------------------------------------

class TestGhostSanitizerSerial:
    def test_sanitized_run_matches_plain_run_bit_for_bit(self):
        plain = advecting_pulse().build(adaptive=True)
        sane = advecting_pulse().build(adaptive=True, sanitize=True)
        for _ in range(5):
            dt = plain.stable_dt()
            plain.step(dt)
            sane.step(dt)
        assert set(plain.forest.blocks) == set(sane.forest.blocks)
        for bid, blk in plain.forest.blocks.items():
            np.testing.assert_array_equal(
                blk.interior, sane.forest.blocks[bid].interior
            )
        assert sane.sanitizer.n_exchanges_checked > 0
        assert sane.sanitizer.n_cells_poisoned > 0

    def test_sanitized_adaptive_sedov_is_clean(self):
        sim = sedov_blast().build(adaptive=True, sanitize=True)
        for _ in range(3):
            sim.step(0.25 * sim.stable_dt())
        assert sim.sanitizer.n_exchanges_checked >= 3

    def test_skipped_exchange_trips_the_sanitizer(self):
        sim = advecting_pulse().build(adaptive=False, sanitize=True)
        sim.fill_ghosts = lambda: None  # seeded bug: exchange forgotten
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(PoisonError) as err:
                sim.advance(1e-4)
        assert err.value.sites

    def test_partial_exchange_trips_the_face_check(self):
        sim = advecting_pulse().build(adaptive=False, sanitize=True)
        orig = sim.forest
        real_fill = fill_ghosts

        def leaky_fill():
            # Seeded bug: the exchange runs, then one block's face slab
            # is re-staled — as if one message went missing.
            sim.sanitizer.before_exchange(orig)
            real_fill(orig, sim.bc)
            victim = next(iter(orig))
            victim.data[:, :victim.n_ghost, :] = poison_value()
            sim.sanitizer.after_exchange(orig)

        sim.fill_ghosts = leaky_fill
        with pytest.raises(PoisonError) as err:
            sim.advance(1e-4)
        assert any(s.where == "ghost" for s in err.value.sites)


# ---------------------------------------------------------------------------
# sanitizer on the emulated machine
# ---------------------------------------------------------------------------

class TestEmulatedMachineTooling:
    def _serial_and_machine(self, n_ranks=3, sanitize=True):
        prob = advecting_pulse()
        serial = prob.build(adaptive=False)
        forest = prob.config.make_forest(prob.scheme.nvar)
        prob.init_forest(forest)
        machine = EmulatedMachine(
            forest, n_ranks, prob.scheme, bc=prob.bc, sanitize=sanitize
        )
        return serial, machine

    def test_clean_run_is_silent_and_bit_exact(self):
        serial, machine = self._serial_and_machine()
        dt = 0.5 * serial.stable_dt()
        for _ in range(4):
            serial.advance(dt)
            machine.advance(dt)
        for bid, arr in machine.gather().items():
            np.testing.assert_array_equal(
                arr, serial.forest.blocks[bid].interior
            )

    def test_recovery_restore_is_not_flagged(self, tmp_path):
        # A checkpoint restore rewrites every interior and leaves the
        # ghosts stale; the sanitized recovery must neither trip nor
        # move a bit of the fault-free serial run.
        from repro.resilience import Checkpointer, FaultPlan, RankKill
        from repro.resilience.recovery import run_with_recovery

        serial, machine = self._serial_and_machine()
        machine.fault_plan = FaultPlan(kills=[RankKill(step=2, rank=1)])
        run_with_recovery(
            machine, n_steps=4, dt=1e-3,
            checkpointer=Checkpointer(tmp_path), checkpoint_every=1,
        )
        for _ in range(4):
            serial.advance(1e-3)
        for bid, arr in machine.gather().items():
            np.testing.assert_array_equal(
                arr, serial.forest.blocks[bid].interior
            )


# ---------------------------------------------------------------------------
# machine mutants: which check catches each seeded fault, on both machines
# ---------------------------------------------------------------------------
#
# Every mutant is patched in before the machine is built (the process
# machine forks its workers from the patched classes).  The run is the
# pulse refined twice at the centre on 3 ranks for 4 steps, with one
# block adopted onto another rank after step 1 — the receiving half of
# localized recovery, adopted directly because a rank kill would mark
# the configuration dirty before the adopt.  The serial driver ≡
# machine comparison catches every mutant; the ghost sanitizer only
# those that leave a ghost unfilled, which it then localizes.

MUTANT_STEPS = 4


def _compute_before_exchange(machine, mp):
    exchange, compute = machine.exchange, machine._compute

    def configure_only(self):
        if self._config_dirty:
            self._configure()

    def compute_then_exchange(self, op, dt):
        compute(self, op, dt)
        exchange(self)

    mp.setattr(machine, "exchange", configure_only)
    mp.setattr(machine, "_compute", compute_then_exchange)


def _stage2_before_stage1(machine, mp):
    stage1, stage2 = machine._stage1, machine._stage2
    mp.setattr(machine, "_stage1", stage2)
    mp.setattr(machine, "_stage2", stage1)


def _rank_skips(phase, rank):
    def apply(machine, mp):
        run = getattr(RankPhases, phase)
        mp.setattr(RankPhases, phase, lambda self, *args: (
            {"status": "ok"} if self.rank == rank else run(self, *args)
        ))
    return apply


def _dropped_plan_entry(machine, mp):
    regions = emulator.exchange_regions
    mp.setattr(emulator, "exchange_regions", lambda forest: regions(forest)[1:])


def _adopt_keeps_config(machine, mp):
    adopt = RankMachine.adopt_block

    def stale(self, bid, rank, interior):
        dirty = self._config_dirty
        adopt(self, bid, rank, interior)
        self._config_dirty = dirty

    mp.setattr(RankMachine, "adopt_block", stale)


def _write_during_gather(machine, mp):
    write = RankPhases.exch2_write

    def after_gather(self, cmd=None):
        # idempotent, so concurrent rank processes leave one state
        if self.plan.prolongs:
            self.plan.prolongs[0].src.interior[...] = 0.0
        return write(self, cmd)

    mp.setattr(RankPhases, "exch2_write", after_gather)


#: mutant -> (how to patch it in, whether the ghost sanitizer catches it)
MUTANTS = {
    "none": (lambda machine, mp: None, False),
    "compute-before-exchange": (_compute_before_exchange, True),
    "stage2-before-stage1": (_stage2_before_stage1, False),
    "rank1-skips-exch1": (_rank_skips("exch1", 1), True),
    "rank2-skips-corrector": (_rank_skips("corrector", 2), False),
    "dropped-plan-entry": (_dropped_plan_entry, True),
    "adopt-keeps-stale-config": (_adopt_keeps_config, True),
    "source-written-between-gather-and-write": (_write_during_gather, False),
}


def _refined_pulse(sim=None):
    prob = advecting_pulse()
    forest = sim.forest if sim else prob.config.make_forest(prob.scheme.nvar)
    _refine_center(forest, 2)
    prob.init_forest(forest)
    return prob, forest


@pytest.fixture(scope="module")
def serial_pulse():
    sim = advecting_pulse().build(adaptive=False)
    _refined_pulse(sim)
    dt = 0.5 * sim.stable_dt()
    for _ in range(MUTANT_STEPS):
        sim.advance(dt)
    return dt, {bid: b.interior.copy() for bid, b in sim.forest.blocks.items()}


def _run_machine(machine_cls, dt, sanitize):
    prob, forest = _refined_pulse()
    machine = machine_cls(forest, 3, prob.scheme, bc=prob.bc, sanitize=sanitize)
    try:
        for step in range(MUTANT_STEPS):
            if step == 1:
                bid = machine.topology.sorted_ids()[0]
                machine.adopt_block(
                    bid, (machine.owner_rank(bid) + 1) % 3,
                    machine.local_block(bid).interior.copy(),
                )
            machine.advance(dt)
        return machine.gather()
    finally:
        getattr(machine, "close", lambda: None)()


@pytest.mark.parametrize(
    "machine", [EmulatedMachine, ProcessMachine], ids=lambda m: m.__name__
)
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_machine_mutant_matrix(mutant, machine, monkeypatch, serial_pulse):
    apply, sanitizer_catches = MUTANTS[mutant]
    apply(machine, monkeypatch)
    dt, serial = serial_pulse
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # arithmetic on poisoned ghosts
        if sanitizer_catches:
            with pytest.raises(PoisonError):
                _run_machine(machine, dt, sanitize=True)
        else:
            _run_machine(machine, dt, sanitize=True)
    gathered = _run_machine(machine, dt, sanitize=False)
    bitwise = all(np.array_equal(gathered[bid], u) for bid, u in serial.items())
    assert bitwise == (mutant == "none")


# ---------------------------------------------------------------------------
# AMR lint
# ---------------------------------------------------------------------------

class TestLintRules:
    def test_repro101_direct_data_mutation(self):
        src = "def f(block):\n    block.data[0] += 1.0\n"
        v = lint_source(src, "repro/amr/driver2.py")
        assert [x.code for x in v] == ["REPRO101"]

    def test_repro101_allowed_in_kernel_modules(self):
        src = "def f(block):\n    block.data[0] += 1.0\n"
        assert lint_source(src, "repro/core/ghost.py") == []
        assert lint_source(src, "repro/solvers/scheme.py") == []

    def test_repro101_plain_assign_and_subscript(self):
        for stmt in ("b.data = x", "b.data[...] = x", "b.data[0][1] = x"):
            v = lint_source(f"{stmt}\n", "repro/parallel/emulator2.py")
            assert [x.code for x in v] == ["REPRO101"], stmt

    def test_repro102_unseeded_rng(self):
        bad = [
            "import numpy as np\nr = np.random.default_rng()\n",
            "import numpy as np\nx = np.random.random(3)\n",
            "import random\nx = random.random()\n",
            "from random import Random\nr = Random()\n",
        ]
        for src in bad:
            v = lint_source(src, "repro/util/anything.py")
            assert any(x.code == "REPRO102" for x in v), src

    def test_repro102_seeded_rng_is_fine(self):
        good = [
            "import numpy as np\nr = np.random.default_rng(0)\n",
            "import numpy as np\nr = np.random.default_rng(seed=7)\n",
            "from random import Random\nr = Random(3)\n",
        ]
        for src in good:
            assert lint_source(src, "repro/util/anything.py") == [], src

    def test_repro103_bare_except_everywhere(self):
        src = "try:\n    f()\nexcept:\n    handle()\n"
        v = lint_source(src, "repro/amr/driver2.py")
        assert [x.code for x in v] == ["REPRO103"]

    def test_repro103_swallow_only_in_recovery_paths(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert lint_source(src, "repro/resilience/recovery2.py") != []
        # Outside recovery paths a typed swallow is (only) questionable.
        assert lint_source(src, "repro/amr/driver2.py") == []

    def test_repro104_wall_clock_in_replay_code(self):
        bad = [
            "import time\nt = time.perf_counter()\n",
            "import time as _t\nt = _t.time()\n",
            "from time import monotonic\nt = monotonic()\n",
            "import datetime\nd = datetime.datetime.now()\n",
        ]
        for src in bad:
            v = lint_source(src, "repro/resilience/recovery2.py")
            assert any(x.code == "REPRO104" for x in v), src

    def test_repro104_scoped_to_replay_modules(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, "repro/util/timing2.py") == []

    def test_repro105_raw_checksum_outside_owner_modules(self):
        bad = [
            "import zlib\nc = zlib.crc32(b'x')\n",
            "import zlib\nc = zlib.adler32(b'x')\n",
            "from zlib import crc32\nc = crc32(b'x')\n",
            "import hashlib\nh = hashlib.sha256(b'x')\n",
            "import hashlib\nh = hashlib.md5(b'x')\n",
            "from hashlib import sha256\nh = sha256(b'x')\n",
        ]
        for src in bad:
            v = lint_source(src, "repro/amr/driver2.py")
            assert any(x.code == "REPRO105" for x in v), src

    def test_repro105_allowed_in_checksum_owner_modules(self):
        src = "import zlib\nc = zlib.crc32(b'x')\n"
        for owner in (
            "repro/core/integrity.py",
            "repro/amr/io.py",
            "repro/resilience/checkpoint.py",
            "repro/parallel/supervisor.py",
        ):
            assert lint_source(src, owner) == [], owner

    def test_repro105_integrity_helpers_are_fine(self):
        src = (
            "from repro.core.integrity import content_crc, crc_bytes\n"
            "c = content_crc(arr)\n"
            "d = crc_bytes(b'x')\n"
        )
        assert lint_source(src, "repro/amr/driver2.py") == []

    def test_repro105_noqa_escape(self):
        src = (
            "import zlib\n"
            "c = zlib.crc32(b'x')  # repro: noqa[REPRO105]\n"
        )
        assert lint_source(src, "repro/amr/driver2.py") == []

    def test_noqa_suppression(self):
        src = "b.data = x  # repro: noqa[REPRO101]\n"
        assert lint_source(src, "repro/amr/driver2.py") == []
        # Bare noqa suppresses every rule on the line.
        src = "b.data = x  # repro: noqa\n"
        assert lint_source(src, "repro/amr/driver2.py") == []
        # A noqa for a different rule does not suppress.
        src = "b.data = x  # repro: noqa[REPRO102]\n"
        assert lint_source(src, "repro/amr/driver2.py") != []

    def test_select_restricts_rules(self):
        src = "b.data = x\nimport random\ny = random.random()\n"
        v = lint_source(src, "repro/amr/driver2.py", select={"REPRO102"})
        assert [x.code for x in v] == ["REPRO102"]

    def test_violation_carries_position(self):
        src = "x = 1\nb.data = x\n"
        v = lint_source(src, "repro/amr/driver2.py")[0]
        assert v.line == 2 and v.col >= 0

    def test_syntax_error_is_reported_not_raised(self):
        v = lint_source("def f(:\n", "repro/amr/driver2.py")
        assert v and v[0].code == "REPRO000"


class TestLintEdgeCases:
    def test_noqa_multi_rule_line(self):
        # One line, two violations, both named in a single bracket list.
        src = (
            "import random\n"
            "b.data = random.random()  # repro: noqa[REPRO101, REPRO102]\n"
        )
        assert lint_source(src, "repro/amr/driver2.py") == []
        # Naming only one of the two leaves the other reported.
        src = (
            "import random\n"
            "b.data = random.random()  # repro: noqa[REPRO101]\n"
        )
        v = lint_source(src, "repro/amr/driver2.py")
        assert [x.code for x in v] == ["REPRO102"]

    def test_noqa_is_case_insensitive(self):
        src = "b.data = x  # REPRO: NOQA[repro101]\n"
        assert lint_source(src, "repro/amr/driver2.py") == []

    def test_from_import_alias_resolution(self):
        # `from x import y as z` must resolve z back to x.y.
        cases = [
            ("from time import perf_counter as pc\nt = pc()\n",
             "REPRO104", "repro/resilience/recovery2.py"),
            ("from zlib import crc32 as c32\nc = c32(b'x')\n",
             "REPRO105", "repro/amr/driver2.py"),
            ("from random import Random as R\nr = R()\n",
             "REPRO102", "repro/util/anything.py"),
        ]
        for src, code, module in cases:
            v = lint_source(src, module)
            assert any(x.code == code for x in v), (src, code)

    def test_import_module_alias_resolution(self):
        src = "import datetime as dt\nd = dt.datetime.now()\n"
        v = lint_source(src, "repro/resilience/recovery2.py")
        assert any(x.code == "REPRO104" for x in v)

    def test_decorated_function_body_is_checked(self):
        src = (
            "import functools\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def f(block):\n"
            "    block.data[0] = 1.0\n"
        )
        v = lint_source(src, "repro/amr/driver2.py")
        assert [x.code for x in v] == ["REPRO101"]

    def test_nested_function_body_is_checked(self):
        src = (
            "def outer(block):\n"
            "    def inner():\n"
            "        import random\n"
            "        block.data[0] = random.random()\n"
            "    return inner\n"
        )
        codes = [x.code for x in
                 lint_source(src, "repro/amr/driver2.py")]
        assert "REPRO101" in codes and "REPRO102" in codes

    def test_alias_imported_inside_function_resolves(self):
        src = (
            "def f():\n"
            "    from time import monotonic as mono\n"
            "    return mono()\n"
        )
        v = lint_source(src, "repro/resilience/recovery2.py")
        assert any(x.code == "REPRO104" for x in v)

    def test_method_in_class_is_checked(self):
        src = (
            "class C:\n"
            "    def f(self, block):\n"
            "        block.data += 1\n"
        )
        v = lint_source(src, "repro/amr/driver2.py")
        assert [x.code for x in v] == ["REPRO101"]


class TestLintPerDirectoryConfig:
    def test_tests_directory_drops_repro101(self, tmp_path):
        f = tmp_path / "tests" / "test_x.py"
        f.parent.mkdir()
        f.write_text("b.data = x\n")
        assert lint_paths([str(f)]) == []

    def test_tests_directory_forces_repro104(self, tmp_path):
        f = tmp_path / "tests" / "test_x.py"
        f.parent.mkdir()
        f.write_text("import time\nt = time.perf_counter()\n")
        v = lint_paths([str(f)])
        assert [x.code for x in v] == ["REPRO104"]

    def test_tests_directory_keeps_repro102(self, tmp_path):
        f = tmp_path / "tests" / "test_x.py"
        f.parent.mkdir()
        f.write_text("import random\nx = random.random()\n")
        v = lint_paths([str(f)])
        assert [x.code for x in v] == ["REPRO102"]

    def test_benchmarks_keep_wall_clock(self, tmp_path):
        f = tmp_path / "benchmarks" / "bench_x.py"
        f.parent.mkdir()
        f.write_text("import time\nt = time.perf_counter()\n")
        assert lint_paths([str(f)]) == []

    def test_package_files_keep_default_scoping(self, tmp_path):
        # A package file under a directory named tests/ must not pick up
        # the per-directory config (REPRO101 still applies).
        f = tmp_path / "tests" / "repro" / "amr" / "mod.py"
        f.parent.mkdir(parents=True)
        f.write_text("b.data = x\n")
        v = lint_paths([str(f)])
        assert [x.code for x in v] == ["REPRO101"]

    def test_repo_tests_and_benchmarks_are_clean(self):
        violations = lint_paths([
            str(REPO / "tests"), str(REPO / "benchmarks"),
        ])
        assert violations == [], "\n".join(map(str, violations))


class TestLintFormats:
    def _seed(self, tmp_path):
        bad = tmp_path / "repro" / "amr" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        return bad

    def test_json_format(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = self._seed(tmp_path)
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        entry = payload["violations"][0]
        assert entry["code"] == "REPRO102"
        assert entry["path"] == str(bad)
        assert entry["line"] == 2

    def test_json_format_clean(self, tmp_path, capsys):
        import json

        from repro.cli import main

        assert main(["lint", "--format", "json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": 0, "violations": []}

    def test_github_format(self, tmp_path, capsys):
        from repro.cli import main

        bad = self._seed(tmp_path)
        assert main(["lint", "--format", "github", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"::error file={bad},line=2,")
        assert "title=REPRO102::" in out


class TestLintOnRepo:
    def test_src_tree_is_clean(self):
        violations = lint_paths([str(REPO / "src" / "repro")])
        assert violations == [], "\n".join(map(str, violations))

    def test_cli_lint_clean_and_list_rules(self):
        from repro.cli import main

        assert main(["lint", str(REPO / "src" / "repro")]) == 0
        assert main(["lint", "--list-rules"]) == 0

    def test_cli_lint_fails_on_seeded_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "amr" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        from repro.cli import main

        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REPRO102" in out

    def test_cli_lint_rejects_unknown_code(self):
        from repro.cli import main

        assert main(["lint", "--select", "REPRO999", "."]) == 2


# ---------------------------------------------------------------------------
# CLI: sanitize subcommand and --sanitize flags
# ---------------------------------------------------------------------------

class TestSanitizeCLI:
    def test_sanitize_subcommand_clean(self, capsys):
        # the serial half of the old `sanitize` verb is `run --sanitize`
        # (the emulated half: test_emulate_with_sanitize_flag)
        from repro.cli import main

        assert main(["run", "pulse", "--steps", "2", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "ghost sanitizer:" in out and "0 violations" in out
        assert main(["sanitize", "pulse", "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "sanitize" in err

    def test_emulate_with_sanitize_flag(self, capsys):
        from repro.cli import main

        assert main(
            ["emulate", "pulse", "--steps", "2", "--ranks", "2", "--sanitize"]
        ) == 0
        out = capsys.readouterr().out
        assert "ghost sanitizer" in out and "0 violations" in out


# ---------------------------------------------------------------------------
# typing gate
# ---------------------------------------------------------------------------

def _unannotated_defs(tree):
    import ast

    missing = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = []
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                if a.arg not in ("self", "cls") and a.annotation is None:
                    names.append(a.arg)
            for va in (args.vararg, args.kwarg):
                if va is not None and va.annotation is None:
                    names.append(va.arg)
            if node.returns is None and node.name != "__init__":
                names.append("return")
            if names:
                missing.append((node.lineno, node.name, names))
    return missing


class TestTypingGate:
    STRICT_PACKAGES = ("core", "parallel", "resilience", "analysis")

    def test_strict_packages_are_fully_annotated(self):
        # mypy --strict equivalent of disallow_untyped_defs /
        # disallow_incomplete_defs, enforced without mypy installed:
        # every definition in the strict packages carries complete
        # annotations (nested physics closures included).
        import ast

        problems = []
        for pkg in self.STRICT_PACKAGES:
            for path in sorted((REPO / "src" / "repro" / pkg).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for lineno, name, names in _unannotated_defs(tree):
                    problems.append(f"{path}:{lineno} {name}: {names}")
        assert problems == [], "\n".join(problems)

    def test_pyproject_pins_the_toolchain(self):
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py3.10
            pytest.skip("tomllib unavailable")
        cfg = tomllib.loads((REPO / "pyproject.toml").read_text())
        dev = cfg["project"]["optional-dependencies"]["dev"]
        assert any(d.startswith("mypy==") for d in dev)
        assert any(d.startswith("ruff==") for d in dev)
        overrides = cfg["tool"]["mypy"]["overrides"]
        strict = [o for o in overrides if o.get("disallow_untyped_defs")]
        assert strict, "strict mypy override missing"
        mods = strict[0]["module"]
        for pkg in ("repro.core.*", "repro.parallel.*", "repro.resilience.*"):
            assert pkg in mods

    @pytest.mark.skipif(
        subprocess.run(
            [sys.executable, "-c", "import mypy"], capture_output=True
        ).returncode != 0,
        reason="mypy not installed (dev extra)",
    )
    def test_mypy_gate_passes(self):  # pragma: no cover - needs dev extra
        res = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file",
             str(REPO / "pyproject.toml")],
            capture_output=True, text=True, cwd=REPO,
        )
        assert res.returncode == 0, res.stdout + res.stderr

    @pytest.mark.skipif(
        subprocess.run(
            [sys.executable, "-c", "import ruff"], capture_output=True
        ).returncode != 0,
        reason="ruff not installed (dev extra)",
    )
    def test_ruff_gate_passes(self):  # pragma: no cover - needs dev extra
        res = subprocess.run(
            [sys.executable, "-m", "ruff", "check", "src", "tests"],
            capture_output=True, text=True, cwd=REPO,
        )
        assert res.returncode == 0, res.stdout + res.stderr
