"""Tests for checkpoint I/O (repro.amr.io)."""

import numpy as np
import pytest

from repro.amr.io import (
    FORMAT_VERSION,
    CheckpointError,
    _array_checksum,
    checkpoint_metadata,
    grid_report,
    load_forest,
    save_forest,
)
from repro.core import BlockForest, BlockID, fill_ghosts
from repro.util.geometry import Box


def make_forest():
    f = BlockForest(
        Box((0.0, 0.0), (1.0, 1.0)),
        (2, 2),
        (4, 4),
        nvar=3,
        periodic=(True, False),
        max_level=4,
        max_level_jump=1,
    )
    f.adapt([BlockID(0, (0, 0))])
    f.adapt([BlockID(1, (0, 0))])
    rng = np.random.default_rng(11)
    for b in f:
        b.interior[...] = rng.random(b.interior.shape)
    return f


class TestRoundtrip:
    def test_topology_and_data_preserved(self, tmp_path):
        f = make_forest()
        path = tmp_path / "ckpt.npz"
        save_forest(f, path)
        g = load_forest(path)
        assert set(g.blocks) == set(f.blocks)
        for bid in f.blocks:
            np.testing.assert_array_equal(
                g.blocks[bid].interior, f.blocks[bid].interior
            )

    def test_parameters_preserved(self, tmp_path):
        f = make_forest()
        path = tmp_path / "ckpt.npz"
        save_forest(f, path)
        g = load_forest(path)
        assert g.m == f.m
        assert g.n_ghost == f.n_ghost
        assert g.periodic == f.periodic
        assert g.max_level == f.max_level
        assert g.domain.lo == f.domain.lo

    def test_loaded_forest_is_functional(self, tmp_path):
        f = make_forest()
        path = tmp_path / "ckpt.npz"
        save_forest(f, path)
        g = load_forest(path)
        g.check_balance()
        g.check_coverage()
        fill_ghosts(g)  # ghosts reconstructible
        g.adapt([next(iter(g.blocks))])  # still adaptable

    def test_uniform_forest_roundtrip(self, tmp_path):
        f = BlockForest(Box((0.0,), (1.0,)), (3,), (6,), nvar=1)
        for i, b in enumerate(f):
            b.interior[...] = float(i)
        path = tmp_path / "u.npz"
        save_forest(f, path)
        g = load_forest(path)
        assert [float(b.interior[0, 0]) for b in g] == [0.0, 1.0, 2.0]

    def test_adapted_and_coarsened_forest_roundtrip(self, tmp_path):
        # A topology produced by refinement *and* subsequent coarsening
        # must survive the save/load cycle exactly.
        f = make_forest()
        kids = [b for b in f.blocks if b.level == 2]
        f.adapt([], kids)  # coarsen the deepest family back out
        rng = np.random.default_rng(3)
        for b in f:
            b.interior[...] = rng.random(b.interior.shape)
        path = tmp_path / "adapted.npz"
        save_forest(f, path)
        g = load_forest(path)
        assert set(g.blocks) == set(f.blocks)
        for bid in f.blocks:
            np.testing.assert_array_equal(
                g.blocks[bid].interior, f.blocks[bid].interior
            )

    def test_metadata_roundtrip(self, tmp_path):
        f = make_forest()
        path = tmp_path / "meta.npz"
        save_forest(f, path, time=1.25, step=17)
        meta = checkpoint_metadata(path)
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["n_blocks"] == f.n_blocks
        assert meta["time"] == 1.25
        assert meta["step"] == 17

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        f = make_forest()
        path = tmp_path / "ckpt.npz"
        save_forest(f, path)
        save_forest(f, path)  # overwrite goes through the same tmp path
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]


def _tamper(path, mutate):
    """Load a checkpoint's raw arrays, mutate them, re-checksum, rewrite."""
    with np.load(path) as f:
        payload = {name: f[name] for name in f.files}
    mutate(payload)
    if "checksum" in payload:
        payload["checksum"] = np.uint32(_array_checksum(payload))
    np.savez_compressed(path, **payload)


class TestLoadFailures:
    def _saved(self, tmp_path):
        f = make_forest()
        path = tmp_path / "ckpt.npz"
        save_forest(f, path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_forest(tmp_path / "nope.npz")

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            load_forest(path)

    def test_bit_flip_fails_checksum(self, tmp_path):
        path = self._saved(tmp_path)
        _tamper(path, lambda p: None)  # sanity: re-checksummed copy loads
        load_forest(path)
        # Now alter the data while keeping the stale checksum.
        with np.load(path) as f:
            payload = {name: f[name] for name in f.files}
        payload["data"] = payload["data"].copy()
        payload["data"].flat[0] += 1.0
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointError, match="checksum"):
            load_forest(path)

    def test_missing_required_key(self, tmp_path):
        path = self._saved(tmp_path)
        _tamper(path, lambda p: p.pop("m"))
        with pytest.raises(CheckpointError, match="missing required"):
            load_forest(path)

    def test_format_version_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        _tamper(
            path,
            lambda p: p.update(format_version=np.int64(FORMAT_VERSION + 1)),
        )
        with pytest.raises(CheckpointError, match="format version"):
            load_forest(path)

    def test_unreachable_topology(self, tmp_path):
        # Replace one root leaf with the child of *another* root: the
        # saved leaf set is then not reachable by pure refinement.
        f = BlockForest(Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1)
        path = tmp_path / "bad.npz"
        save_forest(f, path)

        def mutate(payload):
            levels = payload["levels"].copy()
            coords = payload["coords"].copy()
            levels[-1] = 1
            coords[-1] = (0, 0)
            payload["levels"], payload["coords"] = levels, coords

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="not reachable"):
            load_forest(path)

    def test_saved_leaf_with_saved_descendants(self, tmp_path):
        # One child of a refined root replaced by the root itself: the
        # root is then both a saved leaf and an ancestor of saved leaves.
        f = BlockForest(Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1)
        f.adapt([BlockID(0, (0, 0))])
        path = tmp_path / "bad.npz"
        save_forest(f, path)

        def mutate(payload):
            levels = payload["levels"].copy()
            coords = payload["coords"].copy()
            child = next(i for i, lvl in enumerate(levels) if lvl == 1)
            levels[child] = 0
            coords[child] = (0, 0)
            payload["levels"], payload["coords"] = levels, coords

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="not reachable"):
            load_forest(path)

    def test_metadata_shares_verification(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            checkpoint_metadata(path)


class TestCheckpointFuzzing:
    """Seeded corruption sweep: a damaged checkpoint must surface as
    :class:`CheckpointError` — never a stray exception, never silently
    loading wrong data."""

    def _saved(self, tmp_path):
        f = make_forest()
        path = tmp_path / "ckpt.npz"
        save_forest(f, path)
        return path, f

    @pytest.mark.parametrize("seed", range(10))
    def test_truncation_always_checkpoint_error(self, tmp_path, seed):
        path, _ = self._saved(tmp_path)
        raw = path.read_bytes()
        cut = int(np.random.default_rng(seed).integers(1, len(raw)))
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_forest(path)

    @pytest.mark.parametrize("seed", range(10))
    def test_byte_flips_detected_or_harmless(self, tmp_path, seed):
        path, forest = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        rng = np.random.default_rng(1000 + seed)
        for pos in rng.integers(0, len(raw), size=4):
            raw[pos] ^= 1 << int(rng.integers(0, 8))
        path.write_bytes(bytes(raw))
        try:
            loaded = load_forest(path)
        except CheckpointError:
            return  # corruption detected, the contract we want
        # Flips can land in zip padding and leave a valid file; then
        # the decoded data must be bit-identical to what was saved.
        for bid, blk in forest.blocks.items():
            np.testing.assert_array_equal(
                loaded.blocks[bid].interior, blk.interior
            )

    def test_latest_falls_back_past_corrupted_newest(self, tmp_path):
        from repro.resilience import Checkpointer

        ckpt = Checkpointer(tmp_path, keep=3)
        forest = make_forest()
        ckpt.save(forest, step=1, time=0.1)
        info2 = ckpt.save(forest, step=2, time=0.2)
        info3 = ckpt.save(forest, step=3, time=0.3)
        # Corrupt the newest file in place.
        info3.path.write_bytes(info3.path.read_bytes()[:100])
        info = ckpt.latest()
        assert info is not None
        assert info.step == 2
        loaded, loaded_info = ckpt.load_latest()
        assert loaded_info.path == info2.path
        for bid, blk in forest.blocks.items():
            np.testing.assert_array_equal(
                loaded.blocks[bid].interior, blk.interior
            )


class TestGridReport:
    def test_contains_key_stats(self):
        f = make_forest()
        text = grid_report(f)
        assert "blocks: " in text
        assert "ghost/computational cell ratio" in text
        assert "L0" in text and "L2" in text


class TestHistoryCsv:
    def test_csv_written(self, tmp_path):
        from repro.amr import advecting_pulse
        from repro.amr.io import history_to_csv

        p = advecting_pulse(2)
        sim = p.build()
        sim.run(n_steps=5)
        path = tmp_path / "hist.csv"
        history_to_csv(sim.history, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("step,time,dt")
        assert len(lines) == 6
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[2]) > 0  # dt

    def test_wall_time_column(self, tmp_path):
        from repro.amr import advecting_pulse
        from repro.amr.io import history_to_csv

        p = advecting_pulse(2)
        sim = p.build()
        sim.run(n_steps=3)
        assert all(r.wall_time is not None for r in sim.history)
        path = tmp_path / "hist.csv"
        history_to_csv(sim.history, path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",wall_time")
        for line in lines[1:]:
            assert float(line.split(",")[-1]) > 0

    def test_no_wall_time_column_for_synthetic_records(self, tmp_path):
        from repro.amr.driver import StepRecord
        from repro.amr.io import history_to_csv

        history = [StepRecord(1, 0.1, 0.1, 4, 64)]
        path = tmp_path / "hist.csv"
        history_to_csv(history, path)
        lines = path.read_text().splitlines()
        assert "wall_time" not in lines[0]
        assert lines[1].count(",") == lines[0].count(",")

    def test_empty_history_writes_header_only(self, tmp_path):
        from repro.amr.io import history_to_csv

        path = tmp_path / "empty.csv"
        history_to_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == ["step,time,dt,n_blocks,n_cells,refined,coarsened"]

    def test_mixed_history_pads_missing_wall_time(self, tmp_path):
        # A history mixing measured and synthetic records (e.g. resumed
        # runs) keeps the column and leaves the missing cells empty, so
        # every row has the same arity.
        from repro.amr.driver import StepRecord
        from repro.amr.io import history_to_csv

        history = [
            StepRecord(1, 0.1, 0.1, 4, 64),
            StepRecord(2, 0.2, 0.1, 4, 64, wall_time=0.02),
        ]
        path = tmp_path / "hist.csv"
        history_to_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",wall_time")
        assert all(ln.count(",") == lines[0].count(",") for ln in lines)
        assert lines[1].endswith(",")  # missing wall_time -> empty cell
        assert lines[2].endswith(",0.02")

    def test_recovery_time_column(self, tmp_path):
        from repro.amr.driver import StepRecord
        from repro.amr.io import history_to_csv

        history = [
            StepRecord(1, 0.1, 0.1, 4, 64, wall_time=0.01),
            StepRecord(2, 0.2, 0.1, 4, 64, wall_time=0.01,
                       recovery_time=0.5),
        ]
        path = tmp_path / "hist.csv"
        history_to_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",wall_time,recovery_time")
        # Steps without a recovery leave the cell empty.
        assert lines[1].endswith(",")
        assert lines[2].endswith(",0.5")

    def test_recovery_report_history_round_trips(self, tmp_path):
        from repro.amr.io import history_to_csv
        from repro.parallel import EmulatedMachine
        from repro.resilience import (
            Checkpointer,
            FaultPlan,
            RankKill,
            run_with_recovery,
        )
        from repro.solvers import AdvectionScheme

        forest = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=1,
            n_ghost=2, periodic=(True, True),
        )
        rng = np.random.default_rng(3)
        for b in forest:
            b.interior[...] = rng.random(b.interior.shape)
        plan = FaultPlan(kills=[RankKill(step=2, rank=1)])
        emu = EmulatedMachine(forest, 4, AdvectionScheme((1.0, 0.5), order=2),
                              fault_plan=plan)
        report = run_with_recovery(
            emu, n_steps=4, dt=1e-3,
            checkpointer=Checkpointer(tmp_path / "ckpt"), strategy="local",
        )
        assert len(report.history) == 4
        path = tmp_path / "hist.csv"
        history_to_csv(report.history, path)
        lines = path.read_text().splitlines()
        assert "recovery_time" in lines[0]
        charged = [ln for ln in lines[1:] if not ln.endswith(",")]
        assert len(charged) == 1  # only the recovered step carries cost
