"""The tiled sweep through the driver: arena storage + tile invariance.

``engine="blocked"`` (one pool row per kernel call — the reference
``benchmarks/e2e`` divides by) and ``engine="batched"`` (a tile of rows)
are the same :class:`~repro.solvers.sweep.PoolSweep` and must agree bit
for bit across physics, orders, limiters, mid-run adaptation and
refluxing; ``PoolSweep`` itself is pinned for any tile size and row
range.  (The sweep against the per-block update it replaced is
``test_sweep_oracle.py``.)  Also: the tile rule, the ghost sanitizer,
the exchange race detector, rank-kill recovery, unit tests of the block
arena, and the settings that no longer exist.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracle import BlockOracle
from repro.amr import Simulation, advecting_pulse
from repro.amr.config import SimulationConfig
from repro.amr.problems import mhd_blast, sedov_blast
from repro.core import BlockForest, BlockID
from repro.core.arena import BlockArena
from repro.solvers import AdvectionScheme, EulerScheme, MHDScheme
from repro.solvers.sweep import BATCH_TILE_BYTES, PoolSweep, tile_rows
from repro.util.geometry import Box


def assert_forests_identical(a, b):
    assert sorted(a.blocks) == sorted(b.blocks)
    for bid in a.blocks:
        assert np.array_equal(a.blocks[bid].interior, b.blocks[bid].interior), bid


def run_one(problem, steps, engine, reflux=False, **sim_kwargs):
    sim = problem.build(engine=engine, **sim_kwargs)
    sim.reflux = reflux
    with sim:
        for _ in range(steps):
            sim.step()
    return sim


def run_pair(problem, steps, **kw):
    """Run one row per kernel call and a tile of rows on a problem;
    returns (blocked, batched) sims."""
    return tuple(
        run_one(problem, steps, engine, **kw) for engine in ("blocked", "batched")
    )


# ---------------------------------------------------------------------------
# arena unit tests
# ---------------------------------------------------------------------------


class TestBlockArena:
    def test_acquire_release_reuse(self):
        arena = BlockArena((4, 4), 2, 3, initial_capacity=2)
        r0 = arena.acquire()
        r1 = arena.acquire()
        assert r0 != r1
        assert arena.n_active == 2
        view = arena.view(r0)
        assert view.shape == (3, 8, 8)
        assert np.all(view == 0.0)

    def test_growth_rebinds_views(self):
        forest = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=2,
            n_ghost=2, periodic=(True, True), max_level=3,
        )
        for blk in forest:
            blk.interior[...] = float(sum(blk.id.coords))
        before = {bid: blk.interior.copy() for bid, blk in forest.blocks.items()}
        grows = forest.arena.n_grows
        # Refining every block quadruples the count, forcing growth.
        forest.adapt(list(forest.blocks))
        assert forest.arena.n_grows >= grows
        for bid, blk in forest.blocks.items():
            # every block's data must still be a live view of the pool
            assert blk.arena_row is not None
            assert blk.data.base is forest.arena.pool
        # surviving data intact through growth: coarse values prolonged
        assert len(forest.blocks) == 4 * len(before)

    def test_compaction_morton_prefix(self):
        forest = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (4, 4), nvar=1,
            n_ghost=2, periodic=(True, True), max_level=2,
        )
        forest.adapt([BlockID(0, (0, 0))])
        forest.adapt([], [BlockID(1, (0, 0)), BlockID(1, (1, 0)),
                          BlockID(1, (0, 1)), BlockID(1, (1, 1))])
        blocks = [forest.blocks[b] for b in forest.sorted_ids()]
        for blk in blocks:
            blk.interior[...] = float(blk.id.level * 100 + sum(blk.id.coords))
        epoch = forest.arena.layout_epoch
        pool = forest.arena.ensure_compact(blocks)
        assert pool.shape[0] == len(blocks)
        for row, blk in enumerate(blocks):
            assert blk.arena_row == row
            assert np.array_equal(forest.arena.pool[row], blk.data)
        # idempotent: second call is a no-op
        epoch2 = forest.arena.layout_epoch
        forest.arena.ensure_compact(blocks)
        assert forest.arena.layout_epoch == epoch2
        assert epoch2 >= epoch

    def test_save_pool_lazy_shape(self):
        arena = BlockArena((4, 6), 2, 3, initial_capacity=2)
        assert arena._save is None
        save = arena.save_pool()
        assert save.shape == (2, 3, 4, 6)
        assert arena.save_pool() is save

    def test_rate_pool_lazy_shape_and_reuse(self):
        # per-call scratch for the sweep's rate accumulator: allocated
        # once, reused across calls, invalidated by growth
        arena = BlockArena((4, 6), 2, 3, initial_capacity=2)
        assert arena._rate is None
        rate = arena.rate_pool()
        assert rate.shape == (2, 3, 4, 6)
        assert arena.rate_pool() is rate
        r0 = arena.acquire()
        r1 = arena.acquire()
        arena.view(r0)
        arena.view(r1)
        arena.acquire()  # forces growth past initial_capacity
        grown = arena.rate_pool()
        assert grown is not rate
        assert grown.shape[0] == arena.capacity


# ---------------------------------------------------------------------------
# bit-for-bit equivalence across physics / orders / limiters
# ---------------------------------------------------------------------------


def _problem(name, **cfg_kwargs):
    makers = {
        "advection": advecting_pulse,
        "euler": sedov_blast,
        "mhd": mhd_blast,
    }
    maker = makers[name]
    base = maker(ndim=2).config
    if cfg_kwargs:
        from dataclasses import replace

        return maker(ndim=2, config=replace(base, **cfg_kwargs))
    return maker(ndim=2)


@pytest.mark.parametrize("name", ["advection", "euler", "mhd"])
@pytest.mark.parametrize("order", [1, 2])
def test_equivalence_problems_orders(name, order):
    problem = _problem(name, order=order)
    blocked, batched = run_pair(problem, steps=6)
    assert_forests_identical(blocked.forest, batched.forest)
    assert [r.dt for r in blocked.history] == [r.dt for r in batched.history]


@pytest.mark.parametrize("limiter", ["minmod", "mc", "superbee"])
def test_equivalence_limiters(limiter):
    problem = _problem("euler", limiter=limiter)
    blocked, batched = run_pair(problem, steps=5)
    assert_forests_identical(blocked.forest, batched.forest)


def test_equivalence_through_adaptation():
    # enough steps to cross several adapt checks (interval 4) so blocks
    # refine/coarsen mid-run, exercising arena growth + recompaction
    problem = _problem("mhd")
    blocked, batched = run_pair(problem, steps=10)
    assert any(r.adapted is not None and r.adapted.changed
               for r in batched.history)
    assert_forests_identical(blocked.forest, batched.forest)


def test_equivalence_with_reflux():
    blocked, batched = run_pair(_problem("euler"), steps=6, reflux=True)
    assert_forests_identical(blocked.forest, batched.forest)


def test_batch_tile_invariance():
    """``PoolSweep`` directly: any tile, with and without a row range."""
    sim = _problem("mhd").build()
    sim.step()  # a developed state with filled ghosts
    forest = sim.forest
    blocks = [forest.blocks[bid] for bid in forest.sorted_ids()]
    start = forest.arena.ensure_compact(blocks).copy()
    n = len(blocks)
    scratch = (n, forest.nvar) + forest.m
    for rows in (None, (2, n - 1)):
        results = []
        for tile in (1, 3, tile_rows(start[:1].nbytes), n):
            pool = start.copy()
            sweep = PoolSweep(
                sim.scheme, pool, enumerate(blocks), forest.n_ghost,
                save=np.empty(scratch), rate=np.empty(scratch), tile=tile,
            )
            sweep.snapshot(rows)
            sweep.forward(5e-4, rows)
            sweep.correct(1e-3, rows)
            results.append(pool)
        assert not np.array_equal(results[0], start)
        for other in results[1:]:
            assert np.array_equal(results[0], other)
        if rows is not None:
            untouched = np.r_[0 : rows[0], rows[1] : n]
            assert np.array_equal(results[0][untouched], start[untouched])


def _pool(scheme, n, m, g, seed):
    """``(n, nvar, *padded)`` conserved rows from uniform primitives, and
    stand-in blocks (``data``, ``interior``, ``dx``) viewing them."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.5, 0.5, (n, scheme.nvar) + tuple(k + 2 * g for k in m))
    if scheme.nvar > 1:  # density and pressure
        w[:, 0] = rng.uniform(0.6, 1.4, w[:, 0].shape)
        w[:, -4 if scheme.nvar == 8 else -1] = rng.uniform(0.3, 1.2, w[:, 0].shape)
    pool = np.stack([scheme.prim_to_cons(row) for row in w])
    return pool, _blocks(pool, g, rng.uniform(0.05, 0.2, (n, len(m))))


def _blocks(pool, g, widths):
    inner = (slice(None),) + tuple(slice(g, s - g) for s in pool.shape[2:])
    return [
        SimpleNamespace(data=row, interior=row[inner], dx=tuple(map(float, dx)))
        for row, dx in zip(pool, widths)
    ]


WORKSPACE_SCHEMES = {
    "mhd": lambda: MHDScheme(3),
    "mhd-mc-hll-floors": lambda: MHDScheme(
        3, limiter="mc", riemann="hll", rho_floor=0.9, p_floor=0.6),
    "mhd-o1-no-powell": lambda: MHDScheme(3, order=1, powell_source=False),
    "euler-hllc-gravity": lambda: EulerScheme(
        3, riemann="hllc", limiter="superbee", gravity=(0.0, 0.5, -1.0)),
    "advection-minmod": lambda: AdvectionScheme((1.0, -0.5, 0.25), limiter="minmod"),
}


@pytest.mark.parametrize("name", sorted(WORKSPACE_SCHEMES))
def test_workspace_is_written_before_read(name, monkeypatch):
    """Every view of the sweep's workspace is written before it is read:
    with the buffer poisoned (NaN) before every tile, a predictor-
    corrector sweep of 10 rows at tile 4 (a ragged last tile) is byte-
    equal to the per-block update, which has no workspace; so is a
    per-block call with face capture in that workspace (reflux capture)."""
    scheme = WORKSPACE_SCHEMES[name]()
    n, m, g = 10, (4, 5, 3), 2
    pool, blocks = _pool(scheme, n, m, g, seed=7)
    start = pool.copy()
    interior = (n, scheme.nvar) + m
    sweep = PoolSweep(
        scheme, pool, enumerate(blocks), g,
        save=np.empty(interior), rate=np.empty((4,) + interior[1:]), tile=4,
    )
    ref_pool = start.copy()
    ref = BlockOracle(
        scheme, ref_pool, enumerate(_blocks(ref_pool, g, [b.dx for b in blocks])), g,
        save=np.empty(interior), rate=None, tile=None,
    )
    sweep.forward(1e-3)  # sizes the workspace
    pool[...] = start
    assert sweep.work.buffer.size > 0
    kernel = scheme.flux_divergence

    def poisoned(*args, work=None, **kw):
        if work is not None:  # NaN in every float64 view, True in every mask
            work.buffer[...] = 0xFF
        return kernel(*args, work=work, **kw)

    monkeypatch.setattr(scheme, "flux_divergence", poisoned)
    for run in (sweep, ref):
        run.snapshot()
        run.forward(1e-3)
        run.correct(2e-3)
    assert not np.array_equal(pool, start)
    assert pool.tobytes() == ref_pool.tobytes()
    got, want = {}, {}
    block = blocks[3]
    rate = scheme.flux_divergence(block.data, block.dx, g, face_flux_out=got, work=sweep.work)
    assert rate.tobytes() == kernel(block.data, block.dx, g, face_flux_out=want).tobytes()
    assert sorted(got) == sorted(want) == list(range(6))
    assert all(got[f].tobytes() == want[f].tobytes() for f in want)


def test_sweep_allocates_less_than_a_rate_slab():
    """After warm-up, a predictor-corrector sweep of an 8^3 MHD pool
    allocates less than one tile's interior rate slab: the kernel's
    intermediates all live in the sweep's workspace."""
    scheme = MHDScheme(3)
    pool, blocks = _pool(scheme, 12, (8, 8, 8), 2, seed=3)
    tile = tile_rows(pool[:1].nbytes)
    interior = pool.shape[:2] + (8, 8, 8)
    sweep = PoolSweep(
        scheme, pool, enumerate(blocks), 2,
        save=np.empty(interior), rate=np.empty((tile,) + interior[1:]), tile=tile,
    )

    def sweep_once():
        sweep.snapshot()
        sweep.forward(1e-4)
        sweep.correct(2e-4)

    sweep_once()
    tracemalloc.start()
    try:
        sweep_once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sweep._tiles) == 2  # a full tile and a ragged one
    assert peak < sweep.rate.nbytes, f"{peak} bytes allocated"


def test_equivalence_3d():
    problem = advecting_pulse(ndim=3)
    # one pre-adapt round: 456 blocks instead of 1016, same code paths
    blocked, batched = run_pair(problem, steps=4, initial_adapt_rounds=1)
    assert_forests_identical(blocked.forest, batched.forest)


# ---------------------------------------------------------------------------
# sanitizer / race detector / recovery
# ---------------------------------------------------------------------------


def test_batched_under_ghost_sanitizer():
    problem = _problem("mhd")
    plain = problem.build(engine="batched")
    with plain:
        for _ in range(5):
            plain.step()
    sanitized = problem.build(engine="batched", sanitize=True)
    with sanitized:
        for _ in range(5):
            sanitized.step()  # raises PoisonError on any violation
    assert sanitized.sanitizer is not None
    assert sanitized.sanitizer.n_exchanges_checked > 0
    assert_forests_identical(plain.forest, sanitized.forest)


def test_batched_reference_vs_emulator_with_race_detector():
    """The emulated distributed machine (race-checked) must match a
    batched-engine serial reference bit-for-bit."""
    from repro.parallel.emulator import EmulatedMachine

    def make_forest():
        f = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=1,
            n_ghost=2, periodic=(True, True), max_level=3,
        )
        f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
        return f

    def init(forest):
        for b in forest:
            X, Y = b.meshgrid()
            b.interior[0] = np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))

    scheme = AdvectionScheme((1.0, 0.5), order=2)
    dt, n_steps = 2e-3, 5

    ref_forest = make_forest()
    init(ref_forest)
    with Simulation(ref_forest, scheme, engine="batched") as ref:
        for _ in range(n_steps):
            ref.advance(dt)

    emu_forest = make_forest()
    init(emu_forest)
    emu = EmulatedMachine(emu_forest, 4, scheme)
    detector = emu.attach_race_detector()
    for _ in range(n_steps):
        emu.advance(dt)
    detector.check()  # no exchange races
    gathered = emu.gather()
    for bid, blk in ref_forest.blocks.items():
        assert np.array_equal(gathered[bid], blk.interior), bid


def test_batched_reference_through_rank_kill_recovery(tmp_path):
    """Rank-kill + checkpoint recovery must land bit-for-bit on the
    batched-engine reference (recovery deepcopies the forest, so this
    also exercises arena re-binding under deepcopy)."""
    from repro.parallel.emulator import EmulatedMachine
    from repro.resilience import (
        Checkpointer,
        FaultPlan,
        RankKill,
        run_with_recovery,
    )

    def make_forest():
        f = BlockForest(
            Box((0.0, 0.0), (1.0, 1.0)), (2, 2), (8, 8), nvar=1,
            n_ghost=2, periodic=(True, True), max_level=3,
        )
        f.adapt([BlockID(0, (0, 0)), BlockID(0, (1, 1))])
        return f

    def init(forest):
        for b in forest:
            X, Y = b.meshgrid()
            b.interior[0] = np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))

    scheme = AdvectionScheme((1.0, 0.5), order=2)
    dt, n_steps = 2e-3, 6

    ref_forest = make_forest()
    init(ref_forest)
    with Simulation(ref_forest, scheme, engine="batched") as ref:
        for _ in range(n_steps):
            ref.advance(dt)

    emu_forest = make_forest()
    init(emu_forest)
    emu = EmulatedMachine(
        emu_forest, 4, scheme,
        fault_plan=FaultPlan(kills=[RankKill(step=3, rank=1)]),
    )
    report = run_with_recovery(
        emu, n_steps=n_steps, dt=dt,
        checkpointer=Checkpointer(tmp_path), checkpoint_every=2,
    )
    assert report.steps_completed == n_steps
    gathered = emu.gather()
    for bid, blk in ref_forest.blocks.items():
        assert np.array_equal(gathered[bid], blk.interior), bid


# ---------------------------------------------------------------------------
# resource management
# ---------------------------------------------------------------------------


def test_context_manager_closes():
    problem = _problem("advection")
    with problem.build() as sim:
        sim.step()
    sim.close()  # idempotent; the simulation stays usable
    sim.step()
    assert sim.step_count == 2


def test_invalid_engine_rejected():
    problem = _problem("advection")
    with pytest.raises(ValueError, match="engine"):
        problem.build(engine="warp")
    cfg = problem.config
    from dataclasses import replace

    with pytest.raises(ValueError, match="engine"):
        replace(cfg, engine="warp")


def test_cli_engine_flag(capsys):
    # `run` always sweeps in tiles; only `profile`/`bench` compare modes
    from repro.cli import main

    assert main(["run", "pulse", "--steps", "2", "--engine", "batched"]) == 2
    assert "--engine" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the tile rule, and the settings that no longer exist
# ---------------------------------------------------------------------------


def test_tile_bytes_param():
    # the tile is not a setting any more: constructor and CLI reject it
    problem = advecting_pulse(ndim=2)
    forest = problem.config.make_forest(problem.scheme.nvar)
    with pytest.raises(TypeError, match="batch_tile_bytes"):
        Simulation(forest, problem.scheme, batch_tile_bytes=8192)
    from repro.cli import main

    assert main(["bench", "--quick", "--tile-bytes", "8192"]) == 2


def test_tile_bytes_env_var(monkeypatch, capsys):
    # ...and neither library nor CLI reads the old env var
    from repro.cli import main

    monkeypatch.setenv("REPRO_BATCH_TILE_BYTES", "zork")
    assert main(["run", "pulse", "--steps", "1"]) == 0
    assert "final grid" in capsys.readouterr().out


def test_default_tile_bytes():
    # both rows-per-call modes, computed exactly as the rank workers do
    with advecting_pulse(ndim=2).build() as sim:
        row_bytes = sim.forest.arena.pool[:1].nbytes
        assert sim.sweep_tile() == tile_rows(row_bytes)
        assert tile_rows(row_bytes) == max(8, BATCH_TILE_BYTES // row_bytes)
        sim.engine = "blocked"
        assert sim.sweep_tile() == 1


def test_tile_bytes_reaches_tile_rows():
    assert tile_rows(1024, 4096) == 8  # the floor
    assert tile_rows(1024, 4096 * 64) == 256
    assert tile_rows(10**9) == 8


def test_kernel_backend_setting_removed():
    # one numpy kernel path: nothing about it is selectable
    problem = _problem("advection")
    forest = problem.config.make_forest(problem.scheme.nvar)
    with pytest.raises(TypeError, match="kernel_backend"):
        Simulation(forest, problem.scheme, kernel_backend="numpy")
    with pytest.raises(TypeError, match="kernel_backend"):
        SimulationConfig(
            domain=Box((0.0, 0.0), (1.0, 1.0)), n_root=(2, 2), kernel_backend="numpy"
        )
    with pytest.raises(TypeError, match="kernel_backend"):
        problem.build(kernel_backend="numpy")


def test_cli_kernel_backend_flag_removed(capsys):
    from repro.cli import main

    for argv in (["run", "pulse"], ["emulate", "pulse"], ["profile", "pulse"], ["bench"]):
        assert main(argv + ["--kernel-backend", "numpy"]) == 2
        assert "--kernel-backend" in capsys.readouterr().err


def test_kernel_call_counter():
    # the one leftover of the backend registry: a per-scheme count of
    # non-capturing flux divergences plus CFL tiles (the e2e benchmark's
    # kernels.* metrics read it through stats())
    import pickle

    sim = _problem("euler").build()
    sim.reflux = True
    scheme = sim.scheme
    calls = {"flux": 0, "captured": 0, "cfl": 0}
    flux_divergence = scheme.flux_divergence
    max_signal_speed_batched = scheme.max_signal_speed_batched

    def count_flux(*args, face_flux_out=None, **kw):
        calls["flux" if face_flux_out is None else "captured"] += 1
        return flux_divergence(*args, face_flux_out=face_flux_out, **kw)

    def count_cfl(*args, **kw):
        calls["cfl"] += 1
        return max_signal_speed_batched(*args, **kw)

    scheme.flux_divergence = count_flux
    scheme.max_signal_speed_batched = count_cfl
    before = scheme.kernels.dispatches
    with sim:
        for _ in range(6):
            sim.step()
    assert any(r.adapted is not None and r.adapted.changed for r in sim.history)
    assert calls["captured"] > 0 and calls["cfl"] > 0
    stats = scheme.kernels.stats()
    assert stats == {
        "dispatches": before + calls["flux"] + calls["cfl"], "fallbacks": 0
    }
    del scheme.flux_divergence, scheme.max_signal_speed_batched
    assert pickle.loads(pickle.dumps(scheme)).kernels.stats() == stats
