"""AMR simulation layer: driver, problems, boundary conditions, I/O."""

from repro.amr.boundary import (
    CompositeBC,
    ExtrapolationBC,
    FixedBC,
    OutflowBC,
    ReflectingBC,
    region_centers,
)
from repro.amr.config import SimulationConfig
from repro.amr.driver import Simulation, StepRecord
from repro.amr.io import (
    CheckpointError,
    checkpoint_metadata,
    grid_report,
    history_to_csv,
    load_forest,
    save_forest,
    verify_checkpoint,
)
from repro.amr.sampling import (
    ProbeSeries,
    integrate,
    line_cut,
    resample_uniform,
    sample_points,
)
from repro.amr.visualize import render_blocks, render_field, render_line
from repro.amr.problems import (
    Problem,
    advecting_pulse,
    alfven_wave,
    comet,
    kelvin_helmholtz,
    mhd_blast,
    mhd_rotor,
    orszag_tang,
    rayleigh_taylor,
    sedov_blast,
    solar_wind,
)

__all__ = [
    "CompositeBC",
    "ExtrapolationBC",
    "FixedBC",
    "OutflowBC",
    "ReflectingBC",
    "region_centers",
    "SimulationConfig",
    "Simulation",
    "StepRecord",
    "CheckpointError",
    "checkpoint_metadata",
    "grid_report",
    "history_to_csv",
    "load_forest",
    "save_forest",
    "verify_checkpoint",
    "ProbeSeries",
    "integrate",
    "line_cut",
    "resample_uniform",
    "sample_points",
    "render_blocks",
    "render_field",
    "render_line",
    "Problem",
    "advecting_pulse",
    "alfven_wave",
    "comet",
    "kelvin_helmholtz",
    "mhd_blast",
    "mhd_rotor",
    "orszag_tang",
    "rayleigh_taylor",
    "sedov_blast",
    "solar_wind",
]
