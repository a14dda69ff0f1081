"""Ready-made simulation setups (initial conditions + BCs + hooks).

These are scaled-down analogues of the applications driving the paper:

* :func:`advecting_pulse` — smooth scalar transport with an exact
  solution (the convergence / conservation oracle);
* :func:`sedov_blast` — hydrodynamic point blast (shock-tracking AMR);
* :func:`mhd_blast` — the standard MHD blast wave in a uniform oblique
  field: the CME-launch analogue exercising the full 8-wave solver;
* :func:`solar_wind` — steady supersonic outflow from a spherical inner
  boundary held at fixed conditions (the Gombosi et al. solar-wind /
  inner-heliosphere configuration, with an optional CME pulse driven
  through the inner boundary);
* :func:`comet` — supersonic magnetized inflow mass-loaded by a
  cometary neutral cloud (the Haberli et al. comet x-ray setting);
* :func:`alfven_wave` — circularly polarized Alfvén wave, the exact
  nonlinear MHD solution used for order verification;
* :func:`orszag_tang` — the Orszag–Tang vortex, the canonical 2-D MHD
  shock-web stress test;
* :func:`rayleigh_taylor` — buoyancy-driven interface instability
  (gravity source term, reflecting walls).

Each factory returns a :class:`Problem` whose :meth:`Problem.build`
yields a ready-to-run :class:`repro.amr.driver.Simulation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.amr.boundary import (
    CompositeBC,
    ExtrapolationBC,
    FixedBC,
    OutflowBC,
)
from repro.amr.config import SimulationConfig
from repro.amr.driver import Simulation, StepHook
from repro.core.block import Block
from repro.core.refine_criteria import MonitorCriterion
from repro.solvers import AdvectionScheme, EulerScheme, MHDScheme
from repro.solvers.scheme import FVScheme
from repro.util.geometry import Box

__all__ = [
    "PROBLEMS",
    "Problem",
    "advecting_pulse",
    "alfven_wave",
    "sedov_blast",
    "kelvin_helmholtz",
    "mhd_blast",
    "mhd_rotor",
    "orszag_tang",
    "rayleigh_taylor",
    "solar_wind",
    "comet",
]


@dataclass
class Problem:
    """A fully specified simulation: configuration, scheme, physics."""

    name: str
    config: SimulationConfig
    scheme: FVScheme
    init_primitive: Callable[..., np.ndarray]
    bc: Optional[Callable] = None
    hook: Optional[StepHook] = None
    monitor_var: int = 0
    exact: Optional[Callable[..., np.ndarray]] = None

    def make_criterion(self) -> MonitorCriterion:
        var = self.monitor_var
        return MonitorCriterion(
            lambda d: d[var],
            refine_threshold=self.config.refine_threshold,
            coarsen_threshold=self.config.coarsen_threshold,
            max_level=self.config.max_level,
        )

    def init_forest(self, forest) -> None:
        """Set every block's interior from the primitive initializer."""
        for block in forest:
            w = self.init_primitive(*block.meshgrid())
            block.interior[...] = self.scheme.prim_to_cons(w)

    def build(
        self,
        *,
        adaptive: bool = True,
        initial_adapt_rounds: int = 3,
        sanitize: bool = False,
        engine: Optional[str] = None,
        subcycle: Optional[bool] = None,
    ) -> Simulation:
        """Construct the simulation, optionally pre-adapting the initial
        grid so the starting resolution already tracks the features.

        ``sanitize`` enables the ghost-poison sanitizer on the built
        simulation (see :class:`repro.amr.driver.Simulation`);
        ``engine`` overrides the configured rows-per-kernel-call mode
        (``"blocked"`` / ``"batched"``); ``subcycle`` overrides the
        configured time-stepping mode (level-local subcycled steps vs
        one global dt).
        """
        forest = self.config.make_forest(self.scheme.nvar)
        self.init_forest(forest)
        criterion = self.make_criterion() if adaptive else None
        sim = Simulation(
            forest,
            self.scheme,
            bc=self.bc,
            criterion=criterion,
            adapt_interval=self.config.adapt_interval,
            buffer_band=self.config.buffer_band,
            hook=self.hook,
            sanitize=sanitize,
            engine=engine if engine is not None else self.config.engine,
            subcycle=subcycle if subcycle is not None else self.config.subcycle,
        )
        if adaptive:
            for _ in range(initial_adapt_rounds):
                sim.fill_ghosts()
                from repro.core.refine_criteria import compute_flags

                refine, _ = compute_flags(
                    forest, criterion, buffer_band=self.config.buffer_band
                )
                if not refine:
                    break
                summary = forest.adapt(refine)
                if not summary.changed:
                    break
                self.init_forest(forest)
        return sim


def _radius2(grids: Sequence[np.ndarray], center: Sequence[float]) -> np.ndarray:
    r2 = np.zeros_like(grids[0])
    for g, c in zip(grids, center):
        r2 += (g - c) ** 2
    return r2


# ---------------------------------------------------------------------------
# advecting pulse
# ---------------------------------------------------------------------------

def advecting_pulse(
    ndim: int = 2,
    *,
    velocity: Optional[Tuple[float, ...]] = None,
    width: float = 0.08,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """Gaussian pulse advected across a periodic unit domain."""
    if velocity is None:
        velocity = (1.0, 0.5, 0.25)[:ndim]
    if config is None:
        config = SimulationConfig(
            domain=Box((0.0,) * ndim, (1.0,) * ndim),
            n_root=(2,) * ndim,
            m=(8,) * ndim,
            periodic=(True,) * ndim,
            max_level=3,
            refine_threshold=0.08,
            coarsen_threshold=0.02,
        )
    center = (0.5,) * ndim
    scheme = AdvectionScheme(
        velocity,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )

    def init(*grids: np.ndarray) -> np.ndarray:
        return np.exp(-_radius2(grids, center) / (2 * width**2))[np.newaxis]

    def exact(t: float):
        def fn(*grids: np.ndarray) -> np.ndarray:
            r2 = np.zeros_like(grids[0])
            for g, c, v, w in zip(grids, center, velocity, (1.0,) * ndim):
                d = np.abs(g - (c + v * t) % 1.0)
                d = np.minimum(d, 1.0 - d)  # periodic distance
                r2 += d**2
            return np.exp(-r2 / (2 * width**2))
        return fn

    return Problem(
        name=f"advecting_pulse_{ndim}d",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=None,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# hydrodynamic blast
# ---------------------------------------------------------------------------

def sedov_blast(
    ndim: int = 2,
    *,
    p_inside: float = 10.0,
    p_outside: float = 0.1,
    r_blast: float = 0.1,
    gamma: float = 1.4,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """Point-blast problem: an over-pressured sphere drives a strong
    shock into a uniform medium (the classic shock-tracking AMR test)."""
    if config is None:
        config = SimulationConfig(
            domain=Box((-0.5,) * ndim, (0.5,) * ndim),
            n_root=(2,) * ndim,
            m=(8,) * ndim,
            max_level=3,
            refine_threshold=0.12,
            coarsen_threshold=0.03,
        )
    scheme = EulerScheme(
        ndim,
        gamma,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )

    def init(*grids: np.ndarray) -> np.ndarray:
        r2 = _radius2(grids, (0.0,) * ndim)
        w = np.zeros((scheme.nvar,) + grids[0].shape)
        w[0] = 1.0
        w[-1] = np.where(r2 < r_blast**2, p_inside, p_outside)
        return w

    return Problem(
        name=f"sedov_blast_{ndim}d",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=OutflowBC(),
        monitor_var=scheme.layout.i_energy,
    )


# ---------------------------------------------------------------------------
# MHD blast (CME analogue)
# ---------------------------------------------------------------------------

def mhd_blast(
    ndim: int = 2,
    *,
    p_inside: float = 10.0,
    p_outside: float = 0.1,
    r_blast: float = 0.1,
    b0: float = 1.0,
    gamma: float = 5.0 / 3.0,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """MHD blast wave in a uniform oblique magnetic field.

    The anisotropic expansion along the field is the canonical test of a
    multidimensional MHD solver, and the closest laptop-scale analogue of
    the paper's CME launch: a pressure pulse erupting into a magnetized
    ambient medium.
    """
    if config is None:
        config = SimulationConfig(
            domain=Box((-0.5,) * ndim, (0.5,) * ndim),
            n_root=(2,) * ndim,
            m=(8,) * ndim,
            max_level=3,
            refine_threshold=0.12,
            coarsen_threshold=0.03,
        )
    scheme = MHDScheme(
        ndim,
        gamma,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )
    bhat = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)

    def init(*grids: np.ndarray) -> np.ndarray:
        r2 = _radius2(grids, (0.0,) * ndim)
        w = np.zeros((8,) + grids[0].shape)
        w[0] = 1.0
        w[4] = np.where(r2 < r_blast**2, p_inside, p_outside)
        for c in range(3):
            w[5 + c] = b0 * bhat[c]
        return w

    return Problem(
        name=f"mhd_blast_{ndim}d",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=OutflowBC(),
        monitor_var=scheme.layout.I_E,
    )


# ---------------------------------------------------------------------------
# Kelvin–Helmholtz instability
# ---------------------------------------------------------------------------

def kelvin_helmholtz(
    *,
    density_ratio: float = 2.0,
    shear: float = 1.0,
    amplitude: float = 0.01,
    gamma: float = 1.4,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """Kelvin–Helmholtz instability: a perturbed shear layer rolls up.

    A dense stripe moving right through lighter gas moving left, seeded
    with a small transverse velocity; the interface rolls into the
    classic billows while the refinement criterion chases the vorticity
    sheet.  Fully periodic.
    """
    if config is None:
        config = SimulationConfig(
            domain=Box((0.0, 0.0), (1.0, 1.0)),
            n_root=(2, 2),
            m=(8, 8),
            periodic=(True, True),
            max_level=3,
            refine_threshold=0.12,
            coarsen_threshold=0.03,
        )
    scheme = EulerScheme(
        2,
        gamma,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )

    def init(*grids: np.ndarray) -> np.ndarray:
        X, Y = grids
        w = np.zeros((4,) + X.shape)
        stripe = np.abs(Y - 0.5) < 0.25
        w[0] = np.where(stripe, density_ratio, 1.0)
        w[1] = np.where(stripe, 0.5 * shear, -0.5 * shear)
        w[2] = amplitude * np.sin(4.0 * np.pi * X) * (
            np.exp(-(((Y - 0.25) / 0.05) ** 2))
            + np.exp(-(((Y - 0.75) / 0.05) ** 2))
        )
        w[3] = 2.5
        return w

    return Problem(
        name="kelvin_helmholtz",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=None,
        monitor_var=0,
    )


# ---------------------------------------------------------------------------
# MHD rotor
# ---------------------------------------------------------------------------

def mhd_rotor(
    *,
    omega: float = 8.0,
    b0: float = 1.4,
    gamma: float = 1.4,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """The Balsara–Spicer MHD rotor: a dense spinning disc winds up the
    magnetic field, launching torsional Alfvén waves — the canonical
    test of angular-momentum transport in MHD codes.

    Dense (rho = 10) disc of radius 0.1 rotating at angular speed
    ``omega`` inside a light (rho = 1) static medium threaded by a
    uniform ``Bx = b0``; a linear taper smooths the rim.
    """
    if config is None:
        config = SimulationConfig(
            domain=Box((-0.5, -0.5), (0.5, 0.5)),
            n_root=(2, 2),
            m=(8, 8),
            max_level=3,
            refine_threshold=0.15,
            coarsen_threshold=0.04,
        )
    scheme = MHDScheme(
        2,
        gamma,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )
    r0, r1 = 0.1, 0.115

    def init(*grids: np.ndarray) -> np.ndarray:
        X, Y = grids
        r = np.sqrt(X**2 + Y**2)
        w = np.zeros((8,) + X.shape)
        taper = np.clip((r1 - r) / (r1 - r0), 0.0, 1.0)
        w[0] = 1.0 + 9.0 * taper
        spin = omega * taper
        w[1] = -spin * Y
        w[2] = spin * X
        w[4] = 1.0
        w[5] = b0
        return w

    return Problem(
        name="mhd_rotor",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=OutflowBC(),
        monitor_var=scheme.layout.I_RHO,
    )


# ---------------------------------------------------------------------------
# Rayleigh–Taylor instability
# ---------------------------------------------------------------------------

def rayleigh_taylor(
    *,
    rho_heavy: float = 2.0,
    rho_light: float = 1.0,
    gravity: float = 0.5,
    amplitude: float = 0.01,
    gamma: float = 1.4,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """Single-mode Rayleigh–Taylor instability: heavy fluid over light.

    A hydrostatic two-layer atmosphere (interface at y = 0, gravity
    pointing down) seeded with one cosine velocity mode.  Buoyancy
    drives interpenetrating fingers whose mushrooming interface is the
    classic adaptive-refinement showcase.  Reflecting walls top/bottom,
    periodic in x.
    """
    if config is None:
        config = SimulationConfig(
            domain=Box((-0.25, -0.5), (0.25, 0.5)),
            n_root=(1, 2),
            m=(8, 8),
            periodic=(True, False),
            max_level=3,
            refine_threshold=0.12,
            coarsen_threshold=0.03,
        )
    scheme = EulerScheme(
        2,
        gamma,
        gravity=(0.0, -gravity),
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )
    lx = config.domain.widths[0]
    p0 = 2.5  # base pressure, large enough to stay positive everywhere

    def init(*grids: np.ndarray) -> np.ndarray:
        X, Y = grids
        w = np.zeros((4,) + X.shape)
        heavy = Y > 0.0
        w[0] = np.where(heavy, rho_heavy, rho_light)
        # Hydrostatic pressure for the layered atmosphere.
        w[3] = p0 - gravity * np.where(
            heavy, rho_heavy * Y, rho_light * Y
        )
        # Single-mode seed localized at the interface.
        w[2] = (
            amplitude
            * np.cos(2.0 * np.pi * X / lx)
            * np.exp(-((Y / 0.05) ** 2))
        )
        return w

    from repro.amr.boundary import ReflectingBC

    bc = ReflectingBC({1: [2]})  # flip y-momentum at the walls

    return Problem(
        name="rayleigh_taylor",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=bc,
        monitor_var=0,
    )


# ---------------------------------------------------------------------------
# circularly polarized Alfvén wave (exact MHD solution)
# ---------------------------------------------------------------------------

def alfven_wave(
    *,
    amplitude: float = 0.1,
    gamma: float = 5.0 / 3.0,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """Circularly polarized Alfvén wave: the exact smooth MHD solution.

    On a periodic 1-D domain with ``rho = 1``, ``p = 0.1``, ``Bx = 1``:

    ``By = A cos(2πx)``, ``Bz = A sin(2πx)``,
    ``uy = -By``, ``uz = -Bz`` (for unit density)

    is an *exact* nonlinear solution propagating in +x at the Alfvén
    speed ``vA = Bx/sqrt(rho) = 1`` — the standard order-verification
    problem for MHD codes.  ``Problem.exact(t)`` returns the translated
    ``By`` profile.
    """
    if config is None:
        config = SimulationConfig(
            domain=Box((0.0,), (1.0,)),
            n_root=(2,),
            m=(16,),
            periodic=(True,),
            max_level=2,
            refine_threshold=0.3,
            coarsen_threshold=0.05,
        )
    scheme = MHDScheme(
        1,
        gamma,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )
    amp = float(amplitude)

    def init(*grids: np.ndarray) -> np.ndarray:
        (X,) = grids
        w = np.zeros((8,) + X.shape)
        w[0] = 1.0
        w[4] = 0.1
        w[5] = 1.0                           # Bx
        w[6] = amp * np.cos(2.0 * np.pi * X)  # By
        w[7] = amp * np.sin(2.0 * np.pi * X)  # Bz
        w[2] = -w[6]                          # uy = -By / sqrt(rho)
        w[3] = -w[7]                          # uz = -Bz
        return w

    def exact(t: float):
        # vA = 1: pure translation with period 1 on the unit domain.
        def fn(X: np.ndarray) -> np.ndarray:
            return amp * np.cos(2.0 * np.pi * (X - t))
        return fn

    return Problem(
        name="alfven_wave",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=None,
        monitor_var=6,  # By
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Orszag–Tang vortex
# ---------------------------------------------------------------------------

def orszag_tang(
    *,
    gamma: float = 5.0 / 3.0,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """The Orszag–Tang vortex: the canonical 2-D MHD turbulence test.

    Smooth periodic initial velocity and magnetic vortices that steepen
    into a web of interacting MHD shocks — the standard stress test of
    every production MHD code in the paper's lineage.  Initial state
    (the common normalization): ``rho = gamma^2``, ``p = gamma``,
    ``u = (-sin 2πy, sin 2πx)``, ``B = (-sin 2πy, sin 4πx)`` on the
    periodic unit square, giving unit-ish Mach and Alfven numbers.
    """
    if config is None:
        config = SimulationConfig(
            domain=Box((0.0, 0.0), (1.0, 1.0)),
            n_root=(2, 2),
            m=(8, 8),
            periodic=(True, True),
            max_level=3,
            refine_threshold=0.15,
            coarsen_threshold=0.04,
        )
    scheme = MHDScheme(
        2,
        gamma,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )

    def init(*grids: np.ndarray) -> np.ndarray:
        X, Y = grids
        w = np.zeros((8,) + X.shape)
        w[0] = gamma * gamma
        w[1] = -np.sin(2.0 * np.pi * Y)
        w[2] = np.sin(2.0 * np.pi * X)
        w[4] = gamma
        w[5] = -np.sin(2.0 * np.pi * Y)
        w[6] = np.sin(4.0 * np.pi * X)
        return w

    return Problem(
        name="orszag_tang",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=None,
        monitor_var=scheme.layout.I_RHO,
    )


# ---------------------------------------------------------------------------
# solar wind with inner boundary (and optional CME pulse)
# ---------------------------------------------------------------------------

def solar_wind(
    ndim: int = 2,
    *,
    r_body: float = 1.0,
    rho0: float = 1.0,
    u0: float = 2.0,
    p0: float = 0.2,
    b0: float = 0.1,
    gamma: float = 5.0 / 3.0,
    cme_time: Optional[float] = None,
    cme_duration: float = 0.3,
    cme_factor: float = 4.0,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """Supersonic radial outflow from a spherical inner boundary.

    The inner body (radius ``r_body``, centred at the origin) is held at
    fixed conditions every step — the standard immersed inner-boundary
    treatment of the heliosphere codes.  The initial state is the same
    radial wind everywhere, so the run relaxes to (and then holds) a
    steady supersonic wind, exactly the configuration scaled up in the
    paper's Figures 6–7.

    With ``cme_time`` set, the inner-boundary density and speed are
    multiplied by ``cme_factor`` during ``[cme_time, cme_time +
    cme_duration]``, launching a CME-like pressure pulse into the wind.
    """
    if config is None:
        config = SimulationConfig(
            domain=Box((-4.0,) * ndim, (4.0,) * ndim),
            n_root=(2,) * ndim,
            m=(8,) * ndim,
            max_level=3,
            refine_threshold=0.15,
            coarsen_threshold=0.04,
        )
    scheme = MHDScheme(
        ndim,
        gamma,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
        # Rarefactions behind the CME shell can pull density toward
        # vacuum, blowing up the Alfvén speed; the floors bound it
        # (standard heliosphere-code practice).
        rho_floor=1e-3 * rho0,
        p_floor=1e-6 * p0,
    )

    def wind_primitive(grids: Sequence[np.ndarray], boost: float = 1.0) -> np.ndarray:
        r2 = _radius2(grids, (0.0,) * ndim)
        r = np.sqrt(np.maximum(r2, (0.2 * r_body) ** 2))
        w = np.zeros((8,) + grids[0].shape)
        # Density falls off as the steady spherical wind (rho ~ r^-2 in
        # 3-D, r^-1 in 2-D) so the initial state is near equilibrium.
        falloff = (r_body / np.maximum(r, r_body)) ** (ndim - 1)
        w[0] = boost * rho0 * falloff
        for a in range(ndim):
            w[1 + a] = boost * u0 * grids[a] / r
        w[4] = p0 * falloff**gamma
        # Weak radial field, same falloff (a crude split-monopole).
        for a in range(ndim):
            w[5 + a] = b0 * grids[a] / r * falloff
        return w

    def init(*grids: np.ndarray) -> np.ndarray:
        return wind_primitive(grids)

    def hook(sim: Simulation, dt: float) -> None:
        boost = 1.0
        if cme_time is not None and cme_time <= sim.time < cme_time + cme_duration:
            boost = cme_factor
        for block in sim.forest:
            # Fast reject: block entirely outside the body sphere.
            d2 = 0.0
            for c, lo, hi in zip((0.0,) * ndim, block.box.lo, block.box.hi):
                nearest = min(max(c, lo), hi)
                d2 += (nearest - c) ** 2
            if d2 > r_body**2:
                continue
            grids = block.meshgrid()
            inside = _radius2(grids, (0.0,) * ndim) < r_body**2
            if not inside.any():
                continue
            w = wind_primitive(grids, boost)
            u = sim.scheme.prim_to_cons(w)
            block.interior[...] = np.where(inside, u, block.interior)

    return Problem(
        name=f"solar_wind_{ndim}d",
        config=config,
        scheme=scheme,
        init_primitive=init,
        # Zero-gradient outflow: linear extrapolation can manufacture
        # negative densities in the ghosts when the CME shock reaches
        # the outer boundary; zero-gradient cannot.
        bc=OutflowBC(),
        hook=hook,
    )


# ---------------------------------------------------------------------------
# comet mass loading
# ---------------------------------------------------------------------------

def comet(
    ndim: int = 2,
    *,
    inflow_rho: float = 1.0,
    inflow_u: float = 4.0,
    inflow_p: float = 0.2,
    inflow_b: float = 0.2,
    cloud_center: Optional[Tuple[float, ...]] = None,
    cloud_radius: float = 0.4,
    loading_rate: float = 2.0,
    gamma: float = 5.0 / 3.0,
    config: Optional[SimulationConfig] = None,
) -> Problem:
    """Supersonic magnetized inflow mass-loaded by a cometary cloud.

    Fresh solar wind enters through the x-low face (fixed supersonic
    inflow); inside the neutral cloud, mass is added at ``loading_rate``
    (per unit volume and time) at zero momentum, decelerating the flow —
    the ion pick-up mass-loading that shapes cometary bow shocks.
    """
    if config is None:
        config = SimulationConfig(
            domain=Box((-2.0,) * ndim, (2.0,) * ndim),
            n_root=(2,) * ndim,
            m=(8,) * ndim,
            max_level=3,
            refine_threshold=0.15,
            coarsen_threshold=0.04,
        )
    if cloud_center is None:
        cloud_center = (0.0,) * ndim
    scheme = MHDScheme(
        ndim,
        gamma,
        order=config.order,
        limiter=config.limiter,
        riemann=config.riemann,
        cfl=config.cfl,
    )

    def inflow_primitive(shape) -> np.ndarray:
        w = np.zeros((8,) + shape)
        w[0] = inflow_rho
        w[1] = inflow_u
        w[4] = inflow_p
        w[6] = inflow_b  # transverse field, carried in by the wind
        return w

    def init(*grids: np.ndarray) -> np.ndarray:
        return inflow_primitive(grids[0].shape)

    def inflow_values(centers) -> np.ndarray:
        return inflow_primitive(centers[0].shape)

    bc = CompositeBC({0: FixedBC(inflow_values)}, default=OutflowBC())

    def hook(sim: Simulation, dt: float) -> None:
        for block in sim.forest:
            grids = block.meshgrid()
            r2 = _radius2(grids, cloud_center)
            inside = r2 < cloud_radius**2
            if not inside.any():
                continue
            # Gaussian-profile source, strongest at the nucleus.
            profile = np.exp(-4.0 * r2 / cloud_radius**2)
            added = loading_rate * dt * profile * inside
            # Mass at zero momentum: density increases, momentum and
            # total energy unchanged (the added ions start at rest with
            # negligible pressure) -> the flow decelerates.
            block.interior[0] += added

    return Problem(
        name=f"comet_{ndim}d",
        config=config,
        scheme=scheme,
        init_primitive=init,
        bc=bc,
        hook=hook,
    )


#: The bundled problems by name (the ``repro`` CLI's ``problem``
#: argument).  Each factory takes ``ndim``; ``orszag_tang`` is 2-D for
#: any ``ndim``, so a caller that needs the dimension checks
#: ``problem.config.ndim``.
PROBLEMS: Dict[str, Callable[[int], Problem]] = {
    "pulse": advecting_pulse,
    "sedov": sedov_blast,
    "mhd_blast": mhd_blast,
    "orszag_tang": lambda ndim: orszag_tang(),
    "solar_wind": solar_wind,
    "comet": comet,
}
