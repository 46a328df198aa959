"""Classical limits: magnetic-moment dynamics and charged-particle motion.

The moment integrators use the angular-rate gyromagnetic convention
(rad/(s*T)); the spherical-chart integrator exhibits the conjugate pair
(phi, z = cos theta) and refuses the chart's poles, while the vector torque
integrator is pole-free.  Particle motion follows the force law
m x'' = q E + q x' x B in uniform fields, each given as a 3-vector: every
field of the paper's classical limit that a scenario runs is uniform, so
the motion needs no grid and has no edge to leave.  The domain of a run is
its scenario's to state: the ``lorentz`` uniform_e box [0, 50], which the
closed-form path must keep to, also bounds the steps a document can ask for.

The integrators step lists of Python floats, each operation in the order of
numpy's array formulas, so with their bits.  numpy stays where plain floats
would change them: np.linalg.norm (a BLAS dot) renormalizes the torque run,
and np.arctan2 gives the azimuth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import PhysicalConstants, _time_derivative, _time_weights
from .grids import CENTRAL, Grid, _locked, derive_along


class ClassicalError(ValueError):
    """Raised for invalid states or integrations leaving their domain."""


@dataclass(frozen=True)
class MomentState:
    """Unit moment direction."""

    m: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.m, dtype=np.float64).reshape(3).copy()
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-9:
            raise ClassicalError(f"moment must be a unit vector, |m| = {norm}")
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)

    @staticmethod
    def from_angles(phi: float, z: float) -> "MomentState":
        if abs(z) > 1.0:
            raise ClassicalError("|z| must not exceed 1")
        s = np.sqrt(1.0 - z * z)
        return MomentState(np.array([s * np.cos(phi), s * np.sin(phi), z]))


@dataclass(frozen=True)
class ChargedParticleState:
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "v"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(3).copy()
            if not np.all(np.isfinite(arr)):
                raise ClassicalError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class MomentTrajectory:
    times: np.ndarray
    moments: np.ndarray  # (n, 3)
    norm_errors: np.ndarray  # (n,) |m| - 1 of each moment before it was renormalized


@dataclass(frozen=True)
class CanonicalTrajectory:
    times: np.ndarray
    phi: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class ParticleTrajectory:
    times: np.ndarray
    positions: np.ndarray  # (n, 3)
    velocities: np.ndarray  # (n, 3)


def _cross(a, b) -> list:
    """a x b of two float 3-sequences by np.cross's formula, so with its bits."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _rk4(state: list, t: float, dt: float, rhs) -> list:
    """One fourth-order step of a list of floats, each element's operations
    in the order numpy's array formulas take them, so with their bits."""
    h = 0.5 * dt
    k1 = rhs(t, state)
    k2 = rhs(t + h, [s + h * k for s, k in zip(state, k1)])
    k3 = rhs(t + h, [s + h * k for s, k in zip(state, k2)])
    k4 = rhs(t + dt, [s + dt * k for s, k in zip(state, k3)])
    w = dt / 6.0
    return [s + w * (a + 2.0 * b + 2.0 * c + d) for s, a, b, c, d in zip(state, k1, k2, k3, k4)]


# ---------------------------------------------------------------------------
# moment dynamics
# ---------------------------------------------------------------------------


def torque_evolve(
    initial: MomentState,
    b,
    gamma: float,
    t_final: float,
    dt: float,
) -> MomentTrajectory:
    """Integrate dm/dt = gamma * m x B in the static field ``b``.

    Fourth-order stepping with per-step renormalization of |m|; the
    trajectory keeps the norm error each renormalization removed, so a
    stepper that does not conserve |m| shows in it.
    """
    if dt <= 0:
        raise ClassicalError("dt must be positive")
    steps = int(round(t_final / dt))
    times = dt * np.arange(steps + 1)
    bl = np.asarray(b, dtype=np.float64).reshape(3).tolist()
    m = initial.m.tolist()
    moments = [m]
    norm_errors = [float(np.linalg.norm(m)) - 1.0]

    def rhs(t, m):
        return [gamma * c for c in _cross(m, bl)]

    for i in range(1, steps + 1):
        m = _rk4(m, times[i - 1], dt, rhs)
        norm = float(np.linalg.norm(m))
        m = [c / norm for c in m]
        moments.append(m)
        norm_errors.append(norm - 1.0)
    return MomentTrajectory(times, np.array(moments), np.array(norm_errors))


def moment_hamiltonian(phi, z, b, gamma: float):
    """Spherical-chart energy rate: -gamma [z Bz + sqrt(1-z^2)(Bx cos phi + By sin phi)],
    a float for scalar (phi, z) and an array for arrays of them."""
    phi, z = np.asarray(phi, dtype=np.float64), np.asarray(z, dtype=np.float64)
    if np.any(np.abs(z) > 1.0):
        raise ClassicalError("|z| must not exceed 1")
    bx, by, bz = np.asarray(b, dtype=np.float64).reshape(3)
    h = -gamma * (z * bz + np.sqrt(1.0 - z * z) * (bx * np.cos(phi) + by * np.sin(phi)))
    return float(h) if h.ndim == 0 else h


POLE_BAND = 1e-6


def canonical_evolve(
    phi0: float, z0: float, b, gamma: float, t_final: float, dt: float
) -> CanonicalTrajectory:
    """Integrate the conjugate-pair equations dphi/dt = +dH/dz, dz/dt = -dH/dphi.

    The chart is singular at the poles; the run aborts with a diagnostic when
    |z| enters the pole band.
    """
    if dt <= 0:
        raise ClassicalError("dt must be positive")
    if abs(z0) > 1.0 - POLE_BAND:
        raise ClassicalError(f"initial z={z0} inside the pole band")
    steps = int(round(t_final / dt))
    times = dt * np.arange(steps + 1)
    bx, by, bz = np.asarray(b, dtype=np.float64).reshape(3).tolist()

    def rhs(t, state):
        ph, zz = state
        zz = min(max(zz, -1.0), 1.0)
        s = math.sqrt(max(1.0 - zz * zz, 0.0))
        # numpy's nan for an infinite angle, where math raises: a diverged run fails its checks
        cos_p, sin_p = (math.nan, math.nan) if math.isinf(ph) else (math.cos(ph), math.sin(ph))
        in_plane = bx * cos_p + by * sin_p
        dphi = gamma * (-bz + (zz / s) * in_plane) if s > 0 else 0.0
        dz = gamma * s * (-bx * sin_p + by * cos_p)
        return [dphi, dz]

    state = [float(phi0), float(z0)]
    states = [state]
    for i in range(1, steps + 1):
        state = _rk4(state, times[i - 1], dt, rhs)
        if abs(state[1]) > 1.0 - POLE_BAND:
            raise ClassicalError(
                f"trajectory reached the pole band at t={times[i]:.6g} (z={state[1]:.6g})"
            )
        states.append(state)
    phi, z = np.array(states).T.copy()
    return CanonicalTrajectory(times, phi, z)


def moment_action(
    phi: np.ndarray, z: np.ndarray, dt: float, b, gamma: float
) -> float:
    """Trapezoidal action of a uniformly sampled (phi, z) path:
    integral of (-z dphi/dt + H_M) dt."""
    phi = np.asarray(phi, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if phi.shape != z.shape or phi.ndim != 1 or phi.size < 3:
        raise ClassicalError("need aligned 1-d phi and z samples (at least 3)")
    dphi_dt = _time_derivative(phi, dt, False, CENTRAL)
    integrand = -z * dphi_dt + moment_hamiltonian(phi, np.clip(z, -1.0, 1.0), b, gamma)
    return float(np.dot(_time_weights(phi.size, dt, False), integrand))


# ---------------------------------------------------------------------------
# charged-particle motion
# ---------------------------------------------------------------------------


def lorentz_evolve(
    initial: ChargedParticleState,
    e,
    b,
    charge: float,
    mass: float,
    t_final: float,
    dt: float,
) -> ParticleTrajectory:
    """Integrate m x'' = q E + q x' cross B in the uniform fields ``e`` and
    ``b``, each a 3-vector."""
    if dt <= 0:
        raise ClassicalError("dt must be positive")
    if mass == 0:
        raise ClassicalError("mass must be nonzero")
    el = np.asarray(e, dtype=np.float64).reshape(3).tolist()
    bl = np.asarray(b, dtype=np.float64).reshape(3).tolist()
    steps = int(round(t_final / dt))
    times = dt * np.arange(steps + 1)

    def rhs(t, state):
        v = state[3:]
        return v + [(charge * ek + charge * ck) / mass for ek, ck in zip(el, _cross(v, bl))]

    state = initial.x.tolist() + initial.v.tolist()
    states = [state]
    for i in range(1, steps + 1):
        state = _rk4(state, times[i - 1], dt, rhs)
        states.append(state)
    xs, vs = np.array(states).reshape(-1, 2, 3).transpose(1, 0, 2).copy()
    return ParticleTrajectory(times, xs, vs)


def velocity_field(
    grid: Grid, s: np.ndarray, a_pot: np.ndarray, charge: float, mass: float,
    scheme: str = CENTRAL,
) -> np.ndarray:
    """Drift velocity (grad S - q A) / m of the zero-uncertainty limit, for
    the action ``s`` shaped grid.shape and the vector potential ``a_pot``
    shaped (3,) + grid.shape; components first, and grad S is zero along
    the axes the grid does not have."""
    s = _locked("s", s, grid.shape, ClassicalError)
    a_pot = _locked("a_pot", a_pot, (3,) + grid.shape, ClassicalError)
    grad_s = np.zeros((3,) + grid.shape)
    for ax in range(grid.dim):
        grad_s[ax] = derive_along(s, grid.spacing[ax], ax, grid.boundary, scheme)
    return (grad_s - charge * a_pot) / mass


def hj_residual(
    grid: Grid,
    s_frames: np.ndarray,
    a_pot: np.ndarray,
    v_pot: np.ndarray,
    consts: PhysicalConstants,
    dt: float = 0.0,
    scheme: str = CENTRAL,
) -> np.ndarray:
    """Pointwise residual dS/dt + m |v|^2 / 2 + V, v the drift velocity, of
    the actions ``s_frames`` shaped (frames,) + grid.shape, snapshots ``dt``
    apart, in the vector potential ``a_pot`` shaped (3,) + grid.shape and
    the potential energy ``v_pot`` shaped grid.shape; one frame is static."""
    frames = _locked("s_frames", s_frames, np.shape(s_frames)[:1] + grid.shape, ClassicalError)
    v_pot = _locked("v_pot", v_pot, grid.shape, ClassicalError)
    residual = _time_derivative(frames, dt, False, CENTRAL) + v_pot
    for i, s in enumerate(frames):
        v = velocity_field(grid, s, a_pot, consts.charge, consts.mass, scheme)
        residual[i] += 0.5 * consts.mass * np.sum(v * v, axis=0)
    return residual
