"""Classical limits: magnetic-moment dynamics and charged-particle motion.

The moment integrators use the angular-rate gyromagnetic convention
(rad/(s*T)); the spherical-chart integrator exhibits the conjugate pair
(phi, z = cos theta) and refuses the chart's poles, while the vector torque
integrator is pole-free.  Particle motion follows the force law built from
the potentials, with grid fields sampled by a multilinear stencil, not scipy.interpolate.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .functionals import EMConfiguration, PhysicalConstants
from .grids import CENTRAL, PERIODIC, ScalarField, VectorField3, derive_along, gradient


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

    @property
    def z(self) -> float:
        return float(self.m[2])

    @property
    def phi(self) -> float:
        return float(np.arctan2(self.m[1], self.m[0]))

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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of two 3-vectors by np.cross's formula, so with its bits."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _rk4(state: np.ndarray, t: float, dt: float, rhs) -> np.ndarray:
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = rhs(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# moment dynamics
# ---------------------------------------------------------------------------


def torque_evolve(
    initial: MomentState,
    b,
    gamma: float,
    t_final: float,
    dt: float,
    exact_rotation: bool = False,
) -> MomentTrajectory:
    """Integrate dm/dt = gamma * m x B in the static field ``b``.

    Fourth-order stepping with per-step renormalization of |m|;
    ``exact_rotation`` switches to the closed-form rotation about the field
    axis.
    """
    if dt <= 0:
        raise ClassicalError("dt must be positive")
    steps = int(round(t_final / dt))
    times = dt * np.arange(steps + 1)
    out = np.empty((steps + 1, 3))
    out[0] = initial.m
    bvec = np.asarray(b, dtype=np.float64).reshape(3)

    if exact_rotation:
        bnorm = float(np.linalg.norm(bvec))
        if bnorm == 0.0:
            out[1:] = initial.m
            return MomentTrajectory(times, out)
        axis = bvec / bnorm
        angle = -gamma * bnorm * dt  # dm/dt = gamma m x B == (-gamma B) x m
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        m = out[0].copy()
        for i in range(1, steps + 1):
            m = (
                cos_a * m
                + sin_a * _cross(axis, m)
                + (1.0 - cos_a) * axis * np.dot(axis, m)
            )
            out[i] = m
        return MomentTrajectory(times, out)

    def rhs(t, m):
        return gamma * _cross(m, bvec)

    m = out[0].copy()
    for i in range(1, steps + 1):
        m = _rk4(m, times[i - 1], dt, rhs)
        m /= np.linalg.norm(m)
        out[i] = m
    return MomentTrajectory(times, out)


def moment_hamiltonian(phi: float, z: float, b, gamma: float) -> float:
    """Spherical-chart energy rate: -gamma [z Bz + sqrt(1-z^2)(Bx cos phi + By sin phi)]."""
    if abs(z) > 1.0:
        raise ClassicalError("|z| must not exceed 1")
    bx, by, bz = np.asarray(b, dtype=np.float64).reshape(3)
    return float(
        -gamma * (z * bz + np.sqrt(1.0 - z * z) * (bx * np.cos(phi) + by * np.sin(phi)))
    )


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
    phi = np.empty(steps + 1)
    z = np.empty(steps + 1)
    phi[0], z[0] = phi0, z0
    bx, by, bz = np.asarray(b, dtype=np.float64).reshape(3)

    def rhs(t, state):
        ph, zz = state
        zz = min(max(zz, -1.0), 1.0)
        s = np.sqrt(max(1.0 - zz * zz, 0.0))
        in_plane = bx * np.cos(ph) + by * np.sin(ph)
        dphi = gamma * (-bz + (zz / s) * in_plane) if s > 0 else 0.0
        dz = gamma * s * (-bx * np.sin(ph) + by * np.cos(ph))
        return np.array([dphi, dz])

    state = np.array([phi0, z0])
    for i in range(1, steps + 1):
        state = _rk4(state, times[i - 1], dt, rhs)
        if abs(state[1]) > 1.0 - POLE_BAND:
            raise ClassicalError(
                f"trajectory reached the pole band at t={times[i]:.6g} (z={state[1]:.6g})"
            )
        phi[i], z[i] = state
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
    dphi_dt = np.gradient(phi, dt, edge_order=2)
    h_vals = np.array(
        [moment_hamiltonian(p, max(min(c, 1.0), -1.0), b, gamma) for p, c in zip(phi, z)]
    )
    integrand = -z * dphi_dt + h_vals
    return float(0.5 * dt * np.sum(integrand[1:] + integrand[:-1]))


# ---------------------------------------------------------------------------
# charged-particle motion
# ---------------------------------------------------------------------------


class _FieldSampler:
    """Multilinear stencil over the stacked (E, B, grad u) block.  Cell
    bracketing, corner order, weight products and the +0.0 start of the sum
    follow scipy's linear RegularGridInterpolator, so it gives the same bits."""

    def __init__(self, em: EMConfiguration, scheme: str = CENTRAL):
        g = em.grid
        self.grid = g
        e_vals = em.e.values if em.e is not None else -gradient(em.phi_pot, scheme).values
        b_vals = em.b_values(scheme)
        grad_u = gradient(em.u, scheme).values if em.u is not None else np.zeros(g.shape + (3,))
        block = np.concatenate([e_vals, b_vals, grad_u], axis=-1)
        self._axes = [g.axis_coordinates(ax).tolist() for ax in range(g.dim)]
        if g.boundary == PERIODIC:
            # append the wrap point so the stencil covers [0, L]
            for ax in range(g.dim):
                self._axes[ax].append(g.extents[ax])
                block = np.concatenate([block, np.take(block, [0], axis=ax)], axis=ax)
        self._block = block

    def sample(self, x: np.ndarray):
        p = np.asarray(x[: self.grid.dim], dtype=np.float64)
        if self.grid.boundary == PERIODIC:
            p = np.mod(p, np.asarray(self.grid.extents))
        corners = []
        for c, xs in zip(p.tolist(), self._axes):
            if not xs[0] <= c <= xs[-1]:
                raise ClassicalError(f"particle left the grid at x={x}")
            i = min(bisect.bisect_right(xs, c) - 1, len(xs) - 2)  # upper face: last cell
            y = (c - xs[i]) / (xs[i + 1] - xs[i])
            corners.append(((i, 1 - y), (i + 1, y)))
        vals = 0.0
        for corner in itertools.product(*corners):
            index, weights = zip(*corner)
            vals = vals + self._block[index] * math.prod(weights)
        return vals[0:3], vals[3:6], vals[6:9]


def lorentz_evolve(
    initial: ChargedParticleState,
    em: EMConfiguration,
    charge: float,
    mass: float,
    t_final: float,
    dt: float,
    scheme: str = CENTRAL,
) -> ParticleTrajectory:
    """Integrate m x'' = -grad u + q E + q x' cross B with grid-sampled fields."""
    if dt <= 0:
        raise ClassicalError("dt must be positive")
    sampler = _FieldSampler(em, scheme)
    steps = int(round(t_final / dt))
    times = dt * np.arange(steps + 1)
    xs = np.empty((steps + 1, 3))
    vs = np.empty((steps + 1, 3))
    xs[0], vs[0] = initial.x, initial.v

    def rhs(t, state):
        x, v = state[:3], state[3:]
        e, b, gu = sampler.sample(x)
        acc = (-gu + charge * e + charge * _cross(v, b)) / mass
        return np.concatenate([v, acc])

    state = np.concatenate([initial.x, initial.v])
    for i in range(1, steps + 1):
        state = _rk4(state, times[i - 1], dt, rhs)
        xs[i], vs[i] = state[:3], state[3:]
    return ParticleTrajectory(times, xs, vs)


def velocity_field(
    s: ScalarField, a_pot: VectorField3, charge: float, mass: float, scheme: str = CENTRAL
) -> VectorField3:
    """Drift velocity (grad S - q A) / m of the zero-uncertainty limit."""
    g = s.grid
    out = gradient(s, scheme).values - charge * a_pot.values
    return VectorField3(g, out / mass)


def hj_residual(
    s_frames,
    em: EMConfiguration,
    v_pot: ScalarField,
    consts: PhysicalConstants,
    dt: float = 0.0,
    scheme: str = CENTRAL,
) -> list[ScalarField]:
    """Pointwise residual of dS/dt + (grad S - qA)^2 / 2m + V per snapshot."""
    if isinstance(s_frames, ScalarField):
        s_frames = [s_frames]
    else:
        s_frames = list(s_frames)
    g = s_frames[0].grid
    stack = np.stack([f.values for f in s_frames])
    if stack.shape[0] == 1:
        ds_dt = np.zeros_like(stack)
    else:
        if dt <= 0:
            raise ClassicalError("snapshot sequences require dt > 0")
        ds_dt = derive_along(stack, dt, 0, "dirichlet_zero", CENTRAL)
    out = []
    for i, frame in enumerate(s_frames):
        kin = np.zeros(g.shape)
        grad_s = gradient(frame, scheme).values
        for ax in range(3):
            kin += (grad_s[..., ax] - consts.charge * em.a_pot.values[..., ax]) ** 2
        resid = ds_dt[i] + kin / (2.0 * consts.mass) + v_pot.values
        out.append(ScalarField(g, resid))
    return out
