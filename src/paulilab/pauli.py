"""Time-dependent solution of the two-component wave equation.

Two unitary schemes: a split-operator propagator (spectral kinetic half-steps
around an exact per-cell 2x2 exponential of the potential/spin block) for
periodic grids with zero vector potential, and a Cayley-form implicit step
assembled as a sparse system for stencil kinetics on any boundary.  The
neutral variant drops the charge from the kinetic and potential terms and
couples the spin through an independent energy-per-field coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft
import scipy.sparse
import scipy.sparse.linalg

from .functionals import EMConfiguration, PhysicalConstants
from .grids import (
    CENTRAL,
    PERIODIC,
    SPECTRAL,
    Grid,
    ScalarField,
    SpinorField,
    VectorField3,
    derive_along,
    integrate_values,
    laplacian_matrix,
    quadrature_weights,
    second_derive_along,
)

SPLIT_OPERATOR = "split_operator"
CRANK_NICOLSON = "crank_nicolson"


class SolverError(ValueError):
    """Raised for invalid solver configurations or aborted runs."""


@dataclass(frozen=True)
class PauliState:
    """Normalized two-component wavefunction at one instant."""

    phi: SpinorField
    t: float = 0.0

    def __post_init__(self) -> None:
        norm = self.norm()
        if abs(norm - 1.0) > 1e-10:
            raise SolverError(f"state norm must be 1 within 1e-10, got {norm}")

    def norm(self) -> float:
        dens = np.sum(np.abs(self.phi.values) ** 2, axis=-1)
        return float(integrate_values(dens, self.phi.grid))


@dataclass(frozen=True)
class SolverConfig:
    """Propagation parameters.

    ``em`` is a static field configuration or a callable t -> configuration;
    time-dependent fields are sampled at half steps.  ``neutral`` zeroes the
    charge in the kinetic and scalar-potential terms and couples the spin
    with ``gamma_energy`` (J/T); the charged coupling is q*hbar/(2m).
    """

    scheme: str
    dt: float
    consts: PhysicalConstants
    em: EMConfiguration | Callable[[float], EMConfiguration]
    neutral: bool = False
    gamma_energy: float | None = None

    def __post_init__(self) -> None:
        if self.scheme not in (SPLIT_OPERATOR, CRANK_NICOLSON):
            raise SolverError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0:
            raise SolverError("dt must be positive")
        if self.neutral and self.gamma_energy is None:
            raise SolverError("neutral mode requires gamma_energy")

    def em_at(self, t: float) -> EMConfiguration:
        return self.em(t) if callable(self.em) else self.em

    def spin_coupling(self) -> float:
        """Energy-per-field coefficient of the sigma.B term."""
        if self.gamma_energy is not None:
            return self.gamma_energy
        c = self.consts
        return c.charge * c.hbar / (2.0 * c.mass)

    def kinetic_charge(self) -> float:
        return 0.0 if self.neutral else self.consts.charge


# ---------------------------------------------------------------------------
# Hamiltonian application
# ---------------------------------------------------------------------------


def _laplacian_stack(values: np.ndarray, grid: Grid, scheme: str) -> np.ndarray:
    """Componentwise Laplacian of a (...,2) complex array."""
    out = np.zeros_like(values)
    for ax in range(grid.dim):
        out += second_derive_along(values, grid.spacing[ax], ax, grid.boundary, scheme)
    return out


def apply_hamiltonian(
    state: PauliState, config: SolverConfig, scheme: str | None = None
) -> SpinorField:
    """H applied to the wavefunction.

    Charged: (1/2m)(-i hbar grad - qA)^2 + q phi_pot - (q hbar / 2m) sigma.B.
    Neutral: -(hbar^2/2m) grad^2 - gamma_energy sigma.B.
    """
    grid = state.phi.grid
    if scheme is None:
        scheme = SPECTRAL if grid.boundary == PERIODIC else CENTRAL
    consts = config.consts
    em = config.em_at(state.t)
    if em.grid != grid:
        raise SolverError("field configuration and state live on different grids")
    hbar, m = consts.hbar, consts.mass
    q = config.kinetic_charge()
    psi = state.phi.values
    out = -(hbar**2) / (2.0 * m) * _laplacian_stack(psi, grid, scheme)
    if q != 0.0:
        a_vals = em.a_pot.values
        for ax in range(grid.dim):
            h = grid.spacing[ax]
            a_ax = a_vals[..., ax][..., None]
            d_psi = derive_along(psi, h, ax, grid.boundary, scheme)
            d_apsi = derive_along(a_ax * psi, h, ax, grid.boundary, scheme)
            out += (1j * hbar * q / (2.0 * m)) * (d_apsi + a_ax * d_psi)
        a_sq = np.sum(a_vals**2, axis=-1)[..., None]
        out += (q**2 / (2.0 * m)) * a_sq * psi
        out += q * em.phi_pot.values[..., None] * psi
    coupling = config.spin_coupling()
    if coupling != 0.0:
        b = em.b_values(scheme)
        out[..., 0] += -coupling * (
            b[..., 2] * psi[..., 0] + (b[..., 0] - 1j * b[..., 1]) * psi[..., 1]
        )
        out[..., 1] += -coupling * (
            (b[..., 0] + 1j * b[..., 1]) * psi[..., 0] - b[..., 2] * psi[..., 1]
        )
    return SpinorField(grid, out)


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


class _SplitOperatorPropagator:
    """Half kinetic (spectral) / full potential+spin (exact 2x2) / half kinetic."""

    def __init__(self, config: SolverConfig, grid: Grid):
        if grid.boundary != PERIODIC:
            raise SolverError("split-operator propagation requires a periodic grid")
        self.config = config
        self.grid = grid
        k_sq = np.zeros(grid.shape)
        for ax in range(grid.dim):
            k = 2.0 * np.pi * np.fft.fftfreq(grid.cells[ax], d=grid.spacing[ax])
            shape = [1] * grid.dim
            shape[ax] = grid.cells[ax]
            k_sq = k_sq + (k.reshape(shape)) ** 2
        consts = config.consts
        # exp(-i (dt/2) (hbar^2 k^2 / 2m) / hbar)
        self._half_kinetic = np.exp(-1j * config.dt * consts.hbar * k_sq / (4.0 * consts.mass))
        # 1-D transforms, last axis first as np.fft.fftn runs them: its bits, less overhead
        self._axes = tuple(reversed(range(grid.dim)))
        self._static_cell = None
        if not callable(config.em):
            self._static_cell = self._cell_factors(config.em)

    def _cell_factors(self, em: EMConfiguration):
        config = self.config
        consts = config.consts
        if np.any(em.a_pot.values != 0.0):
            raise SolverError("split-operator scheme requires zero vector potential")
        q = config.kinetic_charge()
        v = q * em.phi_pot.values if q != 0.0 else np.zeros(self.grid.shape)
        c = -config.spin_coupling() * em.b_values(SPECTRAL)
        c_norm = np.sqrt(np.sum(c * c, axis=-1))
        alpha = c_norm * config.dt / consts.hbar
        cos_a = np.cos(alpha)
        sinc = np.where(c_norm > 0, np.sin(alpha) / np.where(c_norm > 0, c_norm, 1.0), 0.0)
        phase = np.exp(-1j * v * config.dt / consts.hbar)
        # U = phase * (cos(a) I - i sin(a) n.sigma), n = c/|c|
        u11 = phase * (cos_a - 1j * sinc * c[..., 2])
        u22 = phase * (cos_a + 1j * sinc * c[..., 2])
        u12 = phase * (-1j * sinc * (c[..., 0] - 1j * c[..., 1]))
        u21 = phase * (-1j * sinc * (c[..., 0] + 1j * c[..., 1]))
        return u11, u12, u21, u22

    def _kinetic(self, psi: np.ndarray) -> np.ndarray:
        for ax in self._axes:
            psi = scipy.fft.fft(psi, axis=ax)
        psi *= self._half_kinetic[..., None]
        for ax in self._axes:
            psi = scipy.fft.ifft(psi, axis=ax, overwrite_x=True)
        return psi

    def step(self, psi: np.ndarray, t: float) -> np.ndarray:
        out = self._kinetic(psi)
        if self._static_cell is not None:
            u11, u12, u21, u22 = self._static_cell
        else:
            u11, u12, u21, u22 = self._cell_factors(
                self.config.em_at(t + 0.5 * self.config.dt)
            )
        c0 = u11 * out[..., 0] + u12 * out[..., 1]
        c1 = u21 * out[..., 0] + u22 * out[..., 1]
        out[..., 0], out[..., 1] = c0, c1
        return self._kinetic(out)


class _CrankNicolsonPropagator:
    """Unitary Cayley step (I + i dt H / 2 hbar) psi' = (I - i dt H / 2 hbar) psi."""

    def __init__(self, config: SolverConfig, grid: Grid, residual_tol: float = 1e-12):
        self.config = config
        self.grid = grid
        self.residual_tol = residual_tol
        self._lu = None
        if not callable(config.em):
            self._lu = self._factor(self._assemble(config.em))

    def _assemble(self, em: EMConfiguration) -> scipy.sparse.spmatrix:
        config = self.config
        consts = config.consts
        grid = self.grid
        if np.any(em.a_pot.values != 0.0):
            raise SolverError(
                "the implicit propagator supports zero vector potential only"
            )
        n = grid.size
        kin = -(consts.hbar**2) / (2.0 * consts.mass) * laplacian_matrix(grid)
        q = config.kinetic_charge()
        v = q * em.phi_pot.values.ravel() if q != 0.0 else np.zeros(n)
        b = em.b_values(CENTRAL).reshape(n, 3)
        coupling = config.spin_coupling()
        bz = coupling * b[:, 2]
        bxy = coupling * (b[:, 0] - 1j * b[:, 1])
        h11 = kin + scipy.sparse.diags(v - bz)
        h22 = kin + scipy.sparse.diags(v + bz)
        h12 = scipy.sparse.diags(-bxy)
        h21 = scipy.sparse.diags(-np.conj(bxy))
        return scipy.sparse.bmat([[h11, h12], [h21, h22]], format="csr")

    def _factor(self, ham: scipy.sparse.spmatrix):
        z = 0.5j * self.config.dt / self.config.consts.hbar
        n2 = ham.shape[0]
        eye = scipy.sparse.identity(n2, dtype=np.complex128, format="csr")
        a_plus = (eye + z * ham).tocsr()
        a_minus = (eye - z * ham).tocsr()
        return scipy.sparse.linalg.splu(a_plus.tocsc()), a_plus, a_minus

    def step(self, psi: np.ndarray, t: float) -> np.ndarray:
        if self._lu is None:
            ham = self._assemble(self.config.em_at(t + 0.5 * self.config.dt))
            lu, a_plus, a_minus = self._factor(ham)
        else:
            lu, a_plus, a_minus = self._lu
        flat = np.concatenate([psi[..., 0].ravel(), psi[..., 1].ravel()])
        rhs = a_minus @ flat
        sol = lu.solve(rhs)
        residual = np.linalg.norm(a_plus @ sol - rhs)
        scale = np.linalg.norm(rhs)
        if scale > 0 and residual > self.residual_tol * scale:
            raise SolverError(
                f"implicit solve residual {residual / scale:.3e} above tolerance"
            )
        out = np.empty_like(psi)
        half = flat.size // 2
        out[..., 0] = sol[:half].reshape(self.grid.shape)
        out[..., 1] = sol[half:].reshape(self.grid.shape)
        return out


def _make_propagator(config: SolverConfig, grid: Grid):
    if config.scheme == SPLIT_OPERATOR:
        return _SplitOperatorPropagator(config, grid)
    return _CrankNicolsonPropagator(config, grid)


def step(state: PauliState, config: SolverConfig) -> PauliState:
    """Advance one time step; norm is preserved to 1e-12 per step.

    Builds a fresh propagator each call; evolve() amortizes the setup (the
    implicit scheme factorizes its system once) over the whole run.
    """
    prop = _make_propagator(config, state.phi.grid)
    out = prop.step(state.phi.values.copy(), state.t)
    return PauliState(SpinorField(state.phi.grid, out), state.t + config.dt)


# ---------------------------------------------------------------------------
# observables and evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observables:
    norm: float
    position: np.ndarray  # (3,)
    spin: np.ndarray  # (3,)
    color_masses: np.ndarray  # (2,)


def _observable_weights(grid: Grid):
    """Quadrature weights w, 2w and w * x_ax per axis: what every record of
    the observables on ``grid`` multiplies by."""
    w = quadrature_weights(grid)
    return w, w * 2.0, [w * x for x in grid.meshgrid()]


def _observe(psi: np.ndarray, weights, position, spin, masses):
    """Observables of a raw (..., 2) wavefunction array, written into the
    rows ``position`` (3,), ``spin`` (3,) and ``masses`` (2,); returns the
    norm and the two color densities.

    Each sum is ``np.add.reduce`` of the product that ``np.sum(w * ...)``
    would reduce, factors multiplied left to right, so the values carry the
    bits of the plain formulas.
    """
    w, w2, wx = weights
    add = np.add.reduce
    rho1 = np.abs(psi[..., 0]) ** 2
    rho2 = np.abs(psi[..., 1]) ** 2
    dens = rho1 + rho2
    norm = float(add(w * dens, axis=None))
    for ax, w_x in enumerate(wx):
        position[ax] = float(add(w_x * dens, axis=None)) / norm
    cross = np.conj(psi[..., 0]) * psi[..., 1]
    spin[0] = float(add(w2 * cross.real, axis=None)) / norm
    spin[1] = float(add(w2 * cross.imag, axis=None)) / norm
    spin[2] = float(add(w * (rho1 - rho2), axis=None)) / norm
    masses[0] = float(add(w * rho1, axis=None))
    masses[1] = float(add(w * rho2, axis=None))
    return norm, rho1, rho2


def observables(state: PauliState, with_densities: bool = False):
    """Norm, mean position, spin expectation, per-color masses (and
    optionally the two color densities as fields)."""
    grid = state.phi.grid
    position, spin, masses = np.zeros(3), np.empty(3), np.empty(2)
    norm, rho1, rho2 = _observe(state.phi.values, _observable_weights(grid), position, spin,
                                masses)
    obs = Observables(norm, position, spin, masses)
    if with_densities:
        return obs, (ScalarField(grid, rho1), ScalarField(grid, rho2))
    return obs


@dataclass(frozen=True)
class PauliTrajectory:
    times: np.ndarray
    norms: np.ndarray
    positions: np.ndarray  # (n, 3)
    spins: np.ndarray  # (n, 3)
    color_masses: np.ndarray  # (n, 2)
    snapshots: list[PauliState] = field(default_factory=list)


def evolve(
    initial: PauliState,
    config: SolverConfig,
    t_final: float,
    record_every: int = 1,
    keep_snapshots: bool = False,
    on_record: Callable[[np.ndarray, float], None] | None = None,
) -> PauliTrajectory:
    """Repeated stepping with periodic recording of the observables.

    ``on_record(psi, t)``, when given, sees the raw wavefunction array at
    each recorded step before its observables are taken; it may raise to
    abort the run.
    """
    if t_final < 0:
        raise SolverError("t_final must be nonnegative")
    if record_every < 1:
        raise SolverError("record_every must be at least 1")
    steps = int(round(t_final / config.dt))
    grid = initial.phi.grid
    prop = _make_propagator(config, grid)
    psi = initial.phi.values.copy()
    t = initial.t
    weights = _observable_weights(grid)
    rows = 1 + steps // record_every + (steps % record_every != 0)
    times, norms = np.empty(rows), np.empty(rows)
    positions, spins, masses = np.zeros((rows, 3)), np.empty((rows, 3)), np.empty((rows, 2))
    snapshots = []
    row = 0

    def record():
        nonlocal row
        if on_record is not None:
            on_record(psi, t)
        norm = _observe(psi, weights, positions[row], spins[row], masses[row])[0]
        if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
            raise SolverError(f"state norm {norm} left 1 +- 1e-10 at t={t:.6g}")
        times[row], norms[row] = t, norm
        if keep_snapshots:
            snapshots.append(PauliState(SpinorField(grid, psi), t))
        row += 1

    record()
    for i in range(1, steps + 1):
        psi = prop.step(psi, t)
        t = initial.t + i * config.dt
        if i % record_every == 0 or i == steps:
            record()
    return PauliTrajectory(times, norms, positions, spins, masses, snapshots)


# ---------------------------------------------------------------------------
# beam-splitting scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SternGerlachConfig:
    """Neutral packet in a linearly varying axial field B_z(z) = b0 + b z.

    The one-axis linear profile is the standard idealization (its divergence
    is not zero); the closed-form packet-center oracle is exact for it.
    """

    extent: float
    cells: int
    sigma: float
    center: float
    velocity: float
    spin_weights: tuple[complex, complex]
    field_gradient: float  # b = dBz/dz
    field_offset: float  # b0
    consts: PhysicalConstants
    gamma_energy: float
    dt: float
    t_final: float
    record_every: int = 10
    boundary_mass_tol: float = 1e-8


@dataclass(frozen=True)
class SternGerlachResult:
    times: np.ndarray
    centers: np.ndarray  # (n, 2) per-color packet centers
    separation: np.ndarray  # (n,)
    overlap: np.ndarray  # (n,)
    trajectory: PauliTrajectory


def gaussian_packet_state(
    grid: Grid,
    sigma: float,
    center: float,
    velocity: float,
    spin_weights: tuple[complex, complex],
    consts: PhysicalConstants,
) -> PauliState:
    """Minimum-uncertainty packet with the given position spread and mean
    velocity, in a fixed spin direction."""
    x = grid.axis_coordinates(0)
    amp = np.exp(-((x - center) ** 2) / (4.0 * sigma**2))
    amp = amp.astype(np.complex128) * np.exp(
        1j * consts.mass * velocity * x / consts.hbar
    )
    w = np.asarray(spin_weights, dtype=np.complex128)
    w = w / np.linalg.norm(w)
    vals = amp[..., None] * w
    dens = np.sum(np.abs(vals) ** 2, axis=-1)
    vals /= np.sqrt(integrate_values(dens, grid))
    return PauliState(SpinorField(grid, vals), 0.0)


def stern_gerlach(config: SternGerlachConfig) -> SternGerlachResult:
    """Evolve a spin-superposition packet through the field gradient and
    report per-color centers, their separation, and the density overlap."""
    grid = Grid((config.extent,), (config.cells,), PERIODIC)
    z = grid.axis_coordinates(0)
    b_vals = np.zeros(grid.shape + (3,))
    b_vals[..., 2] = config.field_offset + config.field_gradient * z
    em = EMConfiguration(grid, ScalarField.full(grid, 0.0), VectorField3.zero(grid),
                         b=VectorField3(grid, b_vals))
    solver = SolverConfig(SPLIT_OPERATOR, config.dt, config.consts, em, neutral=True,
                          gamma_energy=config.gamma_energy)
    state = gaussian_packet_state(
        grid, config.sigma, config.center, config.velocity, config.spin_weights, config.consts
    )
    w = quadrature_weights(grid)
    edge = max(3, config.cells // 64)
    centers, separations, overlaps = [], [], []

    def record(psi, t):
        dens = np.sum(np.abs(psi) ** 2, axis=-1)
        boundary_mass = float(np.sum((w * dens)[:edge]) + np.sum((w * dens)[-edge:]))
        if boundary_mass > config.boundary_mass_tol:
            raise SolverError(
                f"packet reached the grid boundary at t={t:.6g} "
                f"(edge mass {boundary_mass:.3e} > {config.boundary_mass_tol:.1e})"
            )
        rho = [np.abs(psi[..., k]) ** 2 for k in (0, 1)]
        masses = [float(np.sum(w * r)) for r in rho]
        occupied = [m > 1e-12 for m in masses]
        cs = [float(np.sum(w * z * r)) / m if o else np.nan
              for r, m, o in zip(rho, masses, occupied)]
        centers.append(cs)
        separations.append(cs[0] - cs[1] if all(occupied) else 0.0)
        norm1, norm2 = (r / m if o else r for r, m, o in zip(rho, masses, occupied))
        overlaps.append(float(np.sum(w * np.sqrt(norm1 * norm2))))

    traj = evolve(state, solver, config.t_final, config.record_every, on_record=record)
    return SternGerlachResult(
        traj.times, np.array(centers), np.array(separations), np.array(overlaps), traj
    )
