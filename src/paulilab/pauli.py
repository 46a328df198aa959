"""Time-dependent solution of the two-component wave equation.

Two unitary schemes on periodic grids, in a static scalar potential and
magnetic field given cell by cell (the Hamiltonian has no vector potential):
a split-operator propagator (spectral kinetic half-steps around an exact
per-cell 2x2 exponential of the potential/spin block, which an axial field
leaves diagonal, so the live colors take one stacked multiply), and a
Cayley step psi' = 2 (I + zH)^-1 psi - psi (one solve, factored once
without pivoting, and one residual check) for stencil kinetics.  Both step
the live colors' slice of one colors-first (2,) + grid block in place, and
only the colors that carry amplitude where the field does not couple them:
an axial field, or none, leaves an empty color exactly zero
(``_make_propagator`` picks the colors).  The particle's constants couple
the scalar potential as charge * phi_pot and the spin as -spin_coupling *
sigma.B: a neutral particle is charge 0 with a moment.

A propagator advances several steps per call.  Between two records the
split-operator scheme runs the trailing kinetic half-step of one step and
the leading half-step of the next as one full step (Strang splitting), which
moves its output at round-off only.  Across a record it keeps the spectrum
F(V psi) of its last step: the record is F^-1 of it times the half-step
factor, and the next call starts from F^-1 of it times the full-step
factor, so a recorded step takes three transforms per grid axis, not four.

The kinetic steps call scipy's private compiled transform once per grid
axis, in place or into the kept spectrum's block ``out``:
``scipy.fft._pocketfft.pypocketfft.c2c(psi, (axis,), forward, inorm, out,
1)``, inorm 0 forward and 2 inverse, ``scipy.fft``'s own call without the
checks that cost more than a transform of a few cells.
A scipy that moves it fails this import; a test in ``tests/test_pauli.py``
and the pins in ``tests/manifest.tsv`` catch a change of its bits.

``evolve`` steps a plain ``grid.shape + (2,)`` complex array on the one
grid of its run, ``SolverConfig.grid``, and returns the norm, mean position,
spin and color masses of every record and the final state.  A caller that
needs more of each record takes it through ``on_record``: the free-packet
scenario streams the wavefunctions to its snapshot file, so the run's
memory does not grow with its record count, and the Stern-Gerlach check
in ``verification`` sums its color centers and overlap from the
densities.  ``record_count`` gives the count before the run.
This module holds no scenario: each run's grid, field and packet are set
up by the guarantee that checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.fft._pocketfft.pypocketfft import c2c

from .functionals import PhysicalConstants
from .grids import (
    PERIODIC,
    Grid,
    _locked,
    _spectral_wavenumbers,
    integrate_values,
    laplacian_matrix,
    quadrature_weights,
)

SPLIT_OPERATOR = "split_operator"
CRANK_NICOLSON = "crank_nicolson"

# relative residual above which an implicit solve is refused
_RESIDUAL_TOL = 1e-12


class SolverError(ValueError):
    """Raised for invalid solver configurations or aborted runs."""


@dataclass(frozen=True)
class SolverConfig:
    """Propagation parameters.

    The run's one grid is ``grid``; its static fields are the scalar
    potential ``phi_pot`` (``grid.shape``) and the magnetic field ``b``
    (``grid.shape + (3,)``), kept as read-only copies.  ``consts`` gives
    the couplings to them: ``charge`` to the potential and ``spin_coupling``
    to the field.
    """

    scheme: str
    dt: float
    consts: PhysicalConstants
    grid: Grid
    phi_pot: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.scheme not in (SPLIT_OPERATOR, CRANK_NICOLSON):
            raise SolverError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0:
            raise SolverError("dt must be positive")
        shape = self.grid.shape
        object.__setattr__(self, "phi_pot", _locked("phi_pot", self.phi_pot, shape, SolverError))
        object.__setattr__(self, "b", _locked("b", self.b, shape + (3,), SolverError))


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


class _SplitOperatorPropagator:
    """Strang splitting K/2 V K/2: spectral kinetic factors K around an exact
    per-cell 2x2 exponential V of the potential/spin block, on a colors-first
    block of the live ``colors``.  Where B has no transverse component in any
    cell, V is diagonal: its live diagonal entries stack into one factor of
    the block's shape, applied as one in-place multiply, with the bits of the
    2x2 product."""

    def __init__(self, config: SolverConfig, colors: tuple[int, ...]):
        grid = config.grid
        k_sq = np.zeros(grid.shape)
        for ax in range(grid.dim):
            k = _spectral_wavenumbers(grid.cells[ax], grid.spacing[ax])
            shape = [1] * grid.dim
            shape[ax] = grid.cells[ax]
            k_sq = k_sq + (k.reshape(shape)) ** 2
        consts = config.consts
        # exp(-i (dt/2) (hbar^2 k^2 / 2m) / hbar), and the full step's factor, at
        # the block's shape: one contiguous pass, where broadcasting costs more
        block = (len(colors),) + grid.shape
        self._half_kinetic, self._full_kinetic = (
            np.broadcast_to(np.exp(-1j * config.dt * consts.hbar * k_sq / (d * consts.mass)),
                            block).copy() for d in (4.0, 2.0))
        # 1-D transforms, grid axes last first as np.fft.fftn runs them: its bits, less overhead
        self._axes = tuple(range(grid.dim, 0, -1))
        v = consts.charge * config.phi_pot
        c = -consts.spin_coupling * config.b
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
        self._colors = colors
        # an axial field (or none) leaves the colors uncoupled in every cell
        self._diagonal = not (np.any(u12) or np.any(u21))
        self._cell = np.stack([(u11, u22)[c] for c in colors] if self._diagonal
                              else (u11, u12, u21, u22))
        self._spectrum = None  # F(V psi) of the last step, from the first call on

    def _forward(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        # scipy.fft.fft's c2c call (inorm 0) into ``out``, which may be psi:
        # each line goes through its own buffer, so either keeps the bits
        for ax in self._axes:
            c2c(psi, (ax,), True, 0, out, 1)
            psi = out
        return out

    def _kinetic(self, spectrum: np.ndarray, factor: np.ndarray, psi: np.ndarray) -> np.ndarray:
        # psi = F^-1(spectrum * factor), which may be spectrum: the one
        # kinetic multiply, state first (numpy's SIMD complex multiply gives
        # factor * spectrum other last bits), then ifft's c2c call (inorm 2,
        # divide by the axis length) in place
        np.multiply(spectrum, factor, out=psi)
        for ax in self._axes:
            c2c(psi, (ax,), False, 2, psi, 1)
        return psi

    def advance(self, psi: np.ndarray, n: int) -> np.ndarray:
        """n steps of the live colors' block ``psi``, in place, as
        K/2 (V K)^(n-1) V K/2: nothing observes the state between the
        trailing half-step of one step and the leading half of the next, so
        they run as one full kinetic step.

        The trailing half-step keeps the spectrum Phi = F(V psi) of the last
        step in a block of the propagator's own and writes psi = F^-1(Phi
        K/2); the next call starts from F^-1(Phi K), not from psi, so n
        steps cost 2n + 1 transforms per grid axis, and the first call,
        which starts from F^-1(F(psi) K/2), 2n + 2.  ``psi`` must hold what
        the last call left there: a change to it between calls is lost."""
        if self._spectrum is None:
            self._spectrum = np.empty_like(psi)
            self._kinetic(self._forward(psi, psi), self._half_kinetic, psi)
        else:
            self._kinetic(self._spectrum, self._full_kinetic, psi)
        for i in range(n):
            if self._diagonal:
                # keep the factor first: numpy's SIMD complex multiply gives
                # u * psi and psi * u different last bits, and the 2x2
                # product takes u * psi
                np.multiply(self._cell, psi, out=psi)
            else:
                u11, u12, u21, u22 = self._cell
                psi[0], psi[1] = u11 * psi[0] + u12 * psi[1], u21 * psi[0] + u22 * psi[1]
            if i < n - 1:
                self._kinetic(self._forward(psi, psi), self._full_kinetic, psi)
        return self._kinetic(self._forward(psi, self._spectrum), self._half_kinetic, psi)


class _CrankNicolsonPropagator:
    """Unitary Cayley step (I + zH) psi' = (I - zH) psi, z = i dt / 2 hbar, as
    psi' = 2y - psi with A y = psi, A = I + zH, since I - zH = 2I - A.

    A's Hermitian part is I, so every symmetric permutation of A factors
    without pivoting, with bounded growth: A is factored once in a
    minimum-degree ordering of A^T + A, diagonal pivots only.  Every solve is
    still checked: 2 |A y - psi| <= tol |psi| bounds |A psi' - (I - zH) psi|
    = 2 |A y - psi| by tol |(I - zH) psi|, since |(I - zH) psi| >= |psi|.

    The system spans ``colors``, in the order of the colors-first block, so
    its vector is the flat live block.  A live color's solve has the bits of
    the two-color one, whose empty block holds only zeros.
    """

    def __init__(self, config: SolverConfig, colors: tuple[int, ...]):
        consts, grid = config.consts, config.grid
        kin = -(consts.hbar**2) / (2.0 * consts.mass) * laplacian_matrix(grid)
        v = consts.charge * config.phi_pot.ravel()
        b = consts.spin_coupling * config.b.reshape(grid.size, 3)
        bz, bxy = b[:, 2], b[:, 0] - 1j * b[:, 1]
        self._colors = colors
        diags = scipy.sparse.diags
        blocks = [[kin + diags(v - bz), diags(-bxy)],
                  [diags(-np.conj(bxy)), kin + diags(v + bz)]]
        ham = scipy.sparse.bmat([[blocks[i][j] for j in self._colors] for i in self._colors],
                                format="csr")
        z = 0.5j * config.dt / consts.hbar
        eye = scipy.sparse.identity(ham.shape[0], dtype=np.complex128, format="csr")
        self._a_plus = (eye + z * ham).tocsr()
        self._lu = scipy.sparse.linalg.splu(self._a_plus.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                            diag_pivot_thresh=0.0)

    def advance(self, psi: np.ndarray, n: int) -> np.ndarray:
        """n Cayley steps of the live colors' contiguous block ``psi``, in
        place through its flat view; every solve's residual is checked, and
        a NaN residual fails the check."""
        flat = psi.reshape(-1)
        for i in range(n):
            y = self._lu.solve(flat)
            r = self._a_plus @ y
            r -= flat
            residual, scale = np.vdot(r, r).real, np.vdot(flat, flat).real  # squared norms
            if not 4.0 * residual <= _RESIDUAL_TOL**2 * scale:
                rel = 2.0 * np.sqrt(residual / scale) if scale > 0 else np.inf
                raise SolverError(f"implicit solve {i} of {n}: relative residual {rel:.3e} "
                                  f"above bound {_RESIDUAL_TOL:.0e}")
            y *= 2.0
            np.subtract(y, flat, out=flat)
        return psi


def _make_propagator(config: SolverConfig, psi: np.ndarray):
    """The propagator of ``config`` for runs from the ``grid.shape + (2,)``
    array ``psi`` on its periodic grid.  It picks the colors either scheme
    steps: both where the spin coupling times the transverse field is
    nonzero in some cell, since only that term couples the colors, else
    those that carry amplitude in ``psi``."""
    grid = config.grid
    if np.shape(psi) != grid.shape + (2,):
        raise SolverError(f"state shape {np.shape(psi)} is not the field grid's "
                          f"{grid.shape + (2,)}")
    if grid.boundary != PERIODIC:
        raise SolverError("Pauli propagation requires a periodic grid")
    split = config.scheme == SPLIT_OPERATOR
    colors = ((0, 1) if np.any(config.consts.spin_coupling * config.b[..., :2])
              else tuple(c for c in (0, 1) if np.any(psi[..., c])))
    propagator = _SplitOperatorPropagator if split else _CrankNicolsonPropagator
    return propagator(config, colors)


# ---------------------------------------------------------------------------
# recording and evolution
# ---------------------------------------------------------------------------


def _observable_weights(grid: Grid):
    """The (rows, cells) block of weights every record on ``grid``
    multiplies by, built once per run: w for dens, rho1 and rho2,
    w * x_ax per axis, 2w for the real and imaginary cross term, w for
    rho1 - rho2.  A shared weight is stored once per row: a product of two
    blocks of one shape is one contiguous pass, while broadcasting sends
    numpy through its general iterator, which costs more than it saves."""
    w = quadrature_weights(grid)
    rows = [w, w, w, *(w * x for x in grid.meshgrid()), w * 2.0, w * 2.0, w]
    return np.array(rows).reshape(len(rows), -1)


def _observe(block: np.ndarray, weights, position, spin, masses):
    """The recorded sums of a colors-first (2, ...) wavefunction block,
    written into the rows ``position`` (3,), ``spin`` (3,) and ``masses``
    (2,); returns the norm, the two color densities and their sum.

    The terms fill one block of the weights' shape, their products go to a
    new block, and one ``np.add.reduce(..., axis=1)`` takes every sum.  A
    reduction along the last, contiguous axis sums each row pairwise exactly
    as the 1-D reduce of ``np.sum(w * ...)`` does, and real products commute
    exactly, so the values carry the bits of the plain formulas.
    """
    terms = np.empty((len(weights),) + block.shape[1:])
    np.square(np.abs(block), out=terms[1:3])
    flat = terms.reshape(len(weights), -1)  # rows in the weights' order
    np.add(flat[1], flat[2], out=flat[0])
    flat[3:-3] = flat[0]
    cross = np.conj(block[0]) * block[1]
    terms[-3], terms[-2] = cross.real, cross.imag
    np.subtract(flat[1], flat[2], out=flat[-1])
    norm, masses[0], masses[1], *x, s_x, s_y, s_z = np.add.reduce(flat * weights, axis=1).tolist()
    for ax, value in enumerate(x):
        position[ax] = value / norm
    spin[0], spin[1], spin[2] = s_x / norm, s_y / norm, s_z / norm
    return norm, terms[1], terms[2], terms[0]


@dataclass(frozen=True)
class PauliTrajectory:
    times: np.ndarray
    norms: np.ndarray
    positions: np.ndarray  # (n, 3)
    spins: np.ndarray  # (n, 3)
    color_masses: np.ndarray  # (n, 2)
    # grid.shape + (2,) wavefunction after the last step: a view of the run's
    # colors-first block, not a copy
    final: np.ndarray


def record_count(steps: int, record_every: int) -> int:
    """The records of an ``evolve`` run of ``steps`` steps: the initial
    state, every ``record_every``-th step, and the last step."""
    return 1 + steps // record_every + (steps % record_every != 0)


def evolve(
    initial: np.ndarray,
    config: SolverConfig,
    t_final: float,
    record_every: int = 1,
    on_record: Callable[..., None] | None = None,
) -> PauliTrajectory:
    """Repeated stepping, from t = 0, of the ``grid.shape + (2,)`` complex
    array ``initial`` on ``config.grid``, recording its norm, mean
    position, spin and color masses.  An array of another shape raises
    ``SolverError``, and so does the first record of a state whose norm is
    not 1 within 1e-10.

    The propagator advances from one record to the next in one call.  The
    split-operator scheme fuses the two kinetic half-steps that meet between
    two steps into one full step, which moves its output at round-off only:
    between unrecorded steps it transforms the state, and across a record it
    starts from the spectrum it kept from the last step, not from the
    recorded state (``_SplitOperatorPropagator.advance``).  Crank-Nicolson
    steps from the recorded state, every step on its own.

    The state is one C-contiguous colors-first (2, ...) copy of ``initial``,
    whose live colors' slice the propagator steps in place; a color it does
    not step is set to +0 once, after the first record.

    ``on_record(psi, t, rho1, rho2, dens, masses)``, when given, sees the
    raw (..., 2) wavefunction array, its two color densities, their sum
    and the recorded color masses (2,) at each recorded step, after the
    recorded sums are taken and before the norm is checked; the three
    density arrays keep their values for the whole call (the weighted sums
    write elsewhere), and the callback may raise to abort the run.  ``psi``
    is the same read-only view of the block at every record, which the
    next step overwrites: a write to it raises ``ValueError``, since the
    split operator's next step would not read it.
    """
    if t_final < 0:
        raise SolverError("t_final must be nonnegative")
    if record_every < 1:
        raise SolverError("record_every must be at least 1")
    steps = int(round(t_final / config.dt))
    prop = _make_propagator(config, initial)
    block = np.moveaxis(initial, -1, 0).astype(np.complex128, order="C")
    colors = prop._colors
    live, psi = block[colors[0]:colors[-1] + 1], np.moveaxis(block, 0, -1)
    seen = psi.view()
    seen.flags.writeable = False
    t = 0.0
    weights = _observable_weights(config.grid)
    rows = record_count(steps, record_every)
    times, norms = np.empty(rows), np.empty(rows)
    positions, spins, masses = np.zeros((rows, 3)), np.empty((rows, 3)), np.empty((rows, 2))
    row = 0

    def record():
        nonlocal row
        norm, rho1, rho2, dens = _observe(block, weights, positions[row], spins[row], masses[row])
        if on_record is not None:
            on_record(seen, t, rho1, rho2, dens, masses[row])
        if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
            raise SolverError(f"state norm {norm} left 1 +- 1e-10 at t={t:.6g}")
        times[row], norms[row] = t, norm
        row += 1

    record()
    if len(colors) == 1:
        block[1 - colors[0]] = 0.0
    for i in range(0, steps, record_every):
        n = min(record_every, steps - i)
        prop.advance(live, n)
        t = (i + n) * config.dt
        record()
    return PauliTrajectory(times, norms, positions, spins, masses, psi)


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------


def gaussian_packet_state(
    grid: Grid,
    sigma: float,
    center: float,
    velocity: float,
    spin_weights: tuple[complex, complex],
    consts: PhysicalConstants,
) -> np.ndarray:
    """Minimum-uncertainty packet with the given position spread and mean
    velocity, in a fixed spin direction: the normalized ``grid.shape + (2,)``
    array on a 1-D ``grid``."""
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
    return vals
