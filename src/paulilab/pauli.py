"""Time-dependent solution of the two-component wave equation.

Two unitary schemes on periodic grids, in a static scalar potential and
magnetic field given cell by cell (the Hamiltonian has no vector potential):
a split-operator propagator (exact per-cell 2x2 exponentials of the
potential/spin block, at half steps, around a spectral kinetic step; an
axial field leaves them diagonal, so the live colors take one stacked
multiply), and a Cayley step psi' = 2 (I + zH)^-1 psi - psi (one solve,
factored once without pivoting, and one residual check) for stencil
kinetics.  Both step the live colors' slice of one colors-first (2,) + grid
block in place, and only the colors that carry amplitude where the field
does not couple them: an axial field, or none, leaves an empty color exactly
zero (``_make_propagator`` picks the colors).  The particle's constants
couple the scalar potential as charge * phi_pot and the spin as
-spin_coupling * sigma.B: a neutral particle is charge 0 with a moment.

A propagator advances several steps per call.  The split-operator scheme
steps in the potential-first Strang order V/2 K V/2, so every step ends in
real space and takes two transforms per grid axis, recorded or not.
Between two records it runs the trailing potential half-step of one step
and the leading half-step of the next as one full step, which moves its
output at round-off only.

The kinetic steps call scipy's private compiled transform once per grid
axis, in place: ``scipy.fft._pocketfft.pypocketfft.c2c(psi, (axis,),
forward, inorm, psi, 1)``, inorm 0 forward and 2 inverse, ``scipy.fft``'s
own call without the checks that cost more than a transform of a few
cells.
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
    """Strang splitting V/2 K V/2: an exact per-cell 2x2 exponential V of the
    potential/spin block, at half steps, around a spectral kinetic factor K,
    on a colors-first block of the live ``colors``.  Where B has no
    transverse component in any cell, V is diagonal: its live diagonal
    entries stack into one factor of the block's shape, applied as one
    in-place multiply, with the bits of the 2x2 product."""

    def __init__(self, config: SolverConfig, colors: tuple[int, ...]):
        grid = config.grid
        k_sq = np.zeros(grid.shape)
        for ax in range(grid.dim):
            k = _spectral_wavenumbers(grid.cells[ax], grid.spacing[ax])
            shape = [1] * grid.dim
            shape[ax] = grid.cells[ax]
            k_sq = k_sq + (k.reshape(shape)) ** 2
        consts = config.consts
        # exp(-i dt (hbar^2 k^2 / 2m) / hbar) at the block's shape: one
        # contiguous pass, where broadcasting costs more
        self._kinetic_factor = np.broadcast_to(
            np.exp(-1j * config.dt * consts.hbar * k_sq / (2.0 * consts.mass)),
            (len(colors),) + grid.shape).copy()
        # 1-D transforms, grid axes last first as np.fft.fftn runs them: its bits, less overhead
        self._axes = tuple(range(grid.dim, 0, -1))
        self._colors = colors
        # an axial field (or none) leaves the colors uncoupled in every cell
        self._diagonal = not np.any(consts.spin_coupling * config.b[..., :2])
        self._half_cell, self._cell = (self._cell_factor(config, tau)
                                       for tau in (0.5 * config.dt, config.dt))

    def _cell_factor(self, config: SolverConfig, tau: float) -> np.ndarray:
        # U = phase (cos(a) I - i sin(a) n.sigma) over ``tau``, phase =
        # exp(-i v tau / hbar), a = |c| tau / hbar, n = c/|c|: the live
        # colors' diagonal entries stacked, or all four of the 2x2 product
        consts = config.consts
        v = consts.charge * config.phi_pot
        c = -consts.spin_coupling * config.b
        c_norm = np.sqrt(np.sum(c * c, axis=-1))
        alpha = c_norm * tau / consts.hbar
        cos_a = np.cos(alpha)
        sinc = np.where(c_norm > 0, np.sin(alpha) / np.where(c_norm > 0, c_norm, 1.0), 0.0)
        phase = np.exp(-1j * v * tau / consts.hbar)
        u11 = phase * (cos_a - 1j * sinc * c[..., 2])
        u22 = phase * (cos_a + 1j * sinc * c[..., 2])
        if self._diagonal:
            return np.stack([(u11, u22)[color] for color in self._colors])
        u12 = phase * (-1j * sinc * (c[..., 0] - 1j * c[..., 1]))
        u21 = phase * (-1j * sinc * (c[..., 0] + 1j * c[..., 1]))
        return np.stack((u11, u12, u21, u22))

    def _potential(self, cell: np.ndarray, psi: np.ndarray) -> None:
        if self._diagonal:
            # keep the factor first: numpy's SIMD complex multiply gives
            # u * psi and psi * u different last bits, and the 2x2 product
            # takes u * psi
            np.multiply(cell, psi, out=psi)
        else:
            u11, u12, u21, u22 = cell
            psi[0], psi[1] = u11 * psi[0] + u12 * psi[1], u21 * psi[0] + u22 * psi[1]

    def _kinetic(self, psi: np.ndarray) -> None:
        # scipy.fft.fft's c2c call (inorm 0), the one kinetic multiply, state
        # first (numpy's SIMD complex multiply gives factor * spectrum other
        # last bits), and ifft's c2c call (inorm 2, divide by the axis
        # length), each in place: each line goes through its own buffer
        for ax in self._axes:
            c2c(psi, (ax,), True, 0, psi, 1)
        np.multiply(psi, self._kinetic_factor, out=psi)
        for ax in self._axes:
            c2c(psi, (ax,), False, 2, psi, 1)

    def advance(self, psi: np.ndarray, n: int) -> np.ndarray:
        """n steps of the live colors' block ``psi``, in place, as
        V/2 (K V)^(n-1) K V/2: nothing observes the state between the
        trailing potential half-step of one step and the leading half of the
        next, so they run as one full potential step.  Every step takes two
        transforms per grid axis, and each call ends in real space, where
        the next one starts."""
        self._potential(self._half_cell, psi)
        for i in range(n):
            self._kinetic(psi)
            self._potential(self._cell if i < n - 1 else self._half_cell, psi)
        return psi


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


def _observable_weights(grid: Grid) -> np.ndarray:
    """The (cells, 1 + dim) weight columns every record on ``grid``
    multiplies by, built once per run: w, then w * x_ax per axis."""
    w = quadrature_weights(grid)
    return np.stack([w, *(w * x for x in grid.meshgrid())], axis=-1).reshape(grid.size, -1)


def _observe(block: np.ndarray, weights: np.ndarray, position, spin, masses):
    """The recorded sums of a colors-first (2, ...) wavefunction block,
    written into the rows ``position`` (3,), ``spin`` (3,) and ``masses``
    (2,); returns the norm, the two color densities and their sum.

    Every sum is a linear functional of four arrays, rho1, rho2 and the
    real and imaginary parts of conj(psi1) psi2, so one (4, cells) @
    (cells, 1 + dim) product with the weight columns takes them all.
    """
    terms = np.empty((4,) + block.shape[1:])
    np.square(np.abs(block), out=terms[:2])
    cross = np.conj(block[0]) * block[1]
    terms[2], terms[3] = cross.real, cross.imag
    (m1, *x1), (m2, *x2), (re, *_), (im, *_) = (terms.reshape(4, -1) @ weights).tolist()
    norm = m1 + m2
    masses[0], masses[1] = m1, m2
    for ax, (a, b) in enumerate(zip(x1, x2)):
        position[ax] = (a + b) / norm
    spin[0], spin[1], spin[2] = 2.0 * re / norm, 2.0 * im / norm, (m1 - m2) / norm
    return norm, terms[0], terms[1], terms[0] + terms[1]


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

    The propagator advances from one record to the next in one call, from
    the recorded state.  The split-operator scheme fuses the two potential
    half-steps that meet between two unrecorded steps into one full step,
    which moves its output at round-off only
    (``_SplitOperatorPropagator.advance``); Crank-Nicolson steps every step
    on its own.

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
    next step starts from and overwrites: a write to it raises
    ``ValueError``, since it would change the run that the records
    describe.
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
