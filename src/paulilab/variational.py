"""Fisher minimum and excited family of the discretized density functional.

The density-only Fisher objective is minimized through the square-root
substitution: the functional becomes a quadratic form in psi = sqrt(P) built
from forward differences (the same 3-point family as the grid operators),
whose discrete stationary points on the dirichlet lattice are exact sine
modes.  On the unit sphere of psi it is the eigenproblem K psi = rho W psi.
Its lowest modes, the minimum and the excited family, are solved together
as one block by LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) with the
factored lattice Laplacian as preconditioner, so degenerate partners are
found together.

``TotalObjective`` gives the static Fisher + knowledge functional over the
four polar fields and its exact discrete gradient, which criterion 8 checks
against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .functionals import (
    POLAR_FIELDS,
    PhysicalConstants,
    _knowledge,
    _polar_terms,
    _stacks,
    _total_of_terms,
)
from .grids import (
    CENTRAL,
    PERIODIC,
    POSITIVITY_FLOOR,
    Grid,
    _locked,
    curl_stack,
    derive_along,
    interior_mask,
    laplacian_matrix,
    quadrature_weights,
)

# a sphere step shorter than this ends the descent
_STEP_TOL = 1e-14


class VariationalError(ValueError):
    """Raised for ill-posed minimization problems."""


@dataclass(frozen=True)
class MinimizationResult:
    """One stationary mode: its density, normalized, nonnegative and zero on
    a dirichlet boundary, and the descent that reached it."""

    density: np.ndarray
    objective_value: float
    gradient_norm: float
    iterations: int
    converged: bool
    trace: np.ndarray  # (k, 3): iteration, objective, gradient norm


# ---------------------------------------------------------------------------
# Fisher objective in the square-root variable
# ---------------------------------------------------------------------------


def _link_diffs(psi: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    h = grid.spacing[axis]
    if grid.boundary == PERIODIC:
        return (np.roll(psi, -1, axis=axis) - psi) / h
    return np.diff(psi, axis=axis) / h


def fisher_value_psi(psi: np.ndarray, grid: Grid) -> float:
    """4 * sum over links of (delta psi / h)^2 times the cell volume."""
    w = grid.cell_volume
    total = 0.0
    for ax in range(grid.dim):
        d = _link_diffs(psi, grid, ax)
        total += 4.0 * w * float(np.sum(d * d))
    return total


def fisher_value_density(p: np.ndarray, grid: Grid) -> float:
    return fisher_value_psi(np.sqrt(np.maximum(p, 0.0)), grid)


def fisher_gradient_density(p: np.ndarray, grid: Grid) -> np.ndarray:
    """d/dP of fisher_value_density through d/dpsi = -8 w Laplacian(psi),
    the lattice Laplacian with zero ghosts beyond a dirichlet lattice."""
    # keep exact zeros inside the stencil; guard only the division
    psi = np.sqrt(np.maximum(p, 0.0))
    grad_psi = (-8.0 * grid.cell_volume) * (laplacian_matrix(grid) @ psi.ravel())
    divisor = np.maximum(psi, np.sqrt(POSITIVITY_FLOOR))
    return grad_psi.reshape(grid.shape) / (2.0 * divisor)


# ---------------------------------------------------------------------------
# static total-functional objective over polar fields
# ---------------------------------------------------------------------------


class TotalObjective:
    """Static (single snapshot) weighted Fisher + knowledge functional.

    Evaluates on a dict of raw arrays for the four polar components of a
    periodic grid and provides the exact gradient of the discretization,
    adjoint-consistent with the central derivative stencil.  The static
    potentials are ``phi_pot`` (``grid.shape``) and the vector potential
    ``a_pot``, components first (``(3,) + grid.shape``); B is its central
    curl.
    """

    def __init__(self, grid: Grid, phi_pot: np.ndarray, a_pot: np.ndarray,
                 consts: PhysicalConstants):
        if grid.boundary != PERIODIC:
            raise VariationalError("the total objective requires a periodic grid")
        self.grid = grid
        phi_pot = _locked("phi_pot", phi_pot, grid.shape, VariationalError)
        a_pot = _locked("a_pot", a_pot, (3,) + grid.shape, VariationalError)
        # one-frame potential stacks, B = curl(A) among them, taken once
        # rather than on every evaluation
        self.em = {"phi_pot": phi_pot[None], "a_pot": a_pot[:, None],
                   "b": curl_stack(a_pot, grid)[:, None], "u": np.zeros((1,) + grid.shape)}
        self.consts = consts
        self.w = quadrature_weights(grid)

    def _adjoint(self, arr, ax):
        # the wrapped central stencil is antisymmetric as a real matrix;
        # arrays carry the one-frame axis of the stacks in front
        return -derive_along(arr, self.grid.spacing[ax], 1 + ax, PERIODIC)

    def _frame(self, f: dict):
        # iterates and finite-difference probes are not normalized, so the
        # one-frame stack skips the density checks
        frame = {name: f[name][None] for name in POLAR_FIELDS}
        return _stacks(self.grid, {**frame, **self.em}, 0.0, False, CENTRAL)

    def value(self, f: dict) -> float:
        st = self._frame(f)
        return _total_of_terms(st, _polar_terms(st, self.consts))

    def gradient(self, f: dict) -> dict:
        c = self.consts
        g = self.grid
        st = self._frame(f)
        p, theta, phi, b = st.p, st.theta, st.phi, st.b
        gp, gtheta, gphi = st.grad_p, st.grad_theta, st.grad_phi
        gauge = [st.grad_s[ax] - c.charge * st.a_pot[ax] for ax in range(g.dim)]
        cross = sum(gphi[ax] * gauge[ax] for ax in range(g.dim))
        included = p >= POSITIVITY_FLOOR
        safe_p = np.where(included, p, 1.0)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        bx, by, bz = b
        in_plane = bx * np.cos(phi) + by * np.sin(phi)
        out: dict[str, np.ndarray] = {}

        grad_p = self.w * (
            c.lam * (-np.where(included, sum(gg * gg for gg in gp) / safe_p**2, 0.0)
                     + sum(gg * gg for gg in gtheta))
            + _knowledge(_polar_terms(st, c))  # the rest of the integrand is linear in P
        )
        for ax in range(g.dim):
            grad_p += self._adjoint(
                2.0 * c.lam * self.w * np.where(included, gp[ax] / safe_p, 0.0), ax
            )
        out["p"] = grad_p

        grad_theta = self.w * p * (
            (c.a / c.mass) * sin_t * cross
            - c.spin_coupling * (cos_t * in_plane - sin_t * bz)
        )
        for ax in range(g.dim):
            grad_theta += self._adjoint(2.0 * c.lam * self.w * p * gtheta[ax], ax)
        out["theta"] = grad_theta

        grad_s = np.zeros_like(p)
        for ax in range(g.dim):
            grad_s += self._adjoint(
                self.w * p * (gauge[ax] - c.a * cos_t * gphi[ax]) / c.mass, ax
            )
        out["s"] = grad_s

        grad_phi = self.w * p * (-c.spin_coupling * sin_t * (-bx * np.sin(phi) + by * np.cos(phi)))
        for ax in range(g.dim):
            grad_phi += self._adjoint(
                self.w * p * (c.a**2 * gphi[ax] - c.a * cos_t * gauge[ax]) / c.mass, ax
            )
        out["phi"] = grad_phi
        return {name: grad[0] for name, grad in out.items()}


# ---------------------------------------------------------------------------
# block sphere solver for the square-root variable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FisherOperator:
    """The Fisher quadratic form on the free cells and its preconditioner.

    On the sphere sum(w psi^2) = 1 the psi objective is psi^T K psi with
    K = 4 * cell_volume * (-Laplacian) restricted to the free cells; T = K + eps W
    is factored once and serves every start of a grid.  W is the cell volume
    on every free cell: the half-weight cells are never free.
    """

    free: np.ndarray  # flat indices of the free cells
    stiffness: scipy.sparse.csr_matrix  # K
    lu: scipy.sparse.linalg.SuperLU  # factor of T


def _fisher_operator(grid: Grid) -> _FisherOperator:
    free = np.flatnonzero(interior_mask(grid))
    stiffness = ((-4.0 * grid.cell_volume) * laplacian_matrix(grid))[free][:, free]
    # eps is the scale of the lowest continuum modes: it keeps T positive
    # definite on periodic grids, where K annihilates the constants
    eps = sum((2.0 * np.pi / extent) ** 2 for extent in grid.extents)
    w = quadrature_weights(grid).ravel()[free]
    lu = scipy.sparse.linalg.splu((stiffness + eps * scipy.sparse.diags(w)).tocsc())
    return _FisherOperator(free, stiffness, lu)


def _ritz_basis(blocks, cell_volume: float) -> np.ndarray:
    """W-orthonormal basis of the span of the column ``blocks``, block by
    block: each block's unit columns are projected off the basis so far and
    replaced by the left singular vectors of what remains, twice once there
    is a basis to project off, dropping directions that lie numerically
    inside the span of the earlier ones."""
    basis = np.empty((len(blocks[0]), 0))
    for block in blocks:
        norms = np.linalg.norm(block, axis=0)
        v = block[:, norms > 0] / norms[norms > 0]
        for _ in range(2 if basis.shape[1] else 1):
            u, sigma, _ = np.linalg.svd(v - basis @ (basis.T @ v), full_matrices=False)
            v = u[:, sigma > 1e-10]
        basis = np.hstack([basis, v])
    return basis / np.sqrt(cell_volume)


def _block_lobpcg(grid: Grid, op: _FisherOperator, x0: np.ndarray, grad_tol: float,
                  max_iterations: int) -> list[MinimizationResult]:
    """Block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) for the lowest
    modes of the psi objective, one per column of ``x0`` (free cells x modes).

    Each iteration runs Rayleigh-Ritz over span[X, T^-1 R, P]: X the current
    modes, R their tangent gradients, P the previous step and T the factored
    preconditioner.  X is a Ritz basis inside that span, so no mode's value
    increases; a candidate value above the current one by more than
    round-off, or a step below ``_STEP_TOL``, stops the descent.  Every mode
    has converged once its tangent-gradient norm is at most ``grad_tol``.
    """
    cv = grid.cell_volume
    modes = x0.shape[1]

    def rayleigh_ritz(blocks):
        basis = _ritz_basis(blocks, cv)
        coeffs = np.linalg.eigh(basis.T @ (op.stiffness @ basis))[1][:, :modes]
        x = basis @ coeffs
        return basis, coeffs, x / np.sqrt(cv * np.sum(x * x, axis=0))

    def evaluate(x):
        # each column on the grid, and its value
        psi = np.zeros((modes, grid.size))
        psi[:, op.free] = x.T
        psi = psi.reshape((modes,) + grid.shape)
        return psi, np.array([fisher_value_psi(column, grid) for column in psi])

    def tangent_grad(x):
        # the gradient of x^T K x, each column projected onto the sphere's tangent
        g = 2.0 * (op.stiffness @ x)
        return g - x * (np.sum(g * x, axis=0) / np.sum(x * x, axis=0))

    basis, _, x = rayleigh_ritz([x0])
    if basis.shape[1] < modes:
        raise VariationalError("degenerate density iterate")
    psi, values = evaluate(x)
    grad = tangent_grad(x)
    gnorms = np.linalg.norm(grad, axis=0)
    traces = [[(0, value, gnorm)] for value, gnorm in zip(values, gnorms)]
    step: list[np.ndarray] = []
    iterations = 0
    while np.any(gnorms > grad_tol) and iterations < max_iterations:
        basis, coeffs, candidate = rayleigh_ritz([x, np.hstack([op.lu.solve(grad)] + step)])
        cand_psi, cand_values = evaluate(candidate)
        if np.any(cand_values > values + 1e-12 * np.maximum(1.0, np.abs(values))):
            break
        # the step away from span X, formed without cancellation
        step = [basis[:, modes:] @ coeffs[modes:]]
        if float(np.linalg.norm(step[0])) < _STEP_TOL:
            break
        x, psi, values = candidate, cand_psi, cand_values
        grad = tangent_grad(x)
        gnorms = np.linalg.norm(grad, axis=0)
        iterations += 1
        for trace, value, gnorm in zip(traces, values, gnorms):
            trace.append((iterations, value, gnorm))
    densities = psi**2
    # gradient_norm is the solver's own convergence metric (projected
    # square-root-space gradient), so converged implies norm <= tolerance
    return [
        MinimizationResult(
            density=p / (cv * float(np.sum(p))),
            objective_value=float(value),
            gradient_norm=float(gnorm),
            iterations=iterations,
            converged=bool(gnorm <= grad_tol),
            trace=np.array(trace),
        )
        for p, value, gnorm, trace in zip(densities, values, gnorms, traces)
    ]


def spectrum_scan(grid: Grid, mode_count: int, grad_tol: float, max_iterations: int,
                  multistarts: int, seed: int) -> list[MinimizationResult]:
    """The lowest ``mode_count`` stationary modes of the density-only Fisher
    objective on ``grid``, solved together as one block from each of
    ``multistarts`` random starts; the start with the lowest sum of values
    wins, and its first mode is the Fisher minimum.  Start k draws
    ``mode_count`` columns in turn from ``default_rng(seed + k)``.  Accepted
    steps never increase a value."""
    if mode_count < 1:
        raise VariationalError("mode_count must be positive")
    op = _fisher_operator(grid)
    rngs = (np.random.default_rng(seed + start) for start in range(multistarts))
    starts = (np.stack([rng.random(grid.size)[op.free] + 0.1 for _ in range(mode_count)],
                       axis=1) for rng in rngs)
    scans = (_block_lobpcg(grid, op, x0, grad_tol, max_iterations) for x0 in starts)
    return min(scans, key=lambda modes: sum(r.objective_value for r in modes))
