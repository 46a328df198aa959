"""Fisher minimum and excited family of the discretized density functional.

The density-only Fisher objective is minimized through the square-root
substitution: the functional becomes a quadratic form in psi = sqrt(P) built
from forward differences (the same 3-point family as the grid operators),
whose discrete stationary points on the dirichlet lattice are exact sine
modes.  On the unit sphere of psi it is the eigenproblem K psi = rho W psi,
solved by single-vector LOPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) with
the factored lattice Laplacian as preconditioner; deflation against
converged modes yields the excited family.

``TotalObjective`` gives the static Fisher + knowledge functional over the
four polar fields and its exact discrete gradient, which criterion 8 checks
against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .functionals import (
    EMConfiguration,
    PhysicalConstants,
    _knowledge,
    _polar_terms,
    _stacks,
    _total_value,
)
from .grids import (
    CENTRAL,
    DIRICHLET_ZERO,
    PERIODIC,
    POSITIVITY_FLOOR,
    Grid,
    VectorField3,
    derive_along_adjoint,
    laplacian_matrix,
    quadrature_weights,
)

POLAR_FIELDS = ("p", "theta", "s", "phi")

# a sphere step shorter than this ends the descent
_STEP_TOL = 1e-14


class VariationalError(ValueError):
    """Raised for ill-posed minimization problems."""


@dataclass(frozen=True)
class MinimizationProblem:
    """Specification of one Fisher minimization over the density on ``grid``,
    normalized, nonnegative and zero on a dirichlet boundary.

    When an ``initial`` density is supplied the solver starts there (single
    run); otherwise it draws ``multistarts`` random starts from ``seed`` and
    returns the best result.
    """

    grid: Grid
    initial: dict | None = None
    grad_tol: float = 1e-8
    max_iterations: int = 20000
    multistarts: int = 8
    seed: int = 0


@dataclass(frozen=True)
class MinimizationResult:
    fields: dict
    objective_value: float
    gradient_norm: float
    iterations: int
    multistart_index: int
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


def _neighbor_sum(psi: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    if grid.boundary == PERIODIC:
        return np.roll(psi, -1, axis=axis) + np.roll(psi, 1, axis=axis)
    out = np.zeros_like(psi)
    sl = [slice(None)] * psi.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    out[at(slice(0, -1))] += psi[at(slice(1, None))]
    out[at(slice(1, None))] += psi[at(slice(0, -1))]
    return out


def fisher_gradient_psi(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """d/dpsi of fisher_value_psi: -8 w Laplacian(psi) with zero ghosts."""
    w = grid.cell_volume
    out = np.zeros_like(psi)
    for ax in range(grid.dim):
        h2 = grid.spacing[ax] ** 2
        out += (8.0 * w / h2) * (2.0 * psi - _neighbor_sum(psi, grid, ax))
    return out


def fisher_value_density(p: np.ndarray, grid: Grid) -> float:
    return fisher_value_psi(np.sqrt(np.maximum(p, 0.0)), grid)


def fisher_gradient_density(p: np.ndarray, grid: Grid) -> np.ndarray:
    # keep exact zeros inside the stencil; guard only the division
    psi = np.sqrt(np.maximum(p, 0.0))
    divisor = np.maximum(psi, np.sqrt(POSITIVITY_FLOOR))
    return fisher_gradient_psi(psi, grid) / (2.0 * divisor)


# ---------------------------------------------------------------------------
# static total-functional objective over polar fields
# ---------------------------------------------------------------------------


def _boundary_mask(grid: Grid) -> np.ndarray:
    mask = np.ones(grid.shape, dtype=bool)
    if grid.boundary == DIRICHLET_ZERO:
        for ax in range(grid.dim):
            sl = [slice(None)] * grid.dim
            sl[ax] = 0
            mask[tuple(sl)] = False
            sl[ax] = -1
            mask[tuple(sl)] = False
    return mask


class TotalObjective:
    """Static (single snapshot) weighted Fisher + knowledge functional.

    Evaluates on a dict of raw arrays for the four polar components and
    provides the exact gradient of the discretization, adjoint-consistent
    with the grid derivative stencils.
    """

    def __init__(self, grid: Grid, em: EMConfiguration, consts: PhysicalConstants,
                 scheme: str = CENTRAL):
        self.grid = grid
        # resolve B = curl(A) once rather than on every evaluation
        self.em = replace(em, b=VectorField3(grid, em.b_values(scheme)))
        self.consts = consts
        self.scheme = scheme
        self.w = quadrature_weights(grid)

    def _adjoint(self, arr, ax):
        # arrays carry the one-frame axis of the stacks in front
        g = self.grid
        return derive_along_adjoint(arr, g.spacing[ax], 1 + ax, g.boundary, self.scheme)

    def _frame(self, f: dict):
        # iterates and finite-difference probes are not normalized, so the
        # one-frame stack skips the PolarFields checks
        frame = {name: f[name][None] for name in POLAR_FIELDS}
        return _stacks(self.grid, frame, np.ones_like(frame["p"]), [self.em], 0.0, False,
                       self.scheme)

    def value(self, f: dict) -> float:
        return _total_value(self._frame(f), self.consts)

    def gradient(self, f: dict) -> dict:
        c = self.consts
        g = self.grid
        st = self._frame(f)
        p, theta, phi, b = st.p, st.theta, st.phi, st.b
        gp, gtheta, gphi = st.grad_p, st.grad_theta, st.grad_phi
        gauge = [st.grad_s[ax] - c.charge * st.a_pot[..., ax] for ax in range(g.dim)]
        cross = sum(gphi[ax] * gauge[ax] for ax in range(g.dim))
        included = p >= POSITIVITY_FLOOR
        safe_p = np.where(included, p, 1.0)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
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
            - c.a * c.gamma * (cos_t * in_plane - sin_t * bz)
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

        grad_phi = self.w * p * (-c.a * c.gamma * sin_t * (-bx * np.sin(phi) + by * np.cos(phi)))
        for ax in range(g.dim):
            grad_phi += self._adjoint(
                self.w * p * (c.a**2 * gphi[ax] - c.a * cos_t * gauge[ax]) / c.mass, ax
            )
        out["phi"] = grad_phi
        return {name: grad[0] for name, grad in out.items()}


# ---------------------------------------------------------------------------
# sphere solver for the square-root variable
# ---------------------------------------------------------------------------


def _normalize_psi(psi: np.ndarray, w: np.ndarray) -> np.ndarray:
    norm = float(np.sum(w * psi * psi))
    if norm <= 0:
        raise VariationalError("degenerate density iterate")
    return psi / np.sqrt(norm)


def _retract(psi, w, free, deflate):
    psi = np.where(free, psi, 0.0)
    for mode in deflate:
        psi = psi - float(np.sum(w * psi * mode)) * mode
    return _normalize_psi(psi, w)


@dataclass(frozen=True)
class _FisherOperator:
    """The Fisher quadratic form on the free cells and its preconditioner.

    On the sphere sum(w psi^2) = 1 the psi objective is psi^T K psi with
    K = 4 * cell_volume * (-Laplacian) restricted to the free cells; T = K + eps W
    is factored once and serves every start and deflated mode of a grid.
    """

    free: np.ndarray  # flat indices of the free cells
    stiffness: scipy.sparse.csr_matrix  # K
    lu: scipy.sparse.linalg.SuperLU  # factor of T


def _fisher_operator(grid: Grid) -> _FisherOperator:
    free = np.flatnonzero(_boundary_mask(grid))
    stiffness = ((-4.0 * grid.cell_volume) * laplacian_matrix(grid))[free][:, free]
    # eps is the scale of the lowest continuum modes: it keeps T positive
    # definite on periodic grids, where K annihilates the constants
    eps = sum((2.0 * np.pi / extent) ** 2 for extent in grid.extents)
    w = quadrature_weights(grid).ravel()[free]
    lu = scipy.sparse.linalg.splu((stiffness + eps * scipy.sparse.diags(w)).tocsc())
    return _FisherOperator(free, stiffness, lu)


def _ritz_basis(columns, w: np.ndarray, modes) -> np.ndarray:
    """w-orthonormal basis of span(columns) that is w-orthogonal to the
    (w-orthonormal) deflated modes: Gram-Schmidt, twice, dropping directions
    that lie numerically inside the span of the earlier ones."""
    basis = list(modes)
    for v in columns:
        size = np.sqrt(float(np.sum(w * v * v)))
        for _ in range(2):
            for q in basis:
                v = v - float(np.sum(w * q * v)) * q
        norm = np.sqrt(float(np.sum(w * v * v)))
        if norm > 1e-10 * size:
            basis.append(v / norm)
    return np.stack(basis[len(modes):], axis=1)


def _sphere_minimize(
    grid: Grid,
    op: _FisherOperator,
    psi0: np.ndarray,
    deflate: Sequence[np.ndarray],
    grad_tol: float,
    max_iterations: int,
):
    """Locally optimal preconditioned descent (single-vector LOPCG) for the
    quadratic psi objective.

    Each iteration runs Rayleigh-Ritz over span{psi, T^-1 g, previous step},
    with g the tangent gradient and T the factored preconditioner.  psi lies
    in that span, so an accepted value never increases; a candidate above
    the current value by more than round-off, or a step below ``_STEP_TOL``,
    stops the descent.
    """
    w = quadrature_weights(grid)
    free = _boundary_mask(grid)
    wf = w.ravel()[op.free]
    modes = [mode.ravel()[op.free] for mode in deflate]
    psi = _retract(psi0, w, free, deflate)

    def tangent_grad(psi, g):
        g = np.where(free, g, 0.0)
        wp = w * psi
        g = g - (float(np.sum(g * wp)) / float(np.sum(wp * wp))) * wp
        for mode in deflate:
            wm = w * mode
            g = g - (float(np.sum(g * wm)) / float(np.sum(wm * wm))) * wm
        return g

    value = fisher_value_psi(psi, grid)
    grad = tangent_grad(psi, fisher_gradient_psi(psi, grid))
    gnorm = float(np.linalg.norm(grad))
    trace = [(0, value, gnorm)]
    step: list[np.ndarray] = []
    iterations = 0
    converged = gnorm <= grad_tol
    while not converged and iterations < max_iterations:
        columns = [psi.ravel()[op.free], op.lu.solve(grad.ravel()[op.free])] + step
        basis = _ritz_basis(columns, wf, modes)
        _, ritz_vectors = np.linalg.eigh(basis.T @ (op.stiffness @ basis))
        coeffs = ritz_vectors[:, 0] * (1.0 if ritz_vectors[0, 0] >= 0 else -1.0)
        candidate = np.zeros(grid.size)
        candidate[op.free] = basis @ coeffs
        candidate = _retract(candidate.reshape(grid.shape), w, free, deflate)
        cand_value = fisher_value_psi(candidate, grid)
        if cand_value > value + 1e-12 * max(1.0, abs(value)):
            break
        if float(np.linalg.norm(candidate - psi)) < _STEP_TOL:
            break
        # the step away from psi, formed without cancellation
        step = [basis[:, 1:] @ coeffs[1:]]
        psi = candidate
        value = cand_value
        grad = tangent_grad(psi, fisher_gradient_psi(psi, grid))
        gnorm = float(np.linalg.norm(grad))
        iterations += 1
        trace.append((iterations, value, gnorm))
        converged = gnorm <= grad_tol
    return psi, value, gnorm, iterations, converged, np.array(trace)


def _fisher_density_result(grid, psi, value, gnorm_psi, iterations, converged, trace, index):
    w = quadrature_weights(grid)
    p = psi * psi
    p = p / float(np.sum(w * p))
    # gradient_norm is the solver's own convergence metric (projected
    # square-root-space gradient), so converged implies norm <= tolerance
    return MinimizationResult(
        fields={"p": p},
        objective_value=value,
        gradient_norm=gnorm_psi,
        iterations=iterations,
        multistart_index=index,
        converged=converged,
        trace=trace,
    )


def _random_initial_psi(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    return rng.random(grid.shape) + 0.1


def _minimize_fisher(
    problem: MinimizationProblem, op: _FisherOperator, deflate=()
) -> tuple[MinimizationResult, np.ndarray]:
    grid = problem.grid
    if problem.initial is not None:
        psi0 = np.sqrt(np.maximum(np.asarray(problem.initial["p"], dtype=float), 0.0))
        out = _sphere_minimize(grid, op, psi0, deflate, problem.grad_tol, problem.max_iterations)
        return _fisher_density_result(grid, *out, index=0), out[0]
    best = None
    best_psi = None
    for start in range(problem.multistarts):
        rng = np.random.default_rng(problem.seed + start)
        out = _sphere_minimize(
            grid,
            op,
            _random_initial_psi(grid, rng),
            deflate,
            problem.grad_tol,
            problem.max_iterations,
        )
        result = _fisher_density_result(grid, *out, index=start)
        if best is None or result.objective_value < best.objective_value:
            best = result
            best_psi = out[0]
    return best, best_psi


def minimize(problem: MinimizationProblem) -> MinimizationResult:
    """Best Fisher minimum over the starts: the first mode of ``spectrum_scan``.

    Accepted steps never increase the objective; every iterate is normalized,
    nonnegative and zero on a dirichlet boundary.
    """
    return spectrum_scan(problem, 1)[0]


def spectrum_scan(problem: MinimizationProblem, mode_count: int) -> list[MinimizationResult]:
    """Stationary family of the density-only Fisher objective, found by
    deflation: each mode is minimized in the orthogonal complement of the
    previous square-root profiles.  The first mode is ``minimize``'s result."""
    if mode_count < 1:
        raise VariationalError("mode_count must be positive")
    w = quadrature_weights(problem.grid)
    op = _fisher_operator(problem.grid)
    out: list[MinimizationResult] = []
    deflate: list[np.ndarray] = []
    for _ in range(mode_count):
        result, psi = _minimize_fisher(problem, op, deflate=tuple(deflate))
        # keep the signed profile: deflation needs the oscillatory modes
        deflate.append(_normalize_psi(psi, w))
        out.append(result)
    return out
