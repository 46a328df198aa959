"""Constrained minimization of the discretized functionals.

The density-only Fisher objective is minimized through the square-root
substitution: the functional becomes a quadratic form in psi = sqrt(P) built
from forward differences (the same 3-point family as the grid operators),
whose discrete stationary points on the dirichlet lattice are exact sine
modes.  On the unit sphere of psi it is the eigenproblem K psi = rho W psi,
solved by single-vector LOPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) with
the factored lattice Laplacian as preconditioner; deflation against
converged modes yields the excited family.

General objectives (the static total functional over a chosen subset of the
polar fields, or a user-supplied value/gradient pair) run through a projected
gradient loop in the fields themselves, with normalization enforced by
renormalization and positivity by clipping at the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    natural_constants,
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

FISHER = "fisher"
TOTAL = "total"

POLAR_FIELDS = ("p", "theta", "s", "phi")
KNOWN_CONSTRAINTS = ("normalization", "positivity", "dirichlet")


class VariationalError(ValueError):
    """Raised for ill-posed minimization problems."""


@dataclass(frozen=True)
class MinimizationProblem:
    """Specification of one constrained minimization.

    ``objective`` is "fisher", "total", or a (value, gradient) callable pair
    over a dict of field arrays; ``free_fields`` names the polar components
    being varied.  When ``initial`` fields are supplied the solver starts
    there (single run); otherwise it draws ``multistarts`` random starts from
    ``seed`` and returns the best result.
    """

    objective: object
    grid: Grid
    free_fields: tuple[str, ...] = ("p",)
    constraints: tuple[str, ...] = ("normalization", "positivity")
    em: EMConfiguration | None = None
    consts: PhysicalConstants = field(default_factory=natural_constants)
    initial: dict | None = None
    grad_tol: float = 1e-8
    step_tol: float = 1e-14
    max_iterations: int = 20000
    multistarts: int = 8
    seed: int = 0
    scheme: str = CENTRAL

    def __post_init__(self) -> None:
        if not self.free_fields:
            raise VariationalError("at least one free field is required")
        for name in self.free_fields:
            if name not in POLAR_FIELDS:
                raise VariationalError(f"unknown field {name!r}")
        for name in self.constraints:
            if name not in KNOWN_CONSTRAINTS:
                raise VariationalError(f"unknown constraint {name!r}")
        if self.objective in (FISHER,) and self.free_fields != ("p",):
            raise VariationalError("the fisher objective varies the density only")


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
# the shared projected-gradient machinery
# ---------------------------------------------------------------------------


def projected_density_gradient(
    grad_p: np.ndarray, p: np.ndarray, grid: Grid
) -> np.ndarray:
    """Project a density gradient onto the tangent of the constraint set:
    remove the normalization direction, pin boundary cells, freeze cells
    held at the positivity floor."""
    w = quadrature_weights(grid)
    free = _boundary_mask(grid)
    g = np.where(free, grad_p, 0.0)
    wf = np.where(free, w, 0.0)
    denom = float(np.sum(wf * wf))
    if denom > 0:
        g = g - (float(np.sum(g * wf)) / denom) * wf
    active = (p <= POSITIVITY_FLOOR) & (g > 0)
    g = np.where(active, 0.0, g)
    return g


def functional_gradient(problem: MinimizationProblem, fields: dict) -> dict:
    """Exact gradient of the chosen discretized objective.

    Matches central finite differences of the objective value; the density
    component is returned raw (unprojected).
    """
    if problem.objective == FISHER:
        return {"p": fisher_gradient_density(np.asarray(fields["p"], dtype=float), problem.grid)}
    if problem.objective == TOTAL:
        if problem.em is None:
            raise VariationalError("the total objective requires field configuration")
        obj = TotalObjective(problem.grid, problem.em, problem.consts, problem.scheme)
        full = obj.gradient(_fill_fields(fields, problem.grid))
        return {name: full[name] for name in problem.free_fields}
    value_fn, grad_fn = _callable_pair(problem.objective)
    if grad_fn is not None:
        return grad_fn(fields)
    return _fd_gradient(value_fn, fields)


def objective_value(problem: MinimizationProblem, fields: dict) -> float:
    if problem.objective == FISHER:
        return fisher_value_density(np.asarray(fields["p"], dtype=float), problem.grid)
    if problem.objective == TOTAL:
        obj = TotalObjective(problem.grid, problem.em, problem.consts, problem.scheme)
        return obj.value(_fill_fields(fields, problem.grid))
    value_fn, _ = _callable_pair(problem.objective)
    return float(value_fn(fields))


def _fill_fields(fields: dict, grid: Grid) -> dict:
    out = {}
    for name in POLAR_FIELDS:
        if name in fields:
            out[name] = np.asarray(fields[name], dtype=float)
        else:
            out[name] = np.zeros(grid.shape)
    return out


def _callable_pair(objective):
    if callable(objective):
        return objective, None
    if isinstance(objective, tuple) and len(objective) == 2:
        return objective
    raise VariationalError(f"unsupported objective {objective!r}")


def _fd_gradient(value_fn, fields: dict, delta: float = 1e-6) -> dict:
    out = {}
    for name, arr in fields.items():
        arr = np.asarray(arr, dtype=float)
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            probe = dict(fields)
            bumped = arr.copy().ravel()
            bumped[i] += delta
            probe[name] = bumped.reshape(arr.shape)
            up = value_fn(probe)
            bumped[i] -= 2 * delta
            probe[name] = bumped.reshape(arr.shape)
            down = value_fn(probe)
            gflat[i] = (up - down) / (2 * delta)
        out[name] = g
    return out


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
    step_tol: float,
    max_iterations: int,
):
    """Locally optimal preconditioned descent (single-vector LOPCG) for the
    quadratic psi objective.

    Each iteration runs Rayleigh-Ritz over span{psi, T^-1 g, previous step},
    with g the tangent gradient and T the factored preconditioner.  psi lies
    in that span, so an accepted value never increases; a candidate above
    the current value by more than round-off, or a step below ``step_tol``,
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
        if float(np.linalg.norm(candidate - psi)) < step_tol:
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
        out = _sphere_minimize(
            grid, op, psi0, deflate, problem.grad_tol, problem.step_tol, problem.max_iterations
        )
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
            problem.step_tol,
            problem.max_iterations,
        )
        result = _fisher_density_result(grid, *out, index=start)
        if best is None or result.objective_value < best.objective_value:
            best = result
            best_psi = out[0]
    return best, best_psi


# ---------------------------------------------------------------------------
# generic projected-gradient path
# ---------------------------------------------------------------------------


def _project_fields(fields: dict, problem: MinimizationProblem) -> dict:
    out = dict(fields)
    if "p" in out:
        p = np.asarray(out["p"], dtype=float)
        if "positivity" in problem.constraints:
            p = np.maximum(p, 0.0)
        p = np.where(_boundary_mask(problem.grid), p, 0.0) if problem.grid.boundary == DIRICHLET_ZERO else p
        if "normalization" in problem.constraints:
            w = quadrature_weights(problem.grid)
            mass = float(np.sum(w * p))
            if mass <= 0:
                raise VariationalError("density lost all mass under projection")
            p = p / mass
        out["p"] = p
    return out


def _concat(fields: dict, names):
    return np.concatenate([np.asarray(fields[n], dtype=float).ravel() for n in names])


def _minimize_generic(problem: MinimizationProblem) -> MinimizationResult:
    grid = problem.grid
    names = list(problem.free_fields)

    def run(fields0: dict, index: int) -> MinimizationResult:
        fields = _project_fields(fields0, problem)
        value = objective_value(problem, fields)
        alpha = None
        prev_x = None
        prev_g = None
        trace = []
        iterations = 0
        for it in range(problem.max_iterations + 1):
            grads = functional_gradient(problem, fields)
            if "p" in grads:
                grads = dict(grads)
                grads["p"] = projected_density_gradient(
                    grads["p"], np.asarray(fields["p"], dtype=float), grid
                )
            gvec = _concat(grads, names)
            gnorm = float(np.linalg.norm(gvec))
            trace.append((it, value, gnorm))
            if gnorm <= problem.grad_tol:
                return MinimizationResult(fields, value, gnorm, it, index, True, np.array(trace))
            xvec = _concat(fields, names)
            if prev_x is not None:
                dx = xvec - prev_x
                dg = gvec - prev_g
                denom = float(np.dot(dx, dg))
                alpha = float(np.dot(dx, dx)) / denom if denom > 0 else None
            if alpha is None:
                alpha = 1.0 / max(gnorm, 1.0)
            alpha = min(max(alpha, 1e-14), 1e10)
            accepted = False
            trial = alpha
            for _ in range(60):
                cand = dict(fields)
                offset = 0
                for n in names:
                    size = np.asarray(fields[n]).size
                    cand[n] = (
                        np.asarray(fields[n], dtype=float).ravel()
                        - trial * gvec[offset : offset + size]
                    ).reshape(np.asarray(fields[n]).shape)
                    offset += size
                cand = _project_fields(cand, problem)
                cand_value = objective_value(problem, cand)
                if cand_value <= value + 1e-12 * max(1.0, abs(value)):
                    accepted = True
                    break
                trial *= 0.5
            if not accepted:
                return MinimizationResult(fields, value, gnorm, it, index, False, np.array(trace))
            prev_x, prev_g = xvec, gvec
            fields, value = cand, cand_value
            iterations = it + 1
        return MinimizationResult(fields, value, gnorm, iterations, index, False, np.array(trace))

    if problem.initial is not None:
        return run(problem.initial, 0)
    best = None
    for start in range(problem.multistarts):
        rng = np.random.default_rng(problem.seed + start)
        fields0 = {}
        for n in names:
            if n == "p":
                fields0[n] = rng.random(grid.shape) + 0.1
            else:
                fields0[n] = 0.5 * rng.standard_normal(grid.shape)
        result = run(fields0, start)
        if best is None or result.objective_value < best.objective_value:
            best = result
    return best


def minimize(problem: MinimizationProblem) -> MinimizationResult:
    """Best projected-descent minimum of the chosen objective.

    Accepted steps never increase the objective; every iterate satisfies the
    normalization and positivity constraints after projection.
    """
    if problem.objective == FISHER:
        return spectrum_scan(problem, 1)[0]
    return _minimize_generic(problem)


def spectrum_scan(problem: MinimizationProblem, mode_count: int) -> list[MinimizationResult]:
    """Stationary family of the density-only Fisher objective, found by
    deflation: each mode is minimized in the orthogonal complement of the
    previous square-root profiles.  The first mode is ``minimize``'s result."""
    if problem.objective != FISHER:
        raise VariationalError("spectrum scans apply to the fisher objective")
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
