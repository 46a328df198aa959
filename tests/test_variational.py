"""Tests for the constrained minimizers."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from paulilab.functionals import EMConfiguration, natural_constants
from paulilab.grids import (
    DIRICHLET_ZERO,
    PERIODIC,
    Grid,
    ScalarField,
    VectorField3,
    quadrature_weights,
)
from paulilab import variational
from paulilab.variational import (
    MinimizationProblem,
    TotalObjective,
    VariationalError,
    fisher_gradient_density,
    fisher_value_density,
    minimize,
    spectrum_scan,
)

CONSTS = natural_constants()
L = 1.0


def box_grid(n=256):
    return Grid((L,), (n,), DIRICHLET_ZERO)


def box_density(grid):
    x = grid.axis_coordinates(0)
    return (2 / L) * np.sin(np.pi * x / L) ** 2


def fisher_problem(grid, **kw):
    defaults = dict(grid=grid, grad_tol=1e-6, multistarts=4, seed=1)
    defaults.update(kw)
    return MinimizationProblem(**defaults)


# ---------------------------------------------------------------------------
# flagship box problem
# ---------------------------------------------------------------------------


def test_box_minimum_objective_and_density():
    grid = box_grid(256)
    res = minimize(fisher_problem(grid))
    target = (2 * np.pi / L) ** 2
    assert res.converged
    assert res.objective_value == pytest.approx(target, rel=0.01)
    err = np.max(np.abs(res.fields["p"] - box_density(grid)))
    assert err < 0.02 * np.max(box_density(grid))


def test_analytic_optimum_is_fixed_point():
    grid = box_grid(512)
    res = minimize(fisher_problem(grid, initial={"p": box_density(grid)}))
    assert res.iterations == 0
    assert res.converged


def test_monotone_descent_trace():
    grid = box_grid(128)
    res = minimize(fisher_problem(grid, multistarts=1))
    objectives = res.trace[:, 1]
    assert np.all(np.diff(objectives) <= 1e-12 * np.maximum(1.0, np.abs(objectives[:-1])))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       boundary=st.sampled_from([DIRICHLET_ZERO, PERIODIC]), depth=st.integers(0, 2))
def test_deflated_descent_is_monotone_and_feasible(seed, dim, boundary, depth):
    rng = np.random.default_rng(seed)
    low, high = {1: (6, 40), 2: (5, 14), 3: (5, 8)}[dim]
    grid = Grid(tuple(0.5 + rng.random(dim)), tuple(rng.integers(low, high, dim)), boundary)
    problem = fisher_problem(grid, multistarts=1, seed=seed)
    op = variational._fisher_operator(grid)
    w = quadrature_weights(grid)
    deflate = []
    for _ in range(depth + 1):
        res, psi = variational._minimize_fisher(problem, op, tuple(deflate))
        objectives = res.trace[:, 1]
        assert np.all(np.diff(objectives) <= 1e-12 * np.maximum(1.0, np.abs(objectives[:-1])))
        p = res.fields["p"]
        assert abs(float(np.sum(w * p)) - 1.0) < 1e-8
        assert np.min(p) >= 0.0
        if boundary == DIRICHLET_ZERO:
            assert np.all(p[~variational._boundary_mask(grid)] == 0.0)
        deflate.append(variational._normalize_psi(psi, w))


def test_constraints_hold_at_optimum():
    grid = box_grid(128)
    res = minimize(fisher_problem(grid))
    p = res.fields["p"]
    w = quadrature_weights(grid)
    assert abs(float(np.sum(w * p)) - 1.0) < 1e-8
    assert np.min(p) >= 0.0
    assert p[0] == 0.0 and p[-1] == 0.0


def test_translation_insensitive_objective():
    grid = box_grid(256)
    base = box_density(grid) + 0.3 / L
    w = quadrature_weights(grid)
    values = []
    for shift in (0, 31):
        init = np.roll(base, shift)
        init[0] = init[-1] = 0.0
        init = init / float(np.sum(w * init))
        res = minimize(fisher_problem(grid, initial={"p": init}, grad_tol=1e-7))
        values.append(res.objective_value)
    assert values[0] == pytest.approx(values[1], abs=1e-6 * abs(values[0]))


def test_multistart_determinism():
    grid = box_grid(64)
    a = minimize(fisher_problem(grid, seed=5))
    b = minimize(fisher_problem(grid, seed=5))
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.fields["p"], b.fields["p"])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradient_zero_for_constant_density_periodic():
    grid = Grid((L,), (64,), PERIODIC)
    g = fisher_gradient_density(np.full(grid.shape, 1.0 / L), grid)
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def fd_check(value, gradient, fields, components, rel_tol=1e-5, delta=3e-6):
    grads = gradient(fields)
    base = dict(fields)
    rng = np.random.default_rng(7)
    for _ in range(components):
        name = list(fields)[rng.integers(len(fields))]
        arr = np.asarray(fields[name], dtype=float)
        idx = tuple(rng.integers(s) for s in arr.shape)
        step = delta * max(1.0, abs(arr[idx]))
        up = arr.copy()
        up[idx] += step
        down = arr.copy()
        down[idx] -= step
        fd = (value({**base, name: up}) - value({**base, name: down})) / (2 * step)
        analytic = grads[name][idx]
        assert fd == pytest.approx(analytic, rel=rel_tol, abs=1e-9)


def test_fisher_gradient_matches_finite_differences():
    grid = Grid((L,), (48,), PERIODIC)
    rng = np.random.default_rng(3)
    p = 1.0 + 0.5 * rng.random(grid.shape)
    p /= np.sum(p * grid.cell_volume)
    fd_check(lambda f: fisher_value_density(f["p"], grid),
             lambda f: {"p": fisher_gradient_density(f["p"], grid)}, {"p": p}, components=40)


def smooth_total_problem(n=24):
    """The total objective in a smooth field, and smooth polar fields."""
    grid = Grid((L, L), (n, n), PERIODIC)
    rng = np.random.default_rng(11)
    x, y = grid.meshgrid()
    a_vals = np.zeros(grid.shape + (3,))
    for i in range(3):
        a_vals[..., i] = 0.3 * np.sin(2 * np.pi * x + i) * np.cos(2 * np.pi * y - i)
    phi_pot = ScalarField(grid, 0.4 * np.cos(2 * np.pi * (x + y)))
    em = EMConfiguration.from_potentials(phi_pot, VectorField3(grid, a_vals))
    em = EMConfiguration(grid, phi_pot, em.a_pot, b=em.b, e=em.e)
    ones = np.ones(grid.shape)
    p = 1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    p /= np.sum(p * grid.cell_volume)
    fields = {
        "p": p * ones,
        "theta": (np.pi / 2 + 0.5 * np.cos(2 * np.pi * y + 0.4)) * ones,
        "s": 0.4 * np.sin(2 * np.pi * (x - y)) * ones,
        "phi": 0.5 * np.cos(2 * np.pi * x + 1.0) * ones,
    }
    return TotalObjective(grid, em, CONSTS), fields


def test_total_gradient_matches_finite_differences():
    objective, fields = smooth_total_problem()
    fd_check(objective.value, objective.gradient, fields, components=100)


# ---------------------------------------------------------------------------
# excited family
# ---------------------------------------------------------------------------


def test_spectrum_scan_reproduces_mode_family():
    grid = box_grid(256)
    problem = fisher_problem(grid, multistarts=2, grad_tol=1e-5)
    scan = spectrum_scan(problem, 3)
    for n, result in enumerate(scan, start=1):
        value, p = result.objective_value, result.fields["p"]
        assert value == pytest.approx((2 * n * np.pi / L) ** 2, rel=0.01)
        assert abs(float(np.sum(quadrature_weights(grid) * p)) - 1.0) < 1e-8


def test_spectrum_scan_matches_discrete_oracle():
    # K = 4 h (-Laplacian) on the interior and W = h, so the scan values are
    # the eigenvalues of the interior tridiagonal (8, -4, -4) / h^2
    grid = box_grid(512)
    h = grid.spacing[0]
    interior = grid.cells[0] - 2
    oracle = scipy.linalg.eigh_tridiagonal(
        np.full(interior, 8.0 / h**2), np.full(interior - 1, -4.0 / h**2),
        select="i", select_range=(0, 2), eigvals_only=True,
    )
    problem = fisher_problem(grid, multistarts=2, max_iterations=50)
    res = minimize(problem)
    assert res.converged
    assert res.objective_value == pytest.approx(oracle[0], rel=1e-9)
    # every deflated solve also stops at 50 iterations: a mode that had not
    # converged by then would miss its eigenvalue
    values = [result.objective_value for result in spectrum_scan(problem, 3)]
    np.testing.assert_allclose(values, oracle, rtol=1e-9)


def test_spectrum_scan_single_mode_matches_minimize():
    grid = box_grid(128)
    problem = fisher_problem(grid, multistarts=2)
    (first,) = spectrum_scan(problem, 1)
    res = minimize(problem)
    assert first.objective_value == res.objective_value
    np.testing.assert_array_equal(first.fields["p"], res.fields["p"])


def test_no_stationary_point_below_ground_value():
    grid = box_grid(256)
    problem = fisher_problem(grid, multistarts=2, grad_tol=1e-5)
    scan = spectrum_scan(problem, 3)
    ground = (2 * np.pi / L) ** 2
    assert min(result.objective_value for result in scan) >= 0.99 * ground


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_problem_validation():
    with pytest.raises(VariationalError):
        spectrum_scan(MinimizationProblem(grid=box_grid(32)), 0)
