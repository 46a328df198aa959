"""Tests for the constrained minimizers."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from paulilab import variational
from paulilab.functionals import PhysicalConstants
from paulilab.grids import (
    DIRICHLET_ZERO,
    PERIODIC,
    Grid,
    curl_stack,
    interior_mask,
    laplacian_matrix,
    quadrature_weights,
)
from paulilab.variational import (
    TotalObjective,
    VariationalError,
    fisher_gradient_density,
    fisher_value_density,
    spectrum_scan,
)

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)
L = 1.0


def box_grid(n=256):
    return Grid((L,), (n,), DIRICHLET_ZERO)


def box_density(grid):
    x = grid.axis_coordinates(0)
    return (2 / L) * np.sin(np.pi * x / L) ** 2


GRAD_TOL = 1e-6


def scan_of(grid, mode_count, grad_tol=GRAD_TOL, max_iterations=20000, multistarts=4, seed=1):
    return spectrum_scan(grid, mode_count, grad_tol, max_iterations, multistarts, seed)


def minimum_of(grid, **kw):
    """The Fisher minimum: the first mode of a one-mode scan."""
    return scan_of(grid, 1, **kw)[0]


# ---------------------------------------------------------------------------
# flagship box problem
# ---------------------------------------------------------------------------


def test_box_minimum_objective_and_density():
    grid = box_grid(256)
    res = minimum_of(grid)
    target = (2 * np.pi / L) ** 2
    assert res.converged
    assert res.objective_value == pytest.approx(target, rel=0.01)
    err = np.max(np.abs(res.density - box_density(grid)))
    assert err < 0.02 * np.max(box_density(grid))


def test_analytic_optimum_is_fixed_point():
    # the exact sine mode is a discrete stationary point: its tangent
    # gradient on the unit sphere, -8 w Laplacian(psi) projected, is below
    # the solver's tolerance
    grid = box_grid(512)
    free = interior_mask(grid)
    psi = np.sqrt(box_density(grid))
    grad = (-8.0 * grid.cell_volume * (laplacian_matrix(grid) @ psi))[free]
    x = psi[free]
    tangent = grad - x * (np.dot(grad, x) / np.dot(x, x))
    assert np.linalg.norm(tangent) <= GRAD_TOL


def test_monotone_descent_trace():
    grid = box_grid(128)
    res = minimum_of(grid, multistarts=1)
    objectives = res.trace[:, 1]
    assert np.all(np.diff(objectives) <= 1e-12 * np.maximum(1.0, np.abs(objectives[:-1])))


def dense_spectrum(grid):
    """Eigenvalues of the dense K / cell_volume over the free cells."""
    free = interior_mask(grid).ravel()
    stiffness = -4.0 * laplacian_matrix(grid).toarray()[free][:, free]
    return scipy.linalg.eigh(stiffness, eigvals_only=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       boundary=st.sampled_from([DIRICHLET_ZERO, PERIODIC]), mode_count=st.integers(1, 4))
def test_block_descent_is_monotone_feasible_and_lowest(seed, dim, boundary, mode_count):
    rng = np.random.default_rng(seed)
    low, high = {1: (6, 40), 2: (5, 14), 3: (5, 8)}[dim]
    grid = Grid(tuple(0.5 + rng.random(dim)), tuple(rng.integers(low, high, dim)), boundary)
    w = quadrature_weights(grid)
    scan = scan_of(grid, mode_count, multistarts=1, seed=seed, grad_tol=1e-8)
    for res in scan:
        objectives = res.trace[:, 1]
        assert np.all(np.diff(objectives) <= 1e-12 * np.maximum(1.0, np.abs(objectives[:-1])))
        p = res.density
        assert abs(float(np.sum(w * p)) - 1.0) < 1e-8
        assert np.min(p) >= 0.0
        if boundary == DIRICHLET_ZERO:
            assert np.all(p[~interior_mask(grid)] == 0.0)
    oracle = dense_spectrum(grid)[:mode_count]
    values = [res.objective_value for res in scan]
    np.testing.assert_allclose(values, oracle, rtol=1e-8, atol=1e-8)


def test_constraints_hold_at_optimum():
    grid = box_grid(128)
    p = minimum_of(grid).density
    w = quadrature_weights(grid)
    assert abs(float(np.sum(w * p)) - 1.0) < 1e-8
    assert np.min(p) >= 0.0
    assert p[0] == 0.0 and p[-1] == 0.0


def test_different_seeds_reach_the_same_minimum():
    grid = box_grid(256)
    values = [minimum_of(grid, multistarts=1, seed=seed, grad_tol=1e-7).objective_value
              for seed in (0, 31)]
    assert values[0] == pytest.approx(values[1], abs=1e-6 * abs(values[0]))


def test_multistart_determinism():
    grid = box_grid(64)
    a = minimum_of(grid, seed=5)
    b = minimum_of(grid, seed=5)
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.density, b.density)


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


def smooth_potentials(grid):
    """A smooth scalar potential and vector potential, components first."""
    x, y = grid.meshgrid()
    a_pot = np.stack([0.3 * np.sin(2 * np.pi * x + i) * np.cos(2 * np.pi * y - i)
                      for i in range(3)])
    return 0.4 * np.cos(2 * np.pi * (x + y)), a_pot


def smooth_total_problem(n=24):
    """The total objective in a smooth field, and smooth polar fields."""
    grid = Grid((L, L), (n, n), PERIODIC)
    x, y = grid.meshgrid()
    ones = np.ones(grid.shape)
    p = 1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    p /= np.sum(p * grid.cell_volume)
    fields = {
        "p": p * ones,
        "theta": (np.pi / 2 + 0.5 * np.cos(2 * np.pi * y + 0.4)) * ones,
        "s": 0.4 * np.sin(2 * np.pi * (x - y)) * ones,
        "phi": 0.5 * np.cos(2 * np.pi * x + 1.0) * ones,
    }
    return TotalObjective(grid, *smooth_potentials(grid), CONSTS), fields


def test_total_gradient_matches_finite_differences():
    objective, fields = smooth_total_problem()
    fd_check(objective.value, objective.gradient, fields, components=100)


def test_total_objective_curls_its_vector_potential_once(monkeypatch):
    # B is the central curl of A, taken once at construction and not on
    # each evaluation; the one-frame stacks carry the potentials' bits
    grid = Grid((1.0, 1.0), (8, 8), PERIODIC)
    phi_pot, a_pot = smooth_potentials(grid)
    calls = []

    def counted(values, g, *args):
        calls.append(args)
        return curl_stack(values, g, *args)

    monkeypatch.setattr(variational, "curl_stack", counted)
    objective = TotalObjective(grid, phi_pot, a_pot, CONSTS)
    fields = {name: np.full(grid.shape, 0.5) for name in ("p", "theta", "s", "phi")}
    objective.value(fields)
    objective.gradient(fields)
    assert calls == [()]
    want = {"phi_pot": phi_pot, "a_pot": a_pot, "b": curl_stack(a_pot, grid),
            "u": np.zeros(grid.shape)}
    assert sorted(objective.em) == sorted(want)
    for name, stack in objective.em.items():
        frame = stack[:, 0] if stack.ndim == grid.dim + 2 else stack[0]
        assert frame.tobytes() == np.ascontiguousarray(want[name]).tobytes()


@pytest.mark.parametrize("name,shape,spoil", [
    ("phi_pot", (8, 7), None), ("phi_pot", (3, 8, 8), None), ("phi_pot", (8, 8), np.nan),
    ("phi_pot", (8, 8), np.inf), ("a_pot", (8, 8, 3), None), ("a_pot", (2, 8, 8), None),
    ("a_pot", (3, 8, 8), np.nan), ("a_pot", (3, 8, 8), -np.inf),
])
def test_total_objective_refuses_a_potential_off_its_grid_or_not_finite(name, shape, spoil):
    grid = Grid((1.0, 1.0), (8, 8), PERIODIC)
    potentials = {"phi_pot": np.zeros(grid.shape), "a_pot": np.zeros((3,) + grid.shape)}
    potentials[name] = np.zeros(shape)
    if spoil is not None:
        potentials[name].flat[5] = spoil
    message = f"{name} values must be finite" if spoil else f"{name} shape {shape} does not match"
    with pytest.raises(VariationalError, match=re.escape(message)):
        TotalObjective(grid, consts=CONSTS, **potentials)


# ---------------------------------------------------------------------------
# excited family
# ---------------------------------------------------------------------------


def test_spectrum_scan_reproduces_mode_family():
    grid = box_grid(256)
    scan = scan_of(grid, 3, multistarts=2, grad_tol=1e-5)
    for n, result in enumerate(scan, start=1):
        value, p = result.objective_value, result.density
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
    res = minimum_of(grid, multistarts=2, max_iterations=50)
    assert res.converged
    assert res.objective_value == pytest.approx(oracle[0], rel=1e-9)
    # the block solve also stops at 50 iterations: a mode that had not
    # converged by then would miss its eigenvalue
    values = [result.objective_value
              for result in scan_of(grid, 3, multistarts=2, max_iterations=50)]
    np.testing.assert_allclose(values, oracle, rtol=1e-9)


def test_single_mode_scan_is_its_lowest_start():
    # start k is the single start seeded seed + k, so a two-start scan
    # returns the lower of the two single-start minima, bit for bit
    grid = box_grid(128)
    (first,) = scan_of(grid, 1, multistarts=2, max_iterations=3)
    singles = [minimum_of(grid, multistarts=1, seed=1 + k, max_iterations=3) for k in range(2)]
    best = min(singles, key=lambda res: res.objective_value)
    assert singles[0].objective_value != singles[1].objective_value
    assert first.objective_value == best.objective_value
    np.testing.assert_array_equal(first.density, best.density)


def test_spectrum_scan_finds_degenerate_partners():
    # on this periodic grid the second and third modes share one value, and
    # the scan must return both partners
    grid = Grid((1.0, 1.3), (20, 17), PERIODIC)
    values = [result.objective_value
              for result in scan_of(grid, 3, multistarts=1, seed=5, grad_tol=1e-8)]
    oracle = dense_spectrum(grid)[:3]
    assert oracle[1:] == pytest.approx([92.381187, 92.381187], abs=1e-6)
    assert abs(values[0]) < 1e-8
    np.testing.assert_allclose(values[1:], oracle[1:], rtol=1e-8)


@pytest.mark.parametrize(
    "extents, cells, boundary, multiplicities",
    [
        ((1.0, 1.0), (14, 14), DIRICHLET_ZERO, (1, 2)),
        ((1.0,), (24,), PERIODIC, (1, 2, 2)),
        ((1.0, 1.0), (12, 12), PERIODIC, (1, 4)),
        ((1.0, 1.0, 1.0), (7, 7, 7), DIRICHLET_ZERO, (1, 3)),
        ((1.0, 1.0, 1.0), (6, 6, 6), PERIODIC, (1, 3)),
    ],
    ids=["dirichlet_square", "periodic_ring", "periodic_square", "dirichlet_cube",
         "periodic_cube"],
)
def test_spectrum_scan_returns_whole_degenerate_levels(extents, cells, boundary,
                                                       multiplicities):
    # a symmetric grid repeats its levels; every mode of each requested level
    # must come back, not just one per level.  The periodic cube's first
    # excited level has six partners, and the block takes three of them.
    grid = Grid(extents, cells, boundary)
    mode_count = sum(multiplicities)
    oracle = dense_spectrum(grid)[:mode_count]
    levels = np.split(oracle, np.cumsum(multiplicities)[:-1])
    for level in levels:
        assert np.ptp(level) <= 1e-9 * max(1.0, abs(level[0]))
    assert all(b[0] > a[0] + 1.0 for a, b in zip(levels, levels[1:]))
    scan = scan_of(grid, mode_count, multistarts=1, seed=3, grad_tol=1e-8)
    assert all(result.converged for result in scan)
    values = [result.objective_value for result in scan]
    np.testing.assert_allclose(values, oracle, rtol=1e-8, atol=1e-8)


def test_best_start_has_lowest_value_sum():
    # start k draws from default_rng(seed + k), so it is the single start of
    # the problem seeded seed + k; three iterations leave the starts apart
    grid = box_grid(64)
    singles = [scan_of(grid, 3, multistarts=1, seed=4 + k, max_iterations=3) for k in range(3)]
    sums = [sum(result.objective_value for result in scan) for scan in singles]
    best = int(np.argmin(sums))
    scan = scan_of(grid, 3, multistarts=3, seed=4, max_iterations=3)
    # the winner's value sum is the lowest of the single-start sums, and
    # strictly below the others, so it names the start that won
    total = sum(result.objective_value for result in scan)
    assert total == sums[best]
    assert all(total < other for k, other in enumerate(sums) if k != best)
    assert [result.objective_value for result in scan] == [
        result.objective_value for result in singles[best]]
    for result, single in zip(scan, singles[best]):
        np.testing.assert_array_equal(result.density, single.density)


def test_block_solve_stops_at_max_iterations():
    grid = box_grid(64)
    scan = scan_of(grid, 3, multistarts=1, max_iterations=2, grad_tol=1e-12)
    for result in scan:
        assert result.iterations == 2
        assert not result.converged
        assert result.gradient_norm > 1e-12
        assert result.trace.shape == (3, 3)
        np.testing.assert_array_equal(result.trace[:, 0], [0, 1, 2])
        assert result.trace[-1, 1] == result.objective_value


def test_spectrum_scan_needs_a_free_cell_per_mode():
    # a 4-cell dirichlet box has two free cells, too few for three modes
    grid = box_grid(4)
    with pytest.raises(VariationalError):
        scan_of(grid, 3, multistarts=1)
    assert len(scan_of(grid, 2, multistarts=1)) == 2


def test_no_stationary_point_below_ground_value():
    grid = box_grid(256)
    scan = scan_of(grid, 3, multistarts=2, grad_tol=1e-5)
    ground = (2 * np.pi / L) ** 2
    assert min(result.objective_value for result in scan) >= 0.99 * ground


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_problem_validation():
    grid = box_grid(32)
    with pytest.raises(VariationalError):
        scan_of(grid, 0)
