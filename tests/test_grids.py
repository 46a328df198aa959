"""Tests for grids: operators, quadrature, convergence orders, and the boundary
each solver runs on."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_fft_derivative
from paulilab import pauli, variational
from paulilab.functionals import PhysicalConstants
from paulilab.grids import (
    BOUNDARIES,
    CENTRAL,
    DIRICHLET_ZERO,
    PERIODIC,
    SPECTRAL,
    Grid,
    GridError,
    ScalarField,
    _spectral_derive,
    curl_stack,
    derive_along,
    integrate_values,
    laplacian_matrix,
    phase_derive_along,
    quadrature_weights,
    second_derive_along,
)


def divergence(values, g):
    """Central divergence of 3-vector values, components first, over the
    grid's axes."""
    return sum(derive_along(values[ax], g.spacing[ax], ax, g.boundary) for ax in range(g.dim))


def laplacian(values, g):
    """Central Laplacian of a cell array, the sum of its axis second derivatives."""
    return sum(second_derive_along(values, g.spacing[ax], ax, g.boundary)
               for ax in range(g.dim))


def test_grid_spacing_invariant():
    g = Grid((2.0,), (8,), PERIODIC)
    assert g.spacing == (0.25,)
    g = Grid((2.0,), (9,), DIRICHLET_ZERO)
    assert g.spacing == (0.25,)
    assert g.axis_coordinates(0)[-1] == pytest.approx(2.0)


def test_grid_validation():
    with pytest.raises(GridError):
        Grid((1.0, 1.0, 1.0, 1.0), (4, 4, 4, 4))
    with pytest.raises(GridError):
        Grid((0.0,), (4,))
    with pytest.raises(GridError):
        Grid((1.0,), (4,), "reflecting")


@pytest.mark.parametrize("cells,boundary,minimum", [
    ((1,), DIRICHLET_ZERO, 2), ((4, 1), DIRICHLET_ZERO, 2), ((0,), PERIODIC, 1),
])
def test_grid_names_the_minimum_cell_count(cells, boundary, minimum):
    with pytest.raises(GridError, match=f"every {boundary} axis needs at least {minimum} cells"):
        Grid((1.0,) * len(cells), cells, boundary)


def test_gradient_affine_dirichlet_interior():
    g = Grid((1.0,), (33,), DIRICHLET_ZERO)
    df = derive_along(2.0 * g.axis_coordinates(0), g.spacing[0], 0, g.boundary)
    np.testing.assert_allclose(df, 2.0, atol=1e-12)


def test_gradient_constant_is_zero():
    g = Grid((1.0, 1.0), (16, 16), PERIODIC)
    for ax in range(g.dim):
        df = derive_along(np.full(g.shape, 3.7), g.spacing[ax], ax, g.boundary)
        np.testing.assert_allclose(df, 0.0, atol=1e-14)


def test_gradient_sine_periodic_converges():
    errs = []
    for n in (32, 64):
        g = Grid((1.0,), (n,))
        x = g.axis_coordinates(0)
        df = derive_along(np.sin(2 * np.pi * x), g.spacing[0], 0, g.boundary)
        errs.append(np.max(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * x))))
    assert errs[0] / errs[1] >= 3.8


def test_curl_linear_field():
    g = Grid((1.0, 1.0, 1.0), (9, 9, 9), DIRICHLET_ZERO)
    x, y, z = g.meshgrid()
    vals = np.zeros((3,) + g.shape)
    vals[0] = -y + 0 * x * z
    vals[1] = x + 0 * y
    c = curl_stack(vals, g)
    interior = (slice(1, -1),) * 3
    np.testing.assert_allclose(c[(2,) + interior], 2.0, atol=1e-12)
    np.testing.assert_allclose(c[(0,) + interior], 0.0, atol=1e-12)
    np.testing.assert_allclose(c[(1,) + interior], 0.0, atol=1e-12)


@pytest.mark.parametrize("cells", [(1,), (2,), (5,), (2, 6), (3, 1, 4)])
def test_periodic_laplacian_matrix_annihilates_constants(cells):
    # on one or two cells the wrapped link coincides with an ordinary one
    grid = Grid((1.0,) * len(cells), cells, PERIODIC)
    np.testing.assert_array_equal(laplacian_matrix(grid) @ np.ones(grid.size), 0.0)


@pytest.mark.parametrize("boundary,cells", [
    (PERIODIC, (2,)), (PERIODIC, (5,)), (PERIODIC, (2, 6)), (PERIODIC, (3, 1, 4)),
    (PERIODIC, (2, 2, 3)), (DIRICHLET_ZERO, (2,)), (DIRICHLET_ZERO, (5,)),
    (DIRICHLET_ZERO, (2, 6)), (DIRICHLET_ZERO, (3, 2, 4)),
])
def test_laplacian_matrix_is_the_kron_sum_of_the_axis_stencils(boundary, cells):
    # dense 1-D stencils, the wrapped links added, summed over the axes in order
    grid = Grid((1.0, 1.7, 0.8)[:len(cells)], cells, boundary)
    want = np.zeros((grid.size, grid.size))
    for ax, n in enumerate(cells):
        stencil = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        if boundary == PERIODIC:
            stencil[0, -1] += 1.0
            stencil[-1, 0] += 1.0
        ops = [np.eye(m) for m in cells]
        ops[ax] = stencil / grid.spacing[ax] ** 2
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        want += term
    got = laplacian_matrix(grid)
    np.testing.assert_array_equal(got.toarray(), want)
    assert got.nnz == np.count_nonzero(want)  # no stored zeros


def test_periodic_laplacian_matrix_matches_stencil():
    grid = Grid((1.0, 1.7, 0.8), (5, 6, 4), PERIODIC)
    f = np.random.default_rng(4).standard_normal(grid.shape)
    np.testing.assert_allclose(
        (laplacian_matrix(grid) @ f.ravel()).reshape(grid.shape),
        laplacian(f, grid), rtol=1e-12, atol=1e-10,
    )


def test_curl_on_2d_grid_has_zero_z_derivatives():
    g = Grid((1.0, 1.0), (16, 12))
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(3,) + g.shape)
    c = curl_stack(vals, g)

    def d(comp, ax):
        return derive_along(vals[comp], g.spacing[ax], ax, g.boundary)

    np.testing.assert_array_equal(c[0], d(2, 1))
    np.testing.assert_array_equal(c[1], -d(2, 0))
    np.testing.assert_array_equal(c[2], d(1, 0) - d(0, 1))


def test_divergence_constant_field():
    g = Grid((1.0, 1.0, 1.0), (8, 8, 8))
    vals = np.ones((3,) + g.shape)
    np.testing.assert_allclose(divergence(vals, g), 0.0, atol=1e-13)


def test_laplacian_sine_analytic():
    g = Grid((1.0,), (128,))
    x = g.axis_coordinates(0)
    lap = laplacian(np.sin(2 * np.pi * x), g)
    exact = -((2 * np.pi) ** 2) * np.sin(2 * np.pi * x)
    assert np.max(np.abs(lap - exact)) < 0.06 * (2 * np.pi) ** 2 * (1.0 / 128) ** 2 * 128


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET_ZERO])
def test_operator_convergence_order(boundary):
    # Max-norm error of gradient and laplacian halves h -> ratio ~4.
    def fields(n):
        g = Grid((1.0,), (n if boundary == PERIODIC else n + 1,), boundary)
        x = g.axis_coordinates(0)
        f = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x + 0.7)
        df = 2 * np.pi * np.cos(2 * np.pi * x) - 1.2 * np.pi * np.sin(4 * np.pi * x + 0.7)
        ddf = -((2 * np.pi) ** 2) * np.sin(2 * np.pi * x) - 0.3 * (4 * np.pi) ** 2 * np.cos(
            4 * np.pi * x + 0.7
        )
        return g, f, df, ddf

    grad_err, lap_err = [], []
    for n in (64, 128, 256):
        g, f, df, ddf = fields(n)
        grad_err.append(np.max(np.abs(derive_along(f, g.spacing[0], 0, g.boundary) - df)))
        lap_err.append(np.max(np.abs(laplacian(f, g) - ddf)))
    for errs in (grad_err, lap_err):
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET_ZERO])
def test_divergence_of_curl_vanishes(boundary):
    # 1D stencils along distinct axes commute, so div(curl) cancels exactly.
    rng = np.random.default_rng(7)
    g = Grid((1.0, 1.0, 1.0), (16, 16, 16), boundary)
    vals = rng.normal(size=(3,) + g.shape)
    dc = divergence(curl_stack(vals, g), g)
    scale = np.max(np.abs(vals)) / min(g.spacing) ** 2
    assert np.max(np.abs(dc)) < 1e-12 * scale


def test_integrate_constant_box():
    g = Grid((2.0, 2.0, 2.0), (8, 8, 8))
    assert integrate_values(np.ones(g.shape), g) == pytest.approx(8.0, rel=1e-13)


def test_integrate_box_density():
    L = 1.0
    g = Grid((L,), (1024,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    val = integrate_values((2 / L) * np.sin(np.pi * x / L) ** 2, g)
    assert abs(val - 1.0) < 1e-10


def test_integrate_gaussian():
    L = 1.0
    g = Grid((L,), (512,))
    x = g.axis_coordinates(0)
    sigma = L / 20
    dens = np.exp(-((x - L / 2) ** 2) / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)
    assert abs(integrate_values(dens, g) - 1.0) < 1e-8


def test_integrate_linearity():
    g = Grid((1.0,), (65,), DIRICHLET_ZERO)
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.shape)
    h = rng.normal(size=g.shape)
    lhs = integrate_values(2.5 * f + 0.3 * h, g)
    rhs = 2.5 * integrate_values(f, g) + 0.3 * integrate_values(h, g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_small_grid_rejected_by_operators():
    g = Grid((1.0,), (2,))
    with pytest.raises(GridError):
        derive_along(np.ones(g.shape), g.spacing[0], 0, g.boundary)


def test_spectral_derivative_band_limited_exact():
    g = Grid((1.0,), (32,))
    x = g.axis_coordinates(0)
    f = np.sin(2 * np.pi * x) + 0.5 * np.cos(6 * np.pi * x)
    df = derive_along(f, g.spacing[0], 0, g.boundary, SPECTRAL)
    exact = 2 * np.pi * np.cos(2 * np.pi * x) - 3 * np.pi * np.sin(6 * np.pi * x)
    np.testing.assert_allclose(df, exact, atol=1e-10)


def test_spectral_requires_periodic():
    g = Grid((1.0,), (16,), DIRICHLET_ZERO)
    with pytest.raises(GridError):
        derive_along(np.ones(g.shape), g.spacing[0], 0, g.boundary, SPECTRAL)


@pytest.mark.parametrize("boundary,scheme", [
    (PERIODIC, CENTRAL),
    (PERIODIC, SPECTRAL),
])
def test_derivative_adjoint_identity(boundary, scheme):
    # both periodic schemes are antisymmetric: the adjoint is the negative,
    # as the total objective's gradient takes it
    rng = np.random.default_rng(3)
    n, h = 24, 0.13
    u = rng.normal(size=(n, 5))
    v = rng.normal(size=(n, 5))
    du = derive_along(u, h, 0, boundary, scheme)
    dtv = -derive_along(v, h, 0, boundary, scheme)
    assert np.vdot(du, v) == pytest.approx(np.vdot(u, dtv), rel=1e-12, abs=1e-12)


# stacks of 1-4 axes with odd and even lengths, the axis taken modulo their count
_SPECTRAL_CASES = dict(shape=st.lists(st.integers(3, 10), min_size=1, max_size=4),
                       axis=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
                       h=st.floats(0.05, 3.0), scale=st.floats(-3.0, 3.0))


@settings(max_examples=150, deadline=None)
@given(**_SPECTRAL_CASES)
def test_spectral_derivative_of_real_stack_matches_full_fft(shape, axis, seed, h, scale):
    # real stacks take the half spectrum; the result is real and agrees with
    # the full complex transform at round-off: measured at most 4.1e-16 of
    # k_max * max|u| over 3,000 random stacks, bound ten times that
    axis %= len(shape)
    u = np.random.default_rng(seed).normal(size=shape) * 10.0**scale
    got = derive_along(u, h, axis, PERIODIC, SPECTRAL)
    assert got.dtype == np.float64 and got.shape == u.shape
    k_max = np.pi / h
    err = np.max(np.abs(got - full_fft_derivative(u, h, axis, 1).real))
    assert err <= 4e-15 * k_max * np.max(np.abs(u))


@settings(max_examples=150, deadline=None)
@given(complex_values=st.booleans(), **_SPECTRAL_CASES)
def test_spectral_derivative_is_antisymmetric(complex_values, shape, axis, seed, h, scale):
    # <Du, v> = -<u, Dv> for real stacks (half spectrum) and complex ones
    # (full spectrum): measured at most 1.5e-16 of |Du||v| + |u||Dv| over 3,000
    # random stacks, bound ten times that
    axis %= len(shape)
    u, v, iu, iv = np.random.default_rng(seed).normal(size=(4,) + tuple(shape)) * 10.0**scale
    if complex_values:
        u, v = u + 1j * iu, v + 1j * iv
    du, dv = (derive_along(x, h, axis, PERIODIC, SPECTRAL) for x in (u, v))
    assert np.isrealobj(du) != complex_values
    scale_of = np.linalg.norm(du) * np.linalg.norm(v) + np.linalg.norm(u) * np.linalg.norm(dv)
    assert abs(np.vdot(du, v) + np.vdot(u, dv)) <= 1.5e-15 * scale_of


def _numpy_spectral_derive(values, h, axis):
    # the derivative as numpy's transforms take it
    real = np.isrealobj(values)
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    mult = 1j * k[: n // 2 + 1 if real else n]
    if n % 2 == 0:
        mult[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = len(mult)
    if real:
        return np.fft.irfft(np.fft.rfft(values, axis=axis) * mult.reshape(shape), n, axis=axis)
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)


@settings(max_examples=100)
@given(shape=st.lists(st.integers(3, 16), min_size=1, max_size=4), complex_values=st.booleans(),
       seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0))
def test_spectral_derivative_has_the_bits_of_numpys_transforms(shape, complex_values, seed, h):
    u, iu = np.random.default_rng(seed).normal(size=(2,) + tuple(shape))
    if complex_values:
        u = u + 1j * iu
    for axis in range(len(shape)):
        got, want = _spectral_derive(u, h, axis), _numpy_spectral_derive(u, h, axis)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), axis


_GRIDS = st.integers(1, 3).flatmap(lambda dim: st.builds(
    Grid, st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim),
    st.lists(st.integers(2, 40), min_size=dim, max_size=dim), st.sampled_from(BOUNDARIES)))


@given(grid=_GRIDS)
def test_grid_metrics_are_kept_with_the_bits_of_their_formulas(grid):
    cells, extents = grid.cells, grid.extents
    pitch = [n if grid.boundary == PERIODIC else n - 1 for n in cells]
    spacing = tuple(e / n for e, n in zip(extents, pitch))
    assert np.array(grid.spacing).tobytes() == np.array(spacing).tobytes()
    assert np.float64(grid.cell_volume).tobytes() == np.float64(np.prod(spacing)).tobytes()
    assert grid.size == int(np.prod(cells)) and type(grid.size) is int
    assert grid.spacing is grid.spacing and type(grid.cell_volume) is float


def test_second_derivative_dirichlet_edges_second_order():
    errs = []
    for n in (65, 129):
        g = Grid((1.0,), (n,), DIRICHLET_ZERO)
        x = g.axis_coordinates(0)
        d2 = second_derive_along(np.exp(x), g.spacing[0], 0, DIRICHLET_ZERO)
        errs.append(np.max(np.abs(d2 - np.exp(x))))
    assert 3.3 <= errs[0] / errs[1] <= 4.7


def test_phase_derivative_handles_winding():
    g = Grid((1.0,), (64,))
    theta = 2 * np.pi * g.axis_coordinates(0)  # one full turn across the box
    d = phase_derive_along(theta, g.spacing[0], 0, PERIODIC)
    np.testing.assert_allclose(d, 2 * np.pi, rtol=1e-12)


def test_phase_derivative_matches_plain_on_smooth_fields():
    g = Grid((1.0,), (33,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    f = 0.8 * np.sin(2 * np.pi * x)
    np.testing.assert_allclose(
        phase_derive_along(f, g.spacing[0], 0, DIRICHLET_ZERO),
        derive_along(f, g.spacing[0], 0, DIRICHLET_ZERO),
        rtol=1e-12, atol=1e-12,
    )


def test_quadrature_weights_sum_to_volume():
    g = Grid((1.5, 2.0), (9, 17), DIRICHLET_ZERO)
    assert quadrature_weights(g).sum() == pytest.approx(3.0, rel=1e-13)


def test_fields_are_immutable():
    g = Grid((1.0,), (8,))
    f = ScalarField.full(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_curl_and_divergence_convergence_order():
    def setup(n):
        g = Grid((1.0, 1.0, 1.0), (n, n, n))
        x, y, z = g.meshgrid()
        k = 2 * np.pi
        ones = np.ones(g.shape)
        vals = np.stack([np.sin(k * x) * np.cos(k * y) * ones,
                         np.sin(k * y) * np.cos(k * z) * ones,
                         np.sin(k * z) * np.cos(k * x) * ones])
        curl_exact = k * np.stack([np.sin(k * y) * np.sin(k * z) * ones,
                                   np.sin(k * z) * np.sin(k * x) * ones,
                                   np.sin(k * x) * np.sin(k * y) * ones])
        div_exact = k * (
            np.cos(k * x) * np.cos(k * y)
            + np.cos(k * y) * np.cos(k * z)
            + np.cos(k * z) * np.cos(k * x)
        ) * ones
        return g, vals, curl_exact, div_exact

    curl_err, div_err = [], []
    for n in (16, 32):
        g, vals, curl_exact, div_exact = setup(n)
        curl_err.append(np.max(np.abs(curl_stack(vals, g) - curl_exact)))
        div_err.append(np.max(np.abs(divergence(vals, g) - div_exact)))
    assert 3.5 <= curl_err[0] / curl_err[1] <= 4.5
    assert 3.5 <= div_err[0] / div_err[1] <= 4.5


# ---------------------------------------------------------------------------
# the boundary each solver runs on
# ---------------------------------------------------------------------------

_CONSTS = PhysicalConstants(1.0, 1.0, 1.0)


def _pauli_run(scheme):
    g = Grid((2.0,), (9,), DIRICHLET_ZERO)
    vals = np.zeros(g.shape + (2,), dtype=np.complex128)
    vals[1:-1, 0] = 1.0
    vals /= np.sqrt(integrate_values(np.sum(np.abs(vals) ** 2, axis=-1), g))
    config = pauli.SolverConfig(scheme, 1e-2, _CONSTS, g, np.zeros(g.shape),
                                np.zeros(g.shape + (3,)))
    pauli.evolve(vals, config, 0.1)


def _total_objective():
    g = Grid((1.0, 1.0), (8, 8), DIRICHLET_ZERO)
    variational.TotalObjective(g, np.zeros(g.shape), np.zeros((3,) + g.shape), _CONSTS)


@pytest.mark.parametrize("run,error,message", [
    (functools.partial(_pauli_run, pauli.SPLIT_OPERATOR), pauli.SolverError, "periodic grid"),
    (functools.partial(_pauli_run, pauli.CRANK_NICOLSON), pauli.SolverError, "periodic grid"),
    (_total_objective, variational.VariationalError, "periodic grid"),
], ids=["pauli_split_operator_on_dirichlet", "pauli_crank_nicolson_on_dirichlet",
        "total_objective_on_dirichlet"])
def test_solvers_refuse_the_boundary_they_do_not_run_on(run, error, message):
    # the Pauli propagators and the total objective run on periodic grids
    with pytest.raises(error, match=message):
        run()
