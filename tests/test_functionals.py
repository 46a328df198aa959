"""Tests for the continuum functionals and the dual-route equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulilab.grids import (
    CENTRAL,
    DIRICHLET_ZERO,
    PERIODIC,
    SPECTRAL,
    Grid,
    ScalarField,
    SpinorField,
    VectorField3,
    curl,
    gradient,
)
from paulilab.functionals import (
    EMConfiguration,
    FunctionalError,
    PhysicalConstants,
    PolarFields,
    averaged_hj_functional,
    equivalence_residual,
    euler_lagrange_residual,
    fisher_continuum,
    fisher_joint,
    lambda_functional,
    natural_constants,
    pauli_constants,
    polar_from_spinor,
    q_polar,
    q_spinor,
    random_smooth_configuration,
    spinor_from_polar,
    stationarity_residual_static,
    total_functional,
    _band_limited_spacetime,
)

CONSTS = natural_constants()


def uniform_polar(grid, theta=0.0, s=0.0, phi=0.0):
    vol = float(np.prod(grid.extents))
    return PolarFields(
        ScalarField.full(grid, 1.0 / vol),
        ScalarField.full(grid, theta),
        ScalarField.full(grid, s),
        ScalarField.full(grid, phi),
    )


def uniform_b_config(grid, bz):
    b = np.zeros(grid.shape + (3,))
    b[..., 2] = bz
    return EMConfiguration(
        grid, ScalarField.full(grid, 0.0), VectorField3.zero(grid), b=VectorField3(grid, b)
    )


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def test_fisher_box_ground_profile():
    L = 1.0
    g = Grid((L,), (512,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    p = ScalarField(g, (2 / L) * np.sin(np.pi * x / L) ** 2)
    assert fisher_continuum(p) == pytest.approx((2 * np.pi / L) ** 2, rel=0.01)


def test_fisher_gaussian():
    n = 256
    g = Grid((float(n),), (n,), PERIODIC)
    x = g.axis_coordinates(0)
    sigma = 10.0
    p = np.exp(-((x - n / 2) ** 2) / (2 * sigma**2))
    p /= p.sum() * g.cell_volume
    assert fisher_continuum(ScalarField(g, p)) == pytest.approx(1 / sigma**2, rel=0.01)


def test_fisher_winding_angle_on_torus():
    g = Grid((1.0,), (128,), PERIODIC)
    p = ScalarField.full(g, 1.0)
    theta = ScalarField(g, 2 * np.pi * g.axis_coordinates(0))
    assert fisher_continuum(p, theta) == pytest.approx((2 * np.pi) ** 2, rel=1e-12)


def test_fisher_polar_equals_joint_form():
    g = Grid((1.0,), (64,), PERIODIC)
    x = g.axis_coordinates(0)
    p = 1.0 + 0.2 * np.sin(2 * np.pi * x) + 0.1 * np.cos(4 * np.pi * x)
    p /= p.sum() * g.cell_volume
    theta = np.pi / 2 + 0.3 * np.sin(2 * np.pi * x + 0.4)
    polar = fisher_continuum(ScalarField(g, p), ScalarField(g, theta), scheme=SPECTRAL)
    joint = fisher_joint(
        ScalarField(g, p * np.cos(theta / 2) ** 2),
        ScalarField(g, p * np.sin(theta / 2) ** 2),
        scheme=SPECTRAL,
    )
    assert abs(polar - joint) <= 1e-10 * abs(polar)


def test_fisher_rejects_negative_density():
    g = Grid((1.0,), (16,), PERIODIC)
    with pytest.raises(FunctionalError):
        fisher_continuum(ScalarField(g, np.linspace(-0.1, 2.1, 16)))


# ---------------------------------------------------------------------------
# knowledge functional
# ---------------------------------------------------------------------------


def test_lambda_all_zero():
    g = Grid((1.0,), (32,), PERIODIC)
    val = lambda_functional(uniform_polar(g), EMConfiguration.zero(g), CONSTS)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_lambda_moment_coupling_only():
    g = Grid((1.0,), (32,), PERIODIC)
    bz = 2.5
    val = lambda_functional(uniform_polar(g, theta=0.0), uniform_b_config(g, bz), CONSTS)
    assert val == pytest.approx(-CONSTS.a * CONSTS.gamma * bz, rel=1e-12)


def test_lambda_plane_wave_cancellation():
    # action linear in x and t: kinetic and time terms cancel exactly
    L, n = 1.0, 65
    g = Grid((L,), (n,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    k = 3.0
    hbar, m = CONSTS.hbar, CONSTS.mass
    omega = hbar * k**2 / (2 * m)
    dt = 0.01
    frames = []
    for i in range(3):
        s = hbar * (k * x - omega * i * dt)
        frames.append(
            PolarFields(
                ScalarField.full(g, 1.0 / L),
                ScalarField.full(g, 0.0),
                ScalarField(g, s),
                ScalarField.full(g, 0.0),
            )
        )
    val = lambda_functional(frames, EMConfiguration.zero(g), CONSTS, dt=dt)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_total_functional_box_case():
    L = 1.0
    g = Grid((L,), (512,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    polar = PolarFields(
        ScalarField(g, (2 / L) * np.sin(np.pi * x / L) ** 2),
        ScalarField.full(g, 0.0),
        ScalarField.full(g, 0.0),
        ScalarField.full(g, 0.0),
    )
    val = total_functional(polar, EMConfiguration.zero(g), CONSTS)
    assert val == pytest.approx(CONSTS.lam * (2 * np.pi / L) ** 2, rel=0.01)


# ---------------------------------------------------------------------------
# polar <-> spinor maps
# ---------------------------------------------------------------------------


def test_spinor_from_polar_poles():
    g = Grid((1.0,), (8,), PERIODIC)
    up = spinor_from_polar(uniform_polar(g, theta=0.0), CONSTS)
    np.testing.assert_allclose(up.values[..., 0], 1.0, atol=1e-14)
    np.testing.assert_allclose(up.values[..., 1], 0.0, atol=1e-14)
    down = spinor_from_polar(uniform_polar(g, theta=np.pi), CONSTS)
    np.testing.assert_allclose(np.abs(down.values[..., 1]), 1.0, atol=1e-14)
    np.testing.assert_allclose(down.values[..., 0], 0.0, atol=1e-8)


def test_polar_from_spinor_direct_values():
    g = Grid((1.0,), (4,), PERIODIC)
    vals = np.zeros(g.shape + (2,), dtype=complex)
    vals[..., 0] = 1 / np.sqrt(2)
    vals[..., 1] = 1j / np.sqrt(2)
    polar = polar_from_spinor(SpinorField(g, vals), CONSTS)
    np.testing.assert_allclose(polar.theta.values, np.pi / 2, rtol=1e-12)
    np.testing.assert_allclose(polar.phi.values, np.pi / 2, rtol=1e-12)
    np.testing.assert_allclose(polar.p.values, 1.0, rtol=1e-12)


def smooth_polar(grid, seed=0, amplitude=0.3):
    rng = np.random.default_rng(seed)
    # k . x with one period per axis
    kx = sum(2 * np.pi / extent * x for extent, x in zip(grid.extents, grid.meshgrid()))
    p = 1.0 + amplitude * np.sin(kx + rng.uniform(0, 2 * np.pi))
    p /= p.sum() * grid.cell_volume
    theta = np.pi / 2 + amplitude * np.cos(kx + rng.uniform(0, 2 * np.pi))
    s = amplitude * np.sin(2 * kx + rng.uniform(0, 2 * np.pi))
    phi = amplitude * np.cos(kx + rng.uniform(0, 2 * np.pi))
    return PolarFields(
        ScalarField(grid, p), ScalarField(grid, theta),
        ScalarField(grid, s), ScalarField(grid, phi),
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_polar_spinor_round_trip(seed, dim):
    rng = np.random.default_rng(seed)
    low, high = {1: (3, 128), 2: (3, 24), 3: (3, 10)}[dim]
    g = Grid(tuple(0.5 + rng.random(dim)), tuple(rng.integers(low, high, dim)), PERIODIC)
    polar = smooth_polar(g, seed=seed)
    back = polar_from_spinor(spinor_from_polar(polar, CONSTS), CONSTS)
    np.testing.assert_allclose(back.p.values, polar.p.values, rtol=1e-12)
    np.testing.assert_allclose(back.theta.values, polar.theta.values, atol=1e-12)
    np.testing.assert_allclose(back.s.values, polar.s.values, atol=1e-12)
    np.testing.assert_allclose(back.phi.values, polar.phi.values, atol=1e-12)


def test_spinor_polar_spinor_round_trip_global_phase():
    g = Grid((1.0,), (32,), PERIODIC)
    rng = np.random.default_rng(9)
    raw = rng.normal(size=g.shape + (2,)) + 1j * rng.normal(size=g.shape + (2,))
    raw *= np.exp(0.3j)
    norm = np.sqrt(np.sum(np.abs(raw) ** 2, axis=-1, keepdims=True))
    raw /= np.maximum(norm, 1e-9)
    mass = np.sum(np.sum(np.abs(raw) ** 2, axis=-1) * g.cell_volume)
    raw /= np.sqrt(mass)
    phi = SpinorField(g, raw)
    back = spinor_from_polar(polar_from_spinor(phi, CONSTS), CONSTS)
    # equal up to a cellwise-common phase; compare via the gauge-invariant ratio
    ratio = np.where(np.abs(phi.values) > 1e-12, back.values / phi.values, 1.0)
    np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-10)
    rel_phase = ratio[..., 0] / ratio[..., 1]
    np.testing.assert_allclose(rel_phase, 1.0, atol=1e-10)


def test_polar_from_spinor_masks_dead_cells():
    g = Grid((1.0,), (16,), PERIODIC)
    vals = np.zeros(g.shape + (2,), dtype=complex)
    vals[:8, 0] = np.sqrt(2.0)  # unit total mass on half the box
    polar = polar_from_spinor(SpinorField(g, vals), CONSTS)
    assert polar.mask is not None
    assert not polar.mask[12]
    assert polar.mask[3]


# ---------------------------------------------------------------------------
# spinor-side quadratic form
# ---------------------------------------------------------------------------


def test_q_spinor_static_uniform_zero():
    g = Grid((2.0,), (16,), PERIODIC)
    vol = 2.0
    vals = np.zeros(g.shape + (2,), dtype=complex)
    vals[..., 0] = 1 / np.sqrt(vol)
    val = q_spinor(SpinorField(g, vals), EMConfiguration.zero(g), CONSTS)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_q_spinor_uniform_b_coupling():
    g = Grid((1.0,), (16,), PERIODIC)
    bz = 1.7
    theta = 1.1  # <sigma_z> = cos(theta)
    polar = uniform_polar(g, theta=theta)
    phi = spinor_from_polar(polar, CONSTS)
    val = q_spinor(phi, uniform_b_config(g, bz), CONSTS)
    expect = -(CONSTS.charge * CONSTS.hbar / (2 * CONSTS.mass)) * bz * np.cos(theta)
    assert val == pytest.approx(expect, rel=1e-12)


def test_q_spinor_plane_wave_dispersion_cancellation():
    L, n, frames = 1.0, 32, 8
    g = Grid((L,), (n,), PERIODIC)
    x = g.axis_coordinates(0)
    k = 2 * np.pi * 2 / L
    hbar, m = CONSTS.hbar, CONSTS.mass
    energy = hbar**2 * k**2 / (2 * m)
    period = 2 * np.pi * hbar / energy
    dt = period / frames
    snaps = []
    for i in range(frames):
        vals = np.zeros(g.shape + (2,), dtype=complex)
        vals[..., 0] = np.exp(1j * (k * x - energy * i * dt / hbar)) / np.sqrt(L)
        snaps.append(SpinorField(g, vals))
    val = q_spinor(snaps, EMConfiguration.zero(g), CONSTS, dt=dt,
                   time_periodic=True, scheme=SPECTRAL)
    assert val == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# equivalence verifier
# ---------------------------------------------------------------------------


def test_equivalence_zero_fields():
    g = Grid((1.0,), (16,), PERIODIC)
    rep = equivalence_residual(uniform_polar(g), EMConfiguration.zero(g), CONSTS)
    assert rep.abs_residual == pytest.approx(0.0, abs=1e-14)
    assert rep.rel_residual == 0.0


def test_equivalence_requires_identification():
    g = Grid((1.0,), (16,), PERIODIC)
    loose = PhysicalConstants(1.0, 1.0, 1.0, gamma=0.3, lam=0.2, a=0.5)
    with pytest.raises(FunctionalError):
        equivalence_residual(uniform_polar(g), EMConfiguration.zero(g), loose)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_equivalence_spectral_random_fields(seed):
    g = Grid((1.0, 1.0, 1.0), (24, 24, 24), PERIODIC)
    polar, em, dt = random_smooth_configuration(
        g, frames=12, consts=CONSTS, seed=seed, max_mode=1, amplitude=0.15
    )
    rep = equivalence_residual(polar, em, CONSTS, dt=dt, time_periodic=True, scheme=SPECTRAL)
    assert rep.rel_residual < 1e-8
    assert rep.spinor_rel_residual < 1e-8


def test_equivalence_stencil_refinement_second_order():
    errs = []
    for n, frames in ((32, 8), (64, 16), (128, 32)):
        g = Grid((1.0, 1.0), (n, n), PERIODIC)
        polar, em, dt = random_smooth_configuration(g, frames=frames, consts=CONSTS, seed=7)
        rep = equivalence_residual(polar, em, CONSTS, dt=dt, time_periodic=True, scheme=CENTRAL)
        assert rep.rel_residual < 1e-12  # same-expression route stays exact
        errs.append(rep.spinor_abs_residual)
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


_unit_range = st.floats(0.5, 2.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hbar=_unit_range, mass=_unit_range,
       charge=st.one_of(_unit_range, _unit_range.map(lambda q: -q)))
def test_equivalence_holds_for_any_constants(seed, hbar, mass, charge):
    # 12 frames: at 8, time resolution alone puts the spinor route near 1e-8
    consts = pauli_constants(hbar, mass, charge)
    g = Grid((1.0, 1.0), (32, 32), PERIODIC)
    polar, em, dt = random_smooth_configuration(g, frames=12, consts=consts, seed=seed)
    rep = equivalence_residual(polar, em, consts, dt=dt, time_periodic=True, scheme=SPECTRAL)
    assert rep.rel_residual <= 1e-12
    assert rep.spinor_rel_residual <= 1e-8


def _band_limited_by_ifftn(frames, grid, rng, max_mode, amplitude, zero_spatial_mean):
    # reference: the whole spectrum through np.fft.ifftn
    shape = (frames,) + grid.shape
    spec = np.zeros(shape, dtype=np.complex128)
    ranges = [
        np.r_[0 : max_mode + 1, n - max_mode : n] if n > 2 * max_mode else np.arange(n)
        for n in shape
    ]
    idx = tuple(m.ravel() for m in np.meshgrid(*ranges, indexing="ij"))
    spec[idx] = rng.normal(size=len(idx[0])) + 1j * rng.normal(size=len(idx[0]))
    if zero_spatial_mean:
        spec[(slice(None),) + (0,) * grid.dim] = 0.0
    field = np.fft.ifftn(spec).real
    field *= amplitude / np.max(np.abs(field))
    return field


@pytest.mark.parametrize("zero_mean", [False, True])
@pytest.mark.parametrize("max_mode", [1, 2])
@pytest.mark.parametrize("cells,frames", [
    ((16,), 12), ((5,), 4), ((12, 9), 6), ((4, 16), 12), ((10, 10, 10), 8), ((16, 5, 7), 3),
])
def test_band_limited_synthesis_matches_ifftn(cells, frames, max_mode, zero_mean):
    # (5,), (4, 16) and (16, 5, 7) hold axes with n <= 2 * max_mode, where
    # the band covers the whole axis
    g = Grid((1.0,) * len(cells), cells, PERIODIC)
    seed = 3 + sum(cells) + frames
    got = _band_limited_spacetime(frames, g, np.random.default_rng(seed), max_mode, 0.7,
                                  zero_mean)
    want = _band_limited_by_ifftn(frames, g, np.random.default_rng(seed), max_mode, 0.7,
                                  zero_mean)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("cells", [(16, 12), (10, 10, 10)])
def test_random_configuration_b_is_spectral_curl(cells):
    g = Grid((1.0,) * len(cells), cells, PERIODIC)
    _polar, em, _dt = random_smooth_configuration(g, frames=5, consts=CONSTS, seed=4)
    for cfg in em:
        assert cfg.b.values.tobytes() == curl(cfg.a_pot, SPECTRAL).values.tobytes()


def test_global_phase_invariance():
    # the map ambiguity: S shifts by any constant (a global wavefunction
    # phase), the relative phase by whole turns
    g = Grid((1.0, 1.0), (24, 24), PERIODIC)
    polar, em, dt = random_smooth_configuration(g, frames=6, consts=CONSTS, seed=11)
    base_q = q_polar(polar, em, CONSTS, dt=dt, time_periodic=True)
    base_t = total_functional(polar, em, CONSTS, dt=dt, time_periodic=True)
    shifted = [
        PolarFields(
            fr.p,
            fr.theta,
            ScalarField(fr.grid, fr.s.values + 1.37),
            ScalarField(fr.grid, fr.phi.values + 2.0 * np.pi),
        )
        for fr in polar
    ]
    assert q_polar(shifted, em, CONSTS, dt=dt, time_periodic=True) == pytest.approx(
        base_q, rel=1e-12
    )
    assert total_functional(shifted, em, CONSTS, dt=dt, time_periodic=True) == pytest.approx(
        base_t, rel=1e-12
    )


def test_gauge_covariance():
    g = Grid((1.0, 1.0), (24, 24), PERIODIC)
    polar, em, dt = random_smooth_configuration(g, frames=6, consts=CONSTS, seed=13)
    base = q_polar(polar, em, CONSTS, dt=dt, time_periodic=True, scheme=SPECTRAL)
    rng = np.random.default_rng(5)
    x, y = g.meshgrid()
    chi = 0.2 * np.sin(2 * np.pi * x + 0.3) * np.cos(2 * np.pi * y)
    grad_chi = gradient(ScalarField(g, chi), scheme=SPECTRAL).values
    q = CONSTS.charge
    polar2 = [
        PolarFields(fr.p, fr.theta, ScalarField(g, fr.s.values + q * chi), fr.phi)
        for fr in polar
    ]
    em2 = [
        EMConfiguration(
            g,
            cfg.phi_pot,
            VectorField3(g, cfg.a_pot.values + grad_chi),
            b=cfg.b,
            u=cfg.u,
        )
        for cfg in em
    ]
    val = q_polar(polar2, em2, CONSTS, dt=dt, time_periodic=True, scheme=SPECTRAL)
    assert val == pytest.approx(base, rel=1e-11)


# ---------------------------------------------------------------------------
# stationary-limit residuals
# ---------------------------------------------------------------------------


def precessing_frames(grid, bz, frames, dt, theta0=1.2):
    consts = CONSTS
    out = []
    vol = float(np.prod(grid.extents))
    for i in range(frames):
        phi_t = -consts.gamma * bz * i * dt  # canonical phase rate for B || z
        out.append(
            PolarFields(
                ScalarField.full(grid, 1.0 / vol),
                ScalarField.full(grid, theta0),
                ScalarField.full(grid, 0.0),
                ScalarField.full(grid, phi_t),
            )
        )
    return out


def test_stationarity_on_precessing_solution():
    g = Grid((1.0,), (8,), PERIODIC)
    bz = 2.0
    dt = 1e-3 / (CONSTS.gamma * bz)
    frames = precessing_frames(g, bz, 9, dt)
    res = stationarity_residual_static(frames, uniform_b_config(g, bz), CONSTS, dt=dt)
    assert res.phase_rate < 1e-6
    assert res.tilt_rate < 1e-6
    assert res.density_motion < 1e-6
    assert res.action_rate < 1e-6


def test_stationarity_zero_field_static():
    g = Grid((1.0,), (8,), PERIODIC)
    frames = [uniform_polar(g, theta=0.7, s=0.2, phi=0.4)] * 5
    res = stationarity_residual_static(frames, EMConfiguration.zero(g), CONSTS, dt=0.1)
    assert max(res.phase_rate, res.tilt_rate, res.density_motion, res.action_rate) == 0.0


def test_stationarity_detects_non_solution():
    g = Grid((1.0,), (8,), PERIODIC)
    bz = 2.0
    dt = 0.05
    frames = []
    for i in range(7):
        frames.append(uniform_polar(g, theta=1.2, s=0.0, phi=+0.5 * i * dt))  # wrong rate sign
    res = stationarity_residual_static(frames, uniform_b_config(g, bz), CONSTS, dt=dt)
    assert res.phase_rate > 1e-3


# ---------------------------------------------------------------------------
# variational equation residual
# ---------------------------------------------------------------------------


def test_el_residual_constant_density():
    g = Grid((1.0,), (64,), PERIODIC)
    out = euler_lagrange_residual(ScalarField.full(g, 1.0), 0.0, CONSTS)
    np.testing.assert_allclose(out[0].values, 0.0, atol=1e-12)


def box_density(n, L=1.0):
    g = Grid((L,), (n,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    return g, ScalarField(g, (2 / L) * np.sin(np.pi * x / L) ** 2)


def test_el_residual_box_solution_converges():
    interior_max = []
    for n in (129, 257):
        g, p = box_density(n)
        mu = -4.0 * CONSTS.lam * (np.pi / 1.0) ** 2
        res = euler_lagrange_residual(p, mu, CONSTS)[0].values
        lo, hi = n // 4, 3 * n // 4
        interior_max.append(np.max(np.abs(res[lo:hi])))
    assert 3.0 <= interior_max[0] / interior_max[1] <= 5.0


def test_box_perturbation_raises_objective_quadratically():
    # stationarity of the value: J(P*+eps*eta)-J(P*) = O(eps^2)
    g, p = box_density(513)
    x = g.axis_coordinates(0)
    eta = np.sin(2 * np.pi * x)  # normalization-preserving direction
    base = fisher_continuum(p)
    deltas = []
    for eps in (2e-3, 1e-3):
        vals = p.values * (1.0 + eps * eta)
        vals /= np.sum(vals * (np.r_[0.5, np.ones(len(x) - 2), 0.5] * g.spacing[0]))
        deltas.append(fisher_continuum(ScalarField(g, vals)) - base)
    assert deltas[0] > 0 and deltas[1] > 0
    assert 3.5 <= deltas[0] / deltas[1] <= 4.5


# ---------------------------------------------------------------------------
# pre-identification knowledge functional
# ---------------------------------------------------------------------------


def test_averaged_hj_symmetric_potentials_ignore_color():
    g = Grid((1.0,), (32,), PERIODIC)
    v = ScalarField(g, 0.7 + 0.1 * np.sin(2 * np.pi * g.axis_coordinates(0)))
    em = EMConfiguration.zero(g)
    a_val = averaged_hj_functional(uniform_polar(g, theta=0.4), em, CONSTS, v, v)
    b_val = averaged_hj_functional(uniform_polar(g, theta=2.1), em, CONSTS, v, v)
    assert a_val == pytest.approx(b_val, rel=1e-12)


def test_averaged_hj_single_action_limit():
    # phi = 0: reduces to the single-action averaged motion constraint
    g = Grid((1.0,), (65,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    p = np.sin(np.pi * x) ** 2
    p /= np.sum(p * np.r_[0.5, np.ones(63), 0.5] * g.spacing[0])
    s = 0.3 * np.sin(np.pi * x)
    polar = PolarFields(
        ScalarField(g, p), ScalarField.full(g, 0.9),
        ScalarField(g, s), ScalarField.full(g, 0.0),
    )
    v = ScalarField(g, 0.5 + 0.2 * np.cos(np.pi * x))
    em = EMConfiguration.zero(g)
    got = averaged_hj_functional(polar, em, CONSTS, v, v)
    grad_s = gradient(ScalarField(g, s)).values[..., 0]
    integrand = (grad_s**2 / (2 * CONSTS.mass) + v.values) * p
    w = np.r_[0.5, np.ones(63), 0.5] * g.spacing[0]
    assert got == pytest.approx(float(np.sum(integrand * w)), rel=1e-12)


def test_averaged_hj_matches_lambda_under_substitution():
    g = Grid((1.0,), (64,), PERIODIC)
    polar = smooth_polar(g, seed=21)
    bz = 1.3
    em = uniform_b_config(g, bz)
    split = CONSTS.a * CONSTS.gamma * bz
    v_plus = ScalarField.full(g, -split)
    v_minus = ScalarField.full(g, +split)
    got = averaged_hj_functional(polar, em, CONSTS, v_plus, v_minus)
    want = lambda_functional(polar, em, CONSTS)
    assert got == pytest.approx(want, rel=1e-12)


def test_breakdown_terms_sum_to_total():
    g = Grid((1.0, 1.0), (16, 16), PERIODIC)
    polar, em, dt = random_smooth_configuration(g, frames=4, consts=CONSTS, seed=2)
    breakdown = equivalence_residual(polar, em, CONSTS, dt=dt, time_periodic=True).breakdown
    total = total_functional(polar, em, CONSTS, dt=dt, time_periodic=True)
    assert breakdown["total"] == pytest.approx(total, rel=1e-12)
    parts = sum(v for k, v in breakdown.items() if k != "total")
    assert parts == pytest.approx(total, rel=1e-12)


def test_equivalence_with_near_identified_constants_keeps_both_routes():
    # lam off the identification by round-off passes the identification
    # check; Q_polar then takes the exact constants and the total these ones
    g = Grid((1.0, 1.0), (16, 16), PERIODIC)
    polar, em, dt = random_smooth_configuration(g, frames=4, consts=CONSTS, seed=2)
    near = PhysicalConstants(1.0, 1.0, 1.0, gamma=1.0, lam=0.125 * (1.0 + 1e-13), a=0.5,
                             identification=True)
    rep = equivalence_residual(polar, em, near, dt=dt, time_periodic=True)
    assert rep.q_polar == q_polar(polar, em, near, dt=dt, time_periodic=True)
    assert rep.total == total_functional(polar, em, near, dt=dt, time_periodic=True)
    assert rep.total != rep.q_polar
    assert rep.breakdown["total"] == pytest.approx(rep.total, rel=1e-12)


def test_fisher_rejects_unnormalized_density():
    g = Grid((1.0,), (32,), PERIODIC)
    with pytest.raises(FunctionalError):
        fisher_continuum(ScalarField.full(g, 3.0))


def test_q_polar_fisher_only_prefactor():
    # static density-only configuration: the quadratic form reduces to the
    # hbar^2/8m multiple of the Fisher information
    g = Grid((1.0,), (128,), PERIODIC)
    x = g.axis_coordinates(0)
    p = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    p /= p.sum() * g.cell_volume
    theta = 0.4 * np.cos(2 * np.pi * x)
    polar = PolarFields(
        ScalarField(g, p), ScalarField(g, theta),
        ScalarField.full(g, 0.0), ScalarField.full(g, 0.0),
    )
    em = EMConfiguration.zero(g)
    got = q_polar(polar, em, CONSTS)
    fisher = fisher_continuum(ScalarField(g, p), ScalarField(g, theta))
    expect = CONSTS.hbar**2 / (8 * CONSTS.mass) * fisher
    assert got == pytest.approx(expect, rel=1e-12)
