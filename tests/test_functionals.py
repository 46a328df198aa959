"""Tests for the continuum functionals and the dual-route equivalence."""

import threading
from unittest import mock

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
    GridError,
    curl_stack,
    derive_along,
)
from paulilab import functionals
from paulilab.functionals import (
    POLAR_FIELDS,
    FunctionalError,
    PhysicalConstants,
    equivalence_residual,
    euler_lagrange_residual,
    fisher_continuum,
    polar_from_spinor,
    q_spinor,
    random_smooth_configuration,
    spinor_from_polar,
    stationarity_residual_static,
    _band_limited_spacetime,
    _integrate_stack,
    _time_derivative,
    _time_weights,
)

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)


def potentials(grid, frames, bz=0.0):
    """Potential stacks of ``frames`` frames: no potentials, and B = (0, 0, bz)."""
    shape = (frames,) + grid.shape
    b = np.zeros((3,) + shape)
    b[2] = bz
    return {"phi_pot": np.zeros(shape), "a_pot": np.zeros((3,) + shape), "b": b,
            "u": np.zeros(shape)}


def polar_stacks(grid, frames=1, p=None, theta=0.0, s=0.0, phi=0.0, bz=0.0):
    """The (frames,) + grid.shape stacks of the polar fields, each given as a
    number, one frame or every frame (a uniform unit density by default),
    and the potential stacks of B = (0, 0, bz) for every frame."""
    polar = {"p": 1.0 / float(np.prod(grid.extents)) if p is None else p,
             "theta": theta, "s": s, "phi": phi}
    shape = (frames,) + grid.shape
    fields = {name: np.broadcast_to(np.asarray(v, dtype=float), shape).copy()
              for name, v in polar.items()}
    return {**fields, **potentials(grid, frames, bz)}


def spinor_of(fields, consts=CONSTS):
    return spinor_from_polar(*(fields[name] for name in POLAR_FIELDS), consts)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def test_fisher_box_ground_profile():
    L = 1.0
    g = Grid((L,), (512,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    p = (2 / L) * np.sin(np.pi * x / L) ** 2
    assert fisher_continuum(g, p) == pytest.approx((2 * np.pi / L) ** 2, rel=0.01)


def test_fisher_gaussian():
    n = 256
    g = Grid((float(n),), (n,), PERIODIC)
    x = g.axis_coordinates(0)
    sigma = 10.0
    p = np.exp(-((x - n / 2) ** 2) / (2 * sigma**2))
    p /= p.sum() * g.cell_volume
    assert fisher_continuum(g, p) == pytest.approx(1 / sigma**2, rel=0.01)


def test_fisher_winding_angle_on_torus():
    g = Grid((1.0,), (128,), PERIODIC)
    p = np.ones(g.shape)
    theta = 2 * np.pi * g.axis_coordinates(0)
    assert fisher_continuum(g, p, theta) == pytest.approx((2 * np.pi) ** 2, rel=1e-12)


def test_fisher_rejects_negative_density():
    g = Grid((1.0,), (16,), PERIODIC)
    with pytest.raises(FunctionalError):
        fisher_continuum(g, np.linspace(-0.1, 2.1, 16))


# ---------------------------------------------------------------------------
# knowledge functional
# ---------------------------------------------------------------------------


def knowledge(rep):
    # the knowledge functional: every term of the breakdown but the Fisher one
    return sum(v for k, v in rep.breakdown.items() if k not in ("fisher", "total"))


def test_knowledge_all_zero():
    g = Grid((1.0,), (32,), PERIODIC)
    rep = equivalence_residual(g, polar_stacks(g), CONSTS)
    assert knowledge(rep) == pytest.approx(0.0, abs=1e-14)


def test_knowledge_moment_coupling_only():
    g = Grid((1.0,), (32,), PERIODIC)
    bz = 2.5
    rep = equivalence_residual(g, polar_stacks(g, bz=bz), CONSTS)
    assert rep.breakdown["moment_coupling"] == pytest.approx(-CONSTS.spin_coupling * bz,
                                                             rel=1e-12)
    assert knowledge(rep) == pytest.approx(-CONSTS.spin_coupling * bz, rel=1e-12)


def test_knowledge_plane_wave_cancellation():
    # action linear in x and t: kinetic and time terms cancel exactly
    L, n = 1.0, 65
    g = Grid((L,), (n,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    k = 3.0
    hbar, m = CONSTS.hbar, CONSTS.mass
    omega = hbar * k**2 / (2 * m)
    dt = 0.01
    s = np.stack([hbar * (k * x - omega * i * dt) for i in range(3)])
    fields = polar_stacks(g, frames=3, s=s)
    rep = equivalence_residual(g, fields, CONSTS, dt=dt)
    assert rep.breakdown["kinetic"] == pytest.approx(-rep.breakdown["time"], rel=1e-12)
    assert knowledge(rep) == pytest.approx(0.0, abs=1e-12)


def test_total_box_case():
    L = 1.0
    g = Grid((L,), (512,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    fields = polar_stacks(g, p=(2 / L) * np.sin(np.pi * x / L) ** 2)
    rep = equivalence_residual(g, fields, CONSTS)
    assert rep.total == pytest.approx(CONSTS.lam * (2 * np.pi / L) ** 2, rel=0.01)
    # the empty color's density is zero everywhere: the joint route leaves it out
    assert rep.joint == pytest.approx(rep.total, rel=1e-14)


# ---------------------------------------------------------------------------
# polar <-> spinor maps
# ---------------------------------------------------------------------------


def test_spinor_from_polar_poles():
    g = Grid((1.0,), (8,), PERIODIC)
    up = spinor_of(polar_stacks(g, theta=0.0))
    np.testing.assert_allclose(up[0], 1.0, atol=1e-14)
    np.testing.assert_allclose(up[1], 0.0, atol=1e-14)
    down = spinor_of(polar_stacks(g, theta=np.pi))
    np.testing.assert_allclose(np.abs(down[1]), 1.0, atol=1e-14)
    np.testing.assert_allclose(down[0], 0.0, atol=1e-8)


def test_polar_from_spinor_direct_values():
    g = Grid((1.0,), (4,), PERIODIC)
    psi = np.stack([np.full(g.shape, 1 / np.sqrt(2)), np.full(g.shape, 1j / np.sqrt(2))])
    p, theta, _s, phi, _mask = polar_from_spinor(psi, CONSTS)
    np.testing.assert_allclose(theta, np.pi / 2, rtol=1e-12)
    np.testing.assert_allclose(phi, np.pi / 2, rtol=1e-12)
    np.testing.assert_allclose(p, 1.0, rtol=1e-12)


def smooth_polar(grid, seed=0, amplitude=0.3):
    rng = np.random.default_rng(seed)
    # k . x with one period per axis
    kx = sum(2 * np.pi / extent * x for extent, x in zip(grid.extents, grid.meshgrid()))
    p = 1.0 + amplitude * np.sin(kx + rng.uniform(0, 2 * np.pi))
    p /= p.sum() * grid.cell_volume
    theta = np.pi / 2 + amplitude * np.cos(kx + rng.uniform(0, 2 * np.pi))
    s = amplitude * np.sin(2 * kx + rng.uniform(0, 2 * np.pi))
    phi = amplitude * np.cos(kx + rng.uniform(0, 2 * np.pi))
    return p, theta, s, phi


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_polar_spinor_round_trip(seed, dim):
    rng = np.random.default_rng(seed)
    low, high = {1: (3, 128), 2: (3, 24), 3: (3, 10)}[dim]
    g = Grid(tuple(0.5 + rng.random(dim)), tuple(rng.integers(low, high, dim)), PERIODIC)
    p, theta, s, phi = smooth_polar(g, seed=seed)
    back_p, back_theta, back_s, back_phi, mask = polar_from_spinor(
        spinor_from_polar(p, theta, s, phi, CONSTS), CONSTS)
    assert np.all(mask)
    np.testing.assert_allclose(back_p, p, rtol=1e-12)
    np.testing.assert_allclose(back_theta, theta, atol=1e-12)
    np.testing.assert_allclose(back_s, s, atol=1e-12)
    np.testing.assert_allclose(back_phi, phi, atol=1e-12)


def test_spinor_polar_spinor_round_trip_global_phase():
    g = Grid((1.0,), (32,), PERIODIC)
    rng = np.random.default_rng(9)
    raw = rng.normal(size=g.shape + (2,)) + 1j * rng.normal(size=g.shape + (2,))
    raw *= np.exp(0.3j)
    norm = np.sqrt(np.sum(np.abs(raw) ** 2, axis=-1, keepdims=True))
    raw /= np.maximum(norm, 1e-9)
    mass = np.sum(np.sum(np.abs(raw) ** 2, axis=-1) * g.cell_volume)
    raw /= np.sqrt(mass)
    psi = np.moveaxis(raw, -1, 0)
    back = spinor_from_polar(*polar_from_spinor(psi, CONSTS)[:4], CONSTS)
    # equal up to a cellwise-common phase; compare via the gauge-invariant ratio
    ratio = np.where(np.abs(psi) > 1e-12, back / psi, 1.0)
    np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-10)
    rel_phase = ratio[0] / ratio[1]
    np.testing.assert_allclose(rel_phase, 1.0, atol=1e-10)


def test_polar_from_spinor_masks_dead_cells():
    g = Grid((1.0,), (16,), PERIODIC)
    psi = np.zeros((2,) + g.shape, dtype=complex)
    psi[0, :8] = np.sqrt(2.0)  # unit total mass on half the box
    *_, mask = polar_from_spinor(psi, CONSTS)
    assert not mask[12]
    assert mask[3]


# ---------------------------------------------------------------------------
# spinor-side quadratic form
# ---------------------------------------------------------------------------


def test_q_spinor_static_uniform_zero():
    g = Grid((2.0,), (16,), PERIODIC)
    vol = 2.0
    psi = np.zeros((2, 1) + g.shape, dtype=complex)
    psi[0] = 1 / np.sqrt(vol)
    val = q_spinor(g, psi, potentials(g, 1), CONSTS)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_q_spinor_uniform_b_coupling():
    g = Grid((1.0,), (16,), PERIODIC)
    bz = 1.7
    theta = 1.1  # <sigma_z> = cos(theta)
    fields = polar_stacks(g, theta=theta, bz=bz)
    val = q_spinor(g, spinor_of(fields), fields, CONSTS)
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
    psi = np.zeros((2, frames) + g.shape, dtype=complex)
    for i in range(frames):
        psi[0, i] = np.exp(1j * (k * x - energy * i * dt / hbar)) / np.sqrt(L)
    em = potentials(g, frames)
    val = q_spinor(g, psi, em, CONSTS, dt=dt, time_periodic=True, scheme=SPECTRAL)
    assert val == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# equivalence verifier
# ---------------------------------------------------------------------------


def test_equivalence_zero_fields():
    g = Grid((1.0,), (16,), PERIODIC)
    rep = equivalence_residual(g, polar_stacks(g), CONSTS)
    assert rep.total == rep.joint == rep.q_spinor == 0.0
    assert rep.rel_residual == rep.spinor_rel_residual == 0.0


_unit_range = st.floats(0.5, 2.0)


def _identified(hbar, mass, charge, moment=None):
    """The oracle: the coefficients as the identification set them when they
    were fields stored beside (hbar, mass, charge), and the charged spin
    coupling as the solver and the spinor form computed it; a given moment
    is the spin coupling as it stands."""
    return {"lam": hbar**2 / (8.0 * mass), "a": hbar / 2.0,
            "spin_coupling": charge * hbar / (2.0 * mass) if moment is None else moment}


@given(hbar=st.floats(1e-3, 1e3), mass=st.floats(1e-3, 1e3),
       charge=st.floats(-1e3, 1e3, allow_subnormal=False),
       moment=st.one_of(st.none(), st.floats(-1e3, 1e3, allow_subnormal=False)))
def test_derived_coefficients_are_the_identification_bitwise(hbar, mass, charge, moment):
    consts = PhysicalConstants(hbar, mass, charge, moment)
    for name, want in _identified(hbar, mass, charge, moment).items():
        assert np.float64(getattr(consts, name)).tobytes() == np.float64(want).tobytes(), name


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hbar=_unit_range, mass=_unit_range,
       charge=st.one_of(_unit_range, _unit_range.map(lambda q: -q)))
def test_equivalence_holds_for_any_constants(seed, hbar, mass, charge):
    # 12 frames: at 8, time resolution alone puts the spinor route near 1e-8
    consts = PhysicalConstants(hbar, mass, charge)
    g = Grid((1.0, 1.0), (32, 32), PERIODIC)
    fields, dt = random_smooth_configuration(g, frames=12, consts=consts, seed=seed)
    rep = equivalence_residual(g, fields, consts, dt=dt, time_periodic=True, scheme=SPECTRAL)
    assert rep.rel_residual <= 1e-12
    assert rep.spinor_rel_residual <= 1e-8



def test_equivalence_holds_for_a_neutral_particle():
    # charge 0 with a moment, as the Stern-Gerlach atom: the spin couples to
    # the field through the moment alone, and the configuration scales its
    # field to that moment, so the coupling neither vanishes nor swamps the
    # kinetic term
    consts = PhysicalConstants(0.7, 1.9, 0.0, moment=0.6)
    g = Grid((1.0, 1.0), (32, 32), PERIODIC)
    fields, dt = random_smooth_configuration(g, frames=12, consts=consts, seed=0)
    rep = equivalence_residual(g, fields, consts, dt=dt, time_periodic=True, scheme=SPECTRAL)
    assert rep.rel_residual <= 1e-12
    assert rep.spinor_rel_residual <= 1e-8
    assert 0.0 < abs(rep.breakdown["moment_coupling"]) < abs(rep.breakdown["kinetic"])

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
    if np.any(field):  # a zero-mean band of mode 0 alone is zero
        field *= amplitude / np.max(np.abs(field))
    return field


@pytest.mark.parametrize("zero_mean", [False, True])
@pytest.mark.parametrize("max_mode", [0, 1, 2])
@pytest.mark.parametrize("cells,frames", [
    ((16,), 12), ((5,), 4), ((12, 9), 6), ((4, 16), 12), ((10, 10, 10), 8), ((16, 5, 7), 3),
    ((1,), 1), ((2, 3), 2), ((1, 12, 2), 5),
])
def test_band_limited_synthesis_matches_ifftn(cells, frames, max_mode, zero_mean):
    # (5,), (4, 16), (16, 5, 7) and the one- to three-cell axes hold axes
    # with n <= 2 * max_mode, where the band covers the whole axis; at mode 0
    # a zero-mean band is zero
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
    fields, _dt = random_smooth_configuration(g, frames=5, consts=CONSTS, seed=4)
    for i in range(5):
        want = curl_stack(fields["a_pot"][:, i], g, SPECTRAL)
        assert fields["b"][:, i].tobytes() == want.tobytes()


@pytest.mark.parametrize("name,spoil,error,message", [
    ("p", "scaled", FunctionalError, "density must integrate to 1, got "),
    ("p", "negative", FunctionalError, "density must be nonnegative$"),
    ("p", "nan", GridError, "field values must be finite$"),
    ("b", "nan", GridError, "field values must be finite$"),
])
def test_equivalence_rejects_spoiled_stacks(name, spoil, error, message):
    # the NaN in b reaches neither the density checks nor the wavefunction
    g = Grid((1.0, 1.0, 1.0), (8, 8, 8), PERIODIC)
    stacks, dt = random_smooth_configuration(g, frames=4, consts=CONSTS, seed=2, amplitude=0.15)
    values = stacks[name].copy()
    frame = values[:, 2] if name == "b" else values[2]
    if spoil == "scaled":
        frame *= 1.01
    else:
        frame[..., 1, 2, 3] = -0.5 if spoil == "negative" else np.nan
    with pytest.raises(error, match=f"^{message}"):
        equivalence_residual(g, {**stacks, name: values}, CONSTS, dt=dt, time_periodic=True,
                             scheme=SPECTRAL)


@pytest.mark.parametrize("name", ["a_pot", "phi_pot"])
def test_equivalence_rejects_complex_stacks(name):
    g = Grid((1.0, 1.0, 1.0), (8, 8, 8), PERIODIC)
    stacks, dt = random_smooth_configuration(g, frames=4, consts=CONSTS, seed=2, amplitude=0.15)
    spoiled = stacks[name] + 0.0j
    with pytest.raises(FunctionalError, match=f"^{name} stack must be real"):
        equivalence_residual(g, {**stacks, name: spoiled}, CONSTS, dt=dt, time_periodic=True,
                             scheme=SPECTRAL)


def _q_spinor_complex(grid, psi, em, consts, dt, scheme):
    # oracle: the spinor integrand in complex arithmetic, time-periodic
    hbar, m, q = consts.hbar, consts.mass, consts.charge
    a_pot, b = em["a_pot"], em["b"]
    integrand = np.zeros(psi.shape[1:], dtype=complex)
    for k in (0, 1):
        d = derive_along(psi[k], dt, 0, PERIODIC, scheme)
        integrand += 0.5j * hbar * (np.conj(d) * psi[k] - np.conj(psi[k]) * d)
        for ax in range(grid.dim):
            d = derive_along(psi[k], grid.spacing[ax], 1 + ax, grid.boundary, scheme)
            left = 1j * hbar * np.conj(d) - q * a_pot[ax] * np.conj(psi[k])
            right = -1j * hbar * d - q * a_pot[ax] * psi[k]
            integrand += left * right / (2.0 * m)
    norm_sq = np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2
    for ax in range(grid.dim, 3):
        integrand += (q * a_pot[ax]) ** 2 * norm_sq / (2.0 * m)
    integrand += (q * em["phi_pot"] + em["u"]) * norm_sq
    cross = np.conj(psi[0]) * psi[1]
    sigma = (2.0 * cross.real, 2.0 * cross.imag, np.abs(psi[0]) ** 2 - np.abs(psi[1]) ** 2)
    integrand += -(q * hbar / (2.0 * m)) * sum(bc * sc for bc, sc in zip(b, sigma))
    w = grid.cell_volume * dt
    return float(np.sum(integrand.real) * w), float(np.sum(integrand.imag) * w)


@pytest.mark.parametrize("cells,scheme", [((8, 8, 8), SPECTRAL), ((24, 24), CENTRAL)])
def test_real_spinor_integrand_matches_complex_form(cells, scheme):
    consts = PhysicalConstants(0.7, 1.9, -1.3)
    g = Grid((1.0,) * len(cells), cells, PERIODIC)
    stacks, dt = random_smooth_configuration(g, frames=6, consts=consts, seed=5, amplitude=0.15)
    psi = spinor_of(stacks, consts)
    got = q_spinor(g, psi, stacks, consts, dt, True, scheme)
    real, imag = _q_spinor_complex(g, psi, stacks, consts, dt, scheme)
    assert got == pytest.approx(real, rel=1e-14)
    assert abs(imag) <= 1e-14 * abs(real)


ROUTES = ("total", "joint", "q_spinor")


def test_global_phase_invariance():
    # the map ambiguity: S shifts by any constant (a global wavefunction
    # phase), the relative phase by whole turns; every route is blind to it
    g = Grid((1.0, 1.0), (24, 24), PERIODIC)
    fields, dt = random_smooth_configuration(g, frames=6, consts=CONSTS, seed=11)
    base = equivalence_residual(g, fields, CONSTS, dt=dt, time_periodic=True)
    shifted = {**fields, "s": fields["s"] + 1.37, "phi": fields["phi"] + 2.0 * np.pi}
    rep = equivalence_residual(g, shifted, CONSTS, dt=dt, time_periodic=True)
    for route in ROUTES:
        assert getattr(rep, route) == pytest.approx(getattr(base, route), rel=1e-12)


def test_gauge_covariance():
    # S -> S + q chi with A -> A + grad chi leaves every route unchanged
    g = Grid((1.0, 1.0), (24, 24), PERIODIC)
    fields, dt = random_smooth_configuration(g, frames=6, consts=CONSTS, seed=13)
    base = equivalence_residual(g, fields, CONSTS, dt=dt, time_periodic=True, scheme=SPECTRAL)
    x, y = g.meshgrid()
    chi = 0.2 * np.sin(2 * np.pi * x + 0.3) * np.cos(2 * np.pi * y)
    grad_chi = np.zeros((3,) + g.shape)
    for ax in range(g.dim):
        grad_chi[ax] = derive_along(chi, g.spacing[ax], ax, PERIODIC, SPECTRAL)
    gauged = {**fields, "s": fields["s"] + CONSTS.charge * chi,
              "a_pot": fields["a_pot"] + grad_chi[:, None]}
    rep = equivalence_residual(g, gauged, CONSTS, dt=dt, time_periodic=True, scheme=SPECTRAL)
    for route in ROUTES:
        assert getattr(rep, route) == pytest.approx(getattr(base, route), rel=1e-11)


def test_breakdown_terms_sum_to_total():
    g = Grid((1.0, 1.0), (16, 16), PERIODIC)
    fields, dt = random_smooth_configuration(g, frames=4, consts=CONSTS, seed=2)
    rep = equivalence_residual(g, fields, CONSTS, dt=dt, time_periodic=True)
    assert rep.breakdown["total"] == pytest.approx(rep.total, rel=1e-12)
    parts = sum(v for k, v in rep.breakdown.items() if k != "total")
    assert parts == pytest.approx(rep.total, rel=1e-12)


def test_total_fisher_only_prefactor():
    # static density-only configuration: the quadratic form reduces to the
    # hbar^2/8m multiple of the Fisher information
    g = Grid((1.0,), (128,), PERIODIC)
    x = g.axis_coordinates(0)
    p = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    p /= p.sum() * g.cell_volume
    theta = 0.4 * np.cos(2 * np.pi * x)
    rep = equivalence_residual(g, polar_stacks(g, p=p, theta=theta), CONSTS)
    fisher = fisher_continuum(g, p, theta)
    expect = CONSTS.hbar**2 / (8 * CONSTS.mass) * fisher
    assert rep.total == pytest.approx(expect, rel=1e-12)
    assert rep.breakdown["fisher"] == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# stationary-limit residuals
# ---------------------------------------------------------------------------


def phase_frames(rate, frames, dt):
    # a uniform relative phase advancing at ``rate``, one frame per row
    return np.array([rate * i * dt for i in range(frames)])[:, None]


@pytest.mark.parametrize("consts", [CONSTS, PhysicalConstants(1.0, 1.0, 0.0, moment=0.3)],
                         ids=["charged", "neutral"])
def test_stationarity_on_precessing_solution(consts):
    g = Grid((1.0,), (8,), PERIODIC)
    bz = 2.0
    rate = consts.spin_coupling / consts.a  # the angular rate per field, q/m when charged
    dt = 1e-3 / (rate * bz)
    # the canonical phase rate for B || z
    fields = polar_stacks(g, frames=9, theta=1.2, phi=phase_frames(-rate * bz, 9, dt), bz=bz)
    res = stationarity_residual_static(g, fields, consts, dt=dt)
    assert res.phase_rate < 1e-6
    assert res.tilt_rate < 1e-6
    assert res.density_motion < 1e-6
    assert res.action_rate < 1e-6


def test_stationarity_zero_field_static():
    g = Grid((1.0,), (8,), PERIODIC)
    fields = polar_stacks(g, frames=5, theta=0.7, s=0.2, phi=0.4)
    res = stationarity_residual_static(g, fields, CONSTS, dt=0.1)
    assert max(res.phase_rate, res.tilt_rate, res.density_motion, res.action_rate) == 0.0


def test_stationarity_detects_non_solution():
    g = Grid((1.0,), (8,), PERIODIC)
    bz = 2.0
    dt = 0.05
    fields = polar_stacks(g, frames=7, theta=1.2,
                          phi=phase_frames(+0.5, 7, dt), bz=bz)  # wrong rate sign
    res = stationarity_residual_static(g, fields, CONSTS, dt=dt)
    assert res.phase_rate > 1e-3


# ---------------------------------------------------------------------------
# variational equation residual
# ---------------------------------------------------------------------------


def test_el_residual_constant_density():
    g = Grid((1.0,), (64,), PERIODIC)
    out = euler_lagrange_residual(g, np.ones(g.shape), 0.0, CONSTS)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def box_density(n, L=1.0):
    g = Grid((L,), (n,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    return g, (2 / L) * np.sin(np.pi * x / L) ** 2


def test_el_residual_box_solution_converges():
    interior_max = []
    for n in (129, 257):
        g, p = box_density(n)
        mu = -4.0 * CONSTS.lam * (np.pi / 1.0) ** 2
        res = euler_lagrange_residual(g, p, mu, CONSTS)
        lo, hi = n // 4, 3 * n // 4
        interior_max.append(np.max(np.abs(res[lo:hi])))
    assert 3.0 <= interior_max[0] / interior_max[1] <= 5.0


def test_box_perturbation_raises_objective_quadratically():
    # stationarity of the value: J(P*+eps*eta)-J(P*) = O(eps^2)
    g, p = box_density(513)
    x = g.axis_coordinates(0)
    eta = np.sin(2 * np.pi * x)  # normalization-preserving direction
    base = fisher_continuum(g, p)
    deltas = []
    for eps in (2e-3, 1e-3):
        vals = p * (1.0 + eps * eta)
        vals /= np.sum(vals * (np.r_[0.5, np.ones(len(x) - 2), 0.5] * g.spacing[0]))
        deltas.append(fisher_continuum(g, vals) - base)
    assert deltas[0] > 0 and deltas[1] > 0
    assert 3.5 <= deltas[0] / deltas[1] <= 4.5


def test_fisher_rejects_unnormalized_density():
    g = Grid((1.0,), (32,), PERIODIC)
    # a mass of 1 + 1e-8 is off by more than the equivalence stacks admit
    for value in (3.0, 1.0 + 1e-8):
        with pytest.raises(FunctionalError, match="density must integrate to 1"):
            fisher_continuum(g, np.full(g.shape, value))


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
@pytest.mark.parametrize("which", ["p", "theta"])
def test_fisher_refuses_a_wrong_shape_or_a_non_finite_cell(which, bad):
    g = Grid((1.0,), (16,), PERIODIC)
    fields = {"p": np.ones(g.shape), "theta": np.zeros(g.shape)}
    if bad == "shape":
        fields[which] = np.ones(17)
    else:
        fields[which][5] = np.nan if bad == "nan" else np.inf
    with pytest.raises(FunctionalError, match=which):
        fisher_continuum(g, fields["p"], fields["theta"])


def test_density_check_refuses_a_nan_cell():
    # each comparison is negated, so NaN fails it rather than slipping past
    g = Grid((1.0,), (16,), PERIODIC)
    p = np.ones((1,) + g.shape)
    p[0, 3] = np.nan
    with pytest.raises(FunctionalError, match="nonnegative"):
        functionals._check_density(p, g)


def test_el_residual_takes_a_uniform_source_as_a_number_or_an_array():
    g, p = box_density(65)
    mu = -4.0 * CONSTS.lam * np.pi**2
    np.testing.assert_array_equal(euler_lagrange_residual(g, p, mu, CONSTS),
                                  euler_lagrange_residual(g, p, np.full(g.shape, mu), CONSTS))


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
@pytest.mark.parametrize("which", ["p", "source"])
def test_el_residual_refuses_a_wrong_shape_or_a_non_finite_cell(which, bad):
    g, p = box_density(33)
    fields = {"p": p, "source": np.zeros(g.shape)}
    if bad == "shape":
        fields[which] = np.ones(32)
    else:
        fields[which] = fields[which].copy()
        fields[which][5] = np.nan if bad == "nan" else np.inf
    with pytest.raises(FunctionalError, match=which):
        euler_lagrange_residual(g, fields["p"], fields["source"], CONSTS)


def test_time_derivative_of_a_sequence_needs_a_positive_step():
    stack = np.zeros((3, 4))
    for dt in (0.0, -0.1):
        with pytest.raises(FunctionalError, match="dt > 0"):
            _time_derivative(stack, dt, False, CENTRAL)
    np.testing.assert_array_equal(_time_derivative(stack[:1], 0.0, False, CENTRAL), stack[:1])


# ---------------------------------------------------------------------------
# the spinor route's lean forms against their whole-stack oracles, and its worker
# ---------------------------------------------------------------------------


def _spinor_from_polar_per_color(p, theta, s, phi, consts):
    """The oracle: one array per color, each with its own square root, stacked."""
    half = 0.5 * theta
    amp1 = np.sqrt(np.maximum(p, 0.0)) * np.cos(half)
    amp2 = np.sqrt(np.maximum(p, 0.0)) * np.sin(half)
    s1 = (s - consts.a * phi) / consts.hbar
    s2 = (s + consts.a * phi) / consts.hbar
    return np.stack([amp1 * np.exp(1j * s1), amp2 * np.exp(1j * s2)])


def _q_spinor_whole_stack(grid, psi, em, consts, dt, time_periodic, scheme):
    """The oracle: every term over all frames at once, on contiguous copies
    of the real and imaginary parts."""
    hbar, m, q = consts.hbar, consts.mass, consts.charge
    a_pot, b = em["a_pot"], em["b"]
    re, im = np.ascontiguousarray(psi.real), np.ascontiguousarray(psi.imag)
    integrand = np.zeros(psi.shape[1:])
    for k in (0, 1):
        d = _time_derivative(psi[k], dt, time_periodic, scheme)
        integrand += hbar * (re[k] * d.imag - im[k] * d.real)
    for ax in range(grid.dim):
        for k in (0, 1):
            d = derive_along(psi[k], grid.spacing[ax], 1 + ax, grid.boundary, scheme)
            qa = q * a_pot[ax]
            real = hbar * d.imag - qa * re[k]
            imag = hbar * d.real + qa * im[k]
            integrand += (real * real + imag * imag) / (2.0 * m)
    dens = re * re + im * im
    norm_sq = dens[0] + dens[1]
    for ax in range(grid.dim, 3):
        integrand += (q * a_pot[ax]) ** 2 * norm_sq / (2.0 * m)
    integrand += (q * em["phi_pot"] + em["u"]) * norm_sq
    sigma_x = 2.0 * (re[0] * re[1] + im[0] * im[1])
    sigma_y = 2.0 * (re[0] * im[1] - im[0] * re[1])
    sigma_z = dens[0] - dens[1]
    integrand += -consts.spin_coupling * (b[0] * sigma_x + b[1] * sigma_y + b[2] * sigma_z)
    tw = _time_weights(psi.shape[1], dt, time_periodic)
    return float(_integrate_stack(integrand, grid, tw))


# grids of 1-3 axes and 3-9 cells, and frame counts on both sides of the
# four-frame chunks (two frames admit no time derivative)
_SHAPES = dict(cells=st.lists(st.integers(3, 9), min_size=1, max_size=3),
               frames=st.sampled_from([1] + list(range(3, 14))), seed=st.integers(0, 2**32 - 1))
_ODD_CONSTS = PhysicalConstants(0.7, 1.9, -1.3)


@given(**_SHAPES)
def test_spinor_from_polar_is_the_per_color_form_bitwise(cells, frames, seed):
    rng = np.random.default_rng(seed)
    shape = (frames,) + tuple(cells)
    # a few cells slightly negative, which both forms clip to 0
    polar = (rng.random(shape) - 0.05, np.pi * rng.random(shape),
             rng.normal(size=shape), rng.normal(size=shape))
    assert (spinor_from_polar(*polar, _ODD_CONSTS).tobytes()
            == _spinor_from_polar_per_color(*polar, _ODD_CONSTS).tobytes())


# a cap of 1 or 100 values gives the small grids chunks of fewer than four frames too
@given(**_SHAPES, scheme=st.sampled_from([CENTRAL, SPECTRAL]), periodic=st.booleans(),
       time_periodic=st.booleans(), chunk_values=st.sampled_from([1, 100, 2**18]))
def test_q_spinor_is_the_whole_stack_form_bitwise(cells, frames, seed, scheme, periodic,
                                                  time_periodic, chunk_values):
    rng = np.random.default_rng(seed)
    boundary = PERIODIC if periodic or scheme == SPECTRAL else DIRICHLET_ZERO
    grid = Grid(tuple(0.5 + rng.random(len(cells))), tuple(cells), boundary)
    shape = (frames,) + grid.shape
    psi = rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape)
    em = {"phi_pot": rng.normal(size=shape), "a_pot": rng.normal(size=(3,) + shape),
          "b": rng.normal(size=(3,) + shape), "u": rng.normal(size=shape)}
    args = (grid, psi, em, _ODD_CONSTS, 0.1, time_periodic, scheme)
    with mock.patch.object(functionals, "_CHUNK_VALUES", chunk_values):
        chunked = q_spinor(*args)
    assert np.float64(chunked).tobytes() == np.float64(_q_spinor_whole_stack(*args)).tobytes()


def _spectral_set():
    grid = Grid((1.0, 1.0, 1.0), (8, 8, 8), PERIODIC)
    fields, dt = random_smooth_configuration(grid, frames=6, consts=CONSTS, seed=5)
    return grid, fields, CONSTS, dt, True, SPECTRAL


def test_equivalence_residual_leaves_no_thread_behind(monkeypatch):
    args = _spectral_set()
    before = threading.active_count()
    equivalence_residual(*args)
    assert threading.active_count() == before

    def broken(st, consts):
        raise FunctionalError("planted")

    monkeypatch.setattr(functionals, "_polar_terms", broken)
    with pytest.raises(FunctionalError, match="planted"):
        equivalence_residual(*args)
    assert threading.active_count() == before


def test_a_spinor_route_error_surfaces_as_its_serial_error(monkeypatch):
    args = _spectral_set()

    def one_nan_cell(*polar):
        psi = spinor_from_polar(*polar)
        psi[1, 0, 0, 0, 0] = np.nan
        return psi

    monkeypatch.setattr(functionals, "spinor_from_polar", one_nan_cell)
    with pytest.raises(Exception) as serial:
        functionals._spinor_route(*args)
    with pytest.raises(Exception) as threaded:
        equivalence_residual(*args)
    assert ((type(threaded.value), str(threaded.value))
            == (type(serial.value), str(serial.value))
            == (GridError, "field values must be finite"))


def test_a_polar_route_error_leaves_once_the_spinor_route_is_done(monkeypatch):
    # the spinor route starts its form only after the polar route has
    # raised, so only a call that joins its worker sees it finish
    args = _spectral_set()
    raised, finished = threading.Event(), []

    def after_the_raise(*route_args):
        assert raised.wait(10.0)
        finished.append(q_spinor(*route_args))
        return finished[-1]

    def broken(st, consts):
        raised.set()
        raise FunctionalError("planted")

    monkeypatch.setattr(functionals, "q_spinor", after_the_raise)
    monkeypatch.setattr(functionals, "_polar_terms", broken)
    with pytest.raises(FunctionalError, match="planted"):
        equivalence_residual(*args)
    assert len(finished) == 1
