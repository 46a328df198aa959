"""Tests for the two-component wavefunction solver."""

import re

import numpy as np
import pytest
import scipy.fft
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evolve_with_snapshots, full_fft_derivative
from paulilab.classical import MomentState, torque_evolve
from paulilab.functionals import PhysicalConstants, polar_from_spinor
from paulilab.grids import (
    CENTRAL,
    PERIODIC,
    SPECTRAL,
    Grid,
    integrate_values,
    laplacian_matrix,
    quadrature_weights,
    second_derive_along,
)
from paulilab import pauli, verification
from paulilab.pauli import (
    CRANK_NICOLSON,
    SPLIT_OPERATOR,
    SolverConfig,
    SolverError,
    evolve,
    gaussian_packet_state,
)

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)


def atom(moment):
    """A neutral particle with CONSTS' hbar and mass and the spin coupling
    ``moment``, as the Larmor and Stern-Gerlach runs take it."""
    return PhysicalConstants(1.0, 1.0, 0.0, moment)


def axial(grid, bz=0.0):
    """The run's grid, no scalar potential and B = (0, 0, bz): the field
    arguments of ``SolverConfig``."""
    b = np.zeros(grid.shape + (3,))
    b[..., 2] = bz
    return grid, np.zeros(grid.shape), b


def uniform_state(grid, weights=(1.0, 0.0)):
    w = np.asarray(weights, dtype=np.complex128)
    w = w / np.linalg.norm(w)
    vol = float(np.prod(grid.extents))
    vals = np.zeros(grid.shape + (2,), dtype=np.complex128)
    vals[:] = w / np.sqrt(vol)
    return vals


def step(psi, config):
    """One recorded step of ``evolve``: the state after ``config.dt``."""
    return evolve(psi, config, config.dt).final


# ---------------------------------------------------------------------------
# Hamiltonian application
# ---------------------------------------------------------------------------


def _laplacian_stack(values, grid, scheme):
    """Componentwise Laplacian of a (...,2) complex array."""
    out = np.zeros_like(values)
    for ax in range(grid.dim):
        h = grid.spacing[ax]
        out += (full_fft_derivative(values, h, ax, 2) if scheme == SPECTRAL
                else second_derive_along(values, h, ax, grid.boundary))
    return out


def apply_hamiltonian(psi, config, scheme=None):
    """H applied to the wavefunction ``psi`` on the run's grid, term by
    term: the oracle for the generator of the propagators.

    -(hbar^2/2m) grad^2 + q phi_pot - spin_coupling sigma.B, where the
    spin coupling is q hbar / 2m for a charged particle and the given
    moment for a neutral one.
    """
    grid = config.grid
    if scheme is None:
        scheme = SPECTRAL if grid.boundary == PERIODIC else CENTRAL
    consts = config.consts
    hbar, m = consts.hbar, consts.mass
    q = consts.charge
    out = -(hbar**2) / (2.0 * m) * _laplacian_stack(psi, grid, scheme)
    if q != 0.0:
        out += q * config.phi_pot[..., None] * psi
    coupling = consts.spin_coupling
    if coupling != 0.0:
        b = config.b
        out[..., 0] += -coupling * (
            b[..., 2] * psi[..., 0] + (b[..., 0] - 1j * b[..., 1]) * psi[..., 1]
        )
        out[..., 1] += -coupling * (
            (b[..., 0] + 1j * b[..., 1]) * psi[..., 0] - b[..., 2] * psi[..., 1]
        )
    return out


def test_hamiltonian_plane_wave_eigenvalue():
    L, n = 1.0, 64
    g = Grid((L,), (n,), PERIODIC)
    x = g.axis_coordinates(0)
    k = 2 * np.pi * 3 / L
    vals = np.zeros(g.shape + (2,), dtype=np.complex128)
    vals[..., 0] = np.exp(1j * k * x) / np.sqrt(L)
    config = SolverConfig(SPLIT_OPERATOR, 1e-3, CONSTS, *axial(g))
    out = apply_hamiltonian(vals, config)
    expect = (CONSTS.hbar**2 * k**2 / (2 * CONSTS.mass)) * vals
    np.testing.assert_allclose(out, expect, atol=1e-9)


def test_hamiltonian_uniform_spin_coupling():
    g = Grid((1.0,), (16,), PERIODIC)
    state = uniform_state(g, (1.0, 0.0))
    gamma_e = 0.7
    config = SolverConfig(SPLIT_OPERATOR, 1e-3, atom(gamma_e), *axial(g, 2.0))
    out = apply_hamiltonian(state, config)
    np.testing.assert_allclose(out, -gamma_e * 2.0 * state, atol=1e-12)


def test_hamiltonian_linearity():
    g = Grid((1.0,), (32,), PERIODIC)
    rng = np.random.default_rng(0)
    a_vals = rng.normal(size=g.shape + (2,)) + 1j * rng.normal(size=g.shape + (2,))
    b_vals = rng.normal(size=g.shape + (2,)) + 1j * rng.normal(size=g.shape + (2,))
    config = SolverConfig(SPLIT_OPERATOR, 1e-3, CONSTS, *axial(g, 1.3))
    left = apply_hamiltonian(2.0 * a_vals + 0.5j * b_vals, config)
    right = 2.0 * apply_hamiltonian(a_vals, config) + 0.5j * apply_hamiltonian(b_vals, config)
    np.testing.assert_allclose(left, right, atol=1e-10)


@pytest.mark.parametrize("scheme,kinetic", [(SPLIT_OPERATOR, SPECTRAL),
                                             (CRANK_NICOLSON, CENTRAL)])
def test_one_step_is_generated_by_the_hamiltonian(scheme, kinetic):
    # i hbar (U psi - psi) / dt -> H psi, first order in dt, with the
    # scheme's own kinetic discretization
    g = Grid((12.0,), (96,), PERIODIC)
    wave = 2 * np.pi * g.axis_coordinates(0) / 12.0
    b_vals = np.zeros(g.shape + (3,))
    b_vals[..., 0] = 0.3 * np.sin(wave)
    b_vals[..., 2] = 0.5 + 0.2 * np.cos(wave)
    state = gaussian_packet_state(g, 1.2, 6.0, 0.5, (0.8, 0.6j), CONSTS)
    errors = []
    for dt in (1e-4, 1e-5):
        config = SolverConfig(scheme, dt, CONSTS, g, 0.4 * np.cos(wave), b_vals)
        h_psi = apply_hamiltonian(state, config, kinetic)
        generated = 1j * CONSTS.hbar * (step(state, config) - state) / dt
        errors.append(np.max(np.abs(generated - h_psi)) / np.max(np.abs(h_psi)))
    assert errors[1] < 2e-4
    assert 9.0 < errors[0] / errors[1] < 11.0


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_zero_hamiltonian_identity_step(scheme):
    g = Grid((1.0,), (16,), PERIODIC)
    state = uniform_state(g, (0.6, 0.8))
    config = SolverConfig(scheme, 0.05, CONSTS, *axial(g))
    np.testing.assert_allclose(step(state, config), state, atol=1e-12)


@pytest.mark.parametrize("scheme,steps", [(SPLIT_OPERATOR, 1000), (CRANK_NICOLSON, 2000)])
def test_rabi_oscillation(scheme, steps):
    # the exact-exponential scheme meets 1e-6 at period/1000; the Cayley
    # rational form needs a finer step for the same phase accuracy
    g = Grid((1.0,), (8,), PERIODIC)
    gamma_e, bz = 1.0, 1.0
    omega = 2 * gamma_e * bz / CONSTS.hbar
    period = 2 * np.pi / omega
    config = SolverConfig(scheme, period / steps, atom(gamma_e), *axial(g, bz))
    state = uniform_state(g, (1.0, 1.0))
    traj = evolve(state, config, period, record_every=10)
    expect = np.cos(omega * traj.times)
    assert np.max(np.abs(traj.spins[:, 0] - expect)) < 1e-6


def test_free_packet_spreading():
    L, n = 60.0, 1024
    g = Grid((L,), (n,), PERIODIC)
    sigma = 1.5
    state = gaussian_packet_state(g, sigma, L / 2, 0.0, (1.0, 0.0), CONSTS)
    t_final = 6.0
    config = SolverConfig(SPLIT_OPERATOR, t_final / 1000, CONSTS, *axial(g))
    traj = evolve(state, config, t_final, record_every=100)
    np.testing.assert_allclose(traj.positions[:, 0], L / 2, atol=1e-8)
    x = g.axis_coordinates(0)
    dens = np.sum(np.abs(traj.final) ** 2, axis=-1)
    mean = np.sum(x * dens) * g.cell_volume
    width_sq = np.sum((x - mean) ** 2 * dens) * g.cell_volume
    expect = sigma**2 + (CONSTS.hbar * t_final / (2 * CONSTS.mass * sigma)) ** 2
    assert width_sq == pytest.approx(expect, rel=5e-3)


@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_unitarity_over_1000_steps(scheme):
    g = Grid((20.0,), (256,), PERIODIC)
    state = gaussian_packet_state(g, 1.0, 10.0, 0.5, (0.8, 0.6j), CONSTS)
    config = SolverConfig(scheme, 1e-3, atom(0.5), *axial(g, 0.8))
    traj = evolve(state, config, 1.0, record_every=100)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-10


@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_evolve_builds_its_propagator_once(scheme, monkeypatch):
    g = Grid((20.0,), (64,), PERIODIC)
    config = SolverConfig(scheme, 1e-2, atom(0.5), *axial(g, 0.8))
    built = record_propagators(monkeypatch)
    evolve(gaussian_packet_state(g, 1.0, 10.0, 0.5, (0.8, 0.6j), CONSTS), config, 0.5,
           record_every=10)
    assert len(built) == 1  # the propagator's factors, built before the first of 50 steps


def test_evolution_linearity():
    g = Grid((30.0,), (256,), PERIODIC)
    a = gaussian_packet_state(g, 1.0, 12.0, 0.3, (1.0, 0.0), CONSTS)
    b = gaussian_packet_state(g, 1.5, 18.0, -0.2, (0.0, 1.0), CONSTS)
    ca, cb = 0.6, 0.8  # orthogonal spins keep the mix normalized
    mix = ca * a + cb * b
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, *axial(g, 0.4))
    out_mix = evolve(mix, config, 1.0, record_every=100).final
    out_a = evolve(a, config, 1.0, record_every=100).final
    out_b = evolve(b, config, 1.0, record_every=100).final
    np.testing.assert_allclose(out_mix, ca * out_a + cb * out_b, atol=1e-8)


def test_spin_position_factorization():
    g = Grid((40.0,), (512,), PERIODIC)
    config = SolverConfig(SPLIT_OPERATOR, 5e-3, atom(0.9), *axial(g, 1.1))
    dens = []
    for weights in ((1.0, 0.0), (1.0, 1.0j)):
        state = gaussian_packet_state(g, 2.0, 20.0, 0.4, weights, CONSTS)
        final = evolve(state, config, 2.0, record_every=200).final
        dens.append(np.sum(np.abs(final) ** 2, axis=-1))
    np.testing.assert_allclose(dens[0], dens[1], atol=1e-10)


# ---------------------------------------------------------------------------
# fused stepping against the stepwise oracle
# ---------------------------------------------------------------------------


def split_operator_oracle(config, grid):
    """The split operator's operations on a (..., 2) array, with factors
    built here from their formulas and not read from the propagator.
    Returns the transform ``forward(psi)``, the kinetic step back
    ``inverse(spectrum, factor)`` = F^-1(spectrum * factor), the half and
    full kinetic factors and ``cell(psi)``.  K/2 = exp(-i (dt/2) hbar k^2
    / 2m) and K = exp(-i dt hbar k^2 / 2m) in Fourier space, the 1-D
    transforms taken last axis first through ``scipy.fft`` (the propagator
    calls the compiled transform behind it,
    ``scipy.fft._pocketfft.pypocketfft.c2c(psi, (axis,), forward, inorm,
    out, 1)`` with inorm 0 forward and 2 inverse, in place or into its kept
    spectrum and without the Python checks, and
    ``test_kinetic_transform_is_scipy_fft_in_the_same_buffer`` checks
    that call against ``scipy.fft``); the cell factor is U = phase (cos(a)
    I - i sin(a) n.sigma), a = |c| dt / hbar, c = -coupling B, n = c/|c|,
    phase = exp(-i q phi dt / hbar), applied as the full 2x2 product."""
    consts = config.consts
    waves = [2.0 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(grid.cells, grid.spacing)]
    k_sq = sum(k**2 for k in np.meshgrid(*waves, indexing="ij"))
    half, full = (np.exp(-1j * config.dt * consts.hbar * k_sq / (d * consts.mass))[..., None]
                  for d in (4.0, 2.0))
    v = consts.charge * config.phi_pot
    c = -consts.spin_coupling * config.b
    c_norm = np.sqrt(np.sum(c * c, axis=-1))
    alpha = c_norm * config.dt / consts.hbar
    cos_a = np.cos(alpha)
    sinc = np.where(c_norm > 0, np.sin(alpha) / np.where(c_norm > 0, c_norm, 1.0), 0.0)
    phase = np.exp(-1j * v * config.dt / consts.hbar)
    u11 = phase * (cos_a - 1j * sinc * c[..., 2])
    u22 = phase * (cos_a + 1j * sinc * c[..., 2])
    u12 = phase * (-1j * sinc * (c[..., 0] - 1j * c[..., 1]))
    u21 = phase * (-1j * sinc * (c[..., 0] + 1j * c[..., 1]))
    axes = tuple(reversed(range(grid.dim)))

    def forward(psi):
        for ax in axes:
            psi = scipy.fft.fft(psi, axis=ax)
        return psi

    def inverse(spectrum, factor):
        psi = spectrum * factor
        for ax in axes:
            psi = scipy.fft.ifft(psi, axis=ax)
        return psi

    def cell(psi):
        c0 = u11 * psi[..., 0] + u12 * psi[..., 1]
        c1 = u21 * psi[..., 0] + u22 * psi[..., 1]
        psi[..., 0], psi[..., 1] = c0, c1
        return psi
    return forward, inverse, half, full, cell


def split_operator_oracle_step(config, grid):
    """One split-operator step as its own operations: half K, cell 2x2, half K."""
    forward, inverse, half, _, cell = split_operator_oracle(config, grid)
    return lambda psi: inverse(forward(cell(inverse(forward(psi), half))), half)


def split_operator_oracle_states(state, config, steps, record_every):
    """The wavefunction at each record of a split-operator run, as the
    propagator composes its steps: K/2 once, then for the n steps of each
    record interval (V K)^(n-1) V and the spectrum Phi = F(V psi), the record
    F^-1(Phi K/2), and the next interval led by F^-1(Phi K)."""
    forward, inverse, half, full, cell = split_operator_oracle(config, config.grid)
    out = [state.copy()]
    psi = inverse(forward(state), half)
    for i in range(0, steps, record_every):
        n = min(record_every, steps - i)
        if i:
            psi = inverse(spectrum, full)
        for _ in range(n - 1):
            psi = inverse(forward(cell(psi)), full)
        spectrum = forward(cell(psi))
        out.append(inverse(spectrum, half))
    return out


def whole_cayley_oracle_step(config, grid):
    """The Cayley step 2 (I + zH)^-1 psi - psi on the whole system, both
    colors of every cell whatever the state, with its own matrix and factor
    (bmat, then splu in the propagator's ordering); the layout is converted
    on the way in and out."""
    consts = config.consts
    kin = -(consts.hbar**2) / (2.0 * consts.mass) * laplacian_matrix(grid)
    v = consts.charge * config.phi_pot.ravel()
    b = consts.spin_coupling * config.b.reshape(grid.size, 3)
    bz, bxy = b[:, 2], b[:, 0] - 1j * b[:, 1]
    diags = scipy.sparse.diags
    ham = scipy.sparse.bmat([[kin + diags(v - bz), diags(-bxy)],
                             [diags(-np.conj(bxy)), kin + diags(v + bz)]], format="csr")
    eye = scipy.sparse.identity(ham.shape[0], dtype=np.complex128, format="csr")
    a_plus = (eye + (0.5j * config.dt / consts.hbar) * ham).tocsr()
    lu = scipy.sparse.linalg.splu(a_plus.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0.0)

    def step_once(psi):
        flat = np.concatenate([psi[..., 0].ravel(), psi[..., 1].ravel()])
        return (2.0 * lu.solve(flat) - flat).reshape(2, -1).T.reshape(psi.shape)
    return step_once


def oracle_states(state, config, steps):
    """The wavefunction after each of 0..steps single steps, each step on
    its own."""
    oracle_step = (split_operator_oracle_step if config.scheme == SPLIT_OPERATOR
                   else whole_cayley_oracle_step)
    step_once = oracle_step(config, config.grid)
    psi = state.copy()
    out = [psi.copy()]
    for _ in range(steps):
        psi = step_once(psi)
        out.append(psi.copy())
    return out


def random_run(grid, seed, neutral, scheme, dt, axial=False, filled=(0, 1)):
    """A normalized random state, nonzero in the ``filled`` colors only, and
    a random static phi and B on ``grid``.  An ``axial`` B has B_x = B_y = 0
    exactly, which leaves the colors uncoupled."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    vals[..., [c for c in (0, 1) if c not in filled]] = 0.0
    vals /= np.sqrt(integrate_values(np.sum(np.abs(vals) ** 2, axis=-1), grid))
    b_vals = rng.standard_normal(grid.shape + (3,))
    if axial:
        b_vals[..., :2] = 0.0
    config = SolverConfig(scheme, dt, atom(0.7) if neutral else CONSTS, grid,
                          3.0 * rng.random(grid.shape), b_vals)
    return vals, config


_PERIODIC_GRIDS = [((3.0,), (16,)), ((2.0, 1.5), (6, 5)), ((1.0, 1.2, 0.8), (4, 3, 5))]


def assert_steps_are_the_oracle_bitwise(state, config, steps):
    # every step recorded: the split operator still carries its spectrum
    # from one record to the next, Crank-Nicolson steps on its own
    traj, snapshots = evolve_with_snapshots(state, config, steps * config.dt)
    oracle = (split_operator_oracle_states(state, config, steps, 1)
              if config.scheme == SPLIT_OPERATOR else oracle_states(state, config, steps))
    assert len(snapshots) == steps + 1
    for snap, want in zip(snapshots, oracle):
        assert snap.tobytes() == want.tobytes()
    assert traj.final.tobytes() == oracle[-1].tobytes()
    return snapshots


@pytest.mark.parametrize("axial", [False, True])
@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
@pytest.mark.parametrize("extents,cells", _PERIODIC_GRIDS)
def test_evolve_recording_every_step_is_its_oracle_bitwise(scheme, extents, cells, axial):
    # an axial field takes the split operator's per-color multiplies, and
    # the oracle the full 2x2 product
    g = Grid(extents, cells, PERIODIC)
    state, config = random_run(g, len(cells), False, scheme, 1e-2, axial)
    if scheme == SPLIT_OPERATOR:
        assert pauli._make_propagator(config, state)._diagonal == axial
    assert_steps_are_the_oracle_bitwise(state, config, 30)


def gradient_field_run(weights, transverse=0.0):
    """A packet in B_z = 0.5 + 0.02 x on 64 periodic cells, with B_y =
    ``transverse`` in one cell."""
    g = Grid((20.0,), (64,), PERIODIC)
    b_vals = np.zeros(g.shape + (3,))
    b_vals[..., 2] = 0.5 + 0.02 * g.axis_coordinates(0)
    b_vals[40, 1] = transverse
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, atom(1.0), g, np.zeros(g.shape), b_vals)
    return gaussian_packet_state(g, 1.5, 10.0, 0.3, weights, CONSTS), config


@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0)])
def test_split_operator_with_one_color_empty_is_the_oracle_bitwise(weights):
    # the live color steps alone and must get the 2x2 product's bits; the
    # empty color comes back as the +0 the product keeps there
    state, config = gradient_field_run(weights)
    prop = pauli._make_propagator(config, state)
    assert prop._diagonal and prop._colors == (weights.index(1.0),)
    assert_steps_are_the_oracle_bitwise(state, config, 30)


def test_split_operator_with_transverse_field_in_one_cell_takes_the_2x2_product():
    state, config = gradient_field_run((0.8, 0.6j), transverse=0.3)
    assert not pauli._make_propagator(config, state)._diagonal
    assert_steps_are_the_oracle_bitwise(state, config, 30)


def record_propagators(monkeypatch):
    """The list that every propagator built from now on is appended to."""
    built = []
    make = pauli._make_propagator

    def recording(config, initial):
        built.append(make(config, initial))
        return built[-1]

    monkeypatch.setattr(pauli, "_make_propagator", recording)
    return built


def test_every_split_operator_document_runs_uncoupled_colors(monkeypatch):
    # the per-color step and the one-color path are speed-ups only while the
    # field-built runs take them: the Larmor and Stern-Gerlach runs fill both
    # colors, the packet runs one
    built = record_propagators(monkeypatch)
    verification.larmor_precession(1.3, atom(0.8), 100, 1, 10)
    stern_gerlach(cells=256, dt=0.1, t_final=1.0, record_every=10)
    verification.uniform_field_drift(80.0, 256, 2.0, 25.0, 0.2, 0.1, 10, CONSTS, 10)
    verification.free_packet_spreading(60.0, 256, 1.5, 0.1, 10, CONSTS, 10)
    assert [prop._colors for prop in built] == [(0, 1), (0, 1), (0,), (0,)]
    assert all(prop._diagonal for prop in built)


def axial_gradient_run(grid, color, neutral, transverse=0.0):
    """A random state in ``color`` alone, in B_z = 0.5 + 0.3 x and
    phi = 1 + cos(2 pi x / L) along the first axis, with B_y = ``transverse``
    in the middle cell."""
    rng = np.random.default_rng(17)
    vals = np.zeros(grid.shape + (2,), dtype=np.complex128)
    vals[..., color] = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    vals /= np.sqrt(integrate_values(np.sum(np.abs(vals) ** 2, axis=-1), grid))
    x = np.broadcast_to(grid.meshgrid()[0], grid.shape)
    b_vals = np.zeros(grid.shape + (3,))
    b_vals[..., 2] = 0.5 + 0.3 * x
    b_vals[tuple(n // 2 for n in grid.cells) + (1,)] = transverse
    config = SolverConfig(CRANK_NICOLSON, 1e-2, atom(0.7) if neutral else CONSTS, grid,
                          1.0 + np.cos(2 * np.pi * x / grid.extents[0]), b_vals)
    return vals, config


@pytest.mark.parametrize("neutral", [False, True])
@pytest.mark.parametrize("color", [0, 1])
@pytest.mark.parametrize("extents,cells", [((3.0,), (16,)), ((2.0, 1.5), (7, 6))])
def test_crank_nicolson_with_one_color_empty_is_the_whole_system_bitwise(extents, cells,
                                                                         color, neutral):
    # the empty color is left out of the system and comes back as +0; the
    # whole system's solve gives the live color the same bits and keeps
    # the empty one at +0
    state, config = axial_gradient_run(Grid(extents, cells, PERIODIC), color, neutral)
    assert pauli._make_propagator(config, state)._colors == (color,)
    snapshots = assert_steps_are_the_oracle_bitwise(state, config, 30)
    assert not snapshots[..., 1 - color].tobytes().strip(b"\0")


def test_crank_nicolson_with_transverse_field_in_one_cell_keeps_both_colors():
    state, config = axial_gradient_run(Grid((3.0,), (16,), PERIODIC), 0, False,
                                       transverse=0.3)
    assert pauli._make_propagator(config, state)._colors == (0, 1)
    snapshots = assert_steps_are_the_oracle_bitwise(state, config, 30)
    assert np.all(np.abs(snapshots[1:, ..., 1]) > 0.0)


def test_crank_nicolson_packet_documents_solve_one_color(monkeypatch):
    # the half-size system is a speed-up only while these runs build it; the
    # Larmor run fills both colors and keeps the whole system
    built = record_propagators(monkeypatch)
    verification.free_packet_spreading(60.0, 256, 1.5, 0.1, 10, CONSTS, 10, CRANK_NICOLSON)
    verification.uniform_field_drift(80.0, 256, 2.0, 25.0, 0.2, 0.1, 10, CONSTS, 10,
                                     CRANK_NICOLSON)
    verification.larmor_precession(1.3, atom(0.8), 100, 1, 10, CRANK_NICOLSON)
    assert [(prop._colors, prop._lu.shape) for prop in built] == [
        ((0,), (256, 256)), ((0,), (256, 256)), ((0, 1), (16, 16))]


def packet(grid, center, kick):
    """A normalized Gaussian packet about ``center`` with wave vector
    ``kick``, one component per axis."""
    arg = sum(-((x - c) ** 2) / 2.0 + 1j * k * x
              for x, c, k in zip(grid.meshgrid(), center, kick))
    vals = np.broadcast_to(np.exp(arg), grid.shape)
    return vals / np.sqrt(integrate_values(np.abs(vals) ** 2, grid))


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("color", [0, 1])
@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
@pytest.mark.parametrize("extents,cells", [((20.0,), (256,)), ((10.0, 10.0), (32, 32))])
def test_one_color_advance_is_that_color_of_the_two_color_advance_bitwise(extents, cells,
                                                                          scheme, color, n):
    # an axial field does not mix the colors: the live color's block, a
    # one-color slice of the colors-first block, steps alone with the bits
    # it has next to a filled color, and spin-down takes the cell factor u22
    g = Grid(extents, cells, PERIODIC)
    x = np.broadcast_to(g.meshgrid()[0], g.shape)
    b_vals = np.zeros(g.shape + (3,))
    b_vals[..., 2] = 0.5 + 0.3 * x
    config = SolverConfig(scheme, 1e-2, CONSTS, g, 1.0 + np.cos(2 * np.pi * x / extents[0]),
                          b_vals)
    one = np.zeros(g.shape + (2,), dtype=np.complex128)
    one[..., color] = packet(g, [e / 3.0 for e in extents], [1.5] * g.dim)
    both = one.copy()
    both[..., 1 - color] = packet(g, [2.0 * e / 3.0 for e in extents], [-0.8] * g.dim)
    prop_one = pauli._make_propagator(config, one)
    prop_both = pauli._make_propagator(config, both)  # norm 2
    assert (prop_one._colors, prop_both._colors) == ((color,), (0, 1))
    one_block, both_block = np.moveaxis(one, -1, 0).copy(), np.moveaxis(both, -1, 0).copy()
    live = one_block[color:color + 1]
    got, want = prop_one.advance(live, n), prop_both.advance(both_block, n)
    assert got is live and want is both_block  # each steps its block in place
    assert got[0].tobytes() == want[color].tobytes()
    assert not one_block[1 - color].tobytes().strip(b"\0")  # untouched +0


@pytest.mark.parametrize("record_every", [1, 3, 7, 50])
@pytest.mark.parametrize("extents,cells", _PERIODIC_GRIDS)
def test_crank_nicolson_is_the_stepwise_oracle_bitwise_at_any_record_every(extents, cells,
                                                                           record_every):
    g = Grid(extents, cells, PERIODIC)
    state, config = random_run(g, 10 + len(cells), True, CRANK_NICOLSON, 1e-2)
    traj, snapshots = evolve_with_snapshots(state, config, 0.3, record_every)
    oracle = oracle_states(state, config, 30)
    recorded = list(range(0, 30, record_every)) + [30]
    assert len(snapshots) == len(recorded)
    for snap, i in zip(snapshots, recorded):
        assert snap.tobytes() == oracle[i].tobytes()
    assert traj.final.tobytes() == oracle[-1].tobytes()


@pytest.mark.parametrize("neutral", [False, True])
@pytest.mark.parametrize("extents,cells", _PERIODIC_GRIDS)
def test_crank_nicolson_step_is_the_dense_cayley_solve(extents, cells, neutral):
    # H from the columns of the term-by-term oracle with central kinetics,
    # independent of the propagator's matrix and factor
    g = Grid(extents, cells, PERIODIC)
    state, config = random_run(g, 20 + len(cells), neutral, CRANK_NICOLSON, 1e-2)
    size = 2 * g.size
    ham = np.empty((size, size), dtype=np.complex128)
    for k in range(size):
        basis = np.zeros(size, dtype=np.complex128)
        basis[k] = 1.0
        ham[:, k] = apply_hamiltonian(basis.reshape(g.shape + (2,)), config, CENTRAL).ravel()
    z = 0.5j * config.dt / CONSTS.hbar
    x = state.ravel()
    want = np.linalg.solve(np.eye(size) + z * ham, x - z * (ham @ x))
    got = step(state, config).ravel()
    # measured at most 1.0e-15 relative over these six cases
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


@st.composite
def grids(draw):
    dim = draw(st.integers(1, 3))
    top = (48, 10, 5)[dim - 1]
    cells = tuple(draw(st.lists(st.integers(3, top), min_size=dim, max_size=dim)))
    extents = tuple(draw(st.lists(st.floats(0.5, 4.0), min_size=dim, max_size=dim)))
    return Grid(extents, cells, PERIODIC)


@settings(max_examples=40, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), neutral=st.booleans(),
       dt=st.floats(1e-3, 5e-2), steps=st.integers(1, 200), record_every=st.integers(1, 50),
       axial=st.booleans())
def test_fused_split_operator_stays_at_round_off_from_the_stepwise_oracle(
        grid, seed, neutral, dt, steps, record_every, axial):
    state, config = random_run(grid, seed, neutral, SPLIT_OPERATOR, dt, axial)
    _, snapshots = evolve_with_snapshots(state, config, steps * dt, record_every)
    oracle = oracle_states(state, config, steps)
    recorded = list(range(0, steps, record_every)) + [steps]
    assert len(snapshots) == len(recorded)
    for snap, i in zip(snapshots, recorded):
        want = oracle[i]
        assert np.max(np.abs(snap - want)) <= 1e-14 * i * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(1, 8), (2, 1024), (2, 5, 6, 7)])
def test_kinetic_transform_is_scipy_fft_in_the_same_buffer(shape):
    # the split operator's kinetic steps call scipy's private pocketfft c2c
    # with scipy.fft's arguments and out=psi; a scipy release that changes
    # that function fails this test by name, besides the fused-oracle ones
    rng = np.random.default_rng(sum(shape))
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for ax in range(1, len(shape)):
        for forward, inorm, want in ((True, 0, scipy.fft.fft), (False, 2, scipy.fft.ifft)):
            psi = block.copy()
            got = pauli.c2c(psi, (ax,), forward, inorm, psi, 1)
            assert got is psi
            assert psi.tobytes() == want(block, axis=ax).tobytes()


@settings(max_examples=40, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), neutral=st.booleans(),
       dt=st.floats(1e-3, 5e-2), steps=st.integers(1, 200), record_every=st.integers(1, 50),
       axial=st.booleans(), filled=st.sampled_from([(0,), (1,), (0, 1)]))
def test_split_operator_is_the_kept_spectrum_oracle_bitwise(grid, seed, neutral, dt, steps,
                                                           record_every, axial, filled):
    # one color or two, the stacked diagonal factors of an axial field or
    # the 2x2 product of a transverse one, against scipy.fft
    state, config = random_run(grid, seed, neutral, SPLIT_OPERATOR, dt, axial, filled)
    traj, snapshots = evolve_with_snapshots(state, config, steps * dt, record_every)
    oracle = split_operator_oracle_states(state, config, steps, record_every)
    assert len(snapshots) == len(oracle)
    for snap, want in zip(snapshots, oracle):
        assert snap.tobytes() == want.tobytes()
    assert traj.final.tobytes() == oracle[-1].tobytes()


@settings(max_examples=40, deadline=None)
@given(grid=grids(), scheme=st.sampled_from([SPLIT_OPERATOR, CRANK_NICOLSON]),
       seed=st.integers(0, 2**32 - 1), neutral=st.booleans(), dt=st.floats(1e-3, 5e-2),
       steps=st.integers(1, 200), record_every=st.integers(1, 50))
def test_every_recorded_norm_stays_within_1e12_of_one(grid, scheme, seed, neutral, dt, steps,
                                                      record_every):
    state, config = random_run(grid, seed, neutral, scheme, dt)
    traj = evolve(state, config, steps * dt, record_every=record_every)
    assert np.max(np.abs(traj.norms - 1.0)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(cells=st.integers(3, 128), extent=st.floats(0.5, 20.0),
       scheme=st.sampled_from([SPLIT_OPERATOR, CRANK_NICOLSON]),
       transverse=st.one_of(st.just(0.0), st.floats(0.1, 2.0)), angle=st.floats(0.0, 6.3),
       bz=st.floats(-2.0, 2.0), filled=st.sampled_from([(0,), (1,), (0, 1)]),
       seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-3, 5e-2), steps=st.integers(1, 20))
def test_a_uniform_field_keeps_the_norm_and_a_transverse_one_steps_both_colors(
        cells, extent, scheme, transverse, angle, bz, filled, seed, dt, steps):
    g = Grid((extent,), (cells,), PERIODIC)
    rng = np.random.default_rng(seed)
    vals = np.zeros(g.shape + (2,), dtype=np.complex128)
    for c in filled:
        vals[..., c] = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    vals /= np.sqrt(integrate_values(np.sum(np.abs(vals) ** 2, axis=-1), g))
    b_vals = np.zeros(g.shape + (3,))
    b_vals[:] = transverse * np.cos(angle), transverse * np.sin(angle), bz
    config = SolverConfig(scheme, dt, CONSTS, g, np.zeros(g.shape), b_vals)
    assert pauli._make_propagator(config, vals)._colors == ((0, 1) if transverse else filled)
    traj = evolve(vals, config, steps * dt)
    assert np.max(np.abs(np.diff(traj.norms))) <= 1e-12
    if transverse:  # the empty color, if any, takes up amplitude from the first step
        assert np.all(traj.color_masses[1:] > 0.0)


@settings(max_examples=30, deadline=None)
@given(cells=st.lists(st.integers(3, 16), min_size=1, max_size=2),
       scheme=st.sampled_from([SPLIT_OPERATOR, CRANK_NICOLSON]), axial=st.booleans(),
       neutral=st.booleans(), filled=st.sampled_from([(0,), (1,), (0, 1)]),
       seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-3, 5e-2), steps=st.integers(1, 40),
       record_every=st.integers(1, 10))
def test_evolve_keeps_the_norm_and_an_empty_color_at_plus_zero_under_an_axial_field(
        cells, scheme, axial, neutral, filled, seed, dt, steps, record_every):
    g = Grid((2.0, 1.5)[:len(cells)], tuple(cells), PERIODIC)
    rng = np.random.default_rng(seed)
    vals = np.zeros(g.shape + (2,), dtype=np.complex128)
    for c in filled:
        vals[..., c] = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    vals /= np.sqrt(integrate_values(np.sum(np.abs(vals) ** 2, axis=-1), g))
    b_vals = rng.standard_normal(g.shape + (3,))  # tilted: B_x and B_y couple the colors
    if axial:
        b_vals[..., :2] = 0.0
    config = SolverConfig(scheme, dt, atom(0.7) if neutral else CONSTS, g,
                          3.0 * rng.random(g.shape), b_vals)
    traj, snapshots = evolve_with_snapshots(vals, config, steps * dt, record_every)
    assert np.max(np.abs(traj.norms - traj.norms[0])) <= 1e-12
    if axial:
        for empty in {0, 1} - set(filled):
            assert not snapshots[..., empty].tobytes().strip(b"\0")


class _PlantedFactor:
    """A sparse factor whose solves after the first ``good`` return
    ``spoil`` of the true solution."""

    def __init__(self, lu, good, spoil):
        self.lu, self.good, self.spoil, self.calls = lu, good, spoil, 0

    def solve(self, rhs):
        self.calls += 1
        out = self.lu.solve(rhs)
        return out if self.calls <= self.good else self.spoil(out)


@pytest.mark.parametrize("spoil,residual", [
    (lambda y: np.full_like(y, np.nan), "nan"),  # NaN compares false: the guard must fail it
    (lambda y: y * (1.0 + 1e-9), "2.000e-09"),  # 2 |A y' - psi| / |psi| = 2e-9
])
@pytest.mark.parametrize("good,steps", [(2, 5), (0, 1)])
def test_crank_nicolson_refuses_a_solve_off_its_residual_bound(monkeypatch, spoil, residual,
                                                               good, steps):
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda a, **kw: _PlantedFactor(splu(a, **kw), good, spoil))
    g = Grid((3.0,), (16,), PERIODIC)
    state, config = random_run(g, 3, False, CRANK_NICOLSON, 1e-2)
    message = f"implicit solve {good} of {steps}: relative residual {residual} above bound 1e-12"
    with pytest.raises(SolverError, match=message):
        if steps == 1:
            step(state, config)
        else:
            evolve(state, config, steps * config.dt, record_every=steps)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def recorded_at_start(psi, grid):
    """The trajectory of ``evolve(psi, config, 0.0)`` in a zero field on
    ``grid``: its one record, at t = 0."""
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, *axial(grid))
    return evolve(psi, config, 0.0)


def test_observables_spin_up():
    g = Grid((1.0,), (16,), PERIODIC)
    state = uniform_state(g, (1.0, 0.0))
    traj = recorded_at_start(state, g)
    assert traj.spins[0, 2] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(state[..., 1]) ** 2, 0.0, atol=1e-14)
    assert traj.color_masses[0, 1] == 0.0


def test_observables_sigma_x_eigenstate():
    g = Grid((1.0,), (16,), PERIODIC)
    traj = recorded_at_start(uniform_state(g, (1.0, 1.0)), g)
    assert traj.spins[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert traj.spins[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_observables_match_polar_decomposition():
    g = Grid((8.0,), (64,), PERIODIC)
    state = gaussian_packet_state(g, 1.0, 4.0, 0.3, (0.8, 0.4 + 0.3j), CONSTS)
    spin = recorded_at_start(state, g).spins[0]
    p, th, _s, ph, _mask = polar_from_spinor(np.moveaxis(state, -1, 0), CONSTS)
    w = g.cell_volume
    expect = np.array(
        [
            np.sum(w * p * np.sin(th) * np.cos(ph)),
            np.sum(w * p * np.sin(th) * np.sin(ph)),
            np.sum(w * p * np.cos(th)),
        ]
    )
    np.testing.assert_allclose(spin, expect, atol=1e-10)


# ---------------------------------------------------------------------------
# longer evolutions
# ---------------------------------------------------------------------------


def test_evolve_zero_duration():
    g = Grid((1.0,), (8,), PERIODIC)
    state = uniform_state(g)
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, *axial(g))
    traj = evolve(state, config, 0.0)
    assert traj.times.shape == (1,)
    assert traj.norms[0] == pytest.approx(1.0, abs=1e-12)


def plain_observables(psi, grid):
    """Norm, position, spin and color masses as plain ``np.sum`` formulas:
    the bit oracle for the recorded columns."""
    w = quadrature_weights(grid)
    rho1 = np.abs(psi[..., 0]) ** 2
    rho2 = np.abs(psi[..., 1]) ** 2
    dens = rho1 + rho2
    norm = float(np.sum(w * dens))
    position = np.zeros(3)
    mesh = grid.meshgrid()
    for ax in range(grid.dim):
        position[ax] = float(np.sum(w * mesh[ax] * dens)) / norm
    cross = np.conj(psi[..., 0]) * psi[..., 1]
    spin = np.array([float(np.sum(w * 2.0 * np.real(cross))),
                     float(np.sum(w * 2.0 * np.imag(cross))),
                     float(np.sum(w * (rho1 - rho2)))]) / norm
    masses = np.array([float(np.sum(w * rho1)), float(np.sum(w * rho2))])
    return norm, position, spin, masses


@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
@pytest.mark.parametrize("extents,cells,spin_up_axial", [
    pytest.param((3.0,), (16,), False, id="extents0-cells0"),
    pytest.param((2.0, 1.5), (6, 5), False, id="extents1-cells1"),
    pytest.param((1.0, 1.2, 0.8), (4, 3, 5), False, id="extents2-cells2"),
    pytest.param((1.0,), (8,), False, id="larmor_size_8_cells"),
    # spin down stays exactly zero, so the signs of zero in spin x and y count
    pytest.param((3.0,), (16,), True, id="spin_up_in_axial_field"),
])
def test_evolve_records_the_observables_of_each_snapshot_bitwise(scheme, extents, cells,
                                                                 spin_up_axial):
    g = Grid(extents, cells, PERIODIC)
    rng = np.random.default_rng(len(cells))
    vals = rng.standard_normal(g.shape + (2,)) + 1j * rng.standard_normal(g.shape + (2,))
    b_vals = rng.standard_normal(g.shape + (3,))
    if spin_up_axial:
        vals[..., 1] = 0.0
        b_vals[..., :2] = 0.0
    vals /= np.sqrt(integrate_values(np.sum(np.abs(vals) ** 2, axis=-1), g))
    config = SolverConfig(scheme, 1e-3, CONSTS, g, rng.random(g.shape), b_vals)
    traj, snapshots = evolve_with_snapshots(vals, config, 0.011, 3)
    assert len(snapshots) == len(traj.times) == 5  # steps 0, 3, 6, 9 and the last, 11
    assert snapshots.shape == (5,) + g.shape + (2,)
    for i, snap in enumerate(snapshots):
        recorded = (traj.norms[i], traj.positions[i], traj.spins[i], traj.color_masses[i])
        for got, plain in zip(recorded, plain_observables(snap, g)):
            assert np.asarray(got).tobytes() == np.asarray(plain).tobytes()
    if spin_up_axial:
        assert not snapshots[..., 1].any() and not traj.color_masses[:, 1].any()


def spoil_advances(monkeypatch, spoil):
    """Every propagator built from now on calls ``spoil(block, calls)`` on
    the block each ``advance`` returns, ``calls`` counting its advances:
    the state the next record sees, and under the split operator's kept
    spectrum not the one the next step starts from."""
    make = pauli._make_propagator

    def spoiling(config, initial):
        prop = make(config, initial)
        advance, calls = prop.advance, []

        def spoiled(psi, n):
            calls.append(n)
            spoil(advance(psi, n), len(calls))
            return psi

        prop.advance = spoiled
        return prop

    monkeypatch.setattr(pauli, "_make_propagator", spoiling)


@pytest.mark.parametrize("spoil", ["scale", "nan"])
def test_evolve_aborts_when_the_norm_leaves_one_mid_run(spoil, monkeypatch):
    g = Grid((1.0,), (16,), PERIODIC)
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, *axial(g))
    seen = []

    def spoiled(block, calls):
        if calls == 4:
            if spoil == "scale":
                block *= 1.0 + 1e-9  # norm 1 + 2e-9 at the fifth record
            else:
                block[0, 3] = np.nan  # a cell of the live color

    spoil_advances(monkeypatch, spoiled)
    # the callback runs after its record's observables and before the norm check
    with pytest.raises(SolverError):
        evolve(uniform_state(g), config, 0.1, on_record=lambda psi, t, *_: seen.append(t))
    assert len(seen) == 5

    def drift(block, calls):
        block *= 1.0 + 1e-12  # norm within 1 + 2e-11 at every record, inside the tolerance

    monkeypatch.undo()
    spoil_advances(monkeypatch, drift)
    assert len(evolve(uniform_state(g), config, 0.1).times) == 11


@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_on_record_sees_a_read_only_state(scheme):
    # the split operator's next step starts from its kept spectrum, not from
    # the recorded state, so a write there would be lost: it raises instead
    g = Grid((1.0,), (16,), PERIODIC)
    config = SolverConfig(scheme, 1e-2, CONSTS, *axial(g))

    def on_record(psi, *_):
        psi *= 2.0

    with pytest.raises(ValueError, match="read-only"):
        evolve(uniform_state(g), config, 0.1, on_record=on_record)
    assert evolve(uniform_state(g), config, 0.1).final.flags.writeable


@pytest.mark.parametrize("record_every,steps", [(1, 5), (3, 12), (7, 14)])
@pytest.mark.parametrize("extents,cells", _PERIODIC_GRIDS)
def test_split_operator_takes_2n_plus_1_transforms_per_axis_after_its_first_interval(
        extents, cells, record_every, steps, monkeypatch):
    # k intervals of n steps on a d-axis grid: d (2n + 2) transforms for the
    # first, d (2n + 1) for each later one, which starts from the kept spectrum
    c2c, calls = pauli.c2c, []

    def counted(*args):
        calls.append(args)
        return c2c(*args)

    monkeypatch.setattr(pauli, "c2c", counted)
    g = Grid(extents, cells, PERIODIC)
    state, config = random_run(g, 3, False, SPLIT_OPERATOR, 1e-2)
    evolve(state, config, steps * config.dt, record_every)
    d, n, k = g.dim, record_every, steps // record_every
    assert len(calls) == d * (2 * n + 2) + (k - 1) * d * (2 * n + 1)


def test_evolve_rejects_record_every_below_one():
    g = Grid((1.0,), (8,), PERIODIC)
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, *axial(g))
    with pytest.raises(SolverError):
        evolve(uniform_state(g), config, 0.1, record_every=0)


@pytest.mark.parametrize("shape", [(32, 2), (64,), (2, 64), (64, 2, 1)])
@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_evolve_refuses_a_state_off_the_field_grid(scheme, shape):
    # the field's grid is the run's only grid: an array of any other shape,
    # a colors-first one included, is refused before the first step
    g = Grid((20.0,), (64,), PERIODIC)
    config = SolverConfig(scheme, 1e-2, atom(0.5), *axial(g, 0.5))
    psi = np.full(shape, 1.0 / np.sqrt(40.0), dtype=np.complex128)
    with pytest.raises(SolverError, match=r"state shape .* is not the field grid's \(64, 2\)"):
        evolve(psi, config, 0.1)


@pytest.mark.parametrize("name,shape,spoil", [
    ("phi_pot", (32,), None), ("phi_pot", (64, 1), None), ("phi_pot", (64,), np.nan),
    ("phi_pot", (64,), np.inf), ("b", (64,), None), ("b", (3, 64), None),
    ("b", (64, 3), np.nan), ("b", (64, 3), -np.inf),
])
def test_solver_config_refuses_a_field_off_its_grid_or_not_finite(name, shape, spoil):
    g = Grid((20.0,), (64,), PERIODIC)
    fields = dict(zip(("phi_pot", "b"), axial(g, 0.5)[1:]))
    fields[name] = np.zeros(shape)
    if spoil is not None:
        fields[name].flat[7] = spoil
    message = f"{name} values must be finite" if spoil else f"{name} shape {shape} does not match"
    with pytest.raises(SolverError, match=re.escape(message)):
        SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, g, **fields)


def test_solver_config_keeps_read_only_copies_of_its_fields():
    g, phi_pot, b = axial(Grid((20.0,), (64,), PERIODIC), 0.5)
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, g, phi_pot, b)
    phi_pot[:], b[:] = 1.0, 1.0
    assert not config.phi_pot.any() and not config.b[..., :2].any()
    assert np.all(config.b[..., 2] == 0.5)
    for values in (config.phi_pot, config.b):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 2.0


@pytest.mark.parametrize("spoil", ["scale", "nan", "inf"])
@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_evolve_refuses_an_unnormalized_or_nonfinite_state_at_its_first_record(scheme, spoil):
    g = Grid((20.0,), (64,), PERIODIC)
    config = SolverConfig(scheme, 1e-2, atom(0.5), *axial(g, 0.5))
    psi = gaussian_packet_state(g, 1.0, 10.0, 0.4, (0.8, 0.6j), CONSTS)
    if spoil == "scale":
        psi *= 1.0 + 1e-9  # norm 1 + 2e-9
    else:
        psi[20, 1] = np.nan if spoil == "nan" else np.inf
    seen = []
    with pytest.raises(SolverError, match="state norm .* left 1 \\+- 1e-10 at t=0"):
        evolve(psi, config, 0.1, on_record=lambda psi, t, *_: seen.append(t))
    assert seen == [0.0]


def measured_frequency(times, values):
    sign = np.sign(values)
    crossings = []
    for i in range(1, len(values)):
        if sign[i] != sign[i - 1] and sign[i] != 0:
            t0, t1 = times[i - 1], times[i]
            v0, v1 = values[i - 1], values[i]
            crossings.append(t0 - v0 * (t1 - t0) / (v1 - v0))
    spacing = np.diff(crossings)
    return np.pi / np.mean(spacing)


@pytest.mark.parametrize("values", [np.linspace(1.0, 2.0, 11), np.linspace(1.0, -1.0, 11)])
def test_zero_crossing_frequency_is_nan_without_two_crossings(values):
    # a monotone <sigma_x> crosses zero never or once: NaN, and no warning
    times = np.linspace(0.0, 1.0, 11)
    assert np.isnan(verification._zero_crossing_frequency(times, values))


def test_larmor_frequency_neutral():
    g = Grid((1.0,), (8,), PERIODIC)
    gamma_e, bz = 0.8, 1.3
    omega = 2 * gamma_e * bz / CONSTS.hbar
    period = 2 * np.pi / omega
    config = SolverConfig(SPLIT_OPERATOR, period / 1000, atom(gamma_e), *axial(g, bz))
    traj = evolve(uniform_state(g, (1.0, 1.0)), config, 10 * period, record_every=5)
    assert measured_frequency(traj.times, traj.spins[:, 0]) == pytest.approx(omega, rel=1e-3)


def test_larmor_frequency_charged_identification():
    # coupling q hbar/2m gives precession at q B / m
    g = Grid((1.0,), (8,), PERIODIC)
    consts = PhysicalConstants(hbar=1.0, mass=1.3, charge=0.7)
    bz = 0.9
    omega = consts.charge * bz / consts.mass
    period = 2 * np.pi / omega
    config = SolverConfig(SPLIT_OPERATOR, period / 1000, consts, *axial(g, bz))
    vol = 1.0
    vals = np.zeros(g.shape + (2,), dtype=np.complex128)
    vals[:] = np.array([1.0, 1.0]) / np.sqrt(2 * vol)
    traj = evolve(vals, config, 10 * period, record_every=5)
    assert measured_frequency(traj.times, traj.spins[:, 0]) == pytest.approx(omega, rel=1e-3)


def test_uniform_field_packet_ehrenfest():
    # charged packet in a uniform electric field: parabolic mean position
    L, n = 80.0, 1024
    g = Grid((L,), (n,), PERIODIC)
    e0 = 0.2
    x = g.axis_coordinates(0)
    q, m = CONSTS.charge, CONSTS.mass
    state = gaussian_packet_state(g, 2.0, 25.0, 0.0, (1.0, 0.0), CONSTS)
    t_final = 8.0
    config = SolverConfig(SPLIT_OPERATOR, t_final / 2000, CONSTS, g, -e0 * x,
                          np.zeros(g.shape + (3,)))
    traj = evolve(state, config, t_final, record_every=100)
    expect = 25.0 + 0.5 * (q * e0 / m) * traj.times**2
    displacement = expect[-1] - 25.0
    assert np.max(np.abs(traj.positions[:, 0] - expect)) < 1e-3 * displacement


def test_spin_expectation_matches_torque_trajectory():
    # classical correspondence at matched rate gamma_cl = 2 gamma_E / hbar
    g = Grid((1.0,), (8,), PERIODIC)
    gamma_e, b = 0.6, np.array([0.0, 0.0, 1.1])
    omega = 2 * gamma_e * b[2] / CONSTS.hbar
    period = 2 * np.pi / omega
    dt = period / 400
    config = SolverConfig(SPLIT_OPERATOR, dt, atom(gamma_e), *axial(g, b[2]))
    traj = evolve(uniform_state(g, (1.0, 1.0)), config, 10 * period, record_every=1)
    gamma_cl = 2 * gamma_e / CONSTS.hbar
    classical = torque_evolve(MomentState((1.0, 0, 0)), b, gamma_cl, 10 * period, dt)
    n = min(len(traj.times), len(classical.times))
    assert np.max(np.abs(traj.spins[:n] - classical.moments[:n])) < 1e-3


# ---------------------------------------------------------------------------
# beam splitting
# ---------------------------------------------------------------------------


def sg_params(**overrides):
    params = dict(
        extent=60.0,
        cells=768,
        sigma=2.0,
        center=30.0,
        velocity=0.0,
        spin_weights=(1.0, 1.0),
        field_gradient=0.02,
        field_offset=0.5,
        consts=atom(1.0),
        dt=0.01,
        t_final=10.0,
        record_every=50,
    )
    params.update(overrides)
    return params


def stern_gerlach(**overrides):
    """The trajectory of ``verification.stern_gerlach_law`` at ``sg_params``
    with ``overrides``, and its rows' columns: t, center_plus, center_minus,
    separation and overlap."""
    traj, rows, _ = verification.stern_gerlach_law(**sg_params(**overrides))
    return traj, np.array(rows).T


def test_stern_gerlach_zero_gradient():
    _, (*_, separation, _) = stern_gerlach(field_gradient=0.0, t_final=4.0)
    np.testing.assert_allclose(separation, 0.0, atol=1e-9)


def test_stern_gerlach_single_component_acceleration():
    cfg = sg_params(spin_weights=(1.0, 0.0))
    _, (t, center_plus, *_) = stern_gerlach(**cfg)
    accel = cfg["consts"].spin_coupling * cfg["field_gradient"] / CONSTS.mass
    expect = cfg["center"] + 0.5 * accel * t**2
    final_disp = expect[-1] - cfg["center"]
    assert abs(center_plus[-1] - expect[-1]) < 0.01 * final_disp


def test_stern_gerlach_separation_law():
    cfg = sg_params()
    _, (t, _, _, separation, overlap) = stern_gerlach()
    expect = (cfg["consts"].spin_coupling * cfg["field_gradient"] / CONSTS.mass) * t**2
    assert separation[-1] == pytest.approx(expect[-1], rel=0.01)
    mid = len(t) // 2
    assert separation[mid] == pytest.approx(expect[mid], rel=0.01)
    assert np.all(np.diff(overlap) <= 1e-12)  # monotone decay


def test_stern_gerlach_boundary_abort():
    with pytest.raises(SolverError, match="packet reached the grid boundary"):
        stern_gerlach(velocity=5.0, t_final=10.0)


def stern_gerlach_on_evolve(cfg):
    """The packet, field and solver of ``stern_gerlach_law(**cfg)`` run
    through ``evolve`` directly: the grid, the trajectory and the snapshots."""
    grid = Grid((cfg["extent"],), (cfg["cells"],), PERIODIC)
    b_vals = np.zeros(grid.shape + (3,))
    b_vals[..., 2] = cfg["field_offset"] + cfg["field_gradient"] * grid.axis_coordinates(0)
    solver = SolverConfig(SPLIT_OPERATOR, cfg["dt"], cfg["consts"], grid, np.zeros(grid.shape),
                          b_vals)
    packet = gaussian_packet_state(grid, cfg["sigma"], cfg["center"], cfg["velocity"],
                                   cfg["spin_weights"], cfg["consts"])
    return grid, *evolve_with_snapshots(packet, solver, cfg["t_final"], cfg["record_every"])


@pytest.mark.parametrize("spin_weights", [(1.0, 1.0), (0.8, 0.6j), (1.0, 0.0)],
                         ids=["two_colors_even", "two_colors_uneven", "one_color"])
def test_stern_gerlach_records_are_plain_sums_over_the_snapshots_bitwise(spin_weights):
    cfg = sg_params(cells=256, dt=0.1, t_final=4.0, record_every=5, spin_weights=spin_weights)
    traj, (t, center_plus, center_minus, separation, overlap) = stern_gerlach(**cfg)
    grid, _, snapshots = stern_gerlach_on_evolve(cfg)
    assert len(snapshots) == len(t) == 9
    assert t.tobytes() == traj.times.tobytes()
    w = quadrature_weights(grid)
    z = grid.axis_coordinates(0)
    for i, snap in enumerate(snapshots):
        rho = [np.abs(snap[:, c]) ** 2 for c in (0, 1)]
        masses = [float(np.sum(w * r)) for r in rho]
        occupied = [m > 1e-12 for m in masses]
        centers = [float(np.sum(w * z * r)) / m if o else np.nan
                   for r, m, o in zip(rho, masses, occupied)]
        expect_separation = centers[0] - centers[1] if all(occupied) else 0.0
        norm1, norm2 = (r / m if o else r for r, m, o in zip(rho, masses, occupied))
        expect_overlap = float(np.sum(w * np.sqrt(norm1 * norm2)))
        got = np.array([center_plus[i], center_minus[i]])
        assert got.tobytes() == np.array(centers).tobytes()
        assert separation[i].tobytes() == np.float64(expect_separation).tobytes()
        assert overlap[i].tobytes() == np.float64(expect_overlap).tobytes()
    if not spin_weights[1]:  # the empty color has no center, and nothing to separate or overlap
        assert np.isnan(center_minus).all()
        assert not separation.any() and not overlap.any()


_WEIGHT = st.one_of(st.just(0.0), st.floats(0.2, 1.0))


@settings(max_examples=25, deadline=None)
@given(weights=st.tuples(_WEIGHT, _WEIGHT).filter(any), sign=st.sampled_from([1.0, -1.0]),
       size=st.floats(0.005, 0.05), moment=st.floats(0.2, 2.0),
       field_offset=st.floats(-1.0, 1.0))
def test_stern_gerlach_follows_center_law_on_evolve(weights, sign, size, moment, field_offset):
    cfg = sg_params(cells=256, dt=0.1, record_every=10, spin_weights=weights,
                    field_gradient=sign * size, consts=atom(moment), field_offset=field_offset)
    result, (_, *centers, _, _) = stern_gerlach(**cfg)
    # each color is pushed by +-moment b / m: spin up along +z, spin down along -z
    half_law = moment * cfg["field_gradient"] * cfg["t_final"]**2 / (2 * CONSTS.mass)
    for color, direction in ((0, 1.0), (1, -1.0)):
        if weights[color]:
            moved = centers[color][-1] - cfg["center"]
            assert abs(moved - direction * half_law) <= 0.01 * abs(half_law)
    _, traj, _ = stern_gerlach_on_evolve(cfg)
    for name in ("times", "norms", "positions", "spins", "color_masses", "final"):
        got, want = getattr(result, name), getattr(traj, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
