"""Tests for the two-component wavefunction solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulilab.classical import MomentState, torque_evolve
from paulilab.functionals import (
    EMConfiguration,
    natural_constants,
    pauli_constants,
    polar_from_spinor,
)
from paulilab.grids import (
    PERIODIC,
    Grid,
    ScalarField,
    SpinorField,
    VectorField3,
    integrate_values,
    quadrature_weights,
)
from paulilab.pauli import (
    CRANK_NICOLSON,
    SPLIT_OPERATOR,
    PauliState,
    SolverConfig,
    SolverError,
    SternGerlachConfig,
    apply_hamiltonian,
    evolve,
    gaussian_packet_state,
    observables,
    stern_gerlach,
    step,
)

CONSTS = natural_constants()


def uniform_b_em(grid, bz):
    vals = np.zeros(grid.shape + (3,))
    vals[..., 2] = bz
    return EMConfiguration(
        grid, ScalarField.full(grid, 0.0), VectorField3.zero(grid), b=VectorField3(grid, vals)
    )


def uniform_state(grid, weights=(1.0, 0.0)):
    w = np.asarray(weights, dtype=np.complex128)
    w = w / np.linalg.norm(w)
    vol = float(np.prod(grid.extents))
    vals = np.zeros(grid.shape + (2,), dtype=np.complex128)
    vals[:] = w / np.sqrt(vol)
    return PauliState(SpinorField(grid, vals), 0.0)


# ---------------------------------------------------------------------------
# Hamiltonian application
# ---------------------------------------------------------------------------


def test_hamiltonian_plane_wave_eigenvalue():
    L, n = 1.0, 64
    g = Grid((L,), (n,), PERIODIC)
    x = g.axis_coordinates(0)
    k = 2 * np.pi * 3 / L
    vals = np.zeros(g.shape + (2,), dtype=np.complex128)
    vals[..., 0] = np.exp(1j * k * x) / np.sqrt(L)
    state = PauliState(SpinorField(g, vals))
    config = SolverConfig(SPLIT_OPERATOR, 1e-3, CONSTS, EMConfiguration.zero(g))
    out = apply_hamiltonian(state, config)
    expect = (CONSTS.hbar**2 * k**2 / (2 * CONSTS.mass)) * vals
    np.testing.assert_allclose(out.values, expect, atol=1e-9)


def test_hamiltonian_uniform_spin_coupling():
    g = Grid((1.0,), (16,), PERIODIC)
    state = uniform_state(g, (1.0, 0.0))
    gamma_e = 0.7
    config = SolverConfig(
        SPLIT_OPERATOR, 1e-3, CONSTS, uniform_b_em(g, 2.0), neutral=True, gamma_energy=gamma_e
    )
    out = apply_hamiltonian(state, config)
    np.testing.assert_allclose(out.values, -gamma_e * 2.0 * state.phi.values, atol=1e-12)


def test_hamiltonian_linearity():
    g = Grid((1.0,), (32,), PERIODIC)
    rng = np.random.default_rng(0)
    a_vals = rng.normal(size=g.shape + (2,)) + 1j * rng.normal(size=g.shape + (2,))
    b_vals = rng.normal(size=g.shape + (2,)) + 1j * rng.normal(size=g.shape + (2,))
    em = uniform_b_em(g, 1.3)
    config = SolverConfig(SPLIT_OPERATOR, 1e-3, CONSTS, em)

    def h_of(raw):
        dens = np.sum(np.abs(raw) ** 2, axis=-1)
        raw = raw / np.sqrt(np.sum(dens) * g.cell_volume)
        return apply_hamiltonian(PauliState(SpinorField(g, raw)), config).values * np.sqrt(
            np.sum(dens) * g.cell_volume
        )

    left = h_of(2.0 * a_vals + 0.5j * b_vals)
    right = 2.0 * h_of(a_vals) + 0.5j * h_of(b_vals)
    np.testing.assert_allclose(left, right, atol=1e-10)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_zero_hamiltonian_identity_step(scheme):
    g = Grid((1.0,), (16,), PERIODIC)
    state = uniform_state(g, (0.6, 0.8))
    config = SolverConfig(scheme, 0.05, CONSTS, EMConfiguration.zero(g))
    out = step(state, config)
    np.testing.assert_allclose(out.phi.values, state.phi.values, atol=1e-12)


@pytest.mark.parametrize("scheme,steps", [(SPLIT_OPERATOR, 1000), (CRANK_NICOLSON, 2000)])
def test_rabi_oscillation(scheme, steps):
    # the exact-exponential scheme meets 1e-6 at period/1000; the Cayley
    # rational form needs a finer step for the same phase accuracy
    g = Grid((1.0,), (8,), PERIODIC)
    gamma_e, bz = 1.0, 1.0
    omega = 2 * gamma_e * bz / CONSTS.hbar
    period = 2 * np.pi / omega
    config = SolverConfig(
        scheme, period / steps, CONSTS, uniform_b_em(g, bz), neutral=True, gamma_energy=gamma_e
    )
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
    config = SolverConfig(SPLIT_OPERATOR, t_final / 1000, CONSTS, EMConfiguration.zero(g))
    traj = evolve(state, config, t_final, record_every=100, keep_snapshots=True)
    np.testing.assert_allclose(traj.positions[:, 0], L / 2, atol=1e-8)
    x = g.axis_coordinates(0)
    dens = np.sum(np.abs(traj.snapshots[-1]) ** 2, axis=-1)
    mean = np.sum(x * dens) * g.cell_volume
    width_sq = np.sum((x - mean) ** 2 * dens) * g.cell_volume
    expect = sigma**2 + (CONSTS.hbar * t_final / (2 * CONSTS.mass * sigma)) ** 2
    assert width_sq == pytest.approx(expect, rel=5e-3)


@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_unitarity_over_1000_steps(scheme):
    g = Grid((20.0,), (256,), PERIODIC)
    state = gaussian_packet_state(g, 1.0, 10.0, 0.5, (0.8, 0.6j), CONSTS)
    config = SolverConfig(
        scheme, 1e-3, CONSTS, uniform_b_em(g, 0.8), neutral=True, gamma_energy=0.5
    )
    traj = evolve(state, config, 1.0, record_every=100)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-10


@pytest.mark.parametrize("scheme", [SPLIT_OPERATOR, CRANK_NICOLSON])
def test_evolve_reads_the_static_field_once(scheme, monkeypatch):
    g = Grid((20.0,), (64,), PERIODIC)
    config = SolverConfig(scheme, 1e-2, CONSTS, uniform_b_em(g, 0.8), neutral=True,
                          gamma_energy=0.5)
    reads = []
    b_values = EMConfiguration.b_values

    def counted(em, *args):
        reads.append(args)
        return b_values(em, *args)

    monkeypatch.setattr(EMConfiguration, "b_values", counted)
    traj = evolve(gaussian_packet_state(g, 1.0, 10.0, 0.5, (0.8, 0.6j), CONSTS), config, 0.5,
                  record_every=10)
    assert len(reads) == 1  # the propagator's factors, built before the first of 50 steps
    assert traj.snapshots is None


def test_evolution_linearity():
    g = Grid((30.0,), (256,), PERIODIC)
    a = gaussian_packet_state(g, 1.0, 12.0, 0.3, (1.0, 0.0), CONSTS)
    b = gaussian_packet_state(g, 1.5, 18.0, -0.2, (0.0, 1.0), CONSTS)
    ca, cb = 0.6, 0.8  # orthogonal spins keep the mix normalized
    mix_vals = ca * a.phi.values + cb * b.phi.values
    mix = PauliState(SpinorField(g, mix_vals))
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, uniform_b_em(g, 0.4))
    out_mix = evolve(mix, config, 1.0, record_every=100, keep_snapshots=True).snapshots[-1]
    out_a = evolve(a, config, 1.0, record_every=100, keep_snapshots=True).snapshots[-1]
    out_b = evolve(b, config, 1.0, record_every=100, keep_snapshots=True).snapshots[-1]
    np.testing.assert_allclose(out_mix, ca * out_a + cb * out_b, atol=1e-8)


def test_spin_position_factorization():
    g = Grid((40.0,), (512,), PERIODIC)
    config = SolverConfig(
        SPLIT_OPERATOR, 5e-3, CONSTS, uniform_b_em(g, 1.1), neutral=True, gamma_energy=0.9
    )
    dens = []
    for weights in ((1.0, 0.0), (1.0, 1.0j)):
        state = gaussian_packet_state(g, 2.0, 20.0, 0.4, weights, CONSTS)
        final = evolve(state, config, 2.0, record_every=200, keep_snapshots=True).snapshots[-1]
        dens.append(np.sum(np.abs(final) ** 2, axis=-1))
    np.testing.assert_allclose(dens[0], dens[1], atol=1e-10)


def test_neutral_matches_charged_at_zero_charge():
    g = Grid((10.0,), (128,), PERIODIC)
    em = uniform_b_em(g, 0.7)
    gamma_e = 0.45
    neutral_cfg = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, em, neutral=True, gamma_energy=gamma_e)
    chargeless = pauli_constants(hbar=1.0, mass=1.0, charge=0.0)
    charged_cfg = SolverConfig(SPLIT_OPERATOR, 1e-2, chargeless, em, gamma_energy=gamma_e)
    state = gaussian_packet_state(g, 1.0, 5.0, 0.2, (0.7, 0.3j), CONSTS)
    a = evolve(state, neutral_cfg, 0.5, record_every=50, keep_snapshots=True).snapshots[-1]
    b = evolve(state, charged_cfg, 0.5, record_every=50, keep_snapshots=True).snapshots[-1]
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def test_observables_spin_up():
    g = Grid((1.0,), (16,), PERIODIC)
    obs, (rho1, rho2) = observables(uniform_state(g, (1.0, 0.0)), with_densities=True)
    assert obs.spin[2] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho2.values, 0.0, atol=1e-14)


def test_observables_sigma_x_eigenstate():
    g = Grid((1.0,), (16,), PERIODIC)
    obs = observables(uniform_state(g, (1.0, 1.0)))
    assert obs.spin[0] == pytest.approx(1.0, abs=1e-12)
    assert obs.spin[2] == pytest.approx(0.0, abs=1e-12)


def test_observables_match_polar_decomposition():
    g = Grid((8.0,), (64,), PERIODIC)
    state = gaussian_packet_state(g, 1.0, 4.0, 0.3, (0.8, 0.4 + 0.3j), CONSTS)
    obs = observables(state)
    polar = polar_from_spinor(state.phi, CONSTS)
    w = g.cell_volume
    p, th, ph = polar.p.values, polar.theta.values, polar.phi.values
    expect = np.array(
        [
            np.sum(w * p * np.sin(th) * np.cos(ph)),
            np.sum(w * p * np.sin(th) * np.sin(ph)),
            np.sum(w * p * np.cos(th)),
        ]
    )
    np.testing.assert_allclose(obs.spin, expect, atol=1e-10)


# ---------------------------------------------------------------------------
# longer evolutions
# ---------------------------------------------------------------------------


def test_evolve_zero_duration():
    g = Grid((1.0,), (8,), PERIODIC)
    state = uniform_state(g)
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, EMConfiguration.zero(g))
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
@pytest.mark.parametrize("extents,cells", [((3.0,), (16,)), ((2.0, 1.5), (6, 5)),
                                           ((1.0, 1.2, 0.8), (4, 3, 5))])
def test_evolve_records_the_observables_of_each_snapshot_bitwise(scheme, extents, cells):
    g = Grid(extents, cells, PERIODIC)
    rng = np.random.default_rng(len(cells))
    vals = rng.standard_normal(g.shape + (2,)) + 1j * rng.standard_normal(g.shape + (2,))
    vals /= np.sqrt(integrate_values(np.sum(np.abs(vals) ** 2, axis=-1), g))
    em = EMConfiguration(g, ScalarField(g, rng.random(g.shape)), VectorField3.zero(g),
                         b=VectorField3(g, rng.standard_normal(g.shape + (3,))))
    config = SolverConfig(scheme, 1e-3, CONSTS, em)
    traj = evolve(PauliState(SpinorField(g, vals), 0.25), config, 0.011, record_every=3,
                  keep_snapshots=True)
    assert len(traj.snapshots) == len(traj.times) == 5  # steps 0, 3, 6, 9 and the last, 11
    assert traj.snapshots.shape == (5,) + g.shape + (2,)
    for i, snap in enumerate(traj.snapshots):
        recorded = (traj.norms[i], traj.positions[i], traj.spins[i], traj.color_masses[i])
        obs = observables(PauliState(SpinorField(g, snap), traj.times[i]))
        public = (obs.norm, obs.position, obs.spin, obs.color_masses)
        for got, want, plain in zip(recorded, public, plain_observables(snap, g)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.asarray(got).tobytes() == np.asarray(plain).tobytes()


@pytest.mark.parametrize("spoil", ["scale", "nan"])
def test_evolve_aborts_when_the_norm_leaves_one_mid_run(spoil):
    g = Grid((1.0,), (16,), PERIODIC)
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, EMConfiguration.zero(g))
    seen = []

    def on_record(psi, t):
        seen.append(t)
        if len(seen) == 4:
            if spoil == "scale":
                psi *= 1.0 + 1e-9  # norm 1 + 2e-9
            else:
                psi[3, 1] = np.nan

    with pytest.raises(SolverError):
        evolve(uniform_state(g), config, 0.1, on_record=on_record)
    assert len(seen) == 4

    def drift(psi, t):
        psi *= 1.0 + 1e-12  # 11 records: norm 1 + 2.2e-11, inside the tolerance

    assert len(evolve(uniform_state(g), config, 0.1, on_record=drift).times) == 11


def test_evolve_rejects_record_every_below_one():
    g = Grid((1.0,), (8,), PERIODIC)
    config = SolverConfig(SPLIT_OPERATOR, 1e-2, CONSTS, EMConfiguration.zero(g))
    with pytest.raises(SolverError):
        evolve(uniform_state(g), config, 0.1, record_every=0)


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


def test_larmor_frequency_neutral():
    g = Grid((1.0,), (8,), PERIODIC)
    gamma_e, bz = 0.8, 1.3
    omega = 2 * gamma_e * bz / CONSTS.hbar
    period = 2 * np.pi / omega
    config = SolverConfig(
        SPLIT_OPERATOR, period / 1000, CONSTS, uniform_b_em(g, bz), neutral=True,
        gamma_energy=gamma_e,
    )
    traj = evolve(uniform_state(g, (1.0, 1.0)), config, 10 * period, record_every=5)
    assert measured_frequency(traj.times, traj.spins[:, 0]) == pytest.approx(omega, rel=1e-3)


def test_larmor_frequency_charged_identification():
    # coupling q hbar/2m gives precession at q B / m
    g = Grid((1.0,), (8,), PERIODIC)
    consts = pauli_constants(hbar=1.0, mass=1.3, charge=0.7)
    bz = 0.9
    omega = consts.charge * bz / consts.mass
    period = 2 * np.pi / omega
    config = SolverConfig(SPLIT_OPERATOR, period / 1000, consts, uniform_b_em(g, bz))
    vol = 1.0
    vals = np.zeros(g.shape + (2,), dtype=np.complex128)
    vals[:] = np.array([1.0, 1.0]) / np.sqrt(2 * vol)
    traj = evolve(PauliState(SpinorField(g, vals)), config, 10 * period, record_every=5)
    assert measured_frequency(traj.times, traj.spins[:, 0]) == pytest.approx(omega, rel=1e-3)


def test_uniform_field_packet_ehrenfest():
    # charged packet in a uniform electric field: parabolic mean position
    L, n = 80.0, 1024
    g = Grid((L,), (n,), PERIODIC)
    e0 = 0.2
    x = g.axis_coordinates(0)
    phi_pot = ScalarField(g, -e0 * x)
    em = EMConfiguration(g, phi_pot, VectorField3.zero(g))
    q, m = CONSTS.charge, CONSTS.mass
    state = gaussian_packet_state(g, 2.0, 25.0, 0.0, (1.0, 0.0), CONSTS)
    t_final = 8.0
    config = SolverConfig(SPLIT_OPERATOR, t_final / 2000, CONSTS, em)
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
    config = SolverConfig(
        SPLIT_OPERATOR, dt, CONSTS, uniform_b_em(g, b[2]), neutral=True, gamma_energy=gamma_e
    )
    traj = evolve(uniform_state(g, (1.0, 1.0)), config, 10 * period, record_every=1)
    gamma_cl = 2 * gamma_e / CONSTS.hbar
    classical = torque_evolve(MomentState((1.0, 0, 0)), b, gamma_cl, 10 * period, dt)
    n = min(len(traj.times), len(classical.times))
    assert np.max(np.abs(traj.spins[:n] - classical.moments[:n])) < 1e-3


# ---------------------------------------------------------------------------
# beam splitting
# ---------------------------------------------------------------------------


def sg_config(**overrides):
    params = dict(
        extent=60.0,
        cells=768,
        sigma=2.0,
        center=30.0,
        velocity=0.0,
        spin_weights=(1.0, 1.0),
        field_gradient=0.02,
        field_offset=0.5,
        consts=CONSTS,
        gamma_energy=1.0,
        dt=0.01,
        t_final=10.0,
        record_every=50,
    )
    params.update(overrides)
    return SternGerlachConfig(**params)


def test_stern_gerlach_zero_gradient():
    result = stern_gerlach(sg_config(field_gradient=0.0, t_final=4.0))
    np.testing.assert_allclose(result.separation, 0.0, atol=1e-9)


def test_stern_gerlach_single_component_acceleration():
    cfg = sg_config(spin_weights=(1.0, 0.0))
    result = stern_gerlach(cfg)
    accel = cfg.gamma_energy * cfg.field_gradient / cfg.consts.mass
    expect = cfg.center + 0.5 * accel * result.times**2
    final_disp = expect[-1] - cfg.center
    assert abs(result.centers[-1, 0] - expect[-1]) < 0.01 * final_disp


def test_stern_gerlach_separation_law():
    cfg = sg_config()
    result = stern_gerlach(cfg)
    expect = (cfg.gamma_energy * cfg.field_gradient / cfg.consts.mass) * result.times**2
    assert result.separation[-1] == pytest.approx(expect[-1], rel=0.01)
    mid = len(result.times) // 2
    assert result.separation[mid] == pytest.approx(expect[mid], rel=0.01)
    assert np.all(np.diff(result.overlap) <= 1e-12)  # monotone decay


def test_stern_gerlach_boundary_abort():
    with pytest.raises(SolverError):
        stern_gerlach(sg_config(velocity=5.0, t_final=10.0))


_WEIGHT = st.one_of(st.just(0.0), st.floats(0.2, 1.0))


@settings(max_examples=25, deadline=None)
@given(weights=st.tuples(_WEIGHT, _WEIGHT).filter(any), sign=st.sampled_from([1.0, -1.0]),
       size=st.floats(0.005, 0.05), gamma_energy=st.floats(0.2, 2.0),
       field_offset=st.floats(-1.0, 1.0))
def test_stern_gerlach_follows_center_law_on_evolve(weights, sign, size, gamma_energy,
                                                    field_offset):
    cfg = sg_config(cells=256, dt=0.1, record_every=10, spin_weights=weights,
                    field_gradient=sign * size, gamma_energy=gamma_energy,
                    field_offset=field_offset)
    result = stern_gerlach(cfg)
    # each color is pushed by +-gamma b / m: spin up along +z, spin down along -z
    half_law = cfg.gamma_energy * cfg.field_gradient * cfg.t_final**2 / (2 * cfg.consts.mass)
    for color, direction in ((0, 1.0), (1, -1.0)):
        if weights[color]:
            moved = result.centers[-1, color] - cfg.center
            assert abs(moved - direction * half_law) <= 0.01 * abs(half_law)
    grid = Grid((cfg.extent,), (cfg.cells,), PERIODIC)
    b_vals = np.zeros(grid.shape + (3,))
    b_vals[..., 2] = cfg.field_offset + cfg.field_gradient * grid.axis_coordinates(0)
    em = EMConfiguration(grid, ScalarField.full(grid, 0.0), VectorField3.zero(grid),
                         b=VectorField3(grid, b_vals))
    solver = SolverConfig(SPLIT_OPERATOR, cfg.dt, CONSTS, em, neutral=True,
                          gamma_energy=cfg.gamma_energy)
    packet = gaussian_packet_state(grid, cfg.sigma, cfg.center, cfg.velocity, weights, CONSTS)
    traj = evolve(packet, solver, cfg.t_final, record_every=cfg.record_every)
    for name in ("times", "norms", "positions", "spins", "color_masses"):
        got, want = getattr(result.trajectory, name), getattr(traj, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
