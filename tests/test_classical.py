"""Tests for moment dynamics and charged-particle motion."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulilab import classical
from paulilab.classical import (
    ChargedParticleState,
    ClassicalError,
    MomentState,
    canonical_evolve,
    hj_residual,
    lorentz_evolve,
    moment_action,
    moment_hamiltonian,
    torque_evolve,
    velocity_field,
)
from paulilab.functionals import PhysicalConstants
from paulilab.grids import DIRICHLET_ZERO, PERIODIC, Grid, derive_along

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)


def angle_between(a, b):
    # atan2 of |a x b| and a.b: arccos of the dot product turns its round-off
    # near 1 into angles of order 1e-8
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), np.sum(a * b, axis=-1))


# ---------------------------------------------------------------------------
# torque integrator
# ---------------------------------------------------------------------------


def test_torque_zero_field():
    traj = torque_evolve(MomentState((0.3, 0.5, np.sqrt(1 - 0.34))), np.zeros(3), 1.0, 1.0, 1e-2)
    np.testing.assert_allclose(
        traj.moments, np.broadcast_to(traj.moments[0], traj.moments.shape), atol=1e-14
    )


def test_torque_aligned_moment_constant():
    b = np.array([0.0, 0.0, 2.0])
    traj = torque_evolve(MomentState((0, 0, 1.0)), b, 1.7, 1.0, 1e-3)
    np.testing.assert_allclose(traj.moments[:, 2], 1.0, atol=1e-12)


def test_torque_precession_oracle():
    gamma, b = 1.0, 2.0
    period = 2 * np.pi / (gamma * b)
    dt = period / 1000
    traj = torque_evolve(MomentState((1, 0, 0)), np.array([0, 0, b]), gamma, 10 * period, dt)
    t = traj.times
    exact = np.stack(
        [np.cos(gamma * b * t), -np.sin(gamma * b * t), np.zeros_like(t)], axis=-1
    )
    assert np.max(np.abs(traj.moments - exact)) < 1e-6


def exact_rotation(m0, b, gamma, times):
    """The closed-form rotation of m0 about the field axis: dm/dt = gamma m x B
    turns m by -gamma |B| t about B / |B| (Rodrigues' formula)."""
    axis = b / np.linalg.norm(b)
    angles = -gamma * np.linalg.norm(b) * times[:, None]
    return (np.cos(angles) * m0 + np.sin(angles) * np.cross(axis, m0)
            + (1.0 - np.cos(angles)) * axis * np.dot(axis, m0))


def test_torque_exact_rotation_matches_rk4():
    b = np.array([0.3, -0.4, 0.8])
    rk = torque_evolve(MomentState((1, 0, 0)), b, 2.0, 3.0, 1e-3)
    ex = exact_rotation(np.array([1.0, 0.0, 0.0]), b, 2.0, rk.times)
    assert np.max(angle_between(rk.moments, ex)) < 1e-8


def test_moment_norm_conserved():
    b = np.array([0.5, 0.1, 1.0])
    traj = torque_evolve(MomentState((0, 1, 0)), b, 3.0, 10.0, 1e-3)
    norms = np.linalg.norm(traj.moments, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    assert np.max(np.abs(traj.norm_errors)) < 1e-9


def test_torque_keeps_the_norm_error_each_step_removes(monkeypatch):
    # a forward-Euler step moves |m| to sqrt(1 + (dt gamma |m x B|)^2)
    def forward_euler(state, t, dt, rhs):
        return [s + dt * k for s, k in zip(state, rhs(t, state))]

    monkeypatch.setattr(classical, "_rk4", forward_euler)
    b, gamma, dt = np.array([0.0, 0.0, 2.0]), 1.5, 1e-2
    traj = torque_evolve(MomentState((1, 0, 0)), b, gamma, 5 * dt, dt)
    np.testing.assert_allclose(np.linalg.norm(traj.moments, axis=1), 1.0, atol=1e-15)
    assert traj.norm_errors[0] == 0.0
    np.testing.assert_allclose(traj.norm_errors[1:], np.sqrt(1 + (dt * gamma * 2.0) ** 2) - 1,
                               rtol=1e-9)


# ---------------------------------------------------------------------------
# spherical-chart form
# ---------------------------------------------------------------------------


def test_hamiltonian_matches_vector_form():
    rng = np.random.default_rng(2)
    for _ in range(20):
        phi = rng.uniform(-np.pi, np.pi)
        z = rng.uniform(-0.99, 0.99)
        b = rng.normal(size=3)
        gamma = rng.uniform(0.5, 2.0)
        m = MomentState.from_angles(phi, z)
        assert moment_hamiltonian(phi, z, b, gamma) == pytest.approx(
            -gamma * float(np.dot(m.m, b)), abs=1e-12
        )


def test_hamiltonian_aligned_and_orthogonal():
    assert moment_hamiltonian(0.0, 1.0 - 1e-12, (0, 0, 2.0), 1.5) == pytest.approx(-3.0, rel=1e-9)
    assert moment_hamiltonian(0.0, 0.0, (0, 0, 2.0), 1.5) == pytest.approx(0.0, abs=1e-12)


def test_canonical_axial_field_closed_form():
    gamma, bz = 1.3, 0.8
    traj = canonical_evolve(0.4, 0.2, np.array([0, 0, bz]), gamma, 5.0, 1e-3)
    np.testing.assert_allclose(traj.z, 0.2, atol=1e-12)
    np.testing.assert_allclose(traj.phi, 0.4 - gamma * bz * traj.times, atol=1e-9)


def test_canonical_energy_drift():
    b = np.array([0.3, 0.2, 0.9])
    gamma = 1.1
    traj = canonical_evolve(0.1, 0.3, b, gamma, 10.0, 1e-3)  # 10^4 steps
    h = np.array(
        [moment_hamiltonian(p, z, b, gamma) for p, z in zip(traj.phi, traj.z)]
    )
    assert np.max(np.abs(h - h[0])) < 1e-8 * abs(h[0])


def test_canonical_matches_torque_on_tilted_field():
    b = np.array([0.4, -0.3, 0.85])
    gamma = 1.7
    dt = 2 * np.pi / (gamma * np.linalg.norm(b)) / 2000
    m0 = MomentState.from_angles(0.7, 0.35)
    ct = canonical_evolve(0.7, 0.35, b, gamma, 2.0, dt)
    tt = torque_evolve(m0, b, gamma, 2.0, dt)
    m_c = np.stack(
        [
            np.sqrt(1 - ct.z**2) * np.cos(ct.phi),
            np.sqrt(1 - ct.z**2) * np.sin(ct.phi),
            ct.z,
        ],
        axis=-1,
    )
    assert np.max(angle_between(m_c, tt.moments)) < 1e-6


def test_canonical_pole_guard():
    with pytest.raises(ClassicalError):
        canonical_evolve(0.0, 1.0 - 1e-9, (0, 0, 1.0), 1.0, 1.0, 1e-2)
    # a great-circle orbit through the pole aborts with a diagnostic
    with pytest.raises(ClassicalError):
        canonical_evolve(np.pi / 2, 0.999, (1.0, 0, 0), 1.0, 10.0, 1e-3)


# ---------------------------------------------------------------------------
# action functional
# ---------------------------------------------------------------------------


def test_action_stationary_moment():
    # m parallel to B: z = 1 is the pole, use the vector statement via z -> B
    gamma, b = 1.2, np.array([0.0, 0.0, 0.9])
    t_final, dt = 2.0, 1e-3
    n = int(t_final / dt) + 1
    phi = np.zeros(n)
    z = np.full(n, 1.0)
    act = moment_action(phi, z, dt, b, gamma)
    assert act == pytest.approx(-gamma * 0.9 * t_final, rel=1e-9)


def test_action_first_variation_second_order():
    b = np.array([0.4, 0.2, 0.9])
    gamma = 1.3
    dt = 1e-3
    traj = canonical_evolve(0.3, 0.4, b, gamma, 2.0, dt)
    base = moment_action(traj.phi, traj.z, dt, b, gamma)
    t = traj.times
    eta_phi = np.sin(np.pi * t / t[-1])  # endpoint-fixed phase direction
    eta_z = 0.5 * np.sin(2 * np.pi * t / t[-1] + 0.3)
    deltas = []
    for eps in (2e-3, 1e-3):
        val = moment_action(traj.phi + eps * eta_phi, traj.z + eps * eta_z, dt, b, gamma)
        deltas.append(abs(val - base))
    assert 3.5 <= deltas[0] / deltas[1] <= 4.5


def test_action_time_reversal_with_field_flip():
    # magnetic time reversal: reverse traversal, flip moment and field
    b = np.array([0.4, 0.2, 0.9])
    gamma = 1.3
    dt = 1e-3
    traj = canonical_evolve(0.3, 0.4, b, gamma, 2.0, dt)
    act = moment_action(traj.phi, traj.z, dt, b, gamma)
    act_rev = moment_action(
        (traj.phi + np.pi)[::-1], -traj.z[::-1], dt, -b, gamma
    )
    assert act_rev == pytest.approx(act, rel=1e-9)


# ---------------------------------------------------------------------------
# particle motion
# ---------------------------------------------------------------------------


_ZERO = (0.0, 0.0, 0.0)


def test_lorentz_free_particle():
    # a neutral particle feels neither field
    state = ChargedParticleState((4.0, 4.0, 4.0), (0.3, -0.2, 0.1))
    traj = lorentz_evolve(state, (0.5, -0.2, 0.1), (0.3, 0.4, -1.0), charge=0.0, mass=1.0,
                          t_final=2.0, dt=1e-2)
    exact = state.x + np.outer(traj.times, state.v)
    np.testing.assert_allclose(traj.positions, exact, atol=1e-12)


def test_lorentz_uniform_field_parabola():
    e0, q, m = 0.5, 1.3, 2.0
    state = ChargedParticleState((1.0, 4.0, 4.0), (0.1, 0.0, 0.0))
    traj = lorentz_evolve(state, (e0, 0.0, 0.0), _ZERO, q, m, t_final=2.0, dt=1e-3)
    exact_x = 1.0 + 0.1 * traj.times + 0.5 * (q * e0 / m) * traj.times**2
    np.testing.assert_allclose(traj.positions[:, 0], exact_x, atol=1e-10)


def test_lorentz_cyclotron_radius_drift():
    bz, q, m, v = 1.0, 1.0, 1.0, 0.5
    radius = m * v / (q * bz)
    period = 2 * np.pi * m / (q * bz)
    center = np.array([4.0, 4.0, 4.0])
    # v x B must point toward the gyrocenter
    state = ChargedParticleState(center + np.array([radius, 0, 0]), (0.0, -v, 0.0))
    traj = lorentz_evolve(state, _ZERO, (0.0, 0.0, bz), q, m, 10 * period, period / 300)
    radii = np.linalg.norm(traj.positions[:, :2] - center[:2], axis=1)
    assert np.max(np.abs(radii - radius)) < 1e-3 * radius
    speeds = np.linalg.norm(traj.velocities, axis=1)
    assert np.max(np.abs(speeds - v)) < 1e-6 * v  # magnetic force does no work


def test_lorentz_energy_conservation():
    e0, q, m = 0.4, 1.0, 1.0
    state = ChargedParticleState((5.0, 25.0, 25.0), (0.2, 0.1, 0.0))
    traj = lorentz_evolve(state, (e0, 0.0, 0.0), _ZERO, q, m, 10.0, 1e-3)
    phi_at = -e0 * traj.positions[:, 0]
    energy = 0.5 * m * np.sum(traj.velocities**2, axis=1) + q * phi_at
    assert np.max(np.abs(energy - energy[0])) < 1e-6 * abs(energy[0])


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


_FINITE = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(a=st.lists(_FINITE, min_size=3, max_size=3), b=st.lists(_FINITE, min_size=3, max_size=3))
@example(a=[0.0, -0.0, 0.0], b=[-0.0, 0.0, -0.0])
@example(a=[-0.0, 1.0, -0.0], b=[1.0, -0.0, 0.0])
@example(a=[5e-324, -1e150, 2.5e-308], b=[1e150, 5e-324, -1e-300])
def test_cross_matches_numpy_bitwise(a, b):
    np.testing.assert_array_equal(_bits(classical._cross(a, b)),
                                  _bits(np.cross(np.array(a), np.array(b))))


def rk4_on_arrays(state, t, dt, rhs):
    """The array RK4 step the float kernel replaces: the bit oracle for
    ``classical._rk4``."""
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = rhs(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_MODERATE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(state=st.sampled_from([2, 3, 6]).flatmap(
           lambda n: st.lists(_MODERATE, min_size=n, max_size=n)),
       coeffs=st.lists(_MODERATE, min_size=3, max_size=3),
       dt=st.floats(min_value=1e-6, max_value=10.0), t=_MODERATE)
def test_rk4_on_floats_matches_the_array_step_bitwise(state, coeffs, dt, t):
    size = len(state)

    def rhs(t, s):
        # nonlinear, coupled and time-dependent, with a cross product for 3-vectors
        head = classical._cross(s, coeffs) if size == 3 else []
        rest = [coeffs[0] * s[i - 1] - coeffs[1] * s[i] * s[i] + coeffs[2] * t
                for i in range(len(head), size)]
        return head + rest

    got = classical._rk4(state, t, dt, rhs)
    want = rk4_on_arrays(np.array(state), t, dt, lambda t, s: np.array(rhs(t, s.tolist())))
    np.testing.assert_array_equal(_bits(got), _bits(want))


# a component of either sign, never 0: a tilted field, in which every term
# of the cross product counts
_TILTED = st.lists(st.floats(min_value=0.1, max_value=2.0).flatmap(
    lambda c: st.sampled_from([c, -c])), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(e=_TILTED, b=_TILTED, x=st.lists(_MODERATE, min_size=3, max_size=3),
       v=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
       charge=st.floats(min_value=0.1, max_value=3.0).flatmap(lambda q: st.sampled_from([q, -q])),
       mass=st.floats(min_value=0.1, max_value=5.0), dt=st.floats(min_value=1e-4, max_value=0.1),
       steps=st.integers(1, 30))
def test_lorentz_matches_the_array_rk4_bitwise(e, b, x, v, charge, mass, dt, steps):
    traj = lorentz_evolve(ChargedParticleState(x, v), e, b, charge, mass, steps * dt, dt)
    e, b = np.array(e), np.array(b)

    def rhs(t, s):
        return np.concatenate([s[3:], (charge * e + charge * np.cross(s[3:], b)) / mass])

    state = np.array(x + v)
    want = [state]
    for t in traj.times[:-1]:
        state = rk4_on_arrays(state, t, dt, rhs)
        want.append(state)
    assert traj.times.size == steps + 1
    got = np.concatenate([traj.positions, traj.velocities], axis=1)
    np.testing.assert_array_equal(_bits(got), _bits(np.array(want)))


# ---------------------------------------------------------------------------
# velocity field and the motion constraint
# ---------------------------------------------------------------------------


def test_velocity_field_momentum_action():
    g = Grid((2.0,) * 3, (9,) * 3, DIRICHLET_ZERO)
    x, y, z = g.meshgrid()
    p_vec = np.array([0.7, -0.2, 0.4])
    s = (p_vec[0] * x + p_vec[1] * y + p_vec[2] * z) * np.ones(g.shape)
    u = velocity_field(g, s, np.zeros((3,) + g.shape), charge=1.0, mass=2.0)
    for i in range(3):
        np.testing.assert_allclose(u[i], p_vec[i] / 2.0, atol=1e-12)


def test_velocity_field_pure_potential():
    g = Grid((1.0,) * 3, (8,) * 3, PERIODIC)
    a_pot = np.zeros((3,) + g.shape)
    a_pot[1] = 0.6
    u = velocity_field(g, np.zeros(g.shape), a_pot, 1.5, 3.0)
    np.testing.assert_allclose(u[1], -1.5 * 0.6 / 3.0, atol=1e-13)


def test_velocity_field_circulation():
    # curl-carrying potential: loop integral of U matches -(q/m) loop of A
    g = Grid((2.0,) * 3, (17,) * 3, DIRICHLET_ZERO)
    x, y, z = g.meshgrid()
    ones = np.ones(g.shape)
    a_pot = np.zeros((3,) + g.shape)
    a_pot[0] = -(y - 1.0) * ones
    a_pot[1] = (x - 1.0) * ones
    q, m = 1.2, 0.8
    u = velocity_field(g, np.zeros(g.shape), a_pot, q, m)
    # square loop through lattice points at fixed k, mid-plane
    idx = [4, 12]
    k = 8
    circ_u = 0.0
    circ_a = 0.0
    h = g.spacing[0]

    def seg(vals, comp, i0, i1, j, axis):
        # sum component along a lattice segment, trapezoid weights
        v = vals[comp]
        if axis == 0:
            line = v[i0 : i1 + 1, j, k] if i1 >= i0 else v[i1 : i0 + 1, j, k][::-1]
        else:
            line = v[j, i0 : i1 + 1, k] if i1 >= i0 else v[j, i1 : i0 + 1, k][::-1]
        sign = 1.0 if i1 >= i0 else -1.0
        return sign * h * (line.sum() - 0.5 * line[0] - 0.5 * line[-1])

    for vals, acc in ((u, "u"), (a_pot, "a")):
        total = (
            seg(vals, 0, idx[0], idx[1], idx[0], axis=0)
            + seg(vals, 1, idx[0], idx[1], idx[1], axis=1)
            + seg(vals, 0, idx[1], idx[0], idx[1], axis=0)
            + seg(vals, 1, idx[1], idx[0], idx[0], axis=1)
        )
        if acc == "u":
            circ_u = total
        else:
            circ_a = total
    assert abs(circ_u) > 1e-3
    assert circ_u == pytest.approx(-(q / m) * circ_a, rel=1e-10)


def test_hj_residual_free_particle():
    g = Grid((4.0,), (33,), DIRICHLET_ZERO)
    x = g.axis_coordinates(0)
    p, m = 0.8, CONSTS.mass
    dt = 0.01
    frames = [p * x - (p**2 / (2 * m)) * (i * dt) for i in range(5)]
    res = hj_residual(g, frames, np.zeros((3,) + g.shape), np.zeros(g.shape), CONSTS, dt=dt)
    assert res.shape == (5,) + g.shape
    np.testing.assert_allclose(res, 0.0, atol=1e-12)


def test_hj_residual_constant_potential():
    g = Grid((1.0,), (16,), PERIODIC)
    v0 = 0.6
    dt = 0.05
    frames = [np.full(g.shape, -v0 * i * dt) for i in range(5)]
    res = hj_residual(g, frames, np.zeros((3,) + g.shape), np.full(g.shape, v0), CONSTS, dt=dt)
    np.testing.assert_allclose(res, 0.0, atol=1e-13)


def test_hj_chain_matches_lorentz():
    # residual-zero action for a uniform force; drift trajectories follow it
    e0, q, m = 0.5, CONSTS.charge, CONSTS.mass
    L, n = 40.0, 41
    g = Grid((L,) * 3, (n,) * 3, DIRICHLET_ZERO)
    x, _, _ = g.meshgrid()
    ones = np.ones(g.shape)
    dt = 0.02
    frames = []
    p0 = 0.3
    for i in range(101):
        t = i * dt
        p_t = p0 + q * e0 * t
        # dS/dt = -p(t)^2/2m  ->  g(t) = -int p^2/2m dt
        g_t = -(p_t**3 - p0**3) / (6.0 * m * q * e0)
        frames.append(p_t * x * ones + g_t)
    v_pot = -q * e0 * x * ones  # V = q phi, phi = -e0 x
    res = hj_residual(g, frames, np.zeros((3,) + g.shape), v_pot, CONSTS, dt=dt)
    # residual limited by the time stencil on the cubic-in-time action
    assert np.max(np.abs(res[50])) < 5e-5

    # drift flow: dx/dt = (p0 + q e0 t)/m from the action gradient
    x0 = 10.0
    t_final = 2.0
    drift_x = x0 + (p0 * t_final + 0.5 * q * e0 * t_final**2) / m
    state = ChargedParticleState((x0, 20.0, 20.0), (p0 / m, 0.0, 0.0))
    traj = lorentz_evolve(state, (e0, 0.0, 0.0), _ZERO, q, m, t_final, 1e-3)
    assert traj.positions[-1, 0] == pytest.approx(drift_x, rel=1e-4)


def test_hj_residual_gauge_pure_configuration():
    # S = q*chi with A = grad(chi): the drift momentum vanishes identically
    g = Grid((2.0,) * 3, (17,) * 3, DIRICHLET_ZERO)
    x, y, z = g.meshgrid()
    chi = (0.4 * x + 0.1 * y - 0.3 * z) * np.ones(g.shape)  # affine: stencil-exact
    q = CONSTS.charge
    a_pot = np.stack([derive_along(chi, g.spacing[ax], ax, g.boundary) for ax in range(3)])
    res = hj_residual(g, [q * chi], a_pot, np.zeros(g.shape), CONSTS)
    np.testing.assert_allclose(res[0], 0.0, atol=1e-12)


def test_hj_residual_matches_the_direct_formula_on_a_plane_grid():
    # dS/dt + |grad S - qA|^2 / 2m + V, with a vector potential along the
    # axis the 2-d grid does not have, which still enters the kinetic term
    g = Grid((1.0, 1.3), (9, 11), PERIODIC)
    rng = np.random.default_rng(5)
    consts = PhysicalConstants(1.0, 0.7, -1.3)
    dt = 0.05
    frames = rng.normal(size=(4,) + g.shape)
    a_pot = rng.normal(size=(3,) + g.shape)
    v_pot = rng.normal(size=g.shape)
    ds_dt = np.gradient(frames, dt, axis=0, edge_order=2)
    want = []
    for i, s in enumerate(frames):
        kin = (consts.charge * a_pot[2]) ** 2
        for ax in range(2):
            kin = kin + (derive_along(s, g.spacing[ax], ax, g.boundary)
                         - consts.charge * a_pot[ax]) ** 2
        want.append(ds_dt[i] + kin / (2.0 * consts.mass) + v_pot)
    got = hj_residual(g, frames, a_pot, v_pot, consts, dt=dt)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda g, s: velocity_field(g, s, np.zeros((3,) + g.shape), 1.0, 1.0),
    lambda g, s: velocity_field(g, np.zeros(g.shape), np.stack([s, s, s]), 1.0, 1.0),
    lambda g, s: hj_residual(g, [s, s, s], np.zeros((3,) + g.shape), np.zeros(g.shape), CONSTS,
                             dt=0.1),
    lambda g, s: hj_residual(g, [np.zeros(g.shape)] * 3, np.zeros((3,) + g.shape), s, CONSTS,
                             dt=0.1),
], ids=["velocity_field_action", "velocity_field_vector_potential", "hj_residual_action",
        "hj_residual_potential"])
@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
def test_drift_functions_refuse_a_wrong_shape_or_a_non_finite_cell(call, bad):
    g = Grid((1.0,), (8,), PERIODIC)
    s = np.zeros(9) if bad == "shape" else np.zeros(g.shape)
    if bad != "shape":
        s[3] = np.nan if bad == "nan" else np.inf
    with pytest.raises(ClassicalError):
        call(g, s)


def test_hj_residual_needs_a_time_step_for_a_sequence():
    g = Grid((1.0,), (8,), PERIODIC)
    frames = np.zeros((3,) + g.shape)
    with pytest.raises(ValueError, match="dt > 0"):
        hj_residual(g, frames, np.zeros((3,) + g.shape), np.zeros(g.shape), CONSTS)
