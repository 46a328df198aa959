"""Acceptance checks: every guarantee the package makes, runnable end to end.

Each guarantee is computed by one function here that takes its physical
parameters and the names of its check records, sets up and makes its run,
and returns its data with typed records (name, value, tolerance, passed);
the classical-moment records instead each take the trajectories that
``classical`` integrates, which their callers run.  The scenario runners
call these functions with a document's parameters; the ``check_*``
criteria call them with fixed settings, lowered by a ``fast`` flag that
never touches the tolerances.  ``run_all`` executes the criteria for the
``verify_all`` scenario.  A scenario and a criterion that check the same
guarantee check it the same way.  A solver run that aborts fails its own
record rather than ending the battery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import classical, fieldio, functionals, grids, inference, pauli, variational
from .functionals import PhysicalConstants
from .grids import CENTRAL, DIRICHLET_ZERO, PERIODIC, SPECTRAL, Grid

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)
# density within a few edge cells above which a Stern-Gerlach run aborts
_BOUNDARY_MASS_TOL = 1e-8


@dataclass(frozen=True)
class CheckRecord:
    name: str
    value: float
    tolerance: str
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"{status}  {self.name}: value={self.value:.6g} tolerance={self.tolerance}{note}"


def check_leq(name: str, value: float, bound: float, note: str = "") -> CheckRecord:
    return CheckRecord(name, float(value), f"<= {bound:g}", bool(value <= bound), note)


def check_in(name: str, value: float, lo: float, hi: float) -> CheckRecord:
    return CheckRecord(name, float(value), f"in [{lo:g} .. {hi:g}]", bool(lo <= value <= hi))


def check_true(name: str, ok: bool, note: str = "") -> CheckRecord:
    return CheckRecord(name, 1.0 if ok else 0.0, ">= 1", bool(ok), note)


# ---------------------------------------------------------------------------
# criterion 1: box Fisher minimum
# ---------------------------------------------------------------------------


BOX_MINIMUM = ("box.objective_rel_error", "box.density_max_error", "box.converged")


def box_spectrum(length: float, cells: int, modes: int, grad_tol: float, multistarts: int,
                 seed: int, max_iterations: int = 20000, minimum=BOX_MINIMUM,
                 mode: str | None = "box.mode_{}_rel_error", floor: str | None = None):
    """Fisher minimum and stationary modes of a dirichlet box of ``length``.

    One block scan of ``modes`` modes; its first mode is the minimum, of
    density (2 / length) sin^2(pi x / length).  Records: the minimum's value,
    density and convergence (the three names ``minimum``), each mode k
    against (2 k pi / length)^2 (``mode`` formatted with k), and no mode
    below the ground value (``floor``); a None name leaves its records out.
    Returns (scan, x, exact density, records).
    """
    grid = Grid((length,), (cells,), DIRICHLET_ZERO)
    scan = variational.spectrum_scan(grid, modes, grad_tol, max_iterations, multistarts, seed)
    x = grid.axis_coordinates(0)
    exact = (2 / length) * np.sin(np.pi * x / length) ** 2
    targets = [(2 * k * np.pi / length) ** 2 for k in range(1, modes + 1)]
    records = []
    if minimum:
        first = scan[0]
        density_error = float(np.max(np.abs(first.density - exact))) / float(np.max(exact))
        records += [
            check_leq(minimum[0], abs(first.objective_value - targets[0]) / targets[0], 0.01),
            check_leq(minimum[1], density_error, 0.02),
            check_true(minimum[2], first.converged),
        ]
    if mode:
        records += [check_leq(mode.format(k), abs(r.objective_value - target) / target, 0.01)
                    for k, (r, target) in enumerate(zip(scan, targets), start=1)]
    if floor:
        lowest = min(r.objective_value for r in scan)
        records.append(check_true(floor, lowest >= 0.99 * targets[0]))
    return scan, x, exact, records


def check_box_minimum(fast: bool = False) -> list[CheckRecord]:
    started = time.perf_counter()
    *_, records = box_spectrum(1.0, 128 if fast else 512, 1, grad_tol=1e-6,
                               multistarts=4 if fast else 8, seed=20, mode=None)
    records.append(check_leq("box.runtime_seconds", time.perf_counter() - started, 30.0))
    *_, scan_records = box_spectrum(1.0, 256 if fast else 1024, 3, grad_tol=1e-5, multistarts=2,
                                    seed=21, minimum=None, mode="box.scan_mode_{}_rel_error",
                                    floor="box.no_value_below_ground")
    return records + scan_records


# ---------------------------------------------------------------------------
# criterion 2: functional equivalence
# ---------------------------------------------------------------------------


def equivalence_sets(cells: int, frames: int, sets: int, seed: int, consts,
                     max_mode: int = 1, amplitude: float = 0.15, worst: str | None = None,
                     joint: str | None = None, spinor: str | None = None):
    """The polar, joint and spinor routes of the Pauli quadratic form on
    ``sets`` random spectral configurations (seeds ``seed``, ``seed`` + 1,
    ...) of the periodic unit cube.  Records, each <= 1e-8: the worst
    polar-vs-joint residual (``joint``), the worst spinor-vs-polar residual
    (``spinor``) and the worst of both (``worst``), each left out when None.
    Returns (one report per set, records).
    """
    grid = Grid((1.0, 1.0, 1.0), (cells, cells, cells), PERIODIC)
    reports = []
    for index in range(sets):
        fields, dt = functionals.random_smooth_configuration(
            grid, frames=frames, consts=consts, seed=seed + index, max_mode=max_mode,
            amplitude=amplitude,
        )
        reports.append(functionals.equivalence_residual(
            grid, fields, consts, dt=dt, time_periodic=True, scheme=SPECTRAL
        ))
    worst_joint = max(r.rel_residual for r in reports)
    worst_spinor = max(r.spinor_rel_residual for r in reports)
    named = ((joint, worst_joint), (spinor, worst_spinor),
             (worst, max(worst_joint, worst_spinor)))
    return reports, [check_leq(name, value, 1e-8) for name, value in named if name]


def check_equivalence(fast: bool = False) -> list[CheckRecord]:
    started = time.perf_counter()
    sets = 5 if fast else 20
    _, records = equivalence_sets(16 if fast else 24, 8 if fast else 12, sets, 0, CONSTS,
                                  joint=f"equivalence.spectral_polar_vs_joint_{sets}_sets",
                                  spinor=f"equivalence.spectral_spinor_vs_polar_{sets}_sets")

    levels = ((16, 4), (32, 8), (64, 16)) if fast else ((32, 8), (64, 16), (128, 32))
    errors = []
    for cells_2d, fr in levels:
        g2 = Grid((1.0, 1.0), (cells_2d, cells_2d), PERIODIC)
        fields, dt = functionals.random_smooth_configuration(g2, frames=fr, consts=CONSTS, seed=7)
        rep = functionals.equivalence_residual(
            g2, fields, CONSTS, dt=dt, time_periodic=True, scheme=CENTRAL
        )
        records.append(
            check_leq(
                f"equivalence.stencil_polar_vs_joint_n{cells_2d}", rep.rel_residual, 1e-12
            )
        )
        errors.append(rep.spinor_abs_residual)
    records.append(
        check_in("equivalence.refinement_ratio_1", errors[0] / errors[1], 3.5, 4.5)
    )
    records.append(
        check_in("equivalence.refinement_ratio_2", errors[1] / errors[2], 3.5, 4.5)
    )
    records.append(
        check_leq("equivalence.runtime_seconds", time.perf_counter() - started, 60.0)
    )
    return records


# ---------------------------------------------------------------------------
# criterion 3: evidence structure
# ---------------------------------------------------------------------------


def _skewed_table(cells: int) -> tuple[Grid, inference.IProbTable]:
    # support must stay several cells clear of the window edge so the
    # telescoping identities behind the vanishing sums hold exactly
    length = float(cells - 1)
    grid = Grid((length,), (cells,), DIRICHLET_ZERO)
    table = inference.gaussian_mixture_table(
        grid,
        [(0.65, (0.42 * length,), 0.035 * length), (0.35, (0.58 * length,), 0.05 * length)],
    )
    return grid, table


def within_cauchy_schwarz(table: inference.IProbTable, shift, repetitions: int):
    """(term <= bound up to round-off, term, bound) for the quadratic evidence term."""
    term, bound = inference.cauchy_schwarz_bound(table, shift, repetitions=repetitions)
    return term <= bound * (1 + 1e-12), term, bound


def evidence_rows(cells: int, repetitions: int, shift, ratios=("evidence.cubic_ratio",),
                  bound: str | None = "evidence.cauchy_schwarz_bound"):
    """The small-shift expansion of the evidence of the skewed table's
    expected counts at ``shift`` (in lattice spacings), shift/2 and shift/4.

    Rows: (scale, evidence, first order, second-order square, second-order
    curvature, cubic residual |evidence + square / 2|).  Records: first order
    and curvature vanish at the full shift, each consecutive residual ratio
    lies in [6, 10] (one name in ``ratios`` per pair), and the quadratic term
    keeps its Cauchy-Schwarz bound at the full shift (``bound``, left out
    when None).  Returns (rows, records).
    """
    grid, table = _skewed_table(cells)
    data = inference.expected_counts(table, repetitions)
    shift = np.array([[float(s) * grid.spacing[0] for s in shift]])
    rows = []
    for scale in (1.0, 0.5, 0.25):
        ev = inference.evidence(table, data, shift * scale)
        terms = inference.evidence_taylor_terms(table, data, shift * scale)
        rows.append((scale, ev, terms.first_order, terms.second_order_square,
                     terms.second_order_curvature, abs(ev + terms.second_order_square / 2.0)))
    records = [
        check_leq("evidence.first_order_vanishes", abs(rows[0][2]), 1e-12 * repetitions),
        check_leq("evidence.curvature_vanishes", abs(rows[0][4]), 1e-12 * repetitions),
    ]
    records += [check_in(name, rows[k][5] / rows[k + 1][5], 6.0, 10.0)
                for k, name in enumerate(ratios)]
    if bound:
        holds, term, limit = within_cauchy_schwarz(table, shift, repetitions)
        records.append(check_true(bound, holds, note=f"term {term:.4g} <= bound {limit:.4g}"))
    return rows, records


def check_evidence_structure(fast: bool = False) -> list[CheckRecord]:
    # the narrower mixture component must stay >= ~5.5 cells wide, otherwise
    # the truncation edge is too steep for half-spacing quadratic shifts
    _, records = evidence_rows(160 if fast else 200, 10**6, (0.5, 0.0, 0.0), bound=None,
                               ratios=("evidence.cubic_ratio_1", "evidence.cubic_ratio_2"))
    rng = np.random.default_rng(99)
    pairs = 25 if fast else 100
    margin = 0.0
    ok = True
    g = Grid((32.0,), (32,), PERIODIC)
    for _ in range(pairs):
        raw = rng.random(g.shape + (2,)) + 1e-3
        t = inference.IProbTable(g, (raw / raw.sum())[None])
        eps = np.zeros(3)
        eps[0] = (rng.random() - 0.5) * g.spacing[0]
        holds, term, bound = within_cauchy_schwarz(t, [eps], 100)
        ok = ok and holds
        margin = max(margin, term - bound)
    records.append(
        check_true(f"evidence.cauchy_schwarz_{pairs}_random_pairs", ok,
                   note=f"max excess {margin:.3e}")
    )
    return records


# ---------------------------------------------------------------------------
# criterion 4: Gaussian Fisher oracle
# ---------------------------------------------------------------------------


def lattice_table(cells: int, sigma: float, slices: int = 1,
                  color_angle: float = 0.0) -> inference.IProbTable:
    """Gaussian click table on the unit-spacing lattice 0, 1, ..., cells - 1."""
    grid = Grid((float(cells - 1),), (cells,), DIRICHLET_ZERO)
    return inference.gaussian_mixture_table(grid, [(1.0, ((cells - 1) / 2,), sigma)], slices,
                                            color_angle)


def discrete_fisher_oracle(cells: int, sigma: float, slices: int, name: str):
    """The lattice table's discrete Fisher information against slices / sigma^2,
    within 2%.  Returns (value, oracle, records)."""
    value = inference.discrete_fisher(lattice_table(cells, sigma, slices))
    oracle = slices / sigma**2
    return value, oracle, [check_leq(name, abs(value - oracle) / oracle, 0.02)]


def check_gaussian_fisher(fast: bool = False) -> list[CheckRecord]:
    cells = 160 if fast else 256
    sigma = 10.0  # ten lattice spacings
    grid = Grid((float(cells),), (cells,), PERIODIC)
    x = grid.axis_coordinates(0)
    dens = np.exp(-((x - cells / 2) ** 2) / (2 * sigma**2))
    dens /= dens.sum() * grid.cell_volume
    continuum = functionals.fisher_continuum(grid, dens)
    oracle = 1.0 / sigma**2
    return [
        check_leq("fisher.continuum_rel_error", abs(continuum - oracle) / oracle, 0.02),
        *discrete_fisher_oracle(cells, sigma, 1, "fisher.discrete_rel_error")[2],
    ]


# ---------------------------------------------------------------------------
# criterion 5: solver unitarity and spectroscopy
# ---------------------------------------------------------------------------


def _zero_crossing_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """pi over the mean spacing of the zero crossings; NaN with fewer than
    two crossings."""
    crossings = []
    for i in range(1, len(values)):
        if np.sign(values[i]) != np.sign(values[i - 1]) and values[i] != 0:
            t0, t1 = times[i - 1], times[i]
            v0, v1 = values[i - 1], values[i]
            crossings.append(t0 - v0 * (t1 - t0) / (v1 - v0))
    if len(crossings) < 2:
        return float("nan")
    return float(np.pi / np.mean(np.diff(crossings)))


def norm_drift(name: str, traj: pauli.PauliTrajectory) -> CheckRecord:
    """The recorded norms stay 1 within 1e-10."""
    return check_leq(name, float(np.max(np.abs(traj.norms - 1.0))), 1e-10)


def _axial_solver(scheme: str, dt: float, consts, grid: Grid, bz) -> pauli.SolverConfig:
    """A run in no scalar potential and B = (0, 0, bz), for ``bz`` a number
    or a cell array."""
    b = np.zeros(grid.shape + (3,))
    b[..., 2] = bz
    return pauli.SolverConfig(scheme, dt, consts, grid, np.zeros(grid.shape), b)


def larmor_precession(bz: float, consts, steps_per_period: int, periods: float,
                      record_every: int, scheme: str = pauli.SPLIT_OPERATOR):
    """A spin-x state of moment ``consts.moment`` on 8 periodic cells of a
    uniform axial field precesses at omega = 2 moment bz / hbar; the zero
    crossings of <sigma_x> give omega within 1e-3.  Returns (trajectory, records)."""
    grid = Grid((1.0,), (8,), PERIODIC)
    omega = 2 * consts.moment * bz / consts.hbar
    period = 2 * np.pi / omega
    config = _axial_solver(scheme, period / steps_per_period, consts, grid, bz)
    vals = np.zeros(grid.shape + (2,), dtype=np.complex128)
    vals[:] = np.array([1.0, 1.0]) / np.sqrt(2.0 * grid.extents[0])
    traj = pauli.evolve(vals, config, periods * period, record_every=record_every)
    measured = _zero_crossing_frequency(traj.times, traj.spins[:, 0])
    note = "" if np.isfinite(measured) else "<sigma_x> crossed zero fewer than twice"
    return traj, [check_leq("pauli.precession_rel_error", abs(measured - omega) / omega, 1e-3,
                            note)]


def free_packet_spreading(extent: float, cells: int, sigma: float, t_final: float, steps: int,
                          consts, record_every: int, scheme: str = pauli.SPLIT_OPERATOR,
                          on_record=None):
    """A free packet of width ``sigma`` centred on a periodic line spreads to
    the variance sigma^2 + (hbar t / (2 m sigma))^2 at ``t_final``, within
    5e-3.  ``on_record`` goes to ``pauli.evolve``.  Returns (trajectory,
    records)."""
    grid = Grid((extent,), (cells,), PERIODIC)
    packet = pauli.gaussian_packet_state(grid, sigma, extent / 2, 0.0, (1.0, 0.0), consts)
    config = pauli.SolverConfig(scheme, t_final / steps, consts, grid, np.zeros(grid.shape),
                                np.zeros(grid.shape + (3,)))
    traj = pauli.evolve(packet, config, t_final, record_every=record_every, on_record=on_record)
    x = grid.axis_coordinates(0)
    dens = np.sum(np.abs(traj.final) ** 2, axis=-1)
    mean = float(np.sum(x * dens) * grid.cell_volume)
    width_sq = float(np.sum((x - mean) ** 2 * dens) * grid.cell_volume)
    expect = sigma**2 + (consts.hbar * t_final / (2 * consts.mass * sigma)) ** 2
    return traj, [check_leq("pauli.spreading_rel_error", abs(width_sq - expect) / expect, 5e-3)]


def uniform_field_drift(extent: float, cells: int, sigma: float, start: float, e0: float,
                        t_final: float, steps: int, consts, record_every: int,
                        scheme: str = pauli.SPLIT_OPERATOR,
                        name: str = "pauli.uniform_field_rel_error"):
    """A packet at rest at ``start`` in the uniform field ``e0`` follows
    start + q e0 t^2 / (2 m) at every record, within 1e-3 of its final
    displacement.  Returns (trajectory, records)."""
    grid = Grid((extent,), (cells,), PERIODIC)
    packet = pauli.gaussian_packet_state(grid, sigma, start, 0.0, (1.0, 0.0), consts)
    config = pauli.SolverConfig(scheme, t_final / steps, consts, grid,
                                -e0 * grid.axis_coordinates(0), np.zeros(grid.shape + (3,)))
    traj = pauli.evolve(packet, config, t_final, record_every=record_every)
    expect = start + 0.5 * (consts.charge * e0 / consts.mass) * traj.times**2
    error = float(np.max(np.abs(traj.positions[:, 0] - expect))) / abs(expect[-1] - start)
    return traj, [check_leq(name, error, 1e-3)]


def _failed_on_solver_error(run, name: str, bound: float) -> list[CheckRecord]:
    """The records of ``run()``; if the run raises ``pauli.SolverError``,
    its record ``name`` fails with value inf and the error as its note."""
    try:
        return run()
    except pauli.SolverError as err:
        return [check_leq(name, np.inf, bound, str(err))]


def check_pauli_solver(fast: bool = False) -> list[CheckRecord]:
    records = []
    steps = 1000
    cells = 64 if fast else 256
    g = Grid((20.0,), (cells,), PERIODIC)
    state = pauli.gaussian_packet_state(g, 1.0, 10.0, 0.4, (0.8, 0.6j), CONSTS)
    # a run that evolve aborts (norm off 1 +- 1e-10, a failed solve) fails its record
    for scheme in (pauli.SPLIT_OPERATOR, pauli.CRANK_NICOLSON):
        config = _axial_solver(scheme, 1e-3, PhysicalConstants(1.0, 1.0, 0.0, 0.5), g, 0.8)
        name = f"pauli.norm_drift_{scheme}_{steps}_steps"
        records += _failed_on_solver_error(
            lambda: [norm_drift(name, pauli.evolve(state, config, steps * config.dt,
                                                   record_every=100))], name, 1e-10)
    # precession frequency over ten periods, then the free-packet spreading law
    records += _failed_on_solver_error(
        lambda: larmor_precession(1.3, PhysicalConstants(1.0, 1.0, 0.0, 0.8),
                                  500 if fast else 1000, 10, 5)[1],
        "pauli.precession_rel_error", 1e-3)
    records += _failed_on_solver_error(
        lambda: free_packet_spreading(60.0, 512 if fast else 1024, 1.5, 6.0, 1000, CONSTS,
                                      250)[1],
        "pauli.spreading_rel_error", 5e-3)
    return records


# ---------------------------------------------------------------------------
# criterion 6: classical correspondence
# ---------------------------------------------------------------------------


def moment_norm_drift(name: str, torque: classical.MomentTrajectory) -> CheckRecord:
    """No step of the vector-torque run moves |m| off 1 by more than 1e-9
    before it is renormalized."""
    return check_leq(name, float(np.max(np.abs(torque.norm_errors))), 1e-9)


def torque_vs_canonical_angle(name: str, torque: classical.MomentTrajectory,
                              canonical: classical.CanonicalTrajectory) -> CheckRecord:
    """The vector-torque and conjugate-pair runs of one moment agree in
    angle within 1e-6 at every step."""
    sin_theta = np.sqrt(1 - canonical.z**2)
    m_c = np.stack([sin_theta * np.cos(canonical.phi), sin_theta * np.sin(canonical.phi),
                    canonical.z], axis=-1)
    dots = np.clip(np.sum(m_c * torque.moments, axis=-1), -1.0, 1.0)
    return check_leq(name, float(np.max(np.arccos(dots))), 1e-6)


def moment_energy_drift(name: str, canonical: classical.CanonicalTrajectory, b, gamma: float):
    """The conjugate-pair run in the static field ``b`` keeps its energy
    within 1e-8 relative.  Returns (energies, record)."""
    energies = classical.moment_hamiltonian(canonical.phi, canonical.z, b, gamma)
    drift = float(np.max(np.abs(energies - energies[0]))) / max(abs(energies[0]), 1e-30)
    return energies, check_leq(name, drift, 1e-8)


def check_classical_correspondence(fast: bool = False) -> list[CheckRecord]:
    # a spin precessing in a uniform axial field follows the classical moment,
    # integrated with the spin run's time step over its duration
    b = np.array([0.0, 0.0, 1.1])
    atom = PhysicalConstants(1.0, 1.0, 0.0, 0.6)
    traj, _ = larmor_precession(b[2], atom, 200 if fast else 400, 10, 1)
    moment = classical.torque_evolve(classical.MomentState((1.0, 0.0, 0.0)), b,
                                     2 * atom.moment / atom.hbar, traj.times[-1], traj.times[1])
    n = min(len(traj.times), len(moment.times))
    deviation = float(np.max(np.abs(traj.spins[:n] - moment.moments[:n])))
    records = [check_leq("classical.spin_vs_torque_max_dev", deviation, 1e-3)]

    b_tilt = np.array([0.4, -0.3, 0.85])
    gamma = 1.7
    dt_t = 2 * np.pi / (gamma * np.linalg.norm(b_tilt)) / (1000 if fast else 2000)
    start = (0.7, 0.35)
    torque = classical.torque_evolve(classical.MomentState.from_angles(*start), b_tilt, gamma,
                                     2.0, dt_t)
    canonical = classical.canonical_evolve(*start, b_tilt, gamma, 2.0, dt_t)
    records.append(torque_vs_canonical_angle("classical.torque_vs_canonical_angle", torque,
                                             canonical))
    torque = classical.torque_evolve(classical.MomentState((0.0, 1.0, 0.0)), b_tilt, gamma,
                                     10**4 * 1e-3, 1e-3)
    records.append(moment_norm_drift("classical.moment_norm_drift", torque))
    canonical = classical.canonical_evolve(0.1, 0.3, b_tilt, 1.1, 10.0, 1e-3)
    records.append(moment_energy_drift("classical.energy_rel_drift", canonical, b_tilt, 1.1)[1])
    return records


# ---------------------------------------------------------------------------
# criterion 7: Ehrenfest checks
# ---------------------------------------------------------------------------


def _stern_gerlach_start(extent: float, cells: int, sigma: float, center: float,
                         velocity: float, spin_weights: tuple[complex, complex], consts):
    grid = Grid((extent,), (cells,), PERIODIC)
    return grid, pauli.gaussian_packet_state(grid, sigma, center, velocity, spin_weights, consts)


def _edge_mass(w: np.ndarray, dens: np.ndarray) -> float:
    """The mass within max(3, cells // 64) cells of either end of a line."""
    edge = max(3, len(dens) // 64)
    # the edge sums stay apart: padding them into the block would regroup them
    return float(np.add.reduce(w[:edge] * dens[:edge]) + np.add.reduce(w[-edge:] * dens[-edge:]))


def stern_gerlach_start_edge_mass(extent: float, cells: int, sigma: float, center: float,
                                  velocity: float, spin_weights: tuple[complex, complex],
                                  consts) -> float:
    """The mass of ``stern_gerlach_law``'s initial packet within its guard's
    edge bands, as the guard reads it at t = 0; NaN where the packet
    underflows to zero on the grid and cannot be normalized."""
    with np.errstate(all="ignore"):
        grid, state = _stern_gerlach_start(extent, cells, sigma, center, velocity, spin_weights,
                                           consts)
        dens = np.square(np.abs(state[:, 0])) + np.square(np.abs(state[:, 1]))
        return _edge_mass(grids.quadrature_weights(grid), dens)


def stern_gerlach_law(extent: float, cells: int, sigma: float, center: float, velocity: float,
                      spin_weights: tuple[complex, complex], field_gradient: float,
                      field_offset: float, consts, dt: float,
                      t_final: float, record_every: int,
                      separation: str = "stern_gerlach.separation_rel_error",
                      zero: str = "stern_gerlach.zero_gradient_separation",
                      overlap: str | None = None):
    """A neutral packet of width ``sigma`` at ``center``, moving at
    ``velocity`` on a periodic line of ``cells`` cells and length ``extent``
    in the axial field B_z(z) = b0 + b z (``field_offset``, ``field_gradient``),
    split-operator steps of ``dt`` to ``t_final``.  The one-axis linear
    profile is the standard idealization (its divergence is not zero); each
    color is pushed by +-mu b / m, mu = ``consts.moment``, exactly.
    Every ``record_every`` steps the run records the color centers (NaN when
    empty), their separation (0 unless both are occupied) and the overlap of
    the normalized color densities.  Density above 1e-8 within
    max(3, cells // 64) cells of the edges raises ``pauli.SolverError``.

    With b = 0 the separation stays exactly 0 (``zero``).  Otherwise, at
    t_final and within 1%, two occupied colors separate by mu b t^2 / m
    (``separation``), and a lone occupied color moves from
    center + velocity t by +-mu b t^2 / (2 m), + for spin up
    (stern_gerlach.deflection_rel_error).  With ``overlap``, the color
    overlap never grows.  Returns (trajectory, rows (t, center_plus,
    center_minus, separation, overlap), records).
    """
    grid, state = _stern_gerlach_start(extent, cells, sigma, center, velocity, spin_weights,
                                       consts)
    z = grid.axis_coordinates(0)
    solver = _axial_solver(pauli.SPLIT_OPERATOR, dt, consts, grid,
                           field_offset + field_gradient * z)
    w = grids.quadrature_weights(grid)
    weights = np.stack((w * z, w * z, w))  # the two color centers and the overlap
    rows = []

    def record(psi, t, rho1, rho2, dens, color_masses):
        boundary_mass = _edge_mass(w, dens)
        if boundary_mass > _BOUNDARY_MASS_TOL:
            raise pauli.SolverError(
                f"packet reached the grid boundary at t={t:.6g} "
                f"(edge mass {boundary_mass:.3e} > {_BOUNDARY_MASS_TOL:.1e})"
            )
        rho, masses = (rho1, rho2), color_masses.tolist()
        occupied = [m > 1e-12 for m in masses]
        norm1, norm2 = (r / m if o else r for r, m, o in zip(rho, masses, occupied))
        *sums, shared = np.add.reduce(weights * (rho1, rho2, np.sqrt(norm1 * norm2)),
                                      axis=1).tolist()
        cs = [s / m if o else np.nan for s, m, o in zip(sums, masses, occupied)]
        rows.append((t, *cs, cs[0] - cs[1] if all(occupied) else 0.0, shared))

    traj = pauli.evolve(state, solver, t_final, record_every, on_record=record)
    _, *centers, separations, overlaps = np.array(rows).T
    if field_gradient == 0.0:
        records = [check_leq(zero, float(np.max(np.abs(separations))), 0.0)]
    else:
        law = (consts.moment * field_gradient / consts.mass) * traj.times**2
        occupied = [weight != 0 for weight in spin_weights]
        if all(occupied):
            error = abs(separations[-1] - law[-1]) / abs(law[-1])
            records = [check_leq(separation, error, 0.01)]
        else:
            color = occupied.index(True)
            drifted = center + velocity * traj.times[-1]
            moved = centers[color][-1] - drifted
            expect = (0.5 if color == 0 else -0.5) * law[-1]
            records = [check_leq("stern_gerlach.deflection_rel_error",
                                 abs(moved - expect) / abs(expect), 0.01)]
    if overlap:
        records.append(check_true(overlap, bool(np.all(np.diff(overlaps) <= 1e-12))))
    return traj, rows, records


def check_ehrenfest(fast: bool = False) -> list[CheckRecord]:
    drift = "ehrenfest.uniform_field_position_rel_error"
    records = _failed_on_solver_error(
        lambda: uniform_field_drift(80.0, 512 if fast else 1024, 2.0, 25.0, 0.2, 8.0,
                                    1000 if fast else 2000, CONSTS, 100, name=drift)[1],
        drift, 1e-3)

    def sg(gradient, offset):
        return dict(extent=60.0, cells=512 if fast else 768, sigma=2.0, center=30.0,
                    velocity=0.0, spin_weights=(1.0, 1.0), field_gradient=gradient,
                    field_offset=offset, consts=PhysicalConstants(1.0, 1.0, 0.0, 1.0),
                    dt=0.02 if fast else 0.01, t_final=10.0, record_every=50)

    separation, zero = "ehrenfest.separation_rel_error", "ehrenfest.zero_gradient_separation"
    records += _failed_on_solver_error(
        lambda: stern_gerlach_law(**sg(0.02, 0.5), separation=separation,
                                  overlap="ehrenfest.overlap_monotone_decay")[2],
        separation, 0.01)
    # with zero gradient and zero offset the two components evolve through
    # bit-identical factors, so the separation is exactly zero
    records += _failed_on_solver_error(lambda: stern_gerlach_law(**sg(0.0, 0.0), zero=zero)[2],
                                       zero, 0.0)
    return records


# ---------------------------------------------------------------------------
# criterion 8: gradient correctness
# ---------------------------------------------------------------------------


def _fd_rel_error(value, x: np.ndarray, grad: np.ndarray, idx: tuple, step: float) -> float:
    """Relative error of ``grad[idx]`` against the central difference of
    ``value`` at ``x`` with ``x[idx]`` moved by +-``step``."""
    up, down = x.copy(), x.copy()
    up[idx] += step
    down[idx] -= step
    fd = (value(up) - value(down)) / (2 * step)
    return abs(fd - grad[idx]) / max(abs(grad[idx]), 1e-9)


def check_gradients(fast: bool = False) -> list[CheckRecord]:
    rng = np.random.default_rng(31)
    components = 30 if fast else 100

    grid2 = Grid((1.0, 1.0), (16, 16), PERIODIC)
    x, y = grid2.meshgrid()
    ones = np.ones(grid2.shape)
    a_pot = np.stack([0.3 * np.sin(2 * np.pi * x + i) * np.cos(2 * np.pi * y - i)
                      for i in range(3)])
    p = 1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * ones
    p /= np.sum(p * grid2.cell_volume)
    fields = {
        "p": p * ones,
        "theta": (np.pi / 2 + 0.5 * np.cos(2 * np.pi * y + 0.4)) * ones,
        "s": 0.4 * np.sin(2 * np.pi * (x - y)) * ones,
        "phi": 0.5 * np.cos(2 * np.pi * x + 1.0) * ones,
    }
    objective = variational.TotalObjective(grid2, 0.4 * np.cos(2 * np.pi * (x + y)) * ones,
                                           a_pot, CONSTS)
    grads = objective.gradient(fields)
    names = list(fields)
    errors = []
    for _ in range(components):
        name = names[rng.integers(len(names))]
        arr = fields[name]
        idx = tuple(rng.integers(s) for s in arr.shape)
        errors.append(_fd_rel_error(lambda x: objective.value({**fields, name: x}), arr,
                                    grads[name], idx, 3e-6 * max(1.0, abs(arr[idx]))))
    # np.max keeps a NaN error, which the builtin max would drop
    records = [check_leq(f"gradients.total_fd_rel_error_{components}_components",
                         np.max(errors), 1e-5)]

    grid1 = Grid((1.0,), (48,), PERIODIC)
    p1 = 1.0 + 0.5 * rng.random(grid1.shape)
    p1 /= np.sum(p1 * grid1.cell_volume)
    grad = variational.fisher_gradient_density(p1, grid1)
    errors = [_fd_rel_error(lambda x: variational.fisher_value_density(x, grid1), p1, grad,
                            (int(rng.integers(grid1.shape[0])),), 3e-6)
              for _ in range(components // 2)]
    records.append(check_leq("gradients.fisher_fd_rel_error", np.max(errors), 1e-5))
    return records


# ---------------------------------------------------------------------------
# criterion 9: statistical sampling
# ---------------------------------------------------------------------------


def check_sampling(fast: bool = False) -> list[CheckRecord]:
    import os
    import tempfile

    cells = 96 if fast else 160
    table = lattice_table(cells, 10.0 * (cells - 1) / 159.0)
    n = 10**6
    data = inference.sample_dataset(table, n, seed=123)
    # the empirical table refuses slices that do not sum to 1, so the counts go first
    exact = bool(np.all(data.counts.reshape(data.slices, -1).sum(axis=1) == n))
    if exact:
        emp = inference.empirical_table(data)
        bound = 4.0 * np.sqrt(table.probs * (1 - table.probs) / n)
        excess = max(float(np.max(np.abs(emp.probs - table.probs) - bound)), 0.0)
        note = ""
    else:
        excess, note = np.inf, "no empirical table: the counts do not sum to the repetitions"
    records = [
        check_leq("sampling.four_sigma_excess", excess, 0.0, note),
        check_true("sampling.counts_sum_exact", exact),
    ]
    again = inference.sample_dataset(table, n, seed=123)
    records.append(
        check_true("sampling.rerun_identical", bool(np.array_equal(data.counts, again.counts)))
    )
    with tempfile.TemporaryDirectory() as tmp:
        path_a = os.path.join(tmp, "a.csv")
        path_b = os.path.join(tmp, "b.csv")
        fieldio.write_dataset_csv(path_a, data)
        fieldio.write_dataset_csv(path_b, again)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            identical = fa.read() == fb.read()
        round_trip = fieldio.read_dataset_csv(path_a)
    records.append(check_true("sampling.csv_bytes_identical", identical))
    records.append(
        check_true(
            "sampling.csv_round_trip_bit_exact",
            bool(
                np.array_equal(round_trip.counts, data.counts)
                and round_trip.repetitions == data.repetitions
                and round_trip.grid == data.grid
            ),
        )
    )
    return records


# ---------------------------------------------------------------------------
# the full battery
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    ("box_minimum", check_box_minimum),
    ("equivalence", check_equivalence),
    ("evidence_structure", check_evidence_structure),
    ("gaussian_fisher", check_gaussian_fisher),
    ("pauli_solver", check_pauli_solver),
    ("classical_correspondence", check_classical_correspondence),
    ("ehrenfest", check_ehrenfest),
    ("gradients", check_gradients),
    ("sampling", check_sampling),
)


def run_all(fast: bool = False) -> list[CheckRecord]:
    """The records of criteria 1-9, in order."""
    return [record for _group, fn in ALL_CHECKS for record in fn(fast=fast)]
