"""Acceptance checks: every guarantee the package makes, runnable end to end.

Each guarantee is computed by one function here that takes its physical
parameters and the names of its check records, and returns its data with
typed records (name, value, tolerance, passed).  The scenario runners call
these functions with a document's parameters; the ``check_*`` criteria call
them with fixed settings, lowered by a ``fast`` flag that never touches the
tolerances.  ``run_all`` executes the criteria and prints one line per
record for the command-line ``verify-all`` and the acceptance test suite,
so a scenario and a criterion that check the same guarantee check it the
same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import classical, fieldio, functionals, grids, inference, pauli, variational
from .functionals import EMConfiguration, natural_constants
from .grids import (
    CENTRAL,
    DIRICHLET_ZERO,
    PERIODIC,
    SPECTRAL,
    Grid,
    ScalarField,
    VectorField3,
)

CONSTS = natural_constants()


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


def check_in(name: str, value: float, lo: float, hi: float, note: str = "") -> CheckRecord:
    return CheckRecord(
        name, float(value), f"in [{lo:g} .. {hi:g}]", bool(lo <= value <= hi), note
    )


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

    One deflated scan of ``modes`` modes; its first mode is the minimum, of
    density (2 / length) sin^2(pi x / length).  Records: the minimum's value,
    density and convergence (the three names ``minimum``), each mode k
    against (2 k pi / length)^2 (``mode`` formatted with k), and no mode
    below the ground value (``floor``); a None name leaves its records out.
    Returns (scan, x, exact density, records).
    """
    grid = Grid((length,), (cells,), DIRICHLET_ZERO)
    scan = variational.spectrum_scan(variational.MinimizationProblem(
        grid=grid, grad_tol=grad_tol,
        max_iterations=max_iterations, multistarts=multistarts, seed=seed,
    ), modes)
    x = grid.axis_coordinates(0)
    exact = (2 / length) * np.sin(np.pi * x / length) ** 2
    targets = [(2 * k * np.pi / length) ** 2 for k in range(1, modes + 1)]
    records = []
    if minimum:
        first = scan[0]
        density_error = float(np.max(np.abs(first.fields["p"] - exact))) / float(np.max(exact))
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
                     polar: str | None = None, spinor: str | None = None):
    """The polar and spinor routes of the Pauli quadratic form on ``sets``
    random spectral configurations (seeds ``seed``, ``seed`` + 1, ...) of the
    periodic unit cube.  Records, each <= 1e-8: the worst polar-vs-total
    residual (``polar``), the worst spinor-vs-polar residual (``spinor``) and
    the worst of both (``worst``), each left out when None.  Returns (one
    report per set, records).
    """
    grid = Grid((1.0, 1.0, 1.0), (cells, cells, cells), PERIODIC)
    reports = []
    for index in range(sets):
        polar_frames, em_frames, dt = functionals.random_smooth_configuration(
            grid, frames=frames, consts=consts, seed=seed + index, max_mode=max_mode,
            amplitude=amplitude,
        )
        reports.append(functionals.equivalence_residual(
            polar_frames, em_frames, consts, dt=dt, time_periodic=True, scheme=SPECTRAL
        ))
    worst_polar = max(r.rel_residual for r in reports)
    worst_spinor = max(r.spinor_rel_residual for r in reports)
    named = ((polar, worst_polar), (spinor, worst_spinor),
             (worst, max(worst_polar, worst_spinor)))
    return reports, [check_leq(name, value, 1e-8) for name, value in named if name]


def check_equivalence(fast: bool = False) -> list[CheckRecord]:
    started = time.perf_counter()
    sets = 5 if fast else 20
    _, records = equivalence_sets(16 if fast else 24, 8 if fast else 12, sets, 0, CONSTS,
                                  polar=f"equivalence.spectral_polar_vs_total_{sets}_sets",
                                  spinor=f"equivalence.spectral_spinor_vs_polar_{sets}_sets")

    levels = ((16, 4), (32, 8), (64, 16)) if fast else ((32, 8), (64, 16), (128, 32))
    errors = []
    for cells_2d, fr in levels:
        g2 = Grid((1.0, 1.0), (cells_2d, cells_2d), PERIODIC)
        polar, em, dt = functionals.random_smooth_configuration(
            g2, frames=fr, consts=CONSTS, seed=7
        )
        rep = functionals.equivalence_residual(
            polar, em, CONSTS, dt=dt, time_periodic=True, scheme=CENTRAL
        )
        records.append(
            check_leq(
                f"equivalence.stencil_polar_vs_total_n{cells_2d}", rep.rel_residual, 1e-12
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
    return inference.gaussian_table(grid, sigma, slices=slices, color_angle=color_angle)


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
    continuum = functionals.fisher_continuum(ScalarField(grid, dens))
    oracle = 1.0 / sigma**2
    return [
        check_leq("fisher.continuum_rel_error", abs(continuum - oracle) / oracle, 0.02),
        *discrete_fisher_oracle(cells, sigma, 1, "fisher.discrete_rel_error")[2],
    ]


# ---------------------------------------------------------------------------
# criterion 5: solver unitarity and spectroscopy
# ---------------------------------------------------------------------------


def _uniform_b_em(grid: Grid, bz: float) -> EMConfiguration:
    vals = np.zeros(grid.shape + (3,))
    vals[..., 2] = bz
    return EMConfiguration(
        grid, ScalarField.full(grid, 0.0), VectorField3.zero(grid),
        b=VectorField3(grid, vals),
    )


def _zero_crossing_frequency(times: np.ndarray, values: np.ndarray) -> float:
    crossings = []
    for i in range(1, len(values)):
        if np.sign(values[i]) != np.sign(values[i - 1]) and values[i] != 0:
            t0, t1 = times[i - 1], times[i]
            v0, v1 = values[i - 1], values[i]
            crossings.append(t0 - v0 * (t1 - t0) / (v1 - v0))
    return float(np.pi / np.mean(np.diff(crossings)))


def norm_drift(name: str, traj: pauli.PauliTrajectory) -> CheckRecord:
    """The recorded norms stay 1 within 1e-10."""
    return check_leq(name, float(np.max(np.abs(traj.norms - 1.0))), 1e-10)


def larmor_precession(gamma_energy: float, bz: float, consts, steps_per_period: int,
                      periods: float, record_every: int, scheme: str = pauli.SPLIT_OPERATOR,
                      name: str = "pauli.precession_rel_error"):
    """A neutral spin-x state on 8 periodic cells of a uniform axial field
    precesses at omega = 2 gamma_energy bz / hbar; the zero crossings of
    <sigma_x> give omega within 1e-3.  Returns (trajectory, records)."""
    grid = Grid((1.0,), (8,), PERIODIC)
    omega = 2 * gamma_energy * bz / consts.hbar
    period = 2 * np.pi / omega
    config = pauli.SolverConfig(scheme, period / steps_per_period, consts,
                                _uniform_b_em(grid, bz), neutral=True, gamma_energy=gamma_energy)
    vals = np.zeros(grid.shape + (2,), dtype=np.complex128)
    vals[:] = np.array([1.0, 1.0]) / np.sqrt(2.0 * grid.extents[0])
    traj = pauli.evolve(pauli.PauliState(grids.SpinorField(grid, vals)), config,
                        periods * period, record_every=record_every)
    measured = _zero_crossing_frequency(traj.times, traj.spins[:, 0])
    return traj, [check_leq(name, abs(measured - omega) / omega, 1e-3)]


def free_packet_spreading(extent: float, cells: int, sigma: float, t_final: float, steps: int,
                          consts, record_every: int, scheme: str = pauli.SPLIT_OPERATOR,
                          name: str = "pauli.spreading_rel_error"):
    """A free packet of width ``sigma`` centred on a periodic line spreads to
    the variance sigma^2 + (hbar t / (2 m sigma))^2 at ``t_final``, within
    5e-3.  Returns (trajectory with snapshots, records)."""
    grid = Grid((extent,), (cells,), PERIODIC)
    packet = pauli.gaussian_packet_state(grid, sigma, extent / 2, 0.0, (1.0, 0.0), consts)
    config = pauli.SolverConfig(scheme, t_final / steps, consts, EMConfiguration.zero(grid))
    traj = pauli.evolve(packet, config, t_final, record_every=record_every, keep_snapshots=True)
    x = grid.axis_coordinates(0)
    dens = np.sum(np.abs(traj.snapshots[-1]) ** 2, axis=-1)
    mean = float(np.sum(x * dens) * grid.cell_volume)
    width_sq = float(np.sum((x - mean) ** 2 * dens) * grid.cell_volume)
    expect = sigma**2 + (consts.hbar * t_final / (2 * consts.mass * sigma)) ** 2
    return traj, [check_leq(name, abs(width_sq - expect) / expect, 5e-3)]


def uniform_field_drift(extent: float, cells: int, sigma: float, start: float, e0: float,
                        t_final: float, steps: int, consts, record_every: int,
                        scheme: str = pauli.SPLIT_OPERATOR,
                        name: str = "pauli.uniform_field_rel_error"):
    """A packet at rest at ``start`` in the uniform field ``e0`` follows
    start + q e0 t^2 / (2 m) at every record, within 1e-3 of its final
    displacement.  Returns (trajectory, records)."""
    grid = Grid((extent,), (cells,), PERIODIC)
    em = EMConfiguration(grid, ScalarField(grid, -e0 * grid.axis_coordinates(0)),
                         VectorField3.zero(grid))
    packet = pauli.gaussian_packet_state(grid, sigma, start, 0.0, (1.0, 0.0), consts)
    config = pauli.SolverConfig(scheme, t_final / steps, consts, em)
    traj = pauli.evolve(packet, config, t_final, record_every=record_every)
    expect = start + 0.5 * (consts.charge * e0 / consts.mass) * traj.times**2
    error = float(np.max(np.abs(traj.positions[:, 0] - expect))) / (expect[-1] - start)
    return traj, [check_leq(name, error, 1e-3)]


def check_pauli_solver(fast: bool = False) -> list[CheckRecord]:
    records = []
    steps = 1000
    cells = 64 if fast else 256
    g = Grid((20.0,), (cells,), PERIODIC)
    state = pauli.gaussian_packet_state(g, 1.0, 10.0, 0.4, (0.8, 0.6j), CONSTS)
    for scheme in (pauli.SPLIT_OPERATOR, pauli.CRANK_NICOLSON):
        config = pauli.SolverConfig(
            scheme, 1e-3, CONSTS, _uniform_b_em(g, 0.8), neutral=True, gamma_energy=0.5
        )
        traj = pauli.evolve(state, config, steps * config.dt, record_every=100)
        records.append(norm_drift(f"pauli.norm_drift_{scheme}_{steps}_steps", traj))
    # precession frequency over ten periods, then the free-packet spreading law
    records += larmor_precession(0.8, 1.3, CONSTS, 500 if fast else 1000, 10, 5)[1]
    records += free_packet_spreading(60.0, 512 if fast else 1024, 1.5, 6.0, 1000, CONSTS, 250)[1]
    return records


# ---------------------------------------------------------------------------
# criterion 6: classical correspondence
# ---------------------------------------------------------------------------


def moment_checks(b, gamma: float, t_final: float, dt: float, moment=None, angles=None,
                  norm: str | None = "moment.norm_drift",
                  angle: str | None = "moment.torque_vs_canonical_angle",
                  energy: str | None = "moment.energy_rel_drift"):
    """A classical moment in the static field ``b``: the vector-torque run
    from the ``moment`` state and the conjugate-pair run from ``angles`` =
    (phi0, z0), either left out when None.

    Records, for the runs made: the torque run keeps unit norm within 1e-9
    (``norm``), the two runs agree in angle within 1e-6 (``angle``), and the
    conjugate-pair run keeps its energy within 1e-8 relative (``energy``);
    a None name leaves its record out.  Returns (torque run, conjugate-pair
    run, its energies, records), None for what was not computed.
    """
    b = np.asarray(b, dtype=float)
    torque = canonical = energies = None
    records = []
    if moment is not None:
        torque = classical.torque_evolve(moment, b, gamma, t_final, dt)
    if angles is not None:
        canonical = classical.canonical_evolve(*angles, b, gamma, t_final, dt)
    if torque is not None and norm:
        drift = float(np.max(np.abs(np.linalg.norm(torque.moments, axis=1) - 1)))
        records.append(check_leq(norm, drift, 1e-9))
    if torque is not None and canonical is not None and angle:
        sin_theta = np.sqrt(1 - canonical.z**2)
        m_c = np.stack([sin_theta * np.cos(canonical.phi), sin_theta * np.sin(canonical.phi),
                        canonical.z], axis=-1)
        dots = np.clip(np.sum(m_c * torque.moments, axis=-1), -1.0, 1.0)
        records.append(check_leq(angle, float(np.max(np.arccos(dots))), 1e-6))
    if canonical is not None and energy:
        energies = np.array([classical.moment_hamiltonian(phi, z, b, gamma)
                             for phi, z in zip(canonical.phi, canonical.z)])
        drift = float(np.max(np.abs(energies - energies[0]))) / max(abs(energies[0]), 1e-30)
        records.append(check_leq(energy, drift, 1e-8))
    return torque, canonical, energies, records


def check_classical_correspondence(fast: bool = False) -> list[CheckRecord]:
    # a spin precessing in a uniform axial field follows the classical moment,
    # integrated with the spin run's time step over its duration
    b = np.array([0.0, 0.0, 1.1])
    gamma_e = 0.6
    traj, _ = larmor_precession(gamma_e, b[2], CONSTS, 200 if fast else 400, 10, 1)
    moment = classical.torque_evolve(classical.MomentState((1.0, 0.0, 0.0)), b,
                                     2 * gamma_e / CONSTS.hbar, traj.times[-1], traj.times[1])
    n = min(len(traj.times), len(moment.times))
    deviation = float(np.max(np.abs(traj.spins[:n] - moment.moments[:n])))
    records = [check_leq("classical.spin_vs_torque_max_dev", deviation, 1e-3)]

    b_tilt = np.array([0.4, -0.3, 0.85])
    gamma = 1.7
    dt_t = 2 * np.pi / (gamma * np.linalg.norm(b_tilt)) / (1000 if fast else 2000)
    start = (0.7, 0.35)
    records += moment_checks(b_tilt, gamma, 2.0, dt_t, classical.MomentState.from_angles(*start),
                             start, norm=None, energy=None,
                             angle="classical.torque_vs_canonical_angle")[3]
    records += moment_checks(b_tilt, gamma, 10**4 * 1e-3, 1e-3,
                             classical.MomentState((0.0, 1.0, 0.0)),
                             norm="classical.moment_norm_drift")[3]
    records += moment_checks(b_tilt, 1.1, 10.0, 1e-3, angles=(0.1, 0.3),
                             energy="classical.energy_rel_drift")[3]
    return records


# ---------------------------------------------------------------------------
# criterion 7: Ehrenfest checks
# ---------------------------------------------------------------------------


def stern_gerlach_law(config: pauli.SternGerlachConfig,
                      separation: str = "stern_gerlach.separation_rel_error",
                      deflection: str = "stern_gerlach.deflection_rel_error",
                      zero: str = "stern_gerlach.zero_gradient_separation",
                      overlap: str | None = None):
    """A neutral packet in the axial field b0 + b z, where each color is
    pushed by +-gamma b / m and the closed-form center law is exact.

    With b = 0 the separation stays exactly 0 (``zero``).  Otherwise, at
    t_final and within 1%, two occupied colors separate by gamma b t^2 / m
    (``separation``), and a lone occupied color moves from
    center + velocity t by +-gamma b t^2 / (2 m), + for spin up
    (``deflection``).  With ``overlap``, the color overlap never grows.  A
    packet that reaches the grid edge raises ``pauli.SolverError``.
    Returns (result, records).
    """
    result = pauli.stern_gerlach(config)
    if config.field_gradient == 0.0:
        records = [check_leq(zero, float(np.max(np.abs(result.separation))), 0.0)]
    else:
        law = (config.gamma_energy * config.field_gradient / config.consts.mass) * result.times**2
        occupied = [w != 0 for w in config.spin_weights]
        if all(occupied):
            error = abs(result.separation[-1] - law[-1]) / abs(law[-1])
            records = [check_leq(separation, error, 0.01)]
        else:
            color = occupied.index(True)
            drifted = config.center + config.velocity * result.times[-1]
            moved = result.centers[-1, color] - drifted
            expect = (0.5 if color == 0 else -0.5) * law[-1]
            records = [check_leq(deflection, abs(moved - expect) / abs(expect), 0.01)]
    if overlap:
        records.append(check_true(overlap, bool(np.all(np.diff(result.overlap) <= 1e-12))))
    return result, records


def check_ehrenfest(fast: bool = False) -> list[CheckRecord]:
    _, records = uniform_field_drift(80.0, 512 if fast else 1024, 2.0, 25.0, 0.2, 8.0,
                                     1000 if fast else 2000, CONSTS, 100,
                                     name="ehrenfest.uniform_field_position_rel_error")

    def sg(gradient, offset):
        return pauli.SternGerlachConfig(
            extent=60.0, cells=512 if fast else 768, sigma=2.0, center=30.0, velocity=0.0,
            spin_weights=(1.0, 1.0), field_gradient=gradient, field_offset=offset,
            consts=CONSTS, gamma_energy=1.0, dt=0.02 if fast else 0.01, t_final=10.0,
            record_every=50,
        )

    records += stern_gerlach_law(sg(0.02, 0.5), separation="ehrenfest.separation_rel_error",
                                 overlap="ehrenfest.overlap_monotone_decay")[1]
    # with zero gradient and zero offset the two components evolve through
    # bit-identical factors, so the separation is exactly zero
    records += stern_gerlach_law(sg(0.0, 0.0), zero="ehrenfest.zero_gradient_separation")[1]
    return records


# ---------------------------------------------------------------------------
# criterion 8: gradient correctness
# ---------------------------------------------------------------------------


def check_gradients(fast: bool = False) -> list[CheckRecord]:
    rng = np.random.default_rng(31)
    components = 30 if fast else 100
    worst = 0.0

    grid2 = Grid((1.0, 1.0), (16, 16), PERIODIC)
    x, y = grid2.meshgrid()
    ones = np.ones(grid2.shape)
    a_vals = np.zeros(grid2.shape + (3,))
    for i in range(3):
        a_vals[..., i] = 0.3 * np.sin(2 * np.pi * x + i) * np.cos(2 * np.pi * y - i)
    em = EMConfiguration(
        grid2,
        ScalarField(grid2, 0.4 * np.cos(2 * np.pi * (x + y)) * ones),
        VectorField3(grid2, a_vals),
    )
    p = 1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * ones
    p /= np.sum(p * grid2.cell_volume)
    fields = {
        "p": p * ones,
        "theta": (np.pi / 2 + 0.5 * np.cos(2 * np.pi * y + 0.4)) * ones,
        "s": 0.4 * np.sin(2 * np.pi * (x - y)) * ones,
        "phi": 0.5 * np.cos(2 * np.pi * x + 1.0) * ones,
    }
    objective = variational.TotalObjective(grid2, em, CONSTS)
    grads = objective.gradient(fields)
    names = list(fields)
    for _ in range(components):
        name = names[rng.integers(len(names))]
        arr = fields[name]
        idx = tuple(rng.integers(s) for s in arr.shape)
        step = 3e-6 * max(1.0, abs(arr[idx]))
        up = dict(fields)
        arr_up = arr.copy()
        arr_up[idx] += step
        up[name] = arr_up
        down = dict(fields)
        arr_dn = arr.copy()
        arr_dn[idx] -= step
        down[name] = arr_dn
        fd = (objective.value(up) - objective.value(down)) / (2 * step)
        denom = max(abs(grads[name][idx]), 1e-9)
        worst = max(worst, abs(fd - grads[name][idx]) / denom)
    records = [
        check_leq(
            f"gradients.total_fd_rel_error_{components}_components", worst, 1e-5
        )
    ]

    grid1 = Grid((1.0,), (48,), PERIODIC)
    p1 = 1.0 + 0.5 * rng.random(grid1.shape)
    p1 /= np.sum(p1 * grid1.cell_volume)
    grad = variational.fisher_gradient_density(p1, grid1)
    worst_f = 0.0
    for _ in range(components // 2):
        idx = (int(rng.integers(grid1.shape[0])),)
        step = 3e-6
        up = p1.copy()
        up[idx] += step
        down = p1.copy()
        down[idx] -= step
        fd = (variational.fisher_value_density(up, grid1)
              - variational.fisher_value_density(down, grid1)) / (2 * step)
        worst_f = max(worst_f, abs(fd - grad[idx]) / max(abs(grad[idx]), 1e-9))
    records.append(check_leq("gradients.fisher_fd_rel_error", worst_f, 1e-5))
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
    emp = inference.empirical_table(data)
    bound = 4.0 * np.sqrt(table.probs * (1 - table.probs) / n)
    excess = float(np.max(np.abs(emp.probs - table.probs) - bound))
    records = [
        check_leq("sampling.four_sigma_excess", max(excess, 0.0), 0.0),
        check_true(
            "sampling.counts_sum_exact",
            bool(np.all(data.counts.reshape(data.slices, -1).sum(axis=1) == n)),
        ),
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


def run_all(fast: bool = False, echo=print) -> list[CheckRecord]:
    """Run criteria 1-9, one pass/fail line per record."""
    records: list[CheckRecord] = []
    for group, fn in ALL_CHECKS:
        started = time.perf_counter()
        group_records = fn(fast=fast)
        elapsed = time.perf_counter() - started
        if echo:
            echo(f"-- {group} ({elapsed:.1f} s)")
            for record in group_records:
                echo("   " + record.line())
        records.extend(group_records)
    return records
