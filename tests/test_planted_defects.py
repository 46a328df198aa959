"""Planted defects: every check record must be able to fail.

Each row replaces one function with a broken copy, runs its own criterion
at fast settings, and names exactly the records that fail.  A record that no
row fails, and that is not on the allow-list with its reason, fails the
table: such a record would read as a pass whatever the code does.
"""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.fft

from paulilab import classical, fieldio, functionals, inference, pauli, variational, verification
from paulilab.grids import CENTRAL, PERIODIC

# the criteria by their verification.ALL_CHECKS names, each run at fast settings
CRITERIA = dict(verification.ALL_CHECKS)

# criterion 1
BOX_OBJECTIVE = "box.objective_rel_error"
BOX_DENSITY = "box.density_max_error"
BOX_CONVERGED = "box.converged"
BOX_MODES = {"box.mode_2_rel_error", "box.mode_3_rel_error"}

# criterion 2
SPECTRAL_JOINT = "equivalence.spectral_polar_vs_joint_5_sets"
SPECTRAL_SPINOR = "equivalence.spectral_spinor_vs_polar_5_sets"
STENCIL_JOINT = {f"equivalence.stencil_polar_vs_joint_n{n}" for n in (16, 32, 64)}
RATIOS = {"equivalence.refinement_ratio_1", "equivalence.refinement_ratio_2"}
EVERY_ROUTE = {SPECTRAL_JOINT, SPECTRAL_SPINOR} | STENCIL_JOINT | RATIOS

# criterion 3
FIRST_ORDER = "evidence.first_order_vanishes"
CURVATURE = "evidence.curvature_vanishes"
CUBIC_RATIOS = {"evidence.cubic_ratio_1", "evidence.cubic_ratio_2"}
CAUCHY_SCHWARZ = "evidence.cauchy_schwarz_25_random_pairs"

# criterion 4
CONTINUUM_FISHER = "fisher.continuum_rel_error"
DISCRETE_FISHER = "fisher.discrete_rel_error"

# criterion 5
SPREADING = "pauli.spreading_rel_error"
PRECESSION = "pauli.precession_rel_error"

# criterion 6
SPIN_VS_TORQUE = "classical.spin_vs_torque_max_dev"
MOMENT_PATHS = {SPIN_VS_TORQUE, "moment.torque_vs_canonical_angle"}
ENERGY = "moment.energy_rel_drift"
MOMENT_NORM = "moment.norm_drift"

SPLIT_NORM = "pauli.norm_drift_split_operator_1000_steps"
CAYLEY_NORM = "pauli.norm_drift_crank_nicolson_1000_steps"

# criterion 7
UNIFORM_FIELD = "ehrenfest.uniform_field_position_rel_error"
SEPARATION = "ehrenfest.separation_rel_error"
OVERLAP = "ehrenfest.overlap_monotone_decay"
ZERO_GRADIENT = "ehrenfest.zero_gradient_separation"

# criterion 8
TOTAL_GRADIENT = "gradients.total_fd_rel_error_30_components"
FISHER_GRADIENT = "gradients.fisher_fd_rel_error"

# criterion 9
FOUR_SIGMA = "sampling.four_sigma_excess"
SLICE_SUMS = "sample.slice_sum_deviation"
RERUN = "sampling.rerun_identical"
CSV_BYTES = "sampling.csv_bytes_identical"
ROUND_TRIP = "sample.round_trip_bit_exact"

# records no planted defect in the physics can fail, with the reason
ALLOWED = {
    "box.runtime_seconds": "a wall-clock gate, not a property of the numbers",
    "equivalence.runtime_seconds": "a wall-clock gate, not a property of the numbers",
}


def _scaled(factor):
    def wrap(fn):
        def planted(*args):
            return factor * fn(*args)
        return planted
    return wrap


def _scaled_property(factor):
    def wrap(prop):
        return property(lambda self: factor * prop.fget(self))
    return wrap


def _current_modes_only(ritz_basis):
    # Rayleigh-Ritz over the current modes alone, without the preconditioned
    # gradients and the previous step: the first candidate does not move
    def planted(blocks, cell_volume):
        return ritz_basis(blocks[:1], cell_volume)
    return planted


def _walls_free(interior_mask):
    # every cell free: the dirichlet walls are not held at zero
    def planted(grid):
        return np.ones(grid.shape, dtype=bool)
    return planted


def _s_part_scaled(gradient):
    # the action's part of the total objective's gradient, 0.1% off
    def planted(self, f):
        grads = gradient(self, f)
        return {**grads, "s": 1.001 * grads["s"]}
    return planted


def _forward_difference(displacement_gradient):
    # a one-sided difference in the source position in place of the central
    # stencil; the skewed table's support sits well inside its window
    def planted(values, grid, axis):
        return -(np.roll(values, -1, axis=axis) - values) / grid.spacing[axis]
    return planted


def _even_bias(expected_counts):
    # the counts follow the table times 1 + 0.1 u^2, u running from -1 to 1
    # across the (1-D) lattice, renormalized per slice; a linear tilt would
    # leave the curvature sum at zero
    def planted(table, repetitions):
        u = np.linspace(-1.0, 1.0, table.grid.cells[0])
        probs = table.probs * (1.0 + 0.1 * u**2)[:, None]
        probs /= probs.sum(axis=(1, 2), keepdims=True)
        return expected_counts(inference.IProbTable(table.grid, probs), repetitions)
    return planted


def _without_theta(fisher_density):
    # the polar Fisher density loses |grad theta|^2 P; the joint route,
    # which passes no angle gradients, keeps its own
    def planted(p_stack, grad_p, grad_theta=()):
        return fisher_density(p_stack, grad_p)
    return planted


def _edit_terms(edit):
    def wrap(polar_terms):
        def planted(st, consts):
            terms = polar_terms(st, consts)
            edit(terms, st, consts)
            return terms
        return planted
    return wrap


def _flip_kinetic_cross(terms, st, consts):
    # -2a cos(theta) grad phi.(grad S - qA) / 2m becomes +
    cross = sum(st.grad_phi[ax] * (st.grad_s[ax] - consts.charge * st.a_pot[ax])
                for ax in range(st.grid.dim))
    terms["kinetic"] = terms["kinetic"] + 2.0 * consts.a * np.cos(st.theta) * cross / consts.mass


def _flip_time_cross(terms, st, consts):
    # -a cos(theta) dphi/dt becomes +
    terms["time"] = terms["time"] + 2.0 * consts.a * np.cos(st.theta) * st.dphi_dt


def _flip_moment_coupling(terms, st, consts):
    terms["moment_coupling"] = -terms["moment_coupling"]


def _swap_colors(spinor_from_polar):
    def planted(*args):
        return spinor_from_polar(*args)[::-1]
    return planted


def _first_order_central(derive_along):
    # a one-sided difference in place of the central stencil
    def planted(values, h, axis, boundary, scheme=CENTRAL):
        if scheme == CENTRAL and boundary == PERIODIC:
            return (np.roll(values, -1, axis=axis) - values) / h
        return derive_along(values, h, axis, boundary, scheme)
    return planted


def _kinetic_off(dt_factor, coupling_factor=1.0):
    # the split operator's kinetic factor built at dt_factor * dt, and its
    # cell factors at coupling_factor times the spin coupling
    def wrap(init):
        def planted(self, config, colors):
            init(self, dataclasses.replace(config, dt=dt_factor * config.dt), colors)
            kinetic = self._kinetic_factor
            consts = dataclasses.replace(config.consts,
                                         moment=coupling_factor * config.consts.spin_coupling)
            init(self, dataclasses.replace(config, consts=consts), colors)
            self._kinetic_factor = kinetic
        return planted
    return wrap


def _second_color_takes_u11(cell_factor):
    # the one multiply of an axial field's two live colors takes u11 for both
    def planted(self, *args):
        cell = cell_factor(self, *args)
        if self._diagonal:
            cell[1:] = cell[0]
        return cell
    return planted


def _backward_euler(advance):
    # (I + zH) psi' = psi, the solve alone: first order and not unitary
    def planted(self, psi, n):
        flat = psi.reshape(-1)
        for _ in range(n):
            flat[:] = self._lu.solve(flat)
        return psi
    return planted


def _second_color_factor_first(kinetic):
    # with two live colors, the first takes the kinetic factor as Phi * K and
    # the second as K * Phi, which numpy's SIMD complex multiply rounds
    # differently (the Stern-Gerlach runs are 1-D); like the kinetic step it
    # replaces, it steps the block it is given in place
    def planted(self, psi):
        if len(psi) == 1:
            return kinetic(self, psi)
        spectrum, factor = scipy.fft.fft(psi, axis=1), self._kinetic_factor
        np.multiply(spectrum[0], factor[0], out=spectrum[0])
        np.multiply(factor[1], spectrum[1], out=spectrum[1])
        psi[...] = scipy.fft.ifft(spectrum, axis=1)
    return planted


def _potential_negated(post_init):
    # every run's scalar potential takes the opposite sign
    def planted(self):
        object.__setattr__(self, "phi_pot", -np.asarray(self.phi_pot))
        post_init(self)
    return planted


def _second_color_one_cell_up(gaussian_packet_state):
    # the second color's envelope sits one cell above the first's
    def planted(grid, *args):
        values = gaussian_packet_state(grid, *args)
        values[..., 1] = np.roll(values[..., 1], 1, axis=0)
        return values
    return planted


def _negated(cross):
    def planted(a, b):
        return [-c for c in cross(a, b)]
    return planted


def _transverse_spin_by_w(observe):
    # the record weighs the real and imaginary cross terms by w, not 2w:
    # <sigma_x> and <sigma_y> read half their size
    def planted(block, weights, position, spin, masses):
        observed = observe(block, weights, position, spin, masses)
        spin[:2] *= 0.5
        return observed
    return planted


def _nan_every_other_cell(gradient):
    # the gradient reads NaN in every other cell, of every field for the
    # total objective; the sampled cells take both kinds
    def spoiled(values):
        values = values.copy()
        values.flat[::2] = np.nan
        return values

    def planted(*args):
        grads = gradient(*args)
        if isinstance(grads, dict):
            return {name: spoiled(values) for name, values in grads.items()}
        return spoiled(grads)
    return planted


def _four_cells_raised(sample_dataset):
    # the draw comes from the table with its four most plausible cells 5%
    # higher, renormalized
    def planted(table, repetitions, seed):
        flat = table.probs.reshape(table.slices, -1).copy()
        top = np.argsort(flat, axis=1)[:, -4:]
        np.put_along_axis(flat, top, 1.05 * np.take_along_axis(flat, top, axis=1), axis=1)
        flat /= flat.sum(axis=1, keepdims=True)
        raised = inference.IProbTable(table.grid, flat.reshape(table.probs.shape))
        return sample_dataset(raised, repetitions, seed)
    return planted


def _one_event_short(sample_dataset):
    # every slice draws N - 1 events under the label N, which the dataset's
    # 1e-6 relative tolerance on the counts accepts
    def planted(table, repetitions, seed):
        data = sample_dataset(table, repetitions - 1, seed)
        return inference.DetectionDataset(data.grid, data.counts, repetitions, data.seed)
    return planted


def _next_seed_per_call(sample_dataset):
    # each call draws with the seed after the last one's: the first draw is
    # the seeded one, and a rerun with the same seed draws other counts
    calls = itertools.count()

    def planted(table, repetitions, seed):
        return sample_dataset(table, repetitions, seed + next(calls))
    return planted


def _last_row_dropped(read_dataset_csv):
    # the reader loses the file's last data row
    def planted(path):
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
        return read_dataset_csv(path)
    return planted


def _seed_plus_one_in_header(write_dataset_csv):
    # the writer puts the seed after the drawn one into the file's header
    # and leaves the counts alone
    def planted(path, dataset):
        write_dataset_csv(path, dataclasses.replace(dataset, seed=dataset.seed + 1))
    return planted


def _forward_euler(rk4):
    # one first-order step in place of the four-stage one
    def planted(state, dt, rhs):
        return [s + dt * k for s, k in zip(state, rhs(state))]
    return planted


# row: (module or class, function replaced in it, broken copy, {criterion as
# verification.ALL_CHECKS names it: records that fail}); the row runs every
# criterion it names
ROWS = {
    # the matrix drives the steps and the guard compares values only with
    # each other, so the descent runs as before and every value is off by
    # the factor
    "fisher_value_scaled_up": (variational, "fisher_value_psi", _scaled(1.02),
                               {"box_minimum": {BOX_OBJECTIVE} | BOX_MODES}),
    "fisher_value_scaled_down": (variational, "fisher_value_psi", _scaled(0.98),
                                 {"box_minimum": {BOX_OBJECTIVE} | BOX_MODES}),
    # the descent stops at its random starts
    "ritz_over_current_modes_only": (
        variational, "_ritz_basis", _current_modes_only,
        {"box_minimum": {BOX_OBJECTIVE, BOX_DENSITY, BOX_CONVERGED} | BOX_MODES}),
    # the modes spill onto the walls, and the link-form value leaves out the
    # links past them: values fall 3-6% low, and the descent, which the
    # matrix drives, stops before the minimum converges
    "dirichlet_walls_free": (
        variational, "interior_mask", _walls_free,
        {"box_minimum": {BOX_OBJECTIVE, BOX_CONVERGED} | BOX_MODES}),
    "fisher_theta_part_dropped": (functionals, "_fisher_density", _without_theta,
                                  {"equivalence": EVERY_ROUTE}),
    "kinetic_cross_term_flipped": (functionals, "_polar_terms", _edit_terms(_flip_kinetic_cross),
                                   {"equivalence": EVERY_ROUTE}),
    "time_cross_term_flipped": (functionals, "_polar_terms", _edit_terms(_flip_time_cross),
                                {"equivalence": EVERY_ROUTE}),
    # the moment coupling is shared by the polar and joint routes
    "moment_coupling_sign_flipped": (functionals, "_polar_terms",
                                     _edit_terms(_flip_moment_coupling),
                                     {"equivalence": {SPECTRAL_SPINOR} | RATIOS}),
    "spinor_colors_swapped": (functionals, "spinor_from_polar", _swap_colors,
                              {"equivalence": {SPECTRAL_SPINOR} | RATIOS}),
    # every route takes the same first-order derivatives: only the
    # spinor route's convergence order shows them
    "first_order_central_derivative": (functionals, "derive_along", _first_order_central,
                                       {"equivalence": RATIOS}),
    # the Gaussian's continuum Fisher information reads 5% high
    # the first-order and curvature sums telescope for any difference; the
    # cubic residual no longer falls by 8 per halving (ratios 3.67 and 3.85)
    "forward_displacement_gradient": (inference, "_displacement_gradient", _forward_difference,
                                      {"evidence_structure": CUBIC_RATIOS}),
    # counts from another table than the one whose evidence is expanded:
    # the first order reads 26.2 and the curvature 7.89 (x 1e6 events), and
    # the cubic ratios 2.79 and 2.16
    "expected_counts_evenly_biased": (inference, "expected_counts", _even_bias,
                                      {"evidence_structure": {FIRST_ORDER, CURVATURE}
                                       | CUBIC_RATIOS}),
    # the Gaussian's continuum Fisher information reads 5% high; inference
    # imports the density by name, so the lattice sums keep the unplanted one
    "fisher_density_scaled": (functionals, "_fisher_density", _scaled(1.05),
                              {"gaussian_fisher": {CONTINUUM_FISHER}}),
    # the discrete oracle reads 10% low, and so does the Cauchy-Schwarz
    # bound, which the random pairs' quadratic terms then exceed
    "discrete_fisher_scaled": (inference, "discrete_fisher", _scaled(0.9),
                               {"gaussian_fisher": {DISCRETE_FISHER},
                                "evidence_structure": {CAUCHY_SCHWARZ}}),
    # the Larmor run keeps one k = 0 mode, on which the kinetic factor is 1;
    # the kinetic step built at dt/2 gives the free packet half its kinetic
    # evolution, so it spreads too little, and the uniform-field packet and
    # the two Stern-Gerlach colors move about half as far as they should
    "kinetic_half_step_as_full": (pauli._SplitOperatorPropagator, "__init__",
                                  _kinetic_off(0.5),
                                  {"pauli_solver": {SPREADING},
                                   "ehrenfest": {UNIFORM_FIELD, SEPARATION}}),
    # the kinetic step built at 1.0002 dt: the three records that follow the
    # kinetic evolution read about 2e-4, against round-off unplanted
    "kinetic_dt_off_2e-4": (pauli._SplitOperatorPropagator, "__init__", _kinetic_off(1.0002),
                            {"pauli_solver": {SPREADING},
                             "ehrenfest": {UNIFORM_FIELD, SEPARATION}}),
    # with the spin coupling 5e-4 high in the cell factors too, the Larmor
    # run precesses 5e-4 fast, and its spin drifts 0.03 off the torque run
    "kinetic_dt_and_spin_coupling_off": (
        pauli._SplitOperatorPropagator, "__init__", _kinetic_off(1.0002, 1.0005),
        {"pauli_solver": {SPREADING, PRECESSION}, "ehrenfest": {UNIFORM_FIELD, SEPARATION},
         "classical_correspondence": {SPIN_VS_TORQUE}}),
    # a packet with no field, and the unitary norm, do not see the coupling;
    # the Stern-Gerlach colors separate twice as far
    "spin_coupling_doubled": (functionals.PhysicalConstants, "spin_coupling",
                              _scaled_property(2.0),
                              {"pauli_solver": {PRECESSION}, "ehrenfest": {SEPARATION}}),
    # the colors part so fast that the Stern-Gerlach packet reaches the grid
    # edge at t = 7: the aborted run fails its own record, not the battery
    "spin_coupling_30_times": (functionals.PhysicalConstants, "spin_coupling",
                               _scaled_property(30.0),
                               {"ehrenfest": {SEPARATION}}),
    # both colors of the Larmor run turn alike: <sigma_x> never crosses zero
    "diagonal_step_second_color_takes_u11": (pauli._SplitOperatorPropagator, "_cell_factor",
                                             _second_color_takes_u11,
                                             {"pauli_solver": {PRECESSION}}),
    # cell factors 1e-7 off unitary: evolve aborts every split-operator run
    # on its norm, and the abort fails its record
    "cell_factor_off_unitary": (pauli._SplitOperatorPropagator, "_cell_factor",
                                _scaled(1.0 + 1e-7),
                                {"pauli_solver": {SPLIT_NORM, PRECESSION, SPREADING}}),
    "crank_nicolson_as_backward_euler": (pauli._CrankNicolsonPropagator, "advance",
                                         _backward_euler, {"pauli_solver": {CAYLEY_NORM}}),
    # the zero-gradient colors part by about 1e-14; the others differ at round-off
    "kinetic_factor_second_operand_order": (pauli._SplitOperatorPropagator, "_kinetic",
                                            _second_color_factor_first,
                                            {"ehrenfest": {ZERO_GRADIENT}}),
    # the uniform-field packet falls the other way, as far: the error reads
    # 2, twice the displacement; the Stern-Gerlach runs are chargeless
    "scalar_potential_sign_flipped": (pauli.SolverConfig, "__post_init__", _potential_negated,
                                      {"ehrenfest": {UNIFORM_FIELD}}),
    # the colors start one cell apart: they stay apart without a gradient,
    # and in one they first close in, so the overlap grows, then cross and
    # separate one cell short of the law (error 0.059)
    "second_color_one_cell_up": (pauli, "gaussian_packet_state", _second_color_one_cell_up,
                                 {"ehrenfest": {SEPARATION, OVERLAP, ZERO_GRADIENT}}),
    # the torque run precesses the wrong way; the conjugate-pair run, which
    # takes no cross product, and the norm, which turning either way keeps,
    # do not see it
    "cross_product_sign_flipped": (classical, "_cross", _negated,
                                   {"classical_correspondence": MOMENT_PATHS}),
    # each forward-Euler step moves |m| off 1 by about 1.3e-6 before the
    # renormalization
    "rk4_as_forward_euler": (classical, "_rk4", _forward_euler,
                             {"classical_correspondence": MOMENT_PATHS | {ENERGY, MOMENT_NORM}}),
    # only the Larmor spin is recorded through the block; the moment runs
    # take no Pauli records
    "transverse_spin_weighed_by_w": (pauli, "_observe", _transverse_spin_by_w,
                                     {"classical_correspondence": {SPIN_VS_TORQUE}}),
    "objective_s_gradient_scaled": (variational.TotalObjective, "gradient", _s_part_scaled,
                                    {"gradients": {TOTAL_GRADIENT}}),
    "fisher_gradient_scaled": (variational, "fisher_gradient_density", _scaled(1.001),
                               {"gradients": {FISHER_GRADIENT}}),
    # a NaN error is the worst error, not one the largest finite error hides
    "objective_gradient_nan_every_other_cell": (variational.TotalObjective, "gradient",
                                                _nan_every_other_cell,
                                                {"gradients": {TOTAL_GRADIENT}}),
    "fisher_gradient_nan_every_other_cell": (variational, "fisher_gradient_density",
                                             _nan_every_other_cell,
                                             {"gradients": {FISHER_GRADIENT}}),
    # the empirical table leaves the 4-sigma band at the raised cells; the
    # draws are still exact, repeatable and written as drawn
    "four_cells_raised_5_percent": (inference, "sample_dataset", _four_cells_raised,
                                    {"sampling": {FOUR_SIGMA}}),
    # the counts fall short, so no empirical table is built; the short draws
    # are still repeatable and written and read back as drawn
    "sampler_one_event_short": (inference, "sample_dataset", _one_event_short,
                                {"sampling": {FOUR_SIGMA, SLICE_SUMS}}),
    # the two runs, and so the two files written from them, differ
    "rerun_draws_the_next_seed": (inference, "sample_dataset", _next_seed_per_call,
                                  {"sampling": {RERUN, CSV_BYTES}}),
    # the planted reader cuts the row from the file itself, which the byte
    # comparison with the rerun's file reads after the round trip
    "read_back_drops_last_row": (fieldio, "read_dataset_csv", _last_row_dropped,
                                 {"sampling": {ROUND_TRIP, CSV_BYTES}}),
    # both files carry the same wrong seed, so they still match each other
    "header_seed_plus_one": (fieldio, "write_dataset_csv", _seed_plus_one_in_header,
                             {"sampling": {ROUND_TRIP}}),
}


def _failed(records) -> set[str]:
    return {r.name for r in records if not r.passed}


@pytest.fixture(scope="module")
def unplanted():
    return {criterion: CRITERIA[criterion](fast=True)
            for criterion in sorted(set().union(*(expected for *_, expected in ROWS.values())))}


def test_unplanted_run_passes(unplanted):
    assert {criterion: _failed(records) for criterion, records in unplanted.items()} == {
        criterion: set() for criterion in unplanted}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_planted_defect_fails_its_records(row, monkeypatch):
    module, target, broken, expected = ROWS[row]
    monkeypatch.setattr(module, target, broken(getattr(module, target)))
    assert {criterion: _failed(CRITERIA[criterion](fast=True)) for criterion in expected} == (
        expected)


def test_every_record_fails_under_some_row(unplanted):
    assert set(unplanted) == set(CRITERIA)
    caught = {name for *_, expected in ROWS.values() for names in expected.values()
              for name in names}
    names = {r.name for records in unplanted.values() for r in records}
    assert names - caught == set(ALLOWED)


@pytest.mark.parametrize("charge", [1.0, -1.0])
def test_potential_sign_plant_fails_the_uniform_field_record_at_either_charge(charge,
                                                                               monkeypatch):
    # the pauli_evolve uniform_field document at 256 cells and 200 steps; the
    # record is a magnitude, so at charge -1 a packet that falls the wrong
    # way cannot pass it on a negative value
    consts = functionals.PhysicalConstants(1.0, 1.0, charge)

    def record():
        _, [rec] = verification.uniform_field_drift(60.0, 256, 1.5, 20.0, 0.2, 6.0, 200, consts, 10,
                                                    1e-3)
        return rec

    clean = record()
    assert clean.passed and clean.value >= 0.0
    monkeypatch.setattr(pauli.SolverConfig, "__post_init__",
                        _potential_negated(pauli.SolverConfig.__post_init__))
    planted = record()
    assert not planted.passed and 1.9 < planted.value < 2.1
