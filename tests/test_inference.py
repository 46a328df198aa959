"""Tests for the detection-event statistics layer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulilab.grids import DIRICHLET_ZERO, PERIODIC, Grid
from paulilab.inference import (
    DetectionDataset,
    InferenceError,
    IProbTable,
    cauchy_schwarz_bound,
    discrete_fisher,
    empirical_table,
    evidence,
    evidence_taylor_terms,
    expected_counts,
    gaussian_mixture_table,
    gaussian_table,
    log_dataset_iprob,
    sample_dataset,
    shift_table_values,
    uniform_table,
)


def small_grid(n=4):
    return Grid((float(n),), (n,), PERIODIC)


def gauss_setup(n=160, sigma_cells=10.0, slices=1):
    # unit spacing; support comfortably inside the window
    grid = Grid((float(n - 1),), (n,), DIRICHLET_ZERO)
    return grid, gaussian_table(grid, sigma_cells, slices=slices)


def degenerate_table(grid, slices=1):
    probs = np.zeros((slices,) + grid.shape + (2,))
    probs[(slice(None), 0) + (0,) * (grid.dim - 1) + (0,)] = 1.0
    return IProbTable(grid, probs)


# ---------------------------------------------------------------------------
# tables and sampling
# ---------------------------------------------------------------------------


def test_table_validation_rejects_bad_normalization():
    g = small_grid()
    probs = np.full((1,) + g.shape + (2,), 0.2)
    with pytest.raises(InferenceError):
        IProbTable(g, probs)


@pytest.mark.parametrize("build", [
    lambda g: IProbTable(g, np.where(np.arange(8).reshape(1, 4, 2) == 3, np.nan, 1 / 7)),
    lambda g: DetectionDataset(g, np.where(np.arange(8).reshape(1, 4, 2) == 3, np.nan, 1.0), 7),
    lambda g: DetectionDataset(g, np.where(np.arange(8).reshape(1, 4, 2) == 3, np.inf, 1.0), 7),
], ids=["nan_table", "nan_count", "inf_count"])
def test_validation_rejects_non_finite_entries(build):
    with pytest.raises(InferenceError):
        build(small_grid())


def test_sample_zero_repetitions():
    g = small_grid()
    data = sample_dataset(uniform_table(g), 0, seed=1)
    assert np.all(data.counts == 0)


def test_sample_degenerate_table():
    g = small_grid()
    table = degenerate_table(g, slices=3)
    data = sample_dataset(table, 57, seed=2)
    assert np.all(data.counts[:, 0, 0] == 57)
    assert data.counts.sum() == 3 * 57


def test_sample_uniform_within_binomial_bounds():
    g = small_grid(4)
    table = uniform_table(g)
    n = 10**6
    data = sample_dataset(table, n, seed=11)
    p = 1.0 / 8.0
    dev = np.abs(data.counts - n * p)
    assert np.all(dev <= 4.0 * np.sqrt(n * p * (1 - p)))
    assert data.counts.reshape(-1).sum() == n


def test_sample_seed_determinism():
    g = small_grid(8)
    table = uniform_table(g, slices=2)
    a = sample_dataset(table, 1000, seed=42)
    b = sample_dataset(table, 1000, seed=42)
    assert np.array_equal(a.counts, b.counts)
    c = sample_dataset(table, 1000, seed=43)
    assert not np.array_equal(a.counts, c.counts)


def test_log_iprob_degenerate_is_zero():
    g = small_grid()
    table = degenerate_table(g)
    data = sample_dataset(table, 19, seed=0)
    assert log_dataset_iprob(table, data) == pytest.approx(0.0, abs=1e-12)


def test_log_iprob_single_event_uniform():
    g = small_grid(4)
    table = uniform_table(g)
    data = sample_dataset(table, 1, seed=5)
    assert log_dataset_iprob(table, data) == pytest.approx(np.log(1 / 8), rel=1e-12)


def test_log_iprob_impossible_data():
    g = small_grid(4)
    table = degenerate_table(g)
    counts = np.zeros((1,) + g.shape + (2,))
    counts[0, 1, 0] = 3.0  # events where the table is zero
    data = DetectionDataset(g, counts, 3)
    with pytest.raises(InferenceError):
        log_dataset_iprob(table, data)


def test_empirical_table_roundtrip():
    g = small_grid(4)
    table = degenerate_table(g)
    data = sample_dataset(table, 12, seed=0)
    np.testing.assert_array_equal(empirical_table(data).probs, table.probs)


def test_empirical_table_close_to_source():
    grid, table = gauss_setup()
    n = 10**6
    data = sample_dataset(table, n, seed=123)
    emp = empirical_table(data)
    p = table.probs
    bound = 4.0 * np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(emp.probs - p) <= bound + 1e-15)


def test_empirical_table_single_event():
    g = small_grid(4)
    data = sample_dataset(uniform_table(g, slices=3), 1, seed=9)
    emp = empirical_table(data)
    assert np.all(emp.probs.reshape(3, -1).sum(axis=1) == 1.0)
    assert np.all((emp.probs == 0) | (emp.probs == 1))


def test_empirical_table_requires_events():
    g = small_grid(4)
    data = sample_dataset(uniform_table(g), 0, seed=1)
    with pytest.raises(InferenceError):
        empirical_table(data)


# ---------------------------------------------------------------------------
# lattice shifting
# ---------------------------------------------------------------------------


def test_integer_shift_is_exact_roll():
    g = small_grid(8)
    rng = np.random.default_rng(3)
    vals = rng.random(g.shape)
    out = shift_table_values(vals, g, np.array([2.0]))  # two cells
    np.testing.assert_array_equal(out, np.roll(vals, 2))


def test_quadratic_shift_matches_lattice_expansion():
    # 3-point rule == P - s*D1 + s^2/2 * D2 identically in the shift.
    g = small_grid(16)
    rng = np.random.default_rng(4)
    p = rng.random(g.shape)
    h = g.spacing[0]
    s = 0.37 * h
    d1 = (np.roll(p, -1) - np.roll(p, 1)) / (2 * h)
    d2 = (np.roll(p, -1) - 2 * p + np.roll(p, 1)) / h**2
    expected = p - s * d1 + 0.5 * s**2 * d2
    out = shift_table_values(p, g, np.array([s]))
    np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------


def test_evidence_zero_shift():
    grid, table = gauss_setup()
    data = sample_dataset(table, 1000, seed=7)
    assert evidence(table, data, np.zeros((1, 3))) == 0.0


def test_evidence_uninformative_table():
    g = small_grid(16)
    table = uniform_table(g, slices=2)
    data = sample_dataset(table, 500, seed=8)
    ev = evidence(table, data, np.array([[0.3, 0, 0], [-0.2, 0, 0]]))
    assert ev == pytest.approx(0.0, abs=1e-10)


def test_evidence_gaussian_oracle():
    sigma = 10.0
    grid, table = gauss_setup(sigma_cells=sigma)
    n = 10**6
    data = expected_counts(table, n)
    eps = sigma / 50.0
    ev = evidence(table, data, np.array([[eps, 0, 0]]))
    oracle = -n * eps**2 / (2 * sigma**2)
    assert ev == pytest.approx(oracle, rel=0.02)


def test_evidence_antisymmetry_under_role_swap():
    grid, table = gauss_setup()
    data = sample_dataset(table, 10**5, seed=21)
    zeta = np.array([3.0, 0.0, 0.0])  # lattice vector: exact table shift
    ev = evidence(table, data, [zeta])
    shifted = IProbTable(grid, shift_table_values(table.probs, grid, zeta[:1], axis_offset=1))
    ev_swapped = evidence(shifted, data, [-zeta])
    assert ev_swapped == pytest.approx(-ev, rel=1e-12)


def test_evidence_shift_leaving_support_raises():
    grid, table = gauss_setup(n=96)
    data = sample_dataset(table, 1000, seed=3)
    with pytest.raises(InferenceError):
        evidence(table, data, np.array([[60.0, 0, 0]]))


# ---------------------------------------------------------------------------
# expansion structure
# ---------------------------------------------------------------------------


def test_taylor_terms_vanish_for_frequency_assignment():
    grid, table = gauss_setup(slices=2)
    n = 10**6
    data = expected_counts(table, n)
    terms = evidence_taylor_terms(table, data, np.array([[0.2, 0, 0], [-0.13, 0, 0]]))
    assert abs(terms.first_order) <= 1e-12 * n
    assert abs(terms.second_order_curvature) <= 1e-12 * n
    assert terms.second_order_square > 0


def test_taylor_terms_zero_shift():
    grid, table = gauss_setup()
    data = expected_counts(table, 100)
    terms = evidence_taylor_terms(table, data, np.zeros((1, 3)))
    assert terms.first_order == 0.0
    assert terms.second_order_square == 0.0
    assert terms.second_order_curvature == 0.0


def quadratic_residual(table, data, eps):
    ev = evidence(table, data, np.array([[eps, 0, 0]]))
    terms = evidence_taylor_terms(table, data, np.array([[eps, 0, 0]]))
    return abs(ev + terms.second_order_square / 2.0)


def skewed_setup(n=200):
    # asymmetric profile: the cubic expansion term must not cancel by parity
    grid = Grid((float(n - 1),), (n,), DIRICHLET_ZERO)
    table = gaussian_mixture_table(
        grid, [(0.65, (85.0,), 9.0), (0.35, (112.0,), 16.0)]
    )
    return grid, table


def test_evidence_cubic_dominance():
    grid, table = skewed_setup()
    data = expected_counts(table, 10**6)
    eps = 0.5  # half a spacing, the documented cap
    r1 = quadratic_residual(table, data, eps)
    r2 = quadratic_residual(table, data, eps / 2)
    r3 = quadratic_residual(table, data, eps / 4)
    assert 6.0 <= r1 / r2 <= 10.0
    assert 6.0 <= r2 / r3 <= 10.0
    assert r1 / r2 >= 7.0  # Richardson check from the expansion contract


# ---------------------------------------------------------------------------
# discrete Fisher information
# ---------------------------------------------------------------------------


def test_fisher_uniform_table_is_zero():
    g = small_grid(32)
    assert discrete_fisher(uniform_table(g)) == pytest.approx(0.0, abs=1e-15)


def test_fisher_gaussian_oracle():
    sigma = 10.0
    grid, table = gauss_setup(sigma_cells=sigma)
    assert discrete_fisher(table) == pytest.approx(1.0 / sigma**2, rel=0.02)


def test_fisher_slice_additivity():
    grid, one = gauss_setup(slices=1)
    grid2, two = gauss_setup(slices=2)
    assert discrete_fisher(two) == pytest.approx(2.0 * discrete_fisher(one), rel=1e-14)


def test_fisher_translation_invariance():
    grid, table = gauss_setup()
    rolled = IProbTable(grid, np.roll(table.probs, 5, axis=1))
    assert discrete_fisher(rolled) == pytest.approx(discrete_fisher(table), rel=1e-12)


def test_fisher_empty_support():
    g = small_grid(4)
    probs = np.zeros((1,) + g.shape + (2,))
    probs[0, 0, 0] = 1.0
    table = IProbTable(g, probs)
    # one cell above floor: support present, fisher finite
    assert discrete_fisher(table) >= 0.0


# ---------------------------------------------------------------------------
# Cauchy-Schwarz bound
# ---------------------------------------------------------------------------


def test_bound_zero_shift():
    grid, table = gauss_setup()
    term, bound = cauchy_schwarz_bound(table, np.zeros((1, 3)))
    assert term == 0.0 and bound == 0.0


def test_bound_holds_for_gaussian():
    grid, table = gauss_setup()
    term, bound = cauchy_schwarz_bound(table, np.array([[0.4, 0, 0]]), repetitions=1000)
    assert 0 < term <= bound


def test_bound_zero_gradient_axis():
    # constant along y: shifting along y is non-informative
    g = Grid((16.0, 8.0), (16, 8), PERIODIC)
    gauss = gaussian_table(Grid((16.0,), (16,), PERIODIC), sigma=2.0).probs[0]
    probs = np.repeat(gauss[:, None, :], 8, axis=1) / 8.0
    table = IProbTable(g, probs[None])
    term, bound = cauchy_schwarz_bound(table, np.array([[0.0, 0.3, 0.0]]))
    assert term == pytest.approx(0.0, abs=1e-15)
    assert bound > 0


def test_bound_holds_on_random_tables():
    rng = np.random.default_rng(17)
    g = Grid((24.0,), (24,), PERIODIC)
    for _ in range(25):
        raw = rng.random(g.shape + (2,)) + 1e-3
        probs = (raw / raw.sum())[None]
        table = IProbTable(g, probs)
        eps = (rng.random(3) - 0.5) * g.spacing[0]
        eps[1:] = 0.0
        term, bound = cauchy_schwarz_bound(table, [eps], repetitions=100)
        assert term <= bound * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cells=st.integers(3, 48), extent=st.floats(0.5, 50.0),
       slices=st.integers(1, 3), fractions=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
       repetitions=st.integers(1, 10**6))
# |eps|^2 ~ 4e-318: subnormal, where each side used to round on its own
@example(seed=0, cells=4, extent=1.0, slices=1, fractions=[2.548487413614214e-158, 0.0, 0.0],
         repetitions=1)
def test_cauchy_schwarz_bound_holds_for_random_tables(seed, cells, extent, slices, fractions,
                                                      repetitions):
    grid = Grid((extent,), (cells,), PERIODIC)
    raw = np.random.default_rng(seed).random((slices,) + grid.shape + (2,)) + 1e-3
    table = IProbTable(grid, raw / raw.sum(axis=(1, 2), keepdims=True))
    shifts = [(f * grid.spacing[0], 0.0, 0.0) for f in fractions[:slices]]
    term, bound = cauchy_schwarz_bound(table, shifts, repetitions=repetitions)
    assert term <= bound * (1 + 1e-12)
