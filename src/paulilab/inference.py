"""Discrete detection-event statistics on a voxel lattice.

Tables hold the click plausibility P(j, k) per time slice, parameterized by
the displacement between the detected voxel j and the unknown source position,
so that translating the source is a lattice shift of the table.  Datasets hold
per-(voxel, color, slice) counts.  On top of those sit the evidence (shifted
log-likelihood ratio), its quadratic expansion, and the discrete Fisher
information that bounds it.

Counts are stored as float64: sampling always produces exact integers, while
the idealized assignment c = N * P used by the expansion identities is
real-valued by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .grids import (
    PERIODIC,
    POSITIVITY_FLOOR,
    Grid,
    derive_along,
    second_derive_along,
)

COLOR_VALUES = (1, -1)  # color axis index 0 <-> k=+1, index 1 <-> k=-1

# Tables are truncated to exact zeros well below the positivity floor, so the
# expansion identities (sums of lattice differences over the support) hold to
# round-off rather than to floor-sized residuals.
TABLE_TRUNCATION = 1e-15


class InferenceError(ValueError):
    """Raised for invalid tables, datasets, or evidence preconditions."""


@dataclass(frozen=True)
class IProbTable:
    """Click plausibilities P(voxel, color | slice) on a displacement lattice.

    ``probs`` has shape (slices,) + grid.shape + (2,) and sums to one over
    (voxel, color) within each slice.
    """

    grid: Grid
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.probs, dtype=np.float64)
        if arr.ndim != self.grid.dim + 2 or arr.shape[1:] != self.grid.shape + (2,):
            raise InferenceError(
                f"table shape {arr.shape} does not match (slices,)+{self.grid.shape}+(2,)"
            )
        # written so that NaN fails every comparison
        if not np.all((arr >= 0) & (arr <= 1)):
            raise InferenceError("table entries must lie in [0, 1]")
        sums = arr.reshape(arr.shape[0], -1).sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-12):
            raise InferenceError(f"table slices must sum to 1, got sums {sums}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def slices(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class DetectionDataset:
    """Event counts per (voxel, color, slice) with fixed repetitions per slice."""

    grid: Grid
    counts: np.ndarray
    repetitions: int
    seed: int = 0

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.counts, dtype=np.float64)
        if arr.ndim != self.grid.dim + 2 or arr.shape[1:] != self.grid.shape + (2,):
            raise InferenceError("count array shape does not match grid")
        if not np.all(arr >= 0):
            raise InferenceError("counts must be nonnegative")
        sums = arr.reshape(arr.shape[0], -1).sum(axis=1)
        if not np.all(np.abs(sums - self.repetitions) <= 1e-6 * max(1.0, self.repetitions)):
            raise InferenceError(
                f"per-slice counts must sum to repetitions={self.repetitions}, got {sums}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def slices(self) -> int:
        return self.counts.shape[0]


# ---------------------------------------------------------------------------
# table factories
# ---------------------------------------------------------------------------


def gaussian_table(
    grid: Grid,
    sigma: float,
    slices: int = 1,
    center: tuple[float, ...] | None = None,
    color_angle: float = 0.0,
) -> IProbTable:
    """Isotropic Gaussian click table of width ``sigma``, cos^2/sin^2 color split.

    Entries below the positivity floor are truncated to exactly zero and the
    slice is renormalized, which gives the table compact support away from the
    window edge.
    """
    if center is None:
        center = tuple(e / 2 for e in grid.extents)
    return gaussian_mixture_table(grid, [(1.0, center, sigma)], slices, color_angle)


def gaussian_mixture_table(
    grid: Grid,
    components: list[tuple[float, tuple[float, ...], float]],
    slices: int = 1,
    color_angle: float = 0.0,
) -> IProbTable:
    """Weighted sum of Gaussians (weight, center, sigma); skewed profiles for
    expansion tests whose cubic term must not vanish by symmetry."""
    spatial = np.zeros(grid.shape)
    mesh = grid.meshgrid()
    for weight, center, sigma in components:
        r2 = np.zeros(grid.shape)
        for ax, x in enumerate(mesh):
            r2 = r2 + (x - center[ax]) ** 2
        spatial = spatial + weight * np.exp(-r2 / (2.0 * sigma**2))
    spatial /= spatial.sum()
    spatial[spatial < TABLE_TRUNCATION] = 0.0
    spatial /= spatial.sum()
    one = np.empty(grid.shape + (2,))
    one[..., 0] = spatial * np.cos(color_angle / 2.0) ** 2
    one[..., 1] = spatial * np.sin(color_angle / 2.0) ** 2
    return IProbTable(grid, np.broadcast_to(one, (slices,) + one.shape).copy())


def uniform_table(grid: Grid, slices: int = 1) -> IProbTable:
    """Displacement-independent table: uniform over all voxels and colors."""
    one = np.full(grid.shape + (2,), 1.0 / (2 * grid.size))
    return IProbTable(grid, np.broadcast_to(one, (slices,) + one.shape).copy())


def expected_counts(table: IProbTable, repetitions: int) -> DetectionDataset:
    """Idealized dataset with counts exactly N * P (real-valued)."""
    return DetectionDataset(table.grid, repetitions * table.probs, repetitions)


# ---------------------------------------------------------------------------
# sampling and log-plausibility
# ---------------------------------------------------------------------------


def sample_dataset(table: IProbTable, repetitions: int, seed: int) -> DetectionDataset:
    """One multinomial draw of size N over (voxel, color) per slice."""
    if repetitions < 0:
        raise InferenceError("repetitions must be nonnegative")
    rng = np.random.default_rng(seed)
    counts = np.empty_like(table.probs)
    for m in range(table.slices):
        p = table.probs[m].ravel()
        p = p / p.sum()  # exact simplex point for the sampler
        counts[m] = rng.multinomial(repetitions, p).reshape(table.probs[m].shape)
    return DetectionDataset(table.grid, counts, repetitions, seed=seed)


def log_dataset_iprob(table: IProbTable, data: DetectionDataset) -> float:
    """Log multinomial plausibility of the dataset, factorial terms included."""
    _check_compatible(table, data)
    p = table.probs
    c = data.counts
    impossible = (p <= 0) & (c > 0.5)
    if np.any(impossible):
        raise InferenceError("dataset has events in zero-plausibility cells")
    clogp = np.where(c > 0, c * np.log(np.where(p > 0, p, 1.0)), 0.0)
    total = data.slices * gammaln(data.repetitions + 1) - gammaln(c + 1).sum() + clogp.sum()
    return float(total)


# ---------------------------------------------------------------------------
# lattice shifts and derivatives in the displacement coordinate
# ---------------------------------------------------------------------------


def _roll_fill(arr: np.ndarray, n: int, axis: int, periodic: bool) -> np.ndarray:
    """Integer lattice shift: out[d] = arr[d - n]; zero-fill unless periodic."""
    if n == 0:
        return arr
    out = np.roll(arr, n, axis=axis)
    if not periodic:
        sl = [slice(None)] * arr.ndim
        sl[axis] = slice(0, n) if n > 0 else slice(n, None)
        out[tuple(sl)] = 0.0
    return out


def shift_table_values(
    values: np.ndarray,
    grid: Grid,
    shift: np.ndarray,
    axis_offset: int = 0,
) -> np.ndarray:
    """Evaluate a lattice array at displacement (d - shift).

    ``shift`` is a physical displacement per grid axis; off-lattice parts are
    interpolated by a 3-point Lagrange stencil per axis, whose small-shift
    expansion reproduces the central first and second lattice differences
    exactly.
    """
    periodic = grid.boundary == PERIODIC
    out = np.array(values, dtype=np.float64, copy=True)
    for ax in range(grid.dim):
        s = float(shift[ax]) / grid.spacing[ax]
        # |frac| <= 1/2 with ties kept on the centered stencil
        n_int = int(np.trunc(s))
        frac = s - n_int
        if frac > 0.5:
            n_int += 1
            frac -= 1.0
        elif frac < -0.5:
            n_int -= 1
            frac += 1.0
        arr_axis = ax + axis_offset
        out = _roll_fill(out, n_int, arr_axis, periodic)
        if frac == 0.0:
            continue
        wm = frac * (frac + 1.0) / 2.0
        w0 = 1.0 - frac * frac
        wp = frac * (frac - 1.0) / 2.0
        out = (
            wm * _roll_fill(out, 1, arr_axis, periodic)
            + w0 * out
            + wp * _roll_fill(out, -1, arr_axis, periodic)
        )
    return out


def _as_shift_array(table: IProbTable, shifts) -> np.ndarray:
    arr = np.asarray(shifts, dtype=np.float64)
    if arr.ndim == 1:
        arr = np.broadcast_to(arr, (table.slices, arr.shape[0])).copy()
    if arr.shape != (table.slices, 3) and arr.shape != (table.slices, table.grid.dim):
        raise InferenceError(
            f"shifts must be one 3-vector per slice, got shape {arr.shape}"
        )
    if arr.shape[1] == 3 and np.any(arr[:, table.grid.dim :] != 0):
        raise InferenceError("shift components beyond the grid dimension must be zero")
    return arr[:, : table.grid.dim]


def _displacement_gradient(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Lattice derivative with respect to the source position (minus the
    derivative in the displacement coordinate, by homogeneity)."""
    return -derive_along(values, grid.spacing[axis], axis, grid.boundary)


def _check_compatible(table: IProbTable, data: DetectionDataset) -> None:
    if table.grid != data.grid or table.probs.shape != data.counts.shape:
        raise InferenceError("table and dataset live on different lattices")


# ---------------------------------------------------------------------------
# evidence and its expansion
# ---------------------------------------------------------------------------


def evidence(
    table: IProbTable,
    data: DetectionDataset,
    shifts,
) -> float:
    """Log-ratio of dataset plausibilities under shifted vs unshifted positions.

    Ev = sum_{j,k,tau} c * log[P(j,k | X_tau + eps_tau) / P(j,k | X_tau)].
    """
    _check_compatible(table, data)
    eps = _as_shift_array(table, shifts)
    total = 0.0
    for m in range(table.slices):
        p = table.probs[m]
        c = data.counts[m]
        shifted = shift_table_values(p, table.grid, eps[m])
        occupied = c > 0
        if np.any(p[occupied] <= 0):
            raise InferenceError("dataset has events in zero-plausibility cells")
        if np.any(shifted[occupied] <= 0):
            raise InferenceError("shift leaves the table support under occupied cells")
        ratio = shifted[occupied] / p[occupied]
        total += float(np.sum(c[occupied] * np.log(ratio)))
    return total


@dataclass(frozen=True)
class TaylorTerms:
    """The three sums of the small-shift expansion of the evidence.

    Ev = first_order - second_order_square / 2 + second_order_curvature / 2
         + O(eps^3).
    """

    first_order: float
    second_order_square: float
    second_order_curvature: float


def evidence_taylor_terms(
    table: IProbTable, data: DetectionDataset, shifts
) -> TaylorTerms:
    """Evaluate the expansion sums with central lattice derivatives."""
    _check_compatible(table, data)
    eps = _as_shift_array(table, shifts)
    grid = table.grid
    first = 0.0
    square = 0.0
    curvature = 0.0
    for m in range(table.slices):
        p = table.probs[m]
        c = data.counts[m]
        occupied = p > 0
        if np.any((~occupied) & (c > 0.5)):
            raise InferenceError("events recorded outside the table support")
        grads = [_displacement_gradient(p, grid, ax) for ax in range(grid.dim)]
        directional = sum(eps[m][ax] * grads[ax] for ax in range(grid.dim))
        second = np.zeros_like(p)
        for a in range(grid.dim):
            for b in range(grid.dim):
                if a == b:
                    # 3-point second difference on the diagonal, matching the
                    # quadratic interpolation rule used by evidence()
                    d2 = second_derive_along(p, grid.spacing[a], a, grid.boundary)
                else:
                    d2 = _displacement_gradient(grads[b], grid, a)
                second += eps[m][a] * eps[m][b] * d2
        # the count-over-plausibility ratio is regular wherever the data came
        # from the table, so the sums run over the whole support
        safe_p = np.where(occupied, p, 1.0)
        ratio = np.where(occupied, c / safe_p, 0.0)
        first += float(np.sum(ratio * directional))
        square += float(np.sum(ratio * directional * directional / safe_p))
        curvature += float(np.sum(ratio * second))
    return TaylorTerms(first, square, curvature)


def empirical_table(data: DetectionDataset) -> IProbTable:
    """Frequency-of-occurrence table: P := c / N per slice."""
    if data.repetitions <= 0:
        raise InferenceError("empirical table needs at least one repetition")
    return IProbTable(data.grid, data.counts / data.repetitions)


def discrete_fisher(table: IProbTable) -> float:
    """Sum of squared position-sensitivity over plausibility: the lattice
    Fisher information of the table, cells below the floor excluded."""
    grid = table.grid
    total = 0.0
    any_support = False
    for m in range(table.slices):
        p = table.probs[m]
        included = p >= POSITIVITY_FLOOR
        if np.any(included):
            any_support = True
        safe_p = np.where(included, p, 1.0)
        for ax in range(grid.dim):
            g = _displacement_gradient(p, grid, ax)
            total += float(np.sum(np.where(included, g * g / safe_p, 0.0)))
    if not any_support:
        raise InferenceError("table has empty support")
    return total


def cauchy_schwarz_bound(
    table: IProbTable, shifts, repetitions: int = 1
) -> tuple[float, float]:
    """Quadratic evidence term at c = N*P and its Fisher-information bound.

    Returns (term, bound) with term <= bound guaranteed cellwise by the
    Cauchy-Schwarz inequality; ``bound`` is N * max_tau|eps_tau|^2 times the
    discrete Fisher information.

    Both sides are quadratic in the shifts.  They are computed for the
    shifts scaled by an exact power of two to a largest component in
    [1/2, 1), then scaled back, so that a tiny shift does not round either
    side in the subnormal range before the two are compared.
    """
    eps = _as_shift_array(table, shifts)
    exponent = math.frexp(float(np.max(np.abs(eps))))[1] if eps.size else 0
    eps = np.ldexp(eps, -exponent)
    grid = table.grid
    term = 0.0
    for m in range(table.slices):
        p = table.probs[m]
        included = p >= POSITIVITY_FLOOR
        safe_p = np.where(included, p, 1.0)
        directional = np.zeros_like(p)
        for ax in range(grid.dim):
            directional += eps[m][ax] * _displacement_gradient(p, grid, ax)
        term += float(np.sum(np.where(included, directional**2 / safe_p, 0.0)))
    eps_hat_sq = float(np.max(np.sum(eps**2, axis=1))) if eps.size else 0.0
    bound = repetitions * eps_hat_sq * discrete_fisher(table)
    return math.ldexp(repetitions * term, 2 * exponent), math.ldexp(bound, 2 * exponent)
