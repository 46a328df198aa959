"""Uniform Cartesian grids, differential operators, quadrature.

Grids cover 1 to 3 spatial dimensions with either periodic or zero-boundary
(dirichlet) topology.  Every operator here is a pure function on plain
numpy arrays; a vector field is an array with its three components first,
and ``_locked`` is the one check of a stored array.  ``ScalarField`` and
``integrate`` are kept for the benchmark only: no other module takes them.
First and second derivatives take second-order central stencils; periodic
grids also take Fourier-spectral first derivatives, for the checks that
must not be limited by stencil error.  Every transform is scipy's pocketfft
(``scipy.fft``): it gives numpy's bits, and transforms the middle axes of
a stack for less.  A grid computes its spacing, cell volume and size on
first read and keeps them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

PERIODIC = "periodic"
DIRICHLET_ZERO = "dirichlet_zero"
BOUNDARIES = (PERIODIC, DIRICHLET_ZERO)

CENTRAL = "central"
SPECTRAL = "spectral"

# Cells whose density falls below this are excluded from 1/P sums everywhere.
POSITIVITY_FLOOR = 1e-12


class GridError(ValueError):
    """Raised for invalid grid construction or operator preconditions."""


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian lattice over a box [0, L1] x ... in up to 3 dimensions.

    ``extents`` are the box side lengths in meters; ``cells`` the point count
    per axis.  For periodic grids the spacing is L/n (last point one spacing
    short of L); for dirichlet_zero grids the spacing is L/(n-1) and both
    boundary points are part of the lattice.
    """

    extents: tuple[float, ...]
    cells: tuple[int, ...]
    boundary: str = PERIODIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        if not 1 <= len(self.cells) <= 3:
            raise GridError(f"grid dimension must be 1..3, got {len(self.cells)}")
        if len(self.extents) != len(self.cells):
            raise GridError("extents and cells must have equal length")
        if any(e <= 0 for e in self.extents):
            raise GridError("all extents must be strictly positive")
        if self.boundary not in BOUNDARIES:
            raise GridError(f"unknown boundary {self.boundary!r}")
        min_cells = 2 if self.boundary == DIRICHLET_ZERO else 1
        if any(n < min_cells for n in self.cells):
            raise GridError(f"every {self.boundary} axis needs at least {min_cells} cells, "
                            f"got {self.cells}")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    # read inside every kernel, and a grid never changes: each is computed once
    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        if self.boundary == PERIODIC:
            return tuple(e / n for e, n in zip(self.extents, self.cells))
        return tuple(e / (n - 1) for e, n in zip(self.extents, self.cells))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @functools.cached_property
    def size(self) -> int:
        return int(np.prod(self.cells))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Lattice coordinates along one axis (origin at 0)."""
        h = self.spacing[axis]
        return h * np.arange(self.cells[axis])

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def descriptor(self) -> dict:
        """JSON-safe grid description used by file headers."""
        return {
            "extents": list(self.extents),
            "cells": list(self.cells),
            "boundary": self.boundary,
        }

    @staticmethod
    def from_descriptor(doc: dict) -> "Grid":
        return Grid(tuple(doc["extents"]), tuple(doc["cells"]), doc["boundary"])


def _locked(name: str, values, shape: tuple[int, ...], error: type[ValueError]) -> np.ndarray:
    """A read-only C-ordered float64 copy of ``values``; ``error`` for
    another shape or a value that is not finite."""
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.shape != shape:
        raise error(f"{name} shape {arr.shape} does not match grid shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise error(f"{name} values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Real value per lattice cell; the benchmark's form, not the package's."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values",
                           _locked("field", self.values, self.grid.shape, GridError))

    @staticmethod
    def full(grid: Grid, value: float) -> "ScalarField":
        return ScalarField(grid, np.full(grid.shape, float(value)))


# ---------------------------------------------------------------------------
# low-level derivative kernels (operate on raw arrays along one axis)
# ---------------------------------------------------------------------------


def _spectral_wavenumbers(n: int, h: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=h)


def _spectral_derive(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    # a real array takes the half spectrum, rfft/irfft over the wavenumbers >= 0
    real = np.isrealobj(values)
    n = values.shape[axis]
    mult = 1j * _spectral_wavenumbers(n, h)[: n // 2 + 1 if real else n]
    if n % 2 == 0:
        mult[n // 2] = 0.0  # Nyquist first derivative is ambiguous; drop it
    shape = [1] * values.ndim
    shape[axis] = len(mult)
    if real:
        return scipy.fft.irfft(scipy.fft.rfft(values, axis=axis) * mult.reshape(shape), n,
                               axis=axis)
    return scipy.fft.ifft(scipy.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)


def derive_along(
    values: np.ndarray, h: float, axis: int, boundary: str, scheme: str = CENTRAL
) -> np.ndarray:
    """First derivative of an array along one axis with spacing ``h``."""
    if values.shape[axis] < 3:
        raise GridError("derivatives need at least 3 cells per axis")
    if scheme == SPECTRAL:
        if boundary != PERIODIC:
            raise GridError("spectral derivatives require a periodic grid")
        return _spectral_derive(values, h, axis)
    if scheme != CENTRAL:
        raise GridError(f"unknown derivative scheme {scheme!r}")
    if boundary == PERIODIC:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    if np.iscomplexobj(values):
        return np.gradient(values.real, h, axis=axis, edge_order=2) + 1j * np.gradient(
            values.imag, h, axis=axis, edge_order=2
        )
    return np.gradient(values, h, axis=axis, edge_order=2)


def second_derive_along(values: np.ndarray, h: float, axis: int, boundary: str) -> np.ndarray:
    """Central second derivative along one axis, same stencil family as derive_along."""
    if values.shape[axis] < 4 and boundary == DIRICHLET_ZERO:
        raise GridError("dirichlet second derivative needs at least 4 cells per axis")
    if values.shape[axis] < 3:
        raise GridError("derivatives need at least 3 cells per axis")
    h2 = h * h
    if boundary == PERIODIC:
        return (
            np.roll(values, -1, axis=axis) - 2.0 * values + np.roll(values, 1, axis=axis)
        ) / h2
    out = np.empty_like(values, dtype=np.result_type(values, np.float64))
    sl = [slice(None)] * values.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    out[at(slice(1, -1))] = (
        values[at(slice(2, None))] - 2.0 * values[at(slice(1, -1))] + values[at(slice(0, -2))]
    ) / h2
    # Second-order one-sided edge stencils.
    out[at(0)] = (
        2.0 * values[at(0)] - 5.0 * values[at(1)] + 4.0 * values[at(2)] - values[at(3)]
    ) / h2
    out[at(-1)] = (
        2.0 * values[at(-1)] - 5.0 * values[at(-2)] + 4.0 * values[at(-3)] - values[at(-4)]
    ) / h2
    return out


def laplacian_matrix(grid: Grid) -> scipy.sparse.csr_matrix:
    """Sparse 3-point lattice Laplacian over the C-ordered flattened grid.

    Periodic grids wrap around; dirichlet_zero grids take zero ghost values
    beyond the lattice, so on the interior cells this is the discrete
    dirichlet Laplacian.  Links are added, not set: on 2 periodic cells the
    wrapped link doubles an ordinary one, and 1 periodic cell adds nothing.
    """
    cells = np.arange(grid.size).reshape(grid.shape)
    periodic = grid.boundary == PERIODIC
    diag, rows, cols, vals = 0.0, [cells.ravel()], [cells.ravel()], []
    for ax, n in enumerate(grid.cells):
        if periodic and n == 1:
            continue
        h_sq = grid.spacing[ax] ** 2
        diag += -2.0 / h_sq
        here = (cells if periodic else np.delete(cells, -1, axis=ax)).ravel()
        there = (np.roll(cells, -1, axis=ax) if periodic else np.delete(cells, 0, axis=ax)).ravel()
        rows, cols = rows + [here, there], cols + [there, here]
        vals.append(np.full(2 * here.size, 1.0 / h_sq))
    data = np.concatenate([np.full(grid.size, diag)] + vals)
    ij = (np.concatenate(rows), np.concatenate(cols))
    return scipy.sparse.csr_matrix((data, ij), shape=(grid.size, grid.size))


def interior_mask(grid: Grid) -> np.ndarray:
    """True on the cells a boundary condition leaves free: every cell of a
    periodic grid, all but the outer layer of a dirichlet_zero grid."""
    mask = np.ones(grid.shape, dtype=bool)
    if grid.boundary == DIRICHLET_ZERO:
        for ax in range(grid.dim):
            sl = [slice(None)] * grid.dim
            sl[ax] = 0
            mask[tuple(sl)] = False
            sl[ax] = -1
            mask[tuple(sl)] = False
    return mask


def wrap_angle(delta: np.ndarray) -> np.ndarray:
    """Fold angle differences into (-pi, pi]."""
    return delta - 2.0 * np.pi * np.round(delta / (2.0 * np.pi))


def phase_derive_along(values: np.ndarray, h: float, axis: int, boundary: str) -> np.ndarray:
    """Central first derivative of an angle-valued array, branch-cut aware.

    Consecutive differences are folded into (-pi, pi] before the stencil is
    assembled, so a winding phase (e.g. one full turn across a periodic axis)
    differentiates to its smooth rate.  Identical to derive_along on fields
    whose neighbour differences stay below pi.
    """
    if values.shape[axis] < 3:
        raise GridError("derivatives need at least 3 cells per axis")
    if boundary == PERIODIC:
        fwd = wrap_angle(np.roll(values, -1, axis=axis) - values)
        bwd = wrap_angle(values - np.roll(values, 1, axis=axis))
        return (fwd + bwd) / (2.0 * h)
    sl = [slice(None)] * values.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    delta = wrap_angle(np.diff(values, axis=axis))
    out = np.empty_like(values, dtype=np.float64)
    out[at(slice(1, -1))] = (delta[at(slice(1, None))] + delta[at(slice(0, -1))]) / (2.0 * h)
    # (-3 f0 + 4 f1 - f2)/2h == (3 d0 - d1)/2h with d the folded steps
    out[at(0)] = (3.0 * delta[at(0)] - delta[at(1)]) / (2.0 * h)
    out[at(-1)] = (3.0 * delta[at(-1)] - delta[at(-2)]) / (2.0 * h)
    return out


def curl_stack(values: np.ndarray, g: Grid, scheme: str = CENTRAL) -> np.ndarray:
    """Curl of 3-vector values shaped ``(3,) + lead + g.shape``, taken over the
    grid axes for every leading index at once (for example a stack of frames),
    each with the bits of its own curl; derivatives along axes the grid does
    not have are zero."""
    lead = values.ndim - 1 - g.dim

    def d(comp: int, ax: int) -> np.ndarray:
        if ax >= g.dim:
            return np.zeros(values.shape[1:])
        return derive_along(values[comp], g.spacing[ax], lead + ax, g.boundary, scheme)

    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)])


@functools.lru_cache(maxsize=None)
def _weights_1d(n: int, h: float, boundary: str) -> np.ndarray:
    w = np.full(n, h)
    if boundary == DIRICHLET_ZERO:
        w[0] = w[-1] = 0.5 * h
    w.setflags(write=False)
    return w


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Per-cell integration weights (cell volume / trapezoid tensor product)."""
    w = np.ones(grid.shape)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = grid.cells[ax]
        w = w * _weights_1d(grid.cells[ax], grid.spacing[ax], grid.boundary).reshape(shape)
    return w


def integrate_values(values: np.ndarray, grid: Grid) -> float | complex:
    """Quadrature of a raw cell array over the grid box."""
    s = np.sum(quadrature_weights(grid) * values)
    return complex(s) if np.iscomplexobj(values) else float(s)


def integrate(f: ScalarField) -> float:
    """Integral of a scalar field: cell sum (periodic) or trapezoid (dirichlet)."""
    return float(integrate_values(f.values, f.grid))
