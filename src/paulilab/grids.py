"""Uniform Cartesian grids, field containers, differential operators, quadrature.

Grids cover 1 to 3 spatial dimensions with either periodic or zero-boundary
(dirichlet) topology.  Fields are immutable value objects wrapping numpy
arrays; every operator here is a pure function.  Second-order central
stencils are the default derivative scheme; periodic grids additionally
support Fourier-spectral derivatives for tests that must not be limited by
stencil error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse

PERIODIC = "periodic"
DIRICHLET_ZERO = "dirichlet_zero"
BOUNDARIES = (PERIODIC, DIRICHLET_ZERO)

CENTRAL = "central"
SPECTRAL = "spectral"
SCHEMES = (CENTRAL, SPECTRAL)

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
            raise GridError("all cell counts must be strictly positive")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def spacing(self) -> tuple[float, ...]:
        if self.boundary == PERIODIC:
            return tuple(e / n for e, n in zip(self.extents, self.cells))
        return tuple(e / (n - 1) for e, n in zip(self.extents, self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
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


def _locked(values: np.ndarray, dtype, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.shape != shape:
        raise GridError(f"field shape {arr.shape} does not match grid shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise GridError("field values must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Real value per lattice cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _locked(self.values, np.float64, self.grid.shape))

    @staticmethod
    def full(grid: Grid, value: float) -> "ScalarField":
        return ScalarField(grid, np.full(grid.shape, float(value)))


@dataclass(frozen=True)
class VectorField3:
    """Real 3-vector per lattice cell.

    The three components are carried on grids of any dimension; derivatives
    along axes the grid does not have are structurally zero.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _locked(self.values, np.float64, self.grid.shape + (3,)))

    @staticmethod
    def zero(grid: Grid) -> "VectorField3":
        return VectorField3(grid, np.zeros(grid.shape + (3,)))


@dataclass(frozen=True)
class SpinorField:
    """Complex 2-component value per lattice cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _locked(self.values, np.complex128, self.grid.shape + (2,)))


# ---------------------------------------------------------------------------
# low-level derivative kernels (operate on raw arrays along one axis)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _dirichlet_first_derivative_matrix(n: int, h: float) -> scipy.sparse.csr_matrix:
    # Matches np.gradient(..., edge_order=2): central interior, one-sided edges.
    d = scipy.sparse.lil_matrix((n, n))
    for i in range(1, n - 1):
        d[i, i - 1] = -0.5 / h
        d[i, i + 1] = 0.5 / h
    d[0, 0], d[0, 1], d[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    d[n - 1, n - 1], d[n - 1, n - 2], d[n - 1, n - 3] = 1.5 / h, -2.0 / h, 0.5 / h
    return d.tocsr()


def _apply_matrix_along(mat: scipy.sparse.spmatrix, values: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(values, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = mat @ flat
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def _spectral_wavenumbers(n: int, h: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=h)


def _spectral_derive(values: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    n = values.shape[axis]
    k = _spectral_wavenumbers(n, h)
    if order == 1:
        mult = 1j * k
        if n % 2 == 0:
            mult[n // 2] = 0.0  # Nyquist first derivative is ambiguous; drop it
    else:
        mult = -(k * k)
    shape = [1] * values.ndim
    shape[axis] = n
    out = np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)
    if np.isrealobj(values):
        return out.real
    return out


def derive_along(
    values: np.ndarray, h: float, axis: int, boundary: str, scheme: str = CENTRAL
) -> np.ndarray:
    """First derivative of an array along one axis with spacing ``h``."""
    if values.shape[axis] < 3:
        raise GridError("derivatives need at least 3 cells per axis")
    if scheme == SPECTRAL:
        if boundary != PERIODIC:
            raise GridError("spectral derivatives require a periodic grid")
        return _spectral_derive(values, h, axis, order=1)
    if scheme != CENTRAL:
        raise GridError(f"unknown derivative scheme {scheme!r}")
    if boundary == PERIODIC:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    if np.iscomplexobj(values):
        return np.gradient(values.real, h, axis=axis, edge_order=2) + 1j * np.gradient(
            values.imag, h, axis=axis, edge_order=2
        )
    return np.gradient(values, h, axis=axis, edge_order=2)


def derive_along_adjoint(
    values: np.ndarray, h: float, axis: int, boundary: str, scheme: str = CENTRAL
) -> np.ndarray:
    """Adjoint of :func:`derive_along` in the plain (unweighted) dot product."""
    if scheme == SPECTRAL or boundary == PERIODIC:
        # Both the wrapped central stencil and the spectral operator are
        # antisymmetric as real matrices.
        return -derive_along(values, h, axis, boundary, scheme)
    n = values.shape[axis]
    mat = _dirichlet_first_derivative_matrix(n, h).T.tocsr()
    return _apply_matrix_along(mat, values, axis)


def second_derive_along(
    values: np.ndarray, h: float, axis: int, boundary: str, scheme: str = CENTRAL
) -> np.ndarray:
    """Second derivative along one axis, same stencil family as derive_along."""
    if values.shape[axis] < 4 and boundary == DIRICHLET_ZERO:
        raise GridError("dirichlet second derivative needs at least 4 cells per axis")
    if values.shape[axis] < 3:
        raise GridError("derivatives need at least 3 cells per axis")
    if scheme == SPECTRAL:
        if boundary != PERIODIC:
            raise GridError("spectral derivatives require a periodic grid")
        return _spectral_derive(values, h, axis, order=2)
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
    dirichlet Laplacian.
    """
    total = None
    for ax in range(grid.dim):
        n = grid.cells[ax]
        mat = scipy.sparse.diags(
            [np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)], [-1, 0, 1], format="lil"
        )
        if grid.boundary == PERIODIC:
            # added, not set: on one or two cells the wrapped link doubles an
            # ordinary one
            mat[0, n - 1] += 1.0
            mat[n - 1, 0] += 1.0
        ops = [scipy.sparse.identity(m) for m in grid.cells]
        ops[ax] = (mat / grid.spacing[ax] ** 2).tocsr()
        term = ops[0]
        for op in ops[1:]:
            term = scipy.sparse.kron(term, op)
        total = term if total is None else total + term
    return total.tocsr()


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


# ---------------------------------------------------------------------------
# field-level operators
# ---------------------------------------------------------------------------


def gradient(f: ScalarField, scheme: str = CENTRAL) -> VectorField3:
    """Spatial gradient as a 3-vector field (components beyond dim are zero)."""
    g = f.grid
    out = np.zeros(g.shape + (3,))
    for ax in range(g.dim):
        out[..., ax] = derive_along(f.values, g.spacing[ax], ax, g.boundary, scheme)
    return VectorField3(g, out)


def divergence(v: VectorField3, scheme: str = CENTRAL) -> ScalarField:
    g = v.grid
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        out += derive_along(v.values[..., ax], g.spacing[ax], ax, g.boundary, scheme)
    return ScalarField(g, out)


def curl(v: VectorField3, scheme: str = CENTRAL) -> VectorField3:
    """Curl on a grid of any dimension; derivatives along axes the grid does
    not have are zero."""
    return VectorField3(v.grid, curl_stack(v.values, v.grid, scheme))


def curl_stack(values: np.ndarray, g: Grid, scheme: str = CENTRAL) -> np.ndarray:
    """Curl of 3-vector values shaped ``lead + g.shape + (3,)``, taken over the
    grid axes for every leading index at once (for example a stack of frames).
    Each leading index gets the bits :func:`curl` gives for it alone."""
    lead = values.ndim - 1 - g.dim

    def d(comp: int, ax: int) -> np.ndarray:
        if ax >= g.dim:
            return np.zeros(values.shape[:-1])
        return derive_along(values[..., comp], g.spacing[ax], lead + ax, g.boundary, scheme)

    out = np.empty(values.shape)
    out[..., 0] = d(2, 1) - d(1, 2)
    out[..., 1] = d(0, 2) - d(2, 0)
    out[..., 2] = d(1, 0) - d(0, 1)
    return out


def laplacian(f: ScalarField, scheme: str = CENTRAL) -> ScalarField:
    g = f.grid
    out = np.zeros(g.shape)
    for ax in range(g.dim):
        out += second_derive_along(f.values, g.spacing[ax], ax, g.boundary, scheme)
    return ScalarField(g, out)


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


def normalize(f: ScalarField) -> ScalarField:
    """Rescale a nonnegative field to unit integral."""
    if np.any(f.values < 0):
        raise GridError("normalize requires a nonnegative field")
    mass = integrate(f)
    if mass <= 0:
        raise GridError(f"normalize requires positive mass, got {mass}")
    return ScalarField(f.grid, f.values / mass)
