"""Continuum functionals over polar and spinor fields.

The same physics is carried by three parameterizations, one per step of
the derivation:

- the joint route: per-color densities P+- and actions S+-, with the Fisher
  information and the motion constraint of each color summed;
- the polar route: density P, color angle theta, action S and relative
  phase phi, where lam * Fisher + knowledge functional is one integrand;
- the spinor route: the quadratic form on the complex two-component
  wavefunction, whose stationary points solve the wave equation.

The equivalence verifier evaluates all three on one configuration; the
coefficients are those ``PhysicalConstants`` derives from hbar, mass,
charge and moment, so the identification holds by construction.  The joint
route reuses the polar route's derivatives, so it agrees to round-off; the
spinor route takes its own and agrees to the discretization error.

Every field enters as one array stack: a scalar field as (frames,) +
grid.shape, a vector field and the wavefunction with their components first,
(3, frames) + grid.shape and (2, frames) + grid.shape.  The frames are
snapshots in time; time integrals are trapezoidal (rectangle rule when the
sequence is periodic), and time derivatives use the same stencil family as
the spatial operators.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.fft

from .grids import (
    CENTRAL,
    DIRICHLET_ZERO,
    PERIODIC,
    POSITIVITY_FLOOR,
    SPECTRAL,
    Grid,
    GridError,
    _locked,
    _weights_1d,
    curl_stack,
    derive_along,
    phase_derive_along,
    quadrature_weights,
)


class FunctionalError(ValueError):
    """Raised for inconsistent field sets or violated preconditions."""


@dataclass(frozen=True)
class PhysicalConstants:
    """The particle's constants, MKS units, and the coefficients the
    functionals take from them under the identification a = hbar/2,
    lam = hbar^2/(8m).  ``spin_coupling`` (J/T), the sigma.B coefficient of
    every route and the solver, is ``moment`` when given, else q*hbar/(2m):
    a neutral particle is ``charge=0.0`` with a moment.  ``lam`` weights the
    Fisher information, ``a`` converts the relative phase into half the
    action difference of the two colors.
    """

    hbar: float
    mass: float
    charge: float
    moment: float | None = None

    @property
    def a(self) -> float:
        return self.hbar / 2.0

    @property
    def lam(self) -> float:
        return self.hbar**2 / (8.0 * self.mass)

    @property
    def spin_coupling(self) -> float:
        """Energy-per-field coefficient of the sigma.B term."""
        return self.charge * self.hbar / (2.0 * self.mass) if self.moment is None else self.moment


def _check_density(p: np.ndarray, grid: Grid) -> None:
    """A nonnegative density of unit mass in each frame of a (frames,) + shape
    stack; the comparisons are negated, so a NaN cell fails them."""
    if not np.all(p >= -1e-13):
        raise FunctionalError("density must be nonnegative")
    w = quadrature_weights(grid)
    for total in (float(np.sum(w * frame)) for frame in p):
        if not abs(total - 1.0) <= 1e-10:
            raise FunctionalError(f"density must integrate to 1, got {total}")


# ---------------------------------------------------------------------------
# snapshot stacking and time derivatives
# ---------------------------------------------------------------------------


def _time_weights(n: int, dt: float, periodic: bool) -> np.ndarray:
    """The space weights' trapezoid rule along time; one frame weighs 1."""
    if n == 1:
        return np.array([1.0])
    if dt <= 0:
        raise FunctionalError("snapshot sequences require dt > 0")
    return _weights_1d(n, dt, PERIODIC if periodic else DIRICHLET_ZERO)


def _time_derivative(stack: np.ndarray, dt: float, periodic: bool, scheme: str) -> np.ndarray:
    """d/dt along the first axis of ``stack``; one frame is static."""
    n = stack.shape[0]
    if n == 1:
        return np.zeros_like(stack)
    if n < 3:
        raise FunctionalError("time derivatives need at least 3 snapshots")
    if dt <= 0:
        raise FunctionalError("snapshot sequences require dt > 0")
    boundary = PERIODIC if periodic else DIRICHLET_ZERO
    use_scheme = scheme if (scheme == SPECTRAL and periodic) else CENTRAL
    return derive_along(stack, dt, 0, boundary, use_scheme)


def _grad_stack(stack: np.ndarray, grid: Grid, scheme: str, angle: bool = False) -> list[np.ndarray]:
    out = []
    for ax in range(grid.dim):
        h = grid.spacing[ax]
        if angle and scheme == CENTRAL:
            out.append(phase_derive_along(stack, h, 1 + ax, grid.boundary))
        else:
            out.append(derive_along(stack, h, 1 + ax, grid.boundary, scheme))
    return out


def _integrate_stack(integrand: np.ndarray, grid: Grid, tw: np.ndarray):
    w = quadrature_weights(grid)
    per_frame = np.tensordot(integrand, w, axes=(tuple(range(1, integrand.ndim)), tuple(range(w.ndim))))
    total = np.dot(tw, per_frame)
    return total


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def _fisher_density(
    p_stack: np.ndarray, grad_p: Sequence[np.ndarray], grad_theta: Sequence[np.ndarray] = ()
) -> np.ndarray:
    """|grad P|^2 / P + |grad theta|^2 P per cell from precomputed gradients;
    cells below the positivity floor are excluded from the 1/P part."""
    included = p_stack >= POSITIVITY_FLOOR
    safe_p = np.where(included, p_stack, 1.0)
    dens = np.zeros_like(p_stack)
    for gp in grad_p:
        dens += np.where(included, gp * gp / safe_p, 0.0)
    for gt in grad_theta:
        dens += gt * gt * p_stack
    return dens


def fisher_continuum(grid: Grid, p: np.ndarray, theta: np.ndarray | None = None) -> float:
    """Position sensitivity of the click statistics at one instant, polar form.

    Integrates |grad P|^2 / P + |grad theta|^2 P over space.  Cells below the
    positivity floor are excluded from the 1/P part.  ``p`` and ``theta``
    are finite ``grid.shape`` arrays, and ``p`` is checked as the
    equivalence stacks' density is: nonnegative and of unit mass.
    """
    p_stack = _locked("p", p, grid.shape, FunctionalError)[None]
    _check_density(p_stack, grid)
    grad_theta = () if theta is None else _grad_stack(
        _locked("theta", theta, grid.shape, FunctionalError)[None], grid, CENTRAL, angle=True)
    dens = _fisher_density(p_stack, _grad_stack(p_stack, grid, CENTRAL), grad_theta)
    return float(_integrate_stack(dens, grid, np.ones(1)))


# ---------------------------------------------------------------------------
# polar-side functionals
# ---------------------------------------------------------------------------


POLAR_FIELDS = ("p", "theta", "s", "phi")
_VECTORS = ("a_pot", "b")


@dataclass(frozen=True)
class _PolarStacks:
    grid: Grid
    p: np.ndarray
    theta: np.ndarray
    s: np.ndarray
    phi: np.ndarray
    tw: np.ndarray
    ds_dt: np.ndarray
    dphi_dt: np.ndarray
    grad_p: list[np.ndarray]
    grad_theta: list[np.ndarray]
    grad_s: list[np.ndarray]
    grad_phi: list[np.ndarray]
    phi_pot: np.ndarray
    a_pot: np.ndarray
    b: np.ndarray
    u: np.ndarray


def _stacks(grid, fields, dt, time_periodic, scheme) -> _PolarStacks:
    """Derivatives and time weights for the (frames,) + grid.shape stacks in
    ``fields`` (vector components first), taken as given: no density checks."""
    return _PolarStacks(
        grid=grid,
        **fields,
        ds_dt=_time_derivative(fields["s"], dt, time_periodic, scheme),
        dphi_dt=_time_derivative(fields["phi"], dt, time_periodic, scheme),
        tw=_time_weights(fields["p"].shape[0], dt, time_periodic),
        grad_p=_grad_stack(fields["p"], grid, scheme),
        grad_theta=_grad_stack(fields["theta"], grid, scheme, angle=True),
        grad_s=_grad_stack(fields["s"], grid, scheme),
        grad_phi=_grad_stack(fields["phi"], grid, scheme, angle=True),
    )


def _polar_terms(st: _PolarStacks, consts: PhysicalConstants) -> dict[str, np.ndarray]:
    """Per-cell densities of lam * Fisher + knowledge functional, by term.

    ``fisher`` is lam times the Fisher density.  The other four are per unit
    click density and enter weighted by P: the kinetic group
    (|grad S - qA|^2 + a^2 |grad phi|^2 - 2a cos(theta) grad phi.(grad S - qA)) / 2m,
    the time group dS/dt - a cos(theta) dphi/dt, the scalar potential
    q*phi_pot + u, and the moment coupling -spin_coupling*(m.B).
    """
    q, a = consts.charge, consts.a
    gauge_sq = np.zeros_like(st.p)
    phi_sq = np.zeros_like(st.p)
    cross = np.zeros_like(st.p)
    for ax in range(st.grid.dim):
        gauge = st.grad_s[ax] - q * st.a_pot[ax]
        gauge_sq += gauge * gauge
        phi_sq += st.grad_phi[ax] ** 2
        cross += st.grad_phi[ax] * gauge
    for ax in range(st.grid.dim, 3):
        # gradients along missing axes vanish; the vector potential still acts
        gauge_sq += (q * st.a_pot[ax]) ** 2
    cos_t = np.cos(st.theta)
    sin_t = np.sin(st.theta)
    moment_dot_b = (
        st.b[0] * sin_t * np.cos(st.phi)
        + st.b[1] * sin_t * np.sin(st.phi)
        + st.b[2] * cos_t
    )
    return {
        "fisher": consts.lam * _fisher_density(st.p, st.grad_p, st.grad_theta),
        "kinetic": (gauge_sq + a**2 * phi_sq - 2.0 * a * cos_t * cross) / (2.0 * consts.mass),
        "time": st.ds_dt - a * cos_t * st.dphi_dt,
        "potential": q * st.phi_pot + st.u,
        "moment_coupling": -consts.spin_coupling * moment_dot_b,
    }


def _knowledge(terms: dict[str, np.ndarray]) -> np.ndarray:
    # the summation order shows in the data outputs' last bits: the scalar
    # potential joins the moment coupling before the other groups
    return terms["kinetic"] + terms["time"] + (terms["potential"] + terms["moment_coupling"])


def _total_of_terms(st: _PolarStacks, terms: dict[str, np.ndarray]) -> float:
    """Integral of lam * Fisher + knowledge functional from its term densities."""
    integrand = terms["fisher"] + _knowledge(terms) * st.p
    return float(_integrate_stack(integrand, st.grid, st.tw))


def _joint_total(st: _PolarStacks, shared: np.ndarray, consts: PhysicalConstants) -> float:
    """The same integral by the joint (position, color) route.

    Over the color densities P+- = P cos^2(theta/2), P sin^2(theta/2) and the
    color actions S+- = S -+ a*phi the integrand is the sum over both colors
    of lam |grad P+-|^2 / P+- + P+- (dS+-/dt + |grad S+- - qA|^2 / 2m), plus
    P times ``shared``, the scalar potential and moment coupling per unit
    density.  grad P+- follows from grad P and grad theta by the product
    rule, so no derivative is taken beyond the polar route's.
    """
    q, a = consts.charge, consts.a
    rotate = 0.5 * st.p * np.sin(st.theta)  # -+ d P+- / d theta
    integrand = shared * st.p
    for trig, sign in ((np.cos, -1.0), (np.sin, 1.0)):
        weight = trig(0.5 * st.theta) ** 2
        grad_p_k = (weight * gp + sign * rotate * gt for gp, gt in zip(st.grad_p, st.grad_theta))
        integrand += consts.lam * _fisher_density(weight * st.p, grad_p_k)
        motion = st.ds_dt + sign * a * st.dphi_dt
        for ax in range(3):
            gauge = -q * st.a_pot[ax]
            if ax < st.grid.dim:  # gradients along missing axes vanish
                gauge += st.grad_s[ax] + sign * a * st.grad_phi[ax]
            motion += gauge * gauge / (2.0 * consts.mass)
        integrand += weight * st.p * motion
    return float(_integrate_stack(integrand, st.grid, st.tw))


def _term_values(st: _PolarStacks, terms: dict[str, np.ndarray]) -> dict[str, float]:
    """Integral of each term density."""
    return {
        name: float(_integrate_stack(dens if name == "fisher" else dens * st.p, st.grid, st.tw))
        for name, dens in terms.items()
    }


# ---------------------------------------------------------------------------
# polar <-> spinor maps
# ---------------------------------------------------------------------------


def spinor_from_polar(p, theta, s, phi, consts: PhysicalConstants) -> np.ndarray:
    """Two-component wavefunction sqrt(P_k) exp(i S_k / hbar) with
    S_k = S -+ a*phi for the two colors, of polar arrays, colors stacked first."""
    amp, half = np.sqrt(np.maximum(p, 0.0)), 0.5 * theta
    psi = np.empty((2,) + amp.shape, dtype=complex)
    for k, (trig, sign) in enumerate(((np.cos, -1.0), (np.sin, 1.0))):
        np.multiply(amp * trig(half), np.exp(1j * ((s + sign * consts.a * phi) / consts.hbar)),
                    out=psi[k])
    return psi


def _unwrap_raster(angles: np.ndarray) -> np.ndarray:
    out = angles
    for ax in range(angles.ndim):
        out = np.unwrap(out, axis=ax)
    return out


def polar_from_spinor(psi: np.ndarray, consts: PhysicalConstants):
    """Invert the polar map on a colors-first wavefunction stack: density,
    color angle in [0, pi], action, and relative phase (unwrapped along a
    fixed raster order), and the mask of cells where they are valid.

    Cells where both components fall below the positivity floor are left out
    of the mask and carry zero angle fields.  Returns (p, theta, s, phi, mask).
    """
    c1, c2 = psi
    p = np.abs(c1) ** 2 + np.abs(c2) ** 2
    valid = p >= POSITIVITY_FLOOR
    theta = np.where(valid, 2.0 * np.arctan2(np.abs(c2), np.abs(c1)), 0.0)
    a1 = _unwrap_raster(np.where(valid, np.angle(c1), 0.0))
    a2 = _unwrap_raster(np.where(valid, np.angle(c2), 0.0))
    s = consts.hbar * (a1 + a2) / 2.0
    rel = consts.hbar * (a2 - a1) / (2.0 * consts.a)
    return p, theta, np.where(valid, s, 0.0), np.where(valid, rel, 0.0), valid


# ---------------------------------------------------------------------------
# spinor-side quadratic form
# ---------------------------------------------------------------------------


# With four-frame chunks alone, a 2^20-value set of 3 or 4 frames (70^3 x 3,
# 64^3 x 4) took its whole stack in one chunk and peaked at 530-570 MB RSS,
# against 460-477 MB with this cap
_CHUNK_VALUES = 2**18


def q_spinor(grid: Grid, psi: np.ndarray, em: dict[str, np.ndarray], consts: PhysicalConstants,
             dt: float = 0.0, time_periodic: bool = False, scheme: str = CENTRAL) -> float:
    """Quadratic form evaluated directly on the two-component wavefunction.

    The integrand combines the time term hbar Im(Psi* dPsi/dt), the
    gauge-covariant kinetic term |-i hbar grad Psi - qA Psi|^2 / 2m, the
    scalar-potential term (q*phi_pot plus the optional u), and the moment
    coupling; each is evaluated in real arithmetic.  ``psi`` is the
    (2, frames) + grid.shape wavefunction stack and ``em`` holds the
    potential stacks ``phi_pot``, ``a_pot``, ``b`` and ``u``.
    """
    hbar, m, q = consts.hbar, consts.mass, consts.charge
    re, im = psi.real, psi.imag
    integrand = np.zeros(psi.shape[1:])
    # hbar Im(Psi* dPsi/dt) = (i hbar / 2) (dPsi*/dt Psi - Psi* dPsi/dt)
    for k in (0, 1):
        d = _time_derivative(psi[k], dt, time_periodic, scheme)
        integrand += hbar * (re[k] * d.imag - im[k] * d.real)
    # the other terms are local in time: four frames at a time, fewer once four
    # frames hold more than _CHUNK_VALUES values, bound the temporaries
    step = min(4, max(1, _CHUNK_VALUES // integrand[0].size))
    for f in range(0, psi.shape[1], step):
        t = slice(f, f + step)
        out, re_t, im_t = integrand[t], re[:, t], im[:, t]
        a_pot, b = em["a_pot"][:, t], em["b"][:, t]
        # |-i hbar grad Psi - qA Psi|^2 / 2m, real and imaginary parts squared
        for ax in range(grid.dim):
            h = grid.spacing[ax]
            for k in (0, 1):
                d = derive_along(psi[k, t], h, 1 + ax, grid.boundary, scheme)
                qa = q * a_pot[ax]
                real = hbar * d.imag - qa * re_t[k]
                imag = hbar * d.real + qa * im_t[k]
                out += (real * real + imag * imag) / (2.0 * m)
        # axes beyond the grid dimension contribute only the A^2 piece
        dens = re_t * re_t + im_t * im_t
        norm_sq = dens[0] + dens[1]
        for ax in range(grid.dim, 3):
            out += (q * a_pot[ax]) ** 2 * norm_sq / (2.0 * m)

        out += (q * em["phi_pot"][t] + em["u"][t]) * norm_sq

        sigma_x = 2.0 * (re_t[0] * re_t[1] + im_t[0] * im_t[1])
        sigma_y = 2.0 * (re_t[0] * im_t[1] - im_t[0] * re_t[1])
        sigma_z = dens[0] - dens[1]
        out += -consts.spin_coupling * (b[0] * sigma_x + b[1] * sigma_y + b[2] * sigma_z)

    tw = _time_weights(psi.shape[1], dt, time_periodic)
    return float(_integrate_stack(integrand, grid, tw))


# ---------------------------------------------------------------------------
# equivalence verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """The polar total against the joint and spinor routes on one configuration."""

    total: float
    joint: float
    q_spinor: float
    # joint route against the polar total
    rel_residual: float
    spinor_abs_residual: float
    spinor_rel_residual: float
    # per-term values of lam * Fisher + knowledge functional, and ``total`` under "total"
    breakdown: dict[str, float]


def _check_stacks(grid: Grid, fields: dict[str, np.ndarray]) -> None:
    """The stacks' shapes, real finite values, and a nonnegative density of
    unit mass in every frame."""
    frames = (len(fields["p"]),) + grid.shape
    for name, values in fields.items():
        want = ((3,) if name in _VECTORS else ()) + frames
        if values.shape != want:
            raise FunctionalError(f"{name} stack shape {values.shape}, expected {want}")
        if np.iscomplexobj(values):
            raise FunctionalError(f"{name} stack must be real, got {values.dtype}")
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
    _check_density(fields["p"], grid)


def _spinor_route(grid, fields, consts, dt, time_periodic, scheme) -> float:
    psi = spinor_from_polar(*(fields[name] for name in POLAR_FIELDS), consts)
    if not np.all(np.isfinite(psi)):
        raise GridError("field values must be finite")
    return q_spinor(grid, psi, fields, consts, dt, time_periodic, scheme)


def equivalence_residual(grid: Grid, fields: dict[str, np.ndarray], consts: PhysicalConstants,
                         dt: float = 0.0, time_periodic: bool = False,
                         scheme: str = CENTRAL) -> EquivalenceReport:
    """Evaluate lam * Fisher + knowledge functional on the polar fields, and
    compare it against the joint (position, color) route over the same
    derivatives and against the spinor route on the mapped wavefunction.

    ``fields`` holds the polar and potential stacks, as
    :func:`random_smooth_configuration` returns them; they are checked once.
    The spinor route, which only reads them, runs on a worker thread beside
    the polar and joint routes, and the call joins it before it returns or
    raises; its error, if any, is raised as it was.  numpy's error state
    is per thread, so an ``np.errstate`` around this call does not reach
    the spinor route; no caller sets one.
    """
    _check_stacks(grid, fields)
    with concurrent.futures.ThreadPoolExecutor(1) as worker:
        spinor = worker.submit(_spinor_route, grid, fields, consts, dt, time_periodic, scheme)
        st = _stacks(grid, fields, dt, time_periodic, scheme)
        terms = _polar_terms(st, consts)
        tot = _total_of_terms(st, terms)
        breakdown = {**_term_values(st, terms), "total": tot}
        shared = terms["potential"] + terms["moment_coupling"]
        del terms  # each route allocates its own temporaries; hold no more than needed
        joint = _joint_total(st, shared, consts)
        del st, shared
        qs = spinor.result()

    def rel(absval, d):
        return 0.0 if absval == 0.0 else (absval / d if d > 0 else float("inf"))

    return EquivalenceReport(
        total=tot,
        joint=joint,
        q_spinor=qs,
        rel_residual=rel(abs(joint - tot), max(abs(joint), abs(tot))),
        spinor_abs_residual=abs(qs - tot),
        spinor_rel_residual=rel(abs(qs - tot), max(abs(tot), abs(qs))),
        breakdown=breakdown,
    )


# ---------------------------------------------------------------------------
# stationary-limit residuals and the variational equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationarityResiduals:
    """Max-norm residuals of the four stationary-limit equations."""

    phase_rate: float
    tilt_rate: float
    density_motion: float
    action_rate: float


def stationarity_residual_static(grid: Grid, fields: dict[str, np.ndarray],
                                 consts: PhysicalConstants, dt: float,
                                 time_periodic: bool = False) -> StationarityResiduals:
    """Residuals of the heavy-mass stationary equations with the moment
    coupling -spin_coupling*(m.B) substituted for the color-splitting potential.

    The four equations govern the rates of the half action difference R,
    of cos(theta), the frozen density, and the common action.  ``fields``
    holds the stacks :func:`equivalence_residual` takes.
    """
    _check_stacks(grid, fields)
    st = _stacks(grid, fields, dt, time_periodic, CENTRAL)
    a, mu = consts.a, consts.spin_coupling
    z = np.cos(st.theta)
    sin_t = np.sin(st.theta)
    bx, by, bz = st.b
    in_plane = bx * np.cos(st.phi) + by * np.sin(st.phi)
    coupling = -mu * (sin_t * in_plane + z * bz)  # the split potential
    off_pole = np.abs(sin_t) > 1e-12
    z_over_sin = np.where(off_pole, z / np.where(off_pole, sin_t, 1.0), 0.0)
    d_coupling_dz = -mu * (bz - z_over_sin * in_plane)
    # R = a*phi, so d/dR = (1/a) d/dphi
    d_coupling_dr = -(mu / a) * sin_t * (-bx * np.sin(st.phi) + by * np.cos(st.phi))

    dr_dt = a * st.dphi_dt
    dz_dt = _time_derivative(z, dt, time_periodic, CENTRAL)

    r_phase = dr_dt - d_coupling_dz
    r_tilt = dz_dt + d_coupling_dr
    r_density = st.s * _time_derivative(st.p, dt, time_periodic, CENTRAL)
    r_action = st.ds_dt - z * dr_dt + coupling

    def norm(arr):
        return float(np.max(np.abs(arr)))

    return StationarityResiduals(norm(r_phase), norm(r_tilt), norm(r_density), norm(r_action))


def euler_lagrange_residual(grid: Grid, p: np.ndarray, source, consts: PhysicalConstants,
                            scheme: str = CENTRAL) -> np.ndarray:
    """Pointwise residual of the stationarity equation of one color density:

        lam (grad P)^2 / P^2 + 2 lam div(grad P / P) - F = 0,

    for finite ``grid.shape`` arrays ``p`` and ``source`` (F; a number is
    uniform).  Cells below the positivity floor are masked to zero.
    """
    p = _locked("p", p, grid.shape, FunctionalError)
    uniform = np.ndim(source) == 0
    f_vals = _locked("source", np.broadcast_to(source, grid.shape) if uniform else source,
                     grid.shape, FunctionalError)
    included = p >= POSITIVITY_FLOOR
    if not np.any(included):
        raise FunctionalError("density entirely below the positivity floor")
    safe = np.where(included, p, 1.0)
    grad_sq = np.zeros(grid.shape)
    div_ratio = np.zeros(grid.shape)
    for ax in range(grid.dim):
        gp = derive_along(p, grid.spacing[ax], ax, grid.boundary, scheme)
        grad_sq += gp * gp
        ratio = np.where(included, gp / safe, 0.0)
        div_ratio += derive_along(ratio, grid.spacing[ax], ax, grid.boundary, scheme)
    resid = consts.lam * grad_sq / safe**2 + 2.0 * consts.lam * div_ratio - f_vals
    return np.where(included, resid, 0.0)


# ---------------------------------------------------------------------------
# random smooth configurations for the verifier
# ---------------------------------------------------------------------------


def _band_limited_spacetime(
    frames: int, grid: Grid, rng: np.random.Generator, max_mode: int, amplitude: float,
    zero_spatial_mean: bool = False,
) -> np.ndarray:
    """Space-time periodic random field, band-limited on every axis.

    The spectrum is nonzero only on the band, so the inverse transform runs
    one ``scipy.fft.ifft`` per axis, last axis first as ``np.fft.ifftn`` does,
    over the lines the band reaches: the bits of ``np.fft.ifftn`` over the
    full spectrum, for less work.
    """
    shape = (frames,) + grid.shape
    ranges = [
        np.r_[0 : max_mode + 1, n - max_mode : n] if n > 2 * max_mode else np.arange(n)
        for n in shape
    ]
    band = tuple(len(r) for r in ranges)
    count = int(np.prod(band))
    block = (rng.normal(size=count) + 1j * rng.normal(size=count)).reshape(band)
    if zero_spatial_mean:
        block[(slice(None),) + (0,) * grid.dim] = 0.0  # every range starts at mode 0
    for ax in reversed(range(len(shape))):
        # widen this axis to its full length, zeros off the band, then invert it
        wide = np.zeros(block.shape[:ax] + (shape[ax],) + block.shape[ax + 1 :], np.complex128)
        wide[(slice(None),) * ax + (ranges[ax],)] = block
        block = scipy.fft.ifft(wide, axis=ax)
    field = block.real
    peak = np.max(np.abs(field))
    if peak > 0:
        field *= amplitude / peak
    return field


def random_smooth_configuration(grid: Grid, frames: int, consts: PhysicalConstants, seed: int,
                                max_mode: int = 1, amplitude: float = 0.2
                                ) -> tuple[dict[str, np.ndarray], float]:
    """Seeded band-limited periodic polar + potential stacks.

    Returns (stacks, dt): ``p``, ``theta``, ``s``, ``phi``, ``phi_pot`` and
    ``u`` shaped (frames,) + grid.shape, and ``a_pot`` and ``b`` = curl
    ``a_pot`` shaped (3, frames) + grid.shape.  Every field is periodic in
    space and time, suitable for the spectral equivalence check.
    """
    if grid.boundary != PERIODIC:
        raise FunctionalError("random smooth configurations require periodic grids")
    rng = np.random.default_rng(seed)
    volume = float(np.prod(grid.extents))
    scale_k = 2.0 * np.pi / min(grid.extents)

    def bl(amp, zero_mean=False):
        return _band_limited_spacetime(frames, grid, rng, max_mode, amp, zero_mean)

    p = (1.0 + bl(amplitude, zero_mean=True)) / volume
    theta = np.pi / 2.0 + 1.5 * amplitude * bl(1.0)
    s = consts.hbar * bl(2.0 * amplitude)
    phi = 2.0 * amplitude * bl(1.0)
    # a neutral particle's potentials scale with the charge whose q hbar / 2m is its moment
    charge = consts.charge or 2.0 * consts.mass * consts.spin_coupling / consts.hbar
    phi_pot = consts.hbar * scale_k * bl(amplitude) / max(abs(charge), 1e-30)
    a_scale = consts.hbar * scale_k / max(abs(charge), 1e-30)
    a = np.stack([a_scale * bl(amplitude) for _ in range(3)])
    u = consts.hbar * scale_k * bl(amplitude)
    period = 2.0 * np.pi / (scale_k * consts.hbar / consts.mass)
    # one spectral derivative per component and axis covers every frame
    stacks = {"p": p, "theta": theta, "s": s, "phi": phi, "phi_pot": phi_pot, "a_pot": a,
              "b": curl_stack(a, grid, SPECTRAL), "u": u}
    return stacks, period / frames
