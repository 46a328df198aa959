"""Continuum functionals over polar and spinor fields.

The same physics is carried by two parameterizations: a polar set
(density P, color angle theta, action S, relative phase phi) and a complex
two-component wavefunction.  This module evaluates the Fisher-information
functional, the classical-knowledge functional, their weighted sum, the
quadratic form whose stationary points solve the two-component wave
equation, and the numerical verifier that the two routes agree once the
physical identification of the coefficients is switched on.

Time is an outer sequence of spatial snapshots.  Time integrals are
trapezoidal (rectangle rule when the sequence is periodic); time derivatives
use the same stencil family as the spatial operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import (
    CENTRAL,
    DIRICHLET_ZERO,
    PERIODIC,
    POSITIVITY_FLOOR,
    SPECTRAL,
    Grid,
    ScalarField,
    SpinorField,
    VectorField3,
    curl,
    curl_stack,
    derive_along,
    gradient,
    integrate,
    phase_derive_along,
    quadrature_weights,
)


class FunctionalError(ValueError):
    """Raised for inconsistent field sets or violated preconditions."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Coefficient set for the functionals, MKS units.

    ``gamma`` is the angular-rate gyromagnetic coefficient (rad/(s*T)); the
    moment coupling in the knowledge functional is -a*gamma*(m.B), which is an
    energy.  ``lam`` weights the Fisher information, ``a`` converts the
    relative phase into half the action difference of the two colors.  With
    ``identification`` active the values satisfy a = hbar/2, gamma = q/m,
    lam = hbar^2/(8m); the equivalence verifier refuses to run otherwise.
    """

    hbar: float
    mass: float
    charge: float
    gamma: float
    lam: float
    a: float
    identification: bool = False

    def gamma_energy(self) -> float:
        """Moment-field coupling in J/T (the a*gamma product)."""
        return self.a * self.gamma


def pauli_constants(hbar: float = 1.0, mass: float = 1.0, charge: float = 1.0) -> PhysicalConstants:
    """Constants with the wave-equation identification applied."""
    return PhysicalConstants(
        hbar=hbar,
        mass=mass,
        charge=charge,
        gamma=charge / mass,
        lam=hbar**2 / (8.0 * mass),
        a=hbar / 2.0,
        identification=True,
    )


def natural_constants() -> PhysicalConstants:
    """hbar = m = q = 1 preset used throughout the tests."""
    return pauli_constants(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class PolarFields:
    """One time slice of the polar parameterization.

    ``p`` integrates to one over the grid; ``theta`` is the color angle;
    ``s`` the common action; ``phi`` the relative phase.  ``mask`` flags
    cells where the parameterization is valid (None means everywhere).
    """

    p: ScalarField
    theta: ScalarField
    s: ScalarField
    phi: ScalarField
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        g = self.p.grid
        for f in (self.theta, self.s, self.phi):
            if f.grid != g:
                raise FunctionalError("polar fields must share one grid")
        if np.any(self.p.values < -1e-13):
            raise FunctionalError("density must be nonnegative")
        total = integrate(self.p)
        if abs(total - 1.0) > 1e-10:
            raise FunctionalError(f"density must integrate to 1, got {total}")
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool)
            if m.shape != g.shape:
                raise FunctionalError("mask shape does not match grid")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "mask", m)

    @property
    def grid(self) -> Grid:
        return self.p.grid


@dataclass(frozen=True)
class EMConfiguration:
    """Electromagnetic potentials and derived fields on one grid.

    ``b`` defaults to the curl of ``a_pot``; supplying ``b`` directly is the
    standard idealization for uniform or prescribed fields whose vector
    potential is not represented.  ``u`` is a non-electromagnetic scalar
    potential entering the color-symmetric part of the knowledge functional.
    """

    grid: Grid
    phi_pot: ScalarField
    a_pot: VectorField3
    b: VectorField3 | None = None
    e: VectorField3 | None = None
    u: ScalarField | None = None

    def __post_init__(self) -> None:
        fields = [self.phi_pot, self.a_pot] + [
            f for f in (self.b, self.e, self.u) if f is not None
        ]
        for f in fields:
            if f.grid != self.grid:
                raise FunctionalError("electromagnetic fields must share one grid")

    @staticmethod
    def zero(grid: Grid) -> "EMConfiguration":
        return EMConfiguration(
            grid, ScalarField.full(grid, 0.0), VectorField3.zero(grid)
        )

    @staticmethod
    def from_potentials(
        phi_pot: ScalarField,
        a_pot: VectorField3,
        scheme: str = CENTRAL,
        da_dt: VectorField3 | None = None,
    ) -> "EMConfiguration":
        """Derive b = curl(a_pot) and e = -grad(phi) - da/dt."""
        g = phi_pot.grid
        b = curl(a_pot, scheme=scheme) if g.dim == 3 else None
        e_vals = -gradient(phi_pot, scheme=scheme).values
        if da_dt is not None:
            e_vals = e_vals - da_dt.values
        return EMConfiguration(g, phi_pot, a_pot, b=b, e=VectorField3(g, e_vals))

    def b_values(self, scheme: str = CENTRAL) -> np.ndarray:
        if self.b is not None:
            return self.b.values
        if np.all(self.a_pot.values == 0.0):
            return np.zeros(self.grid.shape + (3,))
        return curl(self.a_pot, scheme=scheme).values

    def u_values(self) -> np.ndarray:
        if self.u is None:
            return np.zeros(self.grid.shape)
        return self.u.values


# ---------------------------------------------------------------------------
# snapshot stacking and time derivatives
# ---------------------------------------------------------------------------


def _as_list(obj, kind) -> list:
    if isinstance(obj, kind):
        return [obj]
    out = list(obj)
    if not out or not all(isinstance(x, kind) for x in out):
        raise FunctionalError(f"expected {kind.__name__} or a sequence of them")
    return out


def _time_weights(n: int, dt: float, periodic: bool) -> np.ndarray:
    if n == 1:
        return np.array([1.0])
    if dt <= 0:
        raise FunctionalError("snapshot sequences require dt > 0")
    if periodic:
        return np.full(n, dt)
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _time_derivative(stack: np.ndarray, dt: float, periodic: bool, scheme: str) -> np.ndarray:
    n = stack.shape[0]
    if n == 1:
        return np.zeros_like(stack)
    if n < 3:
        raise FunctionalError("time derivatives need at least 3 snapshots")
    boundary = PERIODIC if periodic else DIRICHLET_ZERO
    use_scheme = scheme if (scheme == SPECTRAL and periodic) else CENTRAL
    return derive_along(stack, dt, 0, boundary, use_scheme)


def _scalar_stack(frames: Sequence[ScalarField]) -> np.ndarray:
    return np.stack([f.values for f in frames], axis=0)


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


def fisher_continuum(
    p_frames,
    theta_frames=None,
    dt: float = 0.0,
    time_periodic: bool = False,
    scheme: str = CENTRAL,
) -> float:
    """Position sensitivity of the click statistics, polar form.

    Integrates |grad P|^2 / P + |grad theta|^2 P over space, trapezoidal in
    time.  Cells below the positivity floor are excluded from the 1/P part.
    """
    p_frames = _as_list(p_frames, ScalarField)
    grid = p_frames[0].grid
    p_stack = _scalar_stack(p_frames)
    if np.any(p_stack < 0):
        raise FunctionalError("density must be nonnegative")
    for frame in p_frames:
        mass = integrate(frame)
        if abs(mass - 1.0) > 1e-6:
            raise FunctionalError(f"density must integrate to 1, got {mass}")
    grad_theta = ()
    if theta_frames is not None:
        theta_frames = _as_list(theta_frames, ScalarField)
        if len(theta_frames) != len(p_frames):
            raise FunctionalError("P and theta sequences must align")
        grad_theta = _grad_stack(_scalar_stack(theta_frames), grid, scheme, angle=True)
    dens = _fisher_density(p_stack, _grad_stack(p_stack, grid, scheme), grad_theta)
    tw = _time_weights(len(p_frames), dt, time_periodic)
    return float(_integrate_stack(dens, grid, tw))


def fisher_joint(
    p_plus_frames,
    p_minus_frames,
    dt: float = 0.0,
    time_periodic: bool = False,
    scheme: str = CENTRAL,
) -> float:
    """Fisher information in the joint (position, color) form: sum over the
    two per-color densities of |grad P_k|^2 / P_k."""
    plus = _as_list(p_plus_frames, ScalarField)
    minus = _as_list(p_minus_frames, ScalarField)
    if len(plus) != len(minus):
        raise FunctionalError("per-color sequences must align")
    grid = plus[0].grid
    stacks = (_scalar_stack(plus), _scalar_stack(minus))
    total = sum(_fisher_density(stack, _grad_stack(stack, grid, scheme)) for stack in stacks)
    tw = _time_weights(len(plus), dt, time_periodic)
    return float(_integrate_stack(total, grid, tw))


# ---------------------------------------------------------------------------
# polar-side functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PolarStacks:
    grid: Grid
    p: np.ndarray
    theta: np.ndarray
    s: np.ndarray
    phi: np.ndarray
    mask: np.ndarray
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


def _stacks(grid, fields, mask, em, dt, time_periodic, scheme) -> _PolarStacks:
    """Derivatives, time weights and potential stacks for (frames,) +
    grid.shape polar arrays, taken as given: no density checks."""
    p, theta, s, phi = (fields[name] for name in ("p", "theta", "s", "phi"))
    return _PolarStacks(
        grid=grid,
        p=p,
        theta=theta,
        s=s,
        phi=phi,
        mask=mask,
        ds_dt=_time_derivative(s, dt, time_periodic, scheme),
        dphi_dt=_time_derivative(phi, dt, time_periodic, scheme),
        tw=_time_weights(p.shape[0], dt, time_periodic),
        grad_p=_grad_stack(p, grid, scheme),
        grad_theta=_grad_stack(theta, grid, scheme, angle=True),
        grad_s=_grad_stack(s, grid, scheme),
        grad_phi=_grad_stack(phi, grid, scheme, angle=True),
        phi_pot=np.stack([cfg.phi_pot.values for cfg in em]),
        a_pot=np.stack([cfg.a_pot.values for cfg in em]),
        b=np.stack([cfg.b_values(scheme) for cfg in em]),
        u=np.stack([cfg.u_values() for cfg in em]),
    )


def _prepare(polar_frames, em_frames, dt, time_periodic, scheme) -> _PolarStacks:
    polar = _as_list(polar_frames, PolarFields)
    em = _as_list(em_frames, EMConfiguration)
    if len(em) == 1:
        em = em * len(polar)
    if len(em) != len(polar):
        raise FunctionalError("field and potential sequences must align")
    grid = polar[0].grid
    for fr, cfg in zip(polar, em):
        if fr.grid != grid or cfg.grid != grid:
            raise FunctionalError("all snapshots must share one grid")
    fields = {
        name: _scalar_stack([getattr(fr, name) for fr in polar])
        for name in ("p", "theta", "s", "phi")
    }
    mask = np.ones_like(fields["p"])
    for i, fr in enumerate(polar):
        if fr.mask is not None:
            mask[i] = fr.mask.astype(float)
    return _stacks(grid, fields, mask, em, dt, time_periodic, scheme)


def _polar_terms(st: _PolarStacks, consts: PhysicalConstants) -> dict[str, np.ndarray]:
    """Per-cell densities of lam * Fisher + knowledge functional, by term.

    ``fisher`` is lam times the Fisher density.  The other four are per unit
    click density and enter weighted by P: the kinetic group
    (|grad S - qA|^2 + a^2 |grad phi|^2 - 2a cos(theta) grad phi.(grad S - qA)) / 2m,
    the time group dS/dt - a cos(theta) dphi/dt, the scalar potential
    q*phi_pot + u, and the moment coupling -a*gamma*(m.B).
    """
    q, a = consts.charge, consts.a
    gauge_sq = np.zeros_like(st.p)
    phi_sq = np.zeros_like(st.p)
    cross = np.zeros_like(st.p)
    for ax in range(st.grid.dim):
        gauge = st.grad_s[ax] - q * st.a_pot[..., ax]
        gauge_sq += gauge * gauge
        phi_sq += st.grad_phi[ax] ** 2
        cross += st.grad_phi[ax] * gauge
    for ax in range(st.grid.dim, 3):
        # gradients along missing axes vanish; the vector potential still acts
        gauge_sq += (q * st.a_pot[..., ax]) ** 2
    cos_t = np.cos(st.theta)
    sin_t = np.sin(st.theta)
    moment_dot_b = (
        st.b[..., 0] * sin_t * np.cos(st.phi)
        + st.b[..., 1] * sin_t * np.sin(st.phi)
        + st.b[..., 2] * cos_t
    )
    return {
        "fisher": consts.lam * _fisher_density(st.p, st.grad_p, st.grad_theta),
        "kinetic": (gauge_sq + a**2 * phi_sq - 2.0 * a * cos_t * cross) / (2.0 * consts.mass),
        "time": st.ds_dt - a * cos_t * st.dphi_dt,
        "potential": q * st.phi_pot + st.u,
        "moment_coupling": -a * consts.gamma * moment_dot_b,
    }


def _knowledge(terms: dict[str, np.ndarray]) -> np.ndarray:
    # the summation order shows in the data outputs' last bits: the scalar
    # potential joins the moment coupling before the other groups
    return terms["kinetic"] + terms["time"] + (terms["potential"] + terms["moment_coupling"])


def _total_of_terms(st: _PolarStacks, terms: dict[str, np.ndarray]) -> float:
    """Integral of lam * Fisher + knowledge functional from its term densities."""
    integrand = (terms["fisher"] + _knowledge(terms) * st.p) * st.mask
    return float(_integrate_stack(integrand, st.grid, st.tw))


def _total_value(st: _PolarStacks, consts: PhysicalConstants) -> float:
    """Integral of lam * Fisher + knowledge functional over the stacks."""
    return _total_of_terms(st, _polar_terms(st, consts))


def _term_values(st: _PolarStacks, terms: dict[str, np.ndarray]) -> dict[str, float]:
    """Integral of each term density, and their sum under ``"total"``."""
    values = {
        name: float(_integrate_stack(
            (dens if name == "fisher" else dens * st.p) * st.mask, st.grid, st.tw
        ))
        for name, dens in terms.items()
    }
    values["total"] = sum(values.values())
    return values


def lambda_functional(
    polar_frames,
    em_frames,
    consts: PhysicalConstants,
    dt: float = 0.0,
    time_periodic: bool = False,
    scheme: str = CENTRAL,
) -> float:
    """Classical-knowledge functional: averaged motion constraint plus the
    moment-field coupling, weighted by the click density.

    The color-symmetric potential is q*phi_pot + u; the moment coupling is
    -a*gamma*(m.B) with m the unit vector built from (theta, phi).
    """
    st = _prepare(polar_frames, em_frames, dt, time_periodic, scheme)
    integrand = _knowledge(_polar_terms(st, consts)) * st.p * st.mask
    return float(_integrate_stack(integrand, st.grid, st.tw))


def total_functional(
    polar_frames,
    em_frames,
    consts: PhysicalConstants,
    dt: float = 0.0,
    time_periodic: bool = False,
    scheme: str = CENTRAL,
) -> float:
    """Weighted sum: lam * Fisher information + knowledge functional."""
    st = _prepare(polar_frames, em_frames, dt, time_periodic, scheme)
    return _total_value(st, consts)


def q_polar(
    polar_frames,
    em_frames,
    consts: PhysicalConstants,
    dt: float = 0.0,
    time_periodic: bool = False,
    scheme: str = CENTRAL,
) -> float:
    """Quadratic form of the two-component wave equation in polar variables.

    Coefficients are fixed by hbar, mass, and charge: the form is the total
    functional under the identification.  The optional non-electromagnetic
    potential u is added to the scalar-potential group so the polar and
    spinor routes stay comparable whenever u is present.
    """
    st = _prepare(polar_frames, em_frames, dt, time_periodic, scheme)
    return _total_value(st, pauli_constants(consts.hbar, consts.mass, consts.charge))


def averaged_hj_functional(
    polar_frames,
    em_frames,
    consts: PhysicalConstants,
    v_plus: ScalarField,
    v_minus: ScalarField,
    dt: float = 0.0,
    time_periodic: bool = False,
    scheme: str = CENTRAL,
) -> float:
    """Pre-identification knowledge functional with explicit per-color
    potentials: per-color motion constraints averaged over the color split,
    written with the half action difference R = a*phi."""
    st = _prepare(polar_frames, em_frames, dt, time_periodic, scheme)
    terms = _polar_terms(st, consts)
    v0 = 0.5 * (v_plus.values + v_minus.values)
    v1 = 0.5 * (v_plus.values - v_minus.values)
    integrand = (
        terms["kinetic"] + terms["time"] + v0 + v1 * np.cos(st.theta)
    ) * st.p * st.mask
    return float(_integrate_stack(integrand, st.grid, st.tw))


# ---------------------------------------------------------------------------
# polar <-> spinor maps
# ---------------------------------------------------------------------------


def spinor_from_polar(polar: PolarFields, consts: PhysicalConstants) -> SpinorField:
    """Two-component wavefunction sqrt(P_k) exp(i S_k / hbar) with
    S_k = S -+ a*phi for the two colors."""
    g = polar.grid
    p = polar.p.values
    half = 0.5 * polar.theta.values
    amp1 = np.sqrt(np.maximum(p, 0.0)) * np.cos(half)
    amp2 = np.sqrt(np.maximum(p, 0.0)) * np.sin(half)
    s1 = (polar.s.values - consts.a * polar.phi.values) / consts.hbar
    s2 = (polar.s.values + consts.a * polar.phi.values) / consts.hbar
    out = np.empty(g.shape + (2,), dtype=np.complex128)
    out[..., 0] = amp1 * np.exp(1j * s1)
    out[..., 1] = amp2 * np.exp(1j * s2)
    return SpinorField(g, out)


def _unwrap_raster(angles: np.ndarray) -> np.ndarray:
    out = angles
    for ax in range(angles.ndim):
        out = np.unwrap(out, axis=ax)
    return out


def polar_from_spinor(phi: SpinorField, consts: PhysicalConstants) -> PolarFields:
    """Invert the polar map: density, color angle in [0, pi], action, and
    relative phase (unwrapped along a fixed raster order).

    Cells where both components fall below the positivity floor are flagged
    in the mask and carry zero angle fields.
    """
    g = phi.grid
    c1 = phi.values[..., 0]
    c2 = phi.values[..., 1]
    p1 = np.abs(c1) ** 2
    p2 = np.abs(c2) ** 2
    p = p1 + p2
    valid = p >= POSITIVITY_FLOOR
    theta = np.where(valid, 2.0 * np.arctan2(np.abs(c2), np.abs(c1)), 0.0)
    a1 = _unwrap_raster(np.where(valid, np.angle(c1), 0.0))
    a2 = _unwrap_raster(np.where(valid, np.angle(c2), 0.0))
    s = consts.hbar * (a1 + a2) / 2.0
    rel = consts.hbar * (a2 - a1) / (2.0 * consts.a)
    return PolarFields(
        ScalarField(g, p),
        ScalarField(g, theta),
        ScalarField(g, np.where(valid, s, 0.0)),
        ScalarField(g, np.where(valid, rel, 0.0)),
        mask=valid,
    )


# ---------------------------------------------------------------------------
# spinor-side quadratic form
# ---------------------------------------------------------------------------


def q_spinor(
    phi_frames,
    em_frames,
    consts: PhysicalConstants,
    dt: float = 0.0,
    time_periodic: bool = False,
    scheme: str = CENTRAL,
) -> float:
    """Quadratic form evaluated directly on the two-component wavefunction.

    The integrand combines the antisymmetrized time term, the
    gauge-covariant kinetic product, the scalar-potential term (q*phi_pot
    plus the optional u), and the moment coupling.  The result must be real;
    an imaginary residue above 1e-10 relative to the terms' magnitude raises,
    since it signals a broken discrete symmetry in the inputs.
    """
    frames = _as_list(phi_frames, SpinorField)
    em = _as_list(em_frames, EMConfiguration)
    if len(em) == 1:
        em = em * len(frames)
    if len(em) != len(frames):
        raise FunctionalError("field and potential sequences must align")
    grid = frames[0].grid
    stack = np.stack([f.values for f in frames])  # (nt,)+shape+(2,)
    hbar, m, q = consts.hbar, consts.mass, consts.charge
    a_pot = np.stack([cfg.a_pot.values for cfg in em])
    phi_pot = np.stack([cfg.phi_pot.values for cfg in em])
    b = np.stack([cfg.b_values(scheme) for cfg in em])
    u = np.stack([cfg.u_values() for cfg in em])

    dpsi_dt = _time_derivative(stack, dt, time_periodic, scheme)
    integrand = np.zeros(stack.shape[:-1], dtype=np.complex128)
    term_scale = np.zeros(stack.shape[:-1])

    def add(term):
        nonlocal integrand, term_scale
        integrand = integrand + term
        term_scale = term_scale + np.abs(term)

    # (i hbar / 2) (dPsi*/dt Psi - Psi* dPsi/dt)
    for k in (0, 1):
        add(
            (0.5j * hbar)
            * (
                np.conj(dpsi_dt[..., k]) * stack[..., k]
                - np.conj(stack[..., k]) * dpsi_dt[..., k]
            )
        )

    # (1/2m) (i hbar grad Psi* - qA Psi*) . (-i hbar grad Psi - qA Psi)
    for ax in range(grid.dim):
        h = grid.spacing[ax]
        for k in (0, 1):
            d = derive_along(stack[..., k], h, 1 + ax, grid.boundary, scheme)
            left = 1j * hbar * np.conj(d) - q * a_pot[..., ax] * np.conj(stack[..., k])
            right = -1j * hbar * d - q * a_pot[..., ax] * stack[..., k]
            add(left * right / (2.0 * m))
    # axes beyond the grid dimension contribute only the A^2 piece
    norm_sq = np.abs(stack[..., 0]) ** 2 + np.abs(stack[..., 1]) ** 2
    for ax in range(grid.dim, 3):
        add((q * a_pot[..., ax]) ** 2 * norm_sq / (2.0 * m))

    add((q * phi_pot + u) * norm_sq)

    cross = np.conj(stack[..., 0]) * stack[..., 1]
    sigma_x = 2.0 * np.real(cross)
    sigma_y = 2.0 * np.imag(cross)
    sigma_z = np.abs(stack[..., 0]) ** 2 - np.abs(stack[..., 1]) ** 2
    add(
        -(q * hbar / (2.0 * m))
        * (b[..., 0] * sigma_x + b[..., 1] * sigma_y + b[..., 2] * sigma_z)
    )

    tw = _time_weights(len(frames), dt, time_periodic)
    total = _integrate_stack(integrand, grid, tw)
    # the residue is judged against the magnitude of the constituent terms,
    # which stays meaningful when the integrand cancels pointwise
    scale = float(_integrate_stack(term_scale, grid, np.abs(tw)))
    if scale > 0 and abs(total.imag) > 1e-10 * scale:
        raise FunctionalError(
            f"imaginary residue {total.imag:.3e} exceeds tolerance (scale {scale:.3e})"
        )
    return float(total.real)


# ---------------------------------------------------------------------------
# equivalence verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Dual-route evaluation of the same configuration."""

    q_polar: float
    total: float
    q_spinor: float
    abs_residual: float
    rel_residual: float
    spinor_abs_residual: float
    spinor_rel_residual: float
    # per-term values of lam * Fisher + knowledge functional, and "total"
    breakdown: dict[str, float]


def _check_identification(consts: PhysicalConstants) -> None:
    if not consts.identification:
        raise FunctionalError("equivalence check requires the identification preset")
    expect = (
        ("a", consts.a, consts.hbar / 2.0),
        ("gamma", consts.gamma, consts.charge / consts.mass),
        ("lam", consts.lam, consts.hbar**2 / (8.0 * consts.mass)),
    )
    for name, got, want in expect:
        if abs(got - want) > 1e-12 * max(abs(want), 1.0):
            raise FunctionalError(f"identification violated: {name}={got}, expected {want}")


def equivalence_residual(
    polar_frames,
    em_frames,
    consts: PhysicalConstants,
    dt: float = 0.0,
    time_periodic: bool = False,
    scheme: str = CENTRAL,
) -> EquivalenceReport:
    """Compare the quadratic form against lam * Fisher + knowledge functional
    on the same fields, and cross-check the spinor route on the mapped
    wavefunction."""
    _check_identification(consts)
    st = _prepare(polar_frames, em_frames, dt, time_periodic, scheme)
    terms = _polar_terms(st, consts)
    tot = _total_of_terms(st, terms)
    pauli = pauli_constants(consts.hbar, consts.mass, consts.charge)
    # the same constants give the same term densities, so Q_polar is the total
    qp = tot if consts == pauli else _total_value(st, pauli)
    breakdown = _term_values(st, terms)
    del st, terms  # the spinor route allocates its own stacks; do not hold both
    polar = _as_list(polar_frames, PolarFields)
    spinors = [spinor_from_polar(fr, consts) for fr in polar]
    qs = q_spinor(spinors, em_frames, consts, dt, time_periodic, scheme)
    denom = max(abs(qp), abs(tot))
    s_denom = max(abs(qp), abs(qs))

    def rel(absval, d):
        return 0.0 if absval == 0.0 else (absval / d if d > 0 else float("inf"))

    return EquivalenceReport(
        q_polar=qp,
        total=tot,
        q_spinor=qs,
        abs_residual=abs(qp - tot),
        rel_residual=rel(abs(qp - tot), denom),
        spinor_abs_residual=abs(qs - qp),
        spinor_rel_residual=rel(abs(qs - qp), s_denom),
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


def stationarity_residual_static(
    polar_frames,
    em_frames,
    consts: PhysicalConstants,
    dt: float,
    time_periodic: bool = False,
) -> StationarityResiduals:
    """Residuals of the heavy-mass stationary equations with the moment
    coupling -a*gamma*(m.B) substituted for the color-splitting potential.

    The four equations govern the rates of the half action difference R,
    of cos(theta), the frozen density, and the common action.
    """
    st = _prepare(polar_frames, em_frames, dt, time_periodic, CENTRAL)
    a, gam = consts.a, consts.gamma
    z = np.cos(st.theta)
    sin_t = np.sin(st.theta)
    bx, by, bz = st.b[..., 0], st.b[..., 1], st.b[..., 2]
    in_plane = bx * np.cos(st.phi) + by * np.sin(st.phi)
    coupling = -a * gam * (sin_t * in_plane + z * bz)  # the split potential
    off_pole = np.abs(sin_t) > 1e-12
    z_over_sin = np.where(off_pole, z / np.where(off_pole, sin_t, 1.0), 0.0)
    d_coupling_dz = -a * gam * (bz - z_over_sin * in_plane)
    d_coupling_dr = -gam * sin_t * (-bx * np.sin(st.phi) + by * np.cos(st.phi))

    dr_dt = a * st.dphi_dt
    dz_dt = _time_derivative(z, dt, time_periodic, CENTRAL)

    r_phase = dr_dt - d_coupling_dz
    r_tilt = dz_dt + d_coupling_dr
    r_density = st.s * _time_derivative(st.p, dt, time_periodic, CENTRAL)
    r_action = st.ds_dt - z * dr_dt + coupling

    def norm(arr):
        return float(np.max(np.abs(arr * st.mask)))

    return StationarityResiduals(norm(r_phase), norm(r_tilt), norm(r_density), norm(r_action))


def euler_lagrange_residual(
    p_fields,
    sources,
    consts: PhysicalConstants,
    scheme: str = CENTRAL,
) -> list[ScalarField]:
    """Pointwise residual of the stationarity equation per color:

        lam (grad P)^2 / P^2 + 2 lam div(grad P / P) - F = 0.

    Cells below the positivity floor are masked to zero in the output.
    """
    p_fields = _as_list(p_fields, ScalarField)
    if isinstance(sources, (int, float)):
        sources = [float(sources)] * len(p_fields)
    elif isinstance(sources, ScalarField):
        sources = [sources] * len(p_fields)
    out = []
    lam = consts.lam
    for p_field, src in zip(p_fields, sources):
        g = p_field.grid
        p = p_field.values
        included = p >= POSITIVITY_FLOOR
        if not np.any(included):
            raise FunctionalError("density entirely below the positivity floor")
        safe = np.where(included, p, 1.0)
        grad_sq = np.zeros(g.shape)
        div_ratio = np.zeros(g.shape)
        for ax in range(g.dim):
            gp = derive_along(p, g.spacing[ax], ax, g.boundary, scheme)
            grad_sq += gp * gp
            ratio = np.where(included, gp / safe, 0.0)
            div_ratio += derive_along(ratio, g.spacing[ax], ax, g.boundary, scheme)
        f_vals = src.values if isinstance(src, ScalarField) else float(src)
        resid = lam * grad_sq / safe**2 + 2.0 * lam * div_ratio - f_vals
        out.append(ScalarField(g, np.where(included, resid, 0.0)))
    return out


# ---------------------------------------------------------------------------
# random smooth configurations for the verifier
# ---------------------------------------------------------------------------


def _band_limited_spacetime(
    frames: int, grid: Grid, rng: np.random.Generator, max_mode: int, amplitude: float,
    zero_spatial_mean: bool = False,
) -> np.ndarray:
    """Space-time periodic random field, band-limited on every axis.

    The spectrum is nonzero only on the band, so the inverse transform runs
    ``np.fft.ifftn``'s per-axis ``ifft``s, last axis first, over the lines the
    band reaches: the bits of ``ifftn`` over the full spectrum, for less work.
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
        block = np.fft.ifft(wide, axis=ax)
    field = block.real
    peak = np.max(np.abs(field))
    if peak > 0:
        field *= amplitude / peak
    return field


def random_smooth_configuration(
    grid: Grid,
    frames: int,
    consts: PhysicalConstants,
    seed: int,
    max_mode: int = 1,
    amplitude: float = 0.2,
) -> tuple[list[PolarFields], list[EMConfiguration], float]:
    """Seeded band-limited periodic polar + potential snapshots.

    Returns (polar frames, potential frames, dt) with all fields periodic in
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
    phi_pot = consts.hbar * scale_k * bl(amplitude) / max(abs(consts.charge), 1e-30)
    a_scale = consts.hbar * scale_k / max(abs(consts.charge), 1e-30)
    a = np.stack([a_scale * bl(amplitude) for _ in range(3)], axis=-1)
    u = consts.hbar * scale_k * bl(amplitude)
    # one spectral derivative per component and axis covers every frame
    b = curl_stack(a, grid, SPECTRAL)

    period = 2.0 * np.pi / (scale_k * consts.hbar / consts.mass)
    dt = period / frames

    polar_frames = []
    em_frames = []
    for i in range(frames):
        polar_frames.append(
            PolarFields(
                ScalarField(grid, p[i]),
                ScalarField(grid, theta[i]),
                ScalarField(grid, s[i]),
                ScalarField(grid, phi[i]),
            )
        )
        em_frames.append(
            EMConfiguration(
                grid,
                ScalarField(grid, phi_pot[i]),
                VectorField3(grid, a[i]),
                b=VectorField3(grid, b[i]),
                u=ScalarField(grid, u[i]),
            )
        )
    return polar_frames, em_frames, dt
