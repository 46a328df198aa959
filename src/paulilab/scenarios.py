"""Scenario documents: JSON in, validated runs out.

A scenario is a single JSON object selecting one named pipeline and its
parameters.  Parsing validates types, ranges and choices against a per-kind
schema and reports every violation at once; running executes the mapped
modules, writes the data outputs atomically, and returns a report with one
record per executed check.  Data outputs are byte-deterministic for a fixed
(scenario, seed, version), with one exception: ``verify_all``'s
``verification.csv`` carries the measured values of the two runtime gates,
``box.runtime_seconds`` and ``equivalence.runtime_seconds``.  The report
carries the wall time and is timing-dependent as well.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, classical, fieldio, inference, pauli, verification
from .functionals import PhysicalConstants
from .grids import PERIODIC, Grid
from .verification import CheckRecord, check_leq


class ScenarioError(ValueError):
    """Raised with the full list of schema violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


REQUIRED = object()

# A rule is (op, limit) or (op, limit, setups): a range such as (">", 0), or
# ("in", choices).  With setups it applies only when the kind's "setup"
# parameter takes one of those values.  A parameter may have several rules.
_OPERATORS = {">": operator.gt, ">=": operator.ge, "!=": operator.ne, "==": operator.eq,
              "in": lambda v, c: v in c,
              "|x| <=": lambda v, c: abs(v) <= c, "len ==": lambda v, c: len(v) == c}


def _rule_text(rule) -> str:
    op, limit, *setups = rule
    text = "one of " + " | ".join(limit) if op == "in" else f"{op} {limit:g}"
    return text + "".join(f" when setup is {' | '.join(s)}" for s in setups)


def _finite(value) -> bool:  # not a bool, NaN, +-Infinity (json reads both) or a huge int
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= _MAX


def _admits(rule, value, setup) -> bool:
    op, limit, *setups = rule
    return any(setup not in s for s in setups) or _OPERATORS[op](value, limit)


_MAX = float(np.finfo(np.float64).max)  # a Python float: compared exactly with any int
_POSITIVE = (">", 0)
_NONNEGATIVE = (">=", 0)
_COUNT = (">=", 1)
_PACKETS = ("free_packet", "uniform_field")
_LORENTZ_BOX, _LORENTZ_DT = 50.0, 1e-3  # the uniform_e box length and time step

_COMMON_CONSTANTS = {
    "hbar": (float, 1.0, "Planck constant over 2 pi", _POSITIVE),
    "mass": (float, 1.0, "particle mass", _POSITIVE),
    "charge": (float, 1.0, "particle charge"),
}

# name -> (type, default, help[, rule, ...])
SCHEMAS: dict[str, dict[str, tuple]] = {
    "sample": {
        "cells": (int, 160, "voxels per axis", (">=", 2)),
        "sigma": (float, 10.0, "table width in lattice spacings", _POSITIVE),
        "slices": (int, 2, "time slices", _COUNT),
        "color_angle": (float, 0.6, "color split angle"),
        "repetitions": (int, 10**6, "events per slice", _NONNEGATIVE),
    },
    "evidence": {
        "cells": (int, 200, "voxels per axis", (">=", 4)),
        "repetitions": (int, 10**6, "events per slice", _COUNT),
        "shift": (list, [0.25, 0.0, 0.0], "position shift in lattice spacings"),
    },
    "fisher_discrete": {
        "cells": (int, 256, "voxels per axis", (">=", 20)),
        "sigma": (float, 10.0, "table width in lattice spacings", _POSITIVE),
        "slices": (int, 1, "time slices", _COUNT),
    },
    "box_minimize": {
        "cells": (int, 512, "lattice points", (">=", 3)),
        "length": (float, 1.0, "box length", _POSITIVE),
        "modes": (int, 3, "stationary modes to scan", (">=", 1)),
        "multistarts": (int, 8, "random starts", _COUNT),
        "grad_tol": (float, 1e-6, "projected-gradient tolerance", _POSITIVE),
        "max_iterations": (int, 20000, "iteration cap", _COUNT),
    },
    "equivalence": {
        "cells": (int, 24, "points per axis (3-d)", (">=", 3)),
        "frames": (int, 12, "time snapshots", (">=", 3)),
        "sets": (int, 20, "random field sets", _COUNT),
        "max_mode": (int, 1, "band limit", _NONNEGATIVE),
        # p = (1 + field) / volume, the field scaled to peak at |amplitude|
        "amplitude": (float, 0.15, "field amplitude", ("|x| <=", 1.0)),
        **_COMMON_CONSTANTS,
    },
    "pauli_evolve": {
        "setup": (str, "larmor", "initial state and field", ("in", ("larmor",) + _PACKETS)),
        "cells": (int, 1024, "lattice points", (">=", 1, _PACKETS)),
        "extent": (float, 60.0, "box length", (">", 0, _PACKETS)),
        "periods": (float, 10.0, "precession periods (larmor)", (">", 0, ("larmor",))),
        "t_final": (float, 6.0, "duration (packet setups)", (">", 0, _PACKETS)),
        "steps": (int, 1000, "time steps", _COUNT),
        "scheme": (str, "split_operator", "propagator",
                   ("in", ("split_operator", "crank_nicolson"))),
        "bz": (float, 1.3, "axial field", (">", 0, ("larmor",))),
        "gamma_energy": (float, 0.8, "moment coupling, energy per field", (">", 0, ("larmor",))),
        "sigma": (float, 1.5, "packet width", (">", 0, _PACKETS)),
        "e0": (float, 0.2, "electric field (uniform_field)", ("!=", 0, ("uniform_field",))),
        "record_every": (int, 10, "recording stride", _COUNT),
        **_COMMON_CONSTANTS,
        # the larmor atom is neutral and the free packet sees no field: no
        # other charge would change a byte of their outputs
        "charge": (float, 1.0, "particle charge", ("!=", 0, ("uniform_field",)),
                   ("==", 1, ("larmor", "free_packet"))),
    },
    "stern_gerlach": {
        "extent": (float, 60.0, "beam axis length", _POSITIVE),
        "cells": (int, 768, "lattice points", _COUNT),
        "sigma": (float, 2.0, "packet width", _POSITIVE),
        "center": (float, 30.0, "packet center"),
        "velocity": (float, 0.0, "packet velocity"),
        "spin_up_weight": (float, 1.0, "first color amplitude"),
        "spin_down_weight": (float, 1.0, "second color amplitude"),
        "field_gradient": (float, REQUIRED, "axial field gradient dBz/dz"),
        "field_offset": (float, 0.5, "axial field at z=0"),
        "gamma_energy": (float, 1.0, "moment coupling, energy per field"),
        "dt": (float, 0.01, "time step", _POSITIVE),
        "t_final": (float, 10.0, "flight time", _POSITIVE),
        "record_every": (int, 50, "recording stride", _COUNT),
        # a neutral atom with the moment gamma_energy: no charge
        "hbar": _COMMON_CONSTANTS["hbar"],
        "mass": _COMMON_CONSTANTS["mass"],
    },
    "moment": {
        "b": (list, [0.4, -0.3, 0.85], "static field vector", ("len ==", 3)),
        "gamma": (float, 1.7, "angular rate per field"),
        "phi0": (float, 0.7, "initial azimuth"),
        "z0": (float, 0.35, "initial cos(theta)", ("|x| <=", 1.0 - classical.POLE_BAND)),
        "t_final": (float, 2.0, "duration", _NONNEGATIVE),
        "dt": (float, 1e-3, "time step", _POSITIVE),
    },
    "lorentz": {
        "setup": (str, "uniform_b", "field configuration", ("in", ("uniform_e", "uniform_b"))),
        "e0": (float, 0.5, "electric field (uniform_e)"),
        "bz": (float, 1.0, "magnetic field (uniform_b)", (">", 0, ("uniform_b",))),
        "charge": (float, 1.0, "particle charge", ("!=", 0, ("uniform_b",))),
        "mass": (float, 1.0, "particle mass", _POSITIVE),
        "speed": (float, 0.5, "initial speed", (">", 0, ("uniform_b",))),
        "turns": (float, 10.0, "cyclotron turns (uniform_b)", (">=", 0, ("uniform_b",))),
        "t_final": (float, 2.0, "duration (uniform_e)", (">=", 0, ("uniform_e",))),
        "steps_per_turn": (int, 300, "resolution", (">=", 1, ("uniform_b",))),
    },
    "verify_all": {
        "fast": (bool, True, "reduced resolution"),
    },
}


def _evidence_shift_keeps_support(cells: int, repetitions: int, shift: list) -> bool:
    """The evidence runner's shifts keep its table positive where it has events."""
    try:
        verification.evidence_rows(cells, repetitions, shift)
    except inference.InferenceError:
        return False
    return True


def _moment_cone_clears_poles(b: list, gamma: float, phi0: float, z0: float, dt: float,
                              t_final: float) -> bool:
    """The moment precesses on a cone about b, whose closest approach to the
    z axis is theta = |arccos(b_z/|b|) - arccos(m0.b/|b|)| from the north
    pole, |pi - arccos(b_z/|b|) - arccos(m0.b/|b|)| from the south.  Near a
    pole the conjugate-pair chart turns at about |gamma| |b_xy| / theta, and
    the RK4 energy error, relative to the energy |m0.b|, scales as
    r = (gamma |b_xy| dt)^4 / (theta^3 |m0.b/|b||): a bounded part up to
    about 0.02 r, and a part that grows by about 4e-4 r per precession
    period, n = |gamma| |b| t_final / 2 pi periods in all.  In a survey of
    random documents up to 100 time units, every one whose
    ``moment.energy_rel_drift`` exceeded 1e-8 had r (1 + n / 52) above 5e-7;
    the bound on r (1 + n / 25) leaves a factor of 2."""
    norm = math.hypot(*b)
    if norm == 0.0:
        return True
    s0 = math.sqrt(1.0 - z0 * z0)
    cos_alpha = (s0 * (b[0] * math.cos(phi0) + b[1] * math.sin(phi0)) + z0 * b[2]) / norm
    beta, alpha = math.acos(b[2] / norm), math.acos(min(max(cos_alpha, -1.0), 1.0))
    theta = min(abs(beta - alpha), abs(math.pi - beta - alpha))
    periods = abs(gamma) * norm * t_final / (2.0 * math.pi)
    return ((abs(gamma) * math.hypot(b[0], b[1]) * dt) ** 4 * (1.0 + periods / 25.0)
            <= 5e-7 * theta**3 * abs(cos_alpha))


def _path_inside(x0: float, v0: float, a: float, t_end: float, box: float,
                 margin: float) -> bool:
    """The path x0 + v0 t + a t^2 / 2 stays at least ``margin`` inside [0,
    ``box``] over [0, ``t_end``]: at both ends and at its vertex."""
    times = [0.0, t_end] + ([min(max(-v0 / a, 0.0), t_end)] if a != 0.0 else [])
    return all(margin <= x0 + v0 * t + 0.5 * a * t * t <= box - margin for t in times)


def _parabola_stays_in_box(setup: str, e0: float, charge: float, mass: float,
                           t_final: float) -> bool:
    """The uniform_e particle's closed-form path x(t) = 5 + 0.1 t + a t^2 / 2,
    a = q e0 / m, stays inside the box [0, 50] over [0, t_final + dt], which
    covers the last step's rounding of t_final, with a margin |a| dt^2 that
    covers the RK4 stages' departure from the path (|a| dt^2 / 8 at most)."""
    a = charge * e0 / mass
    return setup != "uniform_e" or _path_inside(5.0, 0.1, a, t_final + _LORENTZ_DT, _LORENTZ_BOX,
                                                abs(a) * _LORENTZ_DT**2)


# In a survey of 534 resolved uniform_field documents (extent 20-200, sigma
# 0.5-4, t_final 0.5-10), those failing the 1e-3 drift bound came within 3.35
# final spreads of an edge, and those 5 spreads inside read at most 4.3e-7.
def _drift_stays_in_box(setup: str, extent: float, sigma: float, e0: float, charge: float,
                        mass: float, hbar: float, t_final: float) -> bool:
    if setup != "uniform_field":  # the other setups may hold any sigma
        return True
    spread = math.hypot(sigma, hbar * t_final / (2.0 * mass) / sigma)  # no 0 divisor
    return _path_inside(extent / 3.0, 0.0, charge * e0 / mass, t_final, extent, 5.0 * spread)


def _table_center_cell_is_nonzero(cells: int, sigma: float) -> bool:
    """The Gaussian table's largest entry does not underflow to 0: odd cells
    put a cell on the center, even cells the nearest ones 0.5 from it."""
    with np.errstate(all="ignore"):  # sigma^2 may overflow or underflow
        return cells % 2 == 1 or bool(np.exp(-0.25 / (2.0 * np.float64(sigma) ** 2)) > 0.0)


_TABLE_RULE = ("for even cells, exp(-0.125 / sigma^2), the Gaussian table's entry 0.5 from "
               "its center, does not underflow to 0 (sigma above about 0.013)",
               ("cells", "sigma"), _table_center_cell_is_nonzero)
# the table and the Fisher oracle square sigma as a Python float, which raises past this
_SIGMA_SQUARED_RULE = ("sigma^2 is finite (sigma at most about 1.34e154)",
                       ("sigma",), lambda sigma: math.isfinite(sigma * sigma))

# The lattice Fisher oracle slices / sigma^2 holds only while the Gaussian
# fits inside the lattice.  Over 3 to 16,384 cells, fisher.discrete_rel_error
# stayed within its 0.02 bound up to sigma = 0.136 cells (at 15 and 16
# cells), rising to 0.161 cells from 64 cells up, so this rule leaves a
# factor of at least 1.36 (1.6 at the default 256 cells, where sigma 50
# gave 0.078)
_FISHER_WIDTH_RULE = ("sigma <= cells / 10: the table fits inside the lattice, where the "
                      "Fisher oracle slices / sigma^2 holds",
                      ("cells", "sigma"), lambda cells, sigma: sigma <= cells / 10)
# It also needs a table many cells wide: the lattice differences of a narrow
# Gaussian overstate its Fisher information (rel_error 0.175 at sigma 1).
# Over 3 to 16,384 cells, fisher.discrete_rel_error stayed within its 0.02
# bound down to sigma = 1.71 from 23 cells up, and 1.85 at 20 cells, the
# fewest the width rule admits at sigma 2; so this rule leaves a factor of
# at least 1.08 (1.17 from 23 cells up), and at sigma 2 the error reads
# 0.0162 at 20 cells and 0.0104 from 30 cells up.  Together the two rules
# ask for 20 cells, which the range of cells says on its own.
_FISHER_FLOOR_RULE = ("sigma >= 2: the table spans enough cells for the lattice differences, "
                      "where the Fisher oracle slices / sigma^2 holds",
                      ("sigma",), lambda sigma: sigma >= 2)

# Step ceilings, from runs on a 2-vCPU x86-64 host.  A uniform_b RK4 step
# took about 27 us and kept about 400 bytes until the run's end (100,000
# steps: 2.7 s, 111 MB peak RSS against 71 MB at 3,000), so 500,000 steps,
# near the 450,000 the uniform_e box admits, take about 14 s and 270 MB.
# A Pauli step keeps no memory: at the default 1,024 cells a split-operator
# step took 31 us and a Crank-Nicolson one 99 us, and a Larmor step 4.7 us;
# a record took about 60 us and 150 bytes (100,000 records: 9.5 s, 83 MB
# against 69 MB at 100).  So 10^6 steps and 10^5 records take at most
# about 100 s and 85 MB at 1,024 cells.
_LORENTZ_STEP_RULE = ("turns * steps_per_turn <= 500000 when setup is uniform_b: the run keeps "
                      "every RK4 step's state",
                      ("setup", "turns", "steps_per_turn"),
                      lambda setup, turns, per_turn: setup != "uniform_b"
                      or turns * per_turn <= 500_000)
# A moment step, the torque and canonical runs together, took about 22 us
# and kept about 280 bytes until the run's end (10^5 steps: 2.2 s, 97 MB peak
# RSS; 10^6: 22 s, 350 MB, against 68 MB at 1,000), so 10^6 steps, the Pauli
# runs' ceiling, take about 22 s and 350 MB.  The runs round t_final / dt,
# so the rule admits up to 10^6 + 0.5, which rounds to the even 10^6.
_MOMENT_STEP_RULE = ("t_final / dt <= 10^6: the torque and canonical runs keep every RK4 "
                     "step's state", ("dt", "t_final"),
                     lambda dt, t_final: t_final / dt <= 1_000_000.5)


# Grid ceilings, from the same host.  A Pauli run's memory grows with its
# cells, not its steps: peak RSS of 10-step runs, from a 67 MB base, read
# 76 / 101 MB at 16,384 / 65,536 cells for stern_gerlach, 75 / 95 MB for
# free_packet and 88 / 144 MB for Crank-Nicolson (604, 525 and 1,241 MB at
# 1,048,576 cells), so 65,536 cells keep a run under about 150 MB.  Its
# time grows with cells times steps: from 16,384 cells up a step cost
# 40-74 ns a cell (2,000 stern_gerlach steps at 65,536 cells: 9.3 s), so
# 1.024e9 cell steps, which the step ceiling admits at 1,024 cells, take
# at most about 75 s on a larger grid.  The free-packet snapshot file takes
# 32 bytes a cell and record: 131 MB (4,001 records at 1,024 cells) took
# 0.5 s to write, so 1 GiB takes a few seconds.
def _pauli_run_fits(steps: float, record_every: int, cells: int) -> bool:
    """The run takes at most 10^6 time steps, 10^5 records and 65,536
    cells, and cells times steps is at most 1.024e9.  ``steps`` is the
    run's t_final / dt, which it rounds: round(x) <= 10^6 exactly when
    x <= 10^6 + 0.5, since a half rounds to the even 10^6."""
    if not steps <= 1_000_000.5:
        return False
    steps = round(steps)
    return (pauli.record_count(steps, record_every) <= 100_000 and cells <= 65_536
            and cells * steps <= 1.024e9)


# Crank-Nicolson's residual guard (1e-12, in ``pauli``) holds while
# r = dt hbar / (m h^2) stays small: the solve's rounding grows with the
# stencil entries of A = I + zH, about r, and not with its diagonal terms (at
# r <= 1,000, uniform_field runs with dt q e0 extent / hbar up to 2e8 passed
# the guard).  The packet setups have h = extent / cells and dt = t_final / steps;
# larmor has h = 1/8 and dt = pi hbar / (gamma_energy bz steps), so
# r = 64 pi hbar^2 / (m gamma_energy bz steps).  In a survey of runs of 10 to
# 10^5 solves (8 to 65,536 cells; (hbar, m) from (0.5, 0.3) to (2, 3) for the
# packets, m from 1e-4 to 1 for larmor), the guard first failed at r = 2,970
# for larmor, where every run up to 2,930 passed, and at 5,450 for
# free_packet and 6,860 for uniform_field; the golden and benchmark
# documents reach r = 17.5.  So the bound 1,000 leaves a factor of 2.9 below
# the failures and 57 above the documents.  The test takes logarithms,
# which neither overflow nor underflow.
def _crank_nicolson_conditioned(setup: str, scheme: str, hbar: float, mass: float,
                                steps: int, t_final: float, extent: float, cells: int,
                                gamma_energy: float, bz: float) -> bool:
    if scheme != "crank_nicolson":
        return True
    if setup == "larmor":
        up, down = (64.0 * math.pi, hbar, hbar), (mass, gamma_energy, bz, steps)
    else:
        up, down = (t_final, hbar, cells, cells), (steps, mass, extent, extent)
    return sum(map(math.log, up)) - sum(map(math.log, down)) <= math.log(1000.0)


# An equivalence set's memory grows with its cells^3 * frames field values,
# and its time with those values times sets.  With the spinor route on its
# worker thread, peak RSS of one-set runs, from a 66 MB base, read 88 / 132 /
# 277 MB at 16^3 x 12, 24^3 x 12 and 32^3 x 16, about 400 bytes a value (300
# on one thread), and 436-477 MB at 2^20 values (32^3 x 32, 64^3 x 4,
# 70^3 x 3, 10^3 x 1,048).  A set took 0.8-1.5 us a value at 2^20 values, so
# 2^26 values over all sets take at most about 100 s; the default 24^3 x 12 at
# 20 sets is 3.3e6.
def _equivalence_fits(cells: int, frames: int, sets: int) -> bool:
    values = cells**3 * frames
    return values <= 2**20 and sets * values <= 2**26


# The Stern-Gerlach run stops once the density in its guard's edge bands
# passes 1e-8.  The rule builds the initial packet and reads the guard's own
# sum (0.1-0.2 ms at 1,024 cells, 7 ms at 65,536); a NaN sum fails it.  Past
# the grid ceiling, or with no spin weight, another rule refuses the document.
def _stern_gerlach_starts_clear_of_guard(extent: float, cells: int, sigma: float,
                                         center: float, velocity: float, up: float,
                                         down: float, hbar: float, mass: float) -> bool:
    if cells > 65_536 or up == down == 0:
        return True
    return verification.stern_gerlach_start_edge_mass(
        extent, cells, sigma, center, velocity, (up, down),
        PhysicalConstants(hbar, mass, 0.0)) <= 1e-8


# The packet's spectrum, exp(-sigma^2 (k' - k)^2), stays inside the grid's
# band pi / h as a color's mean wavenumber k grows to k_max: q = sigma (pi /
# h - k_max) >= pi leaves e^-pi^2 of the peak at the band edge (h <= sigma at
# rest).  At extent 60 and sigma 2, 12-24 cells stopped on the guard (q 1.0 to
# 2.11); of 200 random documents with room to move (extent 200, sigma 1-4,
# |velocity| <= 1, |field_gradient| <= 0.1, t_final <= 10), those failing
# that passed at h = sigma / 8 had q <= 1.74: factors of 1.49 and 1.8.
def _stern_gerlach_grid_resolves_packet(extent: float, cells: int, sigma: float,
                                        velocity: float, gamma_energy: float,
                                        field_gradient: float, t_final: float, hbar: float,
                                        mass: float) -> bool:
    k_max = (mass * abs(velocity) + abs(gamma_energy * field_gradient) * t_final) / hbar
    return cells > 65_536 or sigma * (math.pi * cells / extent - k_max) >= math.pi


_PAULI_RUN_TEXT = ("at most 10^6 time steps ({}), 10^5 records and 65,536 cells, and at most "
                   "1.024e9 cells times time steps")


# kind -> ((text, parameters, test), ...): rules that tie parameters together.
# test takes the named parameters in order; a rule is checked once each of
# them has its type and meets its own rule, whatever the other parameters are
JOINT_RULES = {
    "equivalence": (("cells^3 * frames <= 2^20 and sets * cells^3 * frames <= 2^26: a set "
                     "keeps about 400 bytes a field value", ("cells", "frames", "sets"),
                     _equivalence_fits),),
    "sample": (_TABLE_RULE, _SIGMA_SQUARED_RULE,
               ("repetitions <= 2^63 - 1: numpy's multinomial draws take an int64",
                ("repetitions",), lambda repetitions: repetitions <= 2**63 - 1)),
    "fisher_discrete": (_SIGMA_SQUARED_RULE, _FISHER_WIDTH_RULE, _FISHER_FLOOR_RULE),
    "pauli_evolve": (("2 record_every < steps when setup is larmor: the spin's azimuth turns "
                      "less than pi between records", ("setup", "steps", "record_every"),
                      lambda setup, steps, every: setup != "larmor" or 2 * every < steps),
                     ("the uniform_field path extent / 3 + charge e0 t^2 / (2 mass), widened by "
                      "5 times its final spread sqrt(sigma^2 + (hbar t_final / (2 mass sigma))^2),"
                      " stays inside [0, extent]: the potential -e0 x jumps at the edge",
                      ("setup", "extent", "sigma", "e0", "charge", "mass", "hbar", "t_final"),
                      _drift_stays_in_box),
                     ("steps is a multiple of record_every when setup is free_packet: the "
                      "snapshot file holds one time step between records",
                      ("setup", "steps", "record_every"),
                      lambda setup, steps, every: setup != "free_packet" or steps % every == 0),
                     # larmor runs on 8 cells, whatever its cells parameter says
                     (_PAULI_RUN_TEXT.format("steps, times periods for larmor"),
                      ("setup", "steps", "periods", "record_every", "cells"),
                      lambda setup, steps, periods, every, cells:
                      _pauli_run_fits(steps * periods, every, 8) if setup == "larmor"
                      else _pauli_run_fits(steps, every, cells)),
                     ("the free_packet snapshot file, 32 bytes a cell and record, is at most "
                      "1 GiB", ("setup", "cells", "steps", "record_every"),
                      lambda setup, cells, steps, every: setup != "free_packet"
                      or 32 * cells * pauli.record_count(steps, every) <= 2**30),
                     ("dt hbar / (mass h^2) <= 1000 when scheme is crank_nicolson (h = extent "
                      "/ cells, dt = t_final / steps; for larmor h = 1/8, dt = pi hbar / "
                      "(gamma_energy bz steps)): above it the implicit solves miss their 1e-12 "
                      "residual bound",
                      ("setup", "scheme", "hbar", "mass", "steps", "t_final", "extent", "cells",
                       "gamma_energy", "bz"), _crank_nicolson_conditioned)),
    "lorentz": (_LORENTZ_STEP_RULE,
                ("the uniform_e path x(t) = 5 + 0.1 t + a t^2 / 2, a = charge e0 / mass, "
                 "stays at least |a| dt^2 inside the box [0, 50] over [0, t_final + dt], "
                 "dt = 0.001",
                 ("setup", "e0", "charge", "mass", "t_final"), _parabola_stays_in_box),),
    "box_minimize": (("modes <= cells - 2: one free cell per mode inside the walls",
                      ("modes", "cells"), lambda modes, cells: modes <= cells - 2),),
    "evidence": (("shift lies along x, and shift, shift/2 and shift/4 keep the table "
                  "positive on its support (the default shift needs cells >= 96)",
                  ("cells", "repetitions", "shift"), _evidence_shift_keeps_support),),
    "moment": (("the precession cone clears the poles of the (phi, z) chart: "
                "(gamma |b_xy| dt)^4 (1 + n / 25) <= 5e-7 theta^3 |m0.b|/|b|, where theta is "
                "the cone's closest approach to the z axis and n = |gamma b| t_final / 2 pi "
                "the precession periods",
                ("b", "gamma", "phi0", "z0", "dt", "t_final"), _moment_cone_clears_poles),
               _MOMENT_STEP_RULE),
    "stern_gerlach": (
        ("spin_up_weight and spin_down_weight are not both 0",
         ("spin_up_weight", "spin_down_weight"), lambda up, down: up != 0 or down != 0),
        ("gamma_energy != 0 when field_gradient != 0",
         ("gamma_energy", "field_gradient"),
         lambda energy, gradient: energy != 0 or gradient == 0),
        # else the colors part at round-off: the zero-gradient record is exact
        ("field_offset == 0 when field_gradient == 0, gamma_energy != 0 and both spin "
         "weights are nonzero",
         ("field_offset", "field_gradient", "gamma_energy", "spin_up_weight", "spin_down_weight"),
         lambda offset, gradient, *coupled: offset == 0 or gradient != 0 or 0 in coupled),
        (_PAULI_RUN_TEXT.format("t_final / dt"), ("dt", "t_final", "record_every", "cells"),
         lambda dt, t_final, every, cells: _pauli_run_fits(t_final / dt, every, cells)),
        # the run rounds t_final / dt, and a run of 0 steps has no motion to
        # check: its records divided 0 by 0
        ("t_final / dt > 0.5: the run takes at least one time step", ("dt", "t_final"),
         lambda dt, t_final: t_final / dt > 0.5),
        ("sigma (pi cells / extent - k) >= pi, k = (mass |velocity| + |gamma_energy "
         "field_gradient| t_final) / hbar: the grid's wavenumber band holds the packet's "
         "spectrum as its colors accelerate (at rest, extent / cells <= sigma)",
         ("extent", "cells", "sigma", "velocity", "gamma_energy", "field_gradient", "t_final",
          "hbar", "mass"), _stern_gerlach_grid_resolves_packet),
        ("the initial packet's mass within max(3, cells // 64) cells of either end of the "
         "grid is at most 1e-8: above it the run stops at t = 0 on its boundary guard",
         ("extent", "cells", "sigma", "center", "velocity", "spin_up_weight",
          "spin_down_weight", "hbar", "mass"), _stern_gerlach_starts_clear_of_guard),
    ),
}


def _seed_violations(seed) -> list[str]:
    """numpy's generators, which the seed starts, take a non-negative integer."""
    if isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0:
        return []
    return [f"seed must be a non-negative integer, got {seed!r}"]


@dataclass(frozen=True)
class Scenario:
    kind: str
    parameters: dict
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self) -> None:
        # the command line's --seed override reaches here without parse_scenario
        violations = _seed_violations(self.seed)
        if violations:
            raise ScenarioError(violations)

    def echo(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "parameters": dict(sorted(self.parameters.items())),
        }


@dataclass(frozen=True)
class RunReport:
    scenario: dict
    version: str
    wall_time_s: float
    checks: list[CheckRecord]
    outputs: list[str]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "scenario": self.scenario,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "outputs": self.outputs,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def schema_text(kind: str) -> str:
    if kind not in SCHEMAS:
        raise ScenarioError([f"unknown kind {kind!r}; choose from {sorted(SCHEMAS)}"])
    lines = [f"parameters for kind {kind!r}:"]
    for name, (typ, default, help_text, *rule) in sorted(SCHEMAS[kind].items()):
        default_text = "REQUIRED" if default is REQUIRED else repr(default)
        rule_text = "".join(f", {_rule_text(r)}" for r in rule)
        lines.append(f"  {name} ({typ.__name__}, default {default_text}{rule_text}): {help_text}")
    lines += [f"  requires: {text}" for text, *_ in JOINT_RULES.get(kind, ())]
    return "\n".join(lines)


def parse_scenario(document: str) -> Scenario:
    """Validate a JSON scenario document, reporting every violation."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as err:
        raise ScenarioError([f"malformed JSON: {err}"]) from err
    violations: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioError(["scenario document must be a JSON object"])
    kind = doc.get("kind")
    if kind not in SCHEMAS:
        raise ScenarioError([f"unknown kind {kind!r}; choose from {sorted(SCHEMAS)}"])
    schema = SCHEMAS[kind]
    raw = doc.get("parameters", {})
    if not isinstance(raw, dict):
        violations.append("parameters must be an object")
        raw = {}
    params: dict = {}
    for name, (typ, default, _help, *_rule) in schema.items():
        if name in raw:
            value = raw[name]
            if typ is float and _finite(value):
                params[name] = float(value)
            elif typ is int and isinstance(value, int) and not isinstance(value, bool):
                params[name] = int(value)
            elif typ in (bool, str) and isinstance(value, typ):
                params[name] = value
            elif typ is list and isinstance(value, list) and all(map(_finite, value)):
                params[name] = [float(v) for v in value]
            else:
                finite = " (finite)" if typ in (float, list) else ""
                violations.append(f"parameter {name!r} must be of type {typ.__name__}{finite}")
        elif default is REQUIRED:
            violations.append(f"missing required parameter {name!r}")
        else:
            params[name] = default
    for name in raw:
        if name not in schema:
            violations.append(f"unknown parameter {name!r} for kind {kind!r}")
    admitted = set(params)
    for name, (_typ, _default, _help, *rules) in schema.items():
        for rule in rules:
            if name in params and not _admits(rule, params[name], params.get("setup")):
                violations.append(
                    f"parameter {name!r} must be {_rule_text(rule)}, got {params[name]!r}"
                )
                admitted.discard(name)
    violations += [f"parameters must satisfy: {text}"
                   for text, names, test in JOINT_RULES.get(kind, ())
                   if admitted.issuperset(names) and not test(*(params[n] for n in names))]
    seed = doc.get("seed", 0)
    violations += _seed_violations(seed)
    output_dir = doc.get("output_dir", ".")
    if not isinstance(output_dir, str):
        violations.append("output_dir must be a string")
        output_dir = "."
    for name in doc:
        if name not in ("kind", "parameters", "seed", "output_dir"):
            violations.append(f"unknown field {name!r}")
    if violations:
        raise ScenarioError(violations)
    return Scenario(kind, params, seed, output_dir)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_sample(scenario: Scenario, out):
    p = scenario.parameters
    table = verification.lattice_table(p["cells"], p["sigma"], p["slices"], p["color_angle"])
    path = out("dataset.csv")
    _, *checks = verification.sampled_dataset(table, p["repetitions"], scenario.seed, path)
    return checks, [path]


def _run_evidence(scenario: Scenario, out):
    p = scenario.parameters
    rows, checks = verification.evidence_rows(p["cells"], p["repetitions"], p["shift"])
    path = out("evidence.csv")
    fieldio.write_table_csv(
        path,
        ["shift_scale", "evidence", "first_order", "second_order_square",
         "second_order_curvature", "cubic_residual"],
        rows,
    )
    return checks, [path]


def _run_fisher_discrete(scenario: Scenario, out):
    p = scenario.parameters
    value, oracle, checks = verification.discrete_fisher_oracle(p["cells"], p["sigma"],
                                                                p["slices"])
    path = out("fisher.csv")
    fieldio.write_table_csv(path, ["discrete_fisher", "oracle"], [(value, oracle)])
    return checks, [path]


def _run_box_minimize(scenario: Scenario, out):
    p = scenario.parameters
    scan, x, exact, checks = verification.box_spectrum(
        p["length"], p["cells"], p["modes"], p["grad_tol"], p["multistarts"], scenario.seed,
        p["max_iterations"],
    )
    density_path = out("density.csv")
    fieldio.write_table_csv(
        density_path, ["x", "density", "exact"], zip(x, scan[0].density, exact)
    )
    trace_path = out("trace.csv")
    fieldio.write_table_csv(trace_path, ["iteration", "objective", "gradient_norm"],
                            ((int(i), value, gnorm) for i, value, gnorm in scan[0].trace))
    return checks, [density_path, trace_path]


def _run_equivalence(scenario: Scenario, out):
    p = scenario.parameters
    consts = PhysicalConstants(p["hbar"], p["mass"], p["charge"])
    reports, checks = verification.equivalence_sets(
        p["cells"], p["frames"], p["sets"], scenario.seed, consts, p["max_mode"], p["amplitude"]
    )
    path = out("equivalence.csv")
    fieldio.write_table_csv(
        path,
        ["seed", "joint", "total_functional", "q_spinor", "rel_residual",
         "spinor_rel_residual"],
        [(scenario.seed + index, rep.joint, rep.total, rep.q_spinor, rep.rel_residual,
          rep.spinor_rel_residual) for index, rep in enumerate(reports)],
    )
    breakdown_path = out("breakdown.csv")
    fieldio.write_table_csv(
        breakdown_path, ["term", "value"], sorted(reports[-1].breakdown.items())
    )
    return checks, [path, breakdown_path]


def _run_pauli_evolve(scenario: Scenario, out):
    p = scenario.parameters
    consts = PhysicalConstants(p["hbar"], p["mass"], p["charge"])
    scheme = p["scheme"]
    extra_outputs = []
    # each law within a bound that admits a document's coarse grid
    if p["setup"] == "larmor":
        traj, checks = verification.larmor_precession(
            p["bz"], PhysicalConstants(p["hbar"], p["mass"], 0.0, p["gamma_energy"]),
            p["steps"], p["periods"], p["record_every"], 1e-3, scheme,
        )
    elif p["setup"] == "free_packet":
        snap_path = out("snapshots.bin")
        with fieldio.field_snapshot_stream(
            snap_path,
            Grid((p["extent"],), (p["cells"],), PERIODIC),
            p["t_final"] / p["steps"] * p["record_every"],
            "wavefunction",
            (p["cells"], 2),
            np.complex128,
            pauli.record_count(p["steps"], p["record_every"]),
            {"setup": "free_packet"},
        ) as write_record:
            traj, checks = verification.free_packet_spreading(
                p["extent"], p["cells"], p["sigma"], p["t_final"], p["steps"], consts,
                p["record_every"], 5e-3, scheme, lambda psi, *_: write_record(psi),
            )
        extra_outputs.append(snap_path)
    else:  # uniform_field
        traj, checks = verification.uniform_field_drift(
            p["extent"], p["cells"], p["sigma"], p["extent"] / 3, p["e0"], p["t_final"],
            p["steps"], consts, p["record_every"], 1e-3, scheme,
        )
    checks.append(verification.norm_drift("pauli.norm_drift", traj))
    path = out("trajectory.csv")
    header = ["t", "norm", "x", "y", "z", "sx", "sy", "sz", "mass_plus", "mass_minus"]
    fieldio.write_table_csv(path, header, zip(traj.times, traj.norms, *traj.positions.T,
                                              *traj.spins.T, *traj.color_masses.T))
    return checks, [path] + extra_outputs


def _run_stern_gerlach(scenario: Scenario, out):
    p = scenario.parameters
    _, rows, checks = verification.stern_gerlach_law(
        p["extent"], p["cells"], p["sigma"], p["center"], p["velocity"],
        (p["spin_up_weight"], p["spin_down_weight"]), p["field_gradient"], p["field_offset"],
        PhysicalConstants(p["hbar"], p["mass"], 0.0, p["gamma_energy"]), p["dt"],
        p["t_final"], p["record_every"], 0.01,  # a bound that admits a coarse grid
    )
    path = out("separation.csv")
    fieldio.write_table_csv(path, ["t", "center_plus", "center_minus", "separation", "overlap"],
                            rows)
    return checks, [path]


def _run_moment(scenario: Scenario, out):
    p = scenario.parameters
    b, gamma, angles = p["b"], p["gamma"], (p["phi0"], p["z0"])
    torque = classical.torque_evolve(classical.MomentState.from_angles(*angles), b, gamma,
                                     p["t_final"], p["dt"])
    ct = classical.canonical_evolve(*angles, b, gamma, p["t_final"], p["dt"])
    energies, energy = verification.moment_energy_drift(ct, b, gamma)
    checks = [verification.moment_norm_drift(torque),
              verification.torque_vs_canonical_angle(torque, ct), energy]
    path_t = out("moment.csv")
    fieldio.write_table_csv(path_t, ["t", "mx", "my", "mz"], zip(torque.times, *torque.moments.T))
    path_c = out("canonical.csv")
    fieldio.write_table_csv(path_c, ["t", "phi", "z", "energy_rate"],
                            zip(ct.times, ct.phi, ct.z, energies))
    return checks, [path_t, path_c]


def _run_lorentz(scenario: Scenario, out):
    p = scenario.parameters
    q, m = p["charge"], p["mass"]
    if p["setup"] == "uniform_b":
        bz = p["bz"]
        radius = m * p["speed"] / (abs(q) * bz)
        period = 2 * np.pi * m / (abs(q) * bz)
        extent = max(8.0, 6 * radius)
        center = np.full(3, extent / 2)
        # bz > 0: the orbit turns clockwise for q > 0 and counterclockwise for q < 0
        state = classical.ChargedParticleState(
            center + np.array([radius, 0, 0]), (0.0, -np.sign(q) * p["speed"], 0.0)
        )
        traj = classical.lorentz_evolve(
            state, (0.0, 0.0, 0.0), (0.0, 0.0, bz), q, m, p["turns"] * period,
            period / p["steps_per_turn"]
        )
        radii = np.linalg.norm(traj.positions[:, :2] - center[:2], axis=1)
        speeds = np.linalg.norm(traj.velocities, axis=1)
        checks = [
            check_leq("lorentz.radius_rel_drift",
                      float(np.max(np.abs(radii - radius))) / radius, 1e-3),
            check_leq("lorentz.speed_rel_drift",
                      float(np.max(np.abs(speeds - p["speed"]))) / p["speed"], 1e-6),
        ]
    else:  # uniform_e: the joint rule keeps the path inside the box [0, 50]
        e0 = p["e0"]
        state = classical.ChargedParticleState(
            (5.0, _LORENTZ_BOX / 2, _LORENTZ_BOX / 2), (0.1, 0.0, 0.0)
        )
        traj = classical.lorentz_evolve(state, (e0, 0.0, 0.0), (0.0, 0.0, 0.0), q, m,
                                        p["t_final"], _LORENTZ_DT)
        exact = 5.0 + 0.1 * traj.times + 0.5 * (q * e0 / m) * traj.times**2
        checks = [
            check_leq(
                "lorentz.parabola_max_error",
                float(np.max(np.abs(traj.positions[:, 0] - exact))),
                1e-8 * max(1.0, float(np.max(np.abs(exact)))),
            )
        ]
    path = out("particle.csv")
    fieldio.write_table_csv(path, ["t", "x", "y", "z", "vx", "vy", "vz", "speed"],
                            zip(traj.times, *traj.positions.T, *traj.velocities.T,
                                np.linalg.norm(traj.velocities, axis=1)))
    return checks, [path]


def _run_verify_all(scenario: Scenario, out):
    records = verification.run_all(fast=scenario.parameters["fast"])
    path = out("verification.csv")
    fieldio.write_table_csv(
        path,
        ["name", "value", "tolerance", "pass"],
        ((r.name, r.value, r.tolerance, int(r.passed)) for r in records),
    )
    return records, [path]


_RUNNERS = {
    "sample": _run_sample,
    "evidence": _run_evidence,
    "fisher_discrete": _run_fisher_discrete,
    "box_minimize": _run_box_minimize,
    "equivalence": _run_equivalence,
    "pauli_evolve": _run_pauli_evolve,
    "stern_gerlach": _run_stern_gerlach,
    "moment": _run_moment,
    "lorentz": _run_lorentz,
    "verify_all": _run_verify_all,
}


def run(scenario: Scenario) -> RunReport:
    """Execute a validated scenario: compute, write outputs, report checks."""
    started = time.perf_counter()
    os.makedirs(scenario.output_dir, exist_ok=True)
    outputs: list[str] = []

    def out(name: str) -> str:
        return os.path.join(scenario.output_dir, name)

    checks, paths = _RUNNERS[scenario.kind](scenario, out)
    outputs.extend(paths)
    report = RunReport(
        scenario=scenario.echo(),
        version=__version__,
        wall_time_s=time.perf_counter() - started,
        checks=list(checks),
        outputs=[os.path.abspath(p) for p in outputs],
    )
    fieldio.atomic_write_text(out("report.json"), report.to_json() + "\n")
    return report
