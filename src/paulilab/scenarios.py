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
import operator
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, classical, fieldio, inference, pauli, verification
from .functionals import EMConfiguration, pauli_constants
from .grids import DIRICHLET_ZERO, PERIODIC, Grid, ScalarField, VectorField3
from .verification import CheckRecord, check_leq, check_true


class ScenarioError(ValueError):
    """Raised with the full list of schema violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


REQUIRED = object()

# A rule is (op, limit) or (op, limit, setups): a range such as (">", 0), or
# ("in", choices).  With setups it applies only when the kind's "setup"
# parameter takes one of those values.
_OPERATORS = {">": operator.gt, ">=": operator.ge, "!=": operator.ne, "in": lambda v, c: v in c,
              "|x| <=": lambda v, c: abs(v) <= c, "len ==": lambda v, c: len(v) == c}


def _rule_text(rule) -> str:
    op, limit, *setups = rule
    text = "one of " + " | ".join(limit) if op == "in" else f"{op} {limit:g}"
    return text + "".join(f" when setup is {' | '.join(s)}" for s in setups)


def _admits(rule, value, setup) -> bool:
    op, limit, *setups = rule
    return any(setup not in s for s in setups) or _OPERATORS[op](value, limit)


_POSITIVE = (">", 0)
_NONNEGATIVE = (">=", 0)
_COUNT = (">=", 1)
_PACKETS = ("free_packet", "uniform_field")

_COMMON_CONSTANTS = {
    "hbar": (float, 1.0, "Planck constant over 2 pi", _POSITIVE),
    "mass": (float, 1.0, "particle mass", _POSITIVE),
    "charge": (float, 1.0, "particle charge"),
}

# name -> (type, default, help[, rule])
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
        "cells": (int, 256, "voxels per axis", (">=", 3)),
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
        "max_mode": (int, 1, "band limit"),
        "amplitude": (float, 0.15, "field amplitude"),
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
        "charge": (float, 1.0, "particle charge", ("!=", 0, ("uniform_field",))),
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
        **_COMMON_CONSTANTS,
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


# kind -> ((text, parameters, test), ...): rules that tie parameters together.
# test takes the named parameters in order; a rule is checked once each of
# them has its type and meets its own rule, whatever the other parameters are
JOINT_RULES = {
    "evidence": (("shift lies along x, and shift, shift/2 and shift/4 keep the table "
                  "positive on its support (the default shift needs cells >= 96)",
                  ("cells", "repetitions", "shift"), _evidence_shift_keeps_support),),
    "stern_gerlach": (
        ("spin_up_weight and spin_down_weight are not both 0",
         ("spin_up_weight", "spin_down_weight"), lambda up, down: up != 0 or down != 0),
        ("gamma_energy != 0 when field_gradient != 0",
         ("gamma_energy", "field_gradient"),
         lambda energy, gradient: energy != 0 or gradient == 0),
    ),
}


@dataclass(frozen=True)
class Scenario:
    kind: str
    parameters: dict
    seed: int = 0
    output_dir: str = "."

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
            if typ is float and isinstance(value, (int, float)) and not isinstance(value, bool):
                params[name] = float(value)
            elif typ is int and isinstance(value, int) and not isinstance(value, bool):
                params[name] = int(value)
            elif typ is bool and isinstance(value, bool):
                params[name] = value
            elif typ is str and isinstance(value, str):
                params[name] = value
            elif typ is list and isinstance(value, list):
                params[name] = [float(v) for v in value]
            else:
                violations.append(f"parameter {name!r} must be of type {typ.__name__}")
        elif default is REQUIRED:
            violations.append(f"missing required parameter {name!r}")
        else:
            params[name] = default
    for name in raw:
        if name not in schema:
            violations.append(f"unknown parameter {name!r} for kind {kind!r}")
    admitted = set(params)
    for name, (_typ, _default, _help, *rule) in schema.items():
        if rule and name in params and not _admits(rule[0], params[name], params.get("setup")):
            violations.append(
                f"parameter {name!r} must be {_rule_text(rule[0])}, got {params[name]!r}"
            )
            admitted.discard(name)
    violations += [f"parameters must satisfy: {text}"
                   for text, names, test in JOINT_RULES.get(kind, ())
                   if admitted.issuperset(names) and not test(*(params[n] for n in names))]
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        violations.append("seed must be an integer")
        seed = 0
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
    data = inference.sample_dataset(table, p["repetitions"], scenario.seed)
    path = out("dataset.csv")
    fieldio.write_dataset_csv(path, data)
    sums = data.counts.reshape(data.slices, -1).sum(axis=1)
    checks = [
        check_leq("sample.slice_sum_deviation", float(np.max(np.abs(sums - p["repetitions"]))), 0.0),
        check_true(
            "sample.round_trip_bit_exact",
            bool(np.array_equal(fieldio.read_dataset_csv(path).counts, data.counts)),
        ),
    ]
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
    value, oracle, checks = verification.discrete_fisher_oracle(
        p["cells"], p["sigma"], p["slices"], "fisher.rel_error"
    )
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
        density_path, ["x", "density", "exact"], zip(x, scan[0].fields["p"], exact)
    )
    trace_path = out("trace.csv")
    fieldio.write_convergence_trace_csv(trace_path, scan[0].trace)
    return checks, [density_path, trace_path]


def _run_equivalence(scenario: Scenario, out):
    p = scenario.parameters
    consts = pauli_constants(p["hbar"], p["mass"], p["charge"])
    reports, checks = verification.equivalence_sets(
        p["cells"], p["frames"], p["sets"], scenario.seed, consts, p["max_mode"],
        p["amplitude"], worst=f"equivalence.worst_rel_residual_{p['sets']}_sets",
    )
    path = out("equivalence.csv")
    fieldio.write_table_csv(
        path,
        ["seed", "q_polar", "total_functional", "q_spinor", "rel_residual",
         "spinor_rel_residual"],
        [(scenario.seed + index, rep.q_polar, rep.total, rep.q_spinor, rep.rel_residual,
          rep.spinor_rel_residual) for index, rep in enumerate(reports)],
    )
    breakdown_path = out("breakdown.csv")
    fieldio.write_table_csv(
        breakdown_path, ["term", "value"], sorted(reports[-1].breakdown.items())
    )
    return checks, [path, breakdown_path]


def _run_pauli_evolve(scenario: Scenario, out):
    p = scenario.parameters
    consts = pauli_constants(p["hbar"], p["mass"], p["charge"])
    scheme = p["scheme"]
    extra_outputs = []
    if p["setup"] == "larmor":
        traj, checks = verification.larmor_precession(
            p["gamma_energy"], p["bz"], consts, p["steps"], p["periods"], p["record_every"],
            scheme,
        )
    elif p["setup"] == "free_packet":
        traj, checks = verification.free_packet_spreading(
            p["extent"], p["cells"], p["sigma"], p["t_final"], p["steps"], consts,
            p["record_every"], scheme,
        )
        snap_path = out("snapshots.bin")
        fieldio.write_field_snapshots(
            snap_path,
            Grid((p["extent"],), (p["cells"],), PERIODIC),
            p["t_final"] / p["steps"] * p["record_every"],
            {"wavefunction": traj.snapshots},
            metadata={"setup": "free_packet"},
        )
        extra_outputs.append(snap_path)
    else:  # uniform_field
        traj, checks = verification.uniform_field_drift(
            p["extent"], p["cells"], p["sigma"], p["extent"] / 3, p["e0"], p["t_final"],
            p["steps"], consts, p["record_every"], scheme,
        )
    checks.append(verification.norm_drift("pauli.norm_drift", traj))
    path = out("trajectory.csv")
    fieldio.write_pauli_trajectory_csv(path, traj)
    return checks, [path] + extra_outputs


def _run_stern_gerlach(scenario: Scenario, out):
    p = scenario.parameters
    config = pauli.SternGerlachConfig(
        spin_weights=(p["spin_up_weight"], p["spin_down_weight"]),
        consts=pauli_constants(p["hbar"], p["mass"], p["charge"]),
        **{name: p[name] for name in ("extent", "cells", "sigma", "center", "velocity",
                                      "field_gradient", "field_offset", "gamma_energy", "dt",
                                      "t_final", "record_every")},
    )
    try:
        result, law_checks = verification.stern_gerlach_law(config)
    except pauli.SolverError as err:
        return [check_true("stern_gerlach.completed", False, note=str(err))], []
    path = out("separation.csv")
    fieldio.write_table_csv(
        path,
        ["t", "center_plus", "center_minus", "separation", "overlap"],
        zip(result.times, result.centers[:, 0], result.centers[:, 1],
            result.separation, result.overlap),
    )
    return [check_true("stern_gerlach.completed", True)] + law_checks, [path]


def _run_moment(scenario: Scenario, out):
    p = scenario.parameters
    angles = (p["phi0"], p["z0"])
    torque, ct, energies, checks = verification.moment_checks(
        p["b"], p["gamma"], p["t_final"], p["dt"],
        moment=classical.MomentState.from_angles(*angles), angles=angles,
    )
    path_t = out("moment.csv")
    fieldio.write_moment_trajectory_csv(path_t, torque)
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
        g = Grid((extent,) * 3, (9,) * 3, DIRICHLET_ZERO)
        em = verification._uniform_b_em(g, bz)
        center = np.full(3, extent / 2)
        # bz > 0: the orbit turns clockwise for q > 0 and counterclockwise for q < 0
        state = classical.ChargedParticleState(
            center + np.array([radius, 0, 0]), (0.0, -np.sign(q) * p["speed"], 0.0)
        )
        traj = classical.lorentz_evolve(
            state, em, q, m, p["turns"] * period, period / p["steps_per_turn"]
        )
        radii = np.linalg.norm(traj.positions[:, :2] - center[:2], axis=1)
        speeds = np.linalg.norm(traj.velocities, axis=1)
        checks = [
            check_leq("lorentz.radius_rel_drift",
                      float(np.max(np.abs(radii - radius))) / radius, 1e-3),
            check_leq("lorentz.speed_rel_drift",
                      float(np.max(np.abs(speeds - p["speed"]))) / p["speed"], 1e-6),
        ]
    else:  # uniform_e
        e0 = p["e0"]
        extent = 50.0
        g = Grid((extent,) * 3, (11,) * 3, DIRICHLET_ZERO)
        x, _, _ = g.meshgrid()
        em = EMConfiguration(
            g, ScalarField(g, -e0 * x * np.ones(g.shape)), VectorField3.zero(g)
        )
        state = classical.ChargedParticleState(
            (5.0, extent / 2, extent / 2), (0.1, 0.0, 0.0)
        )
        traj = classical.lorentz_evolve(state, em, q, m, p["t_final"], 1e-3)
        exact = 5.0 + 0.1 * traj.times + 0.5 * (q * e0 / m) * traj.times**2
        checks = [
            check_leq(
                "lorentz.parabola_max_error",
                float(np.max(np.abs(traj.positions[:, 0] - exact))),
                1e-8 * max(1.0, float(np.max(np.abs(exact)))),
            )
        ]
    path = out("particle.csv")
    fieldio.write_particle_trajectory_csv(path, traj)
    return checks, [path]


def _run_verify_all(scenario: Scenario, out):
    records = verification.run_all(fast=scenario.parameters["fast"], echo=None)
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
