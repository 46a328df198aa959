"""What the traced run wraps, meters and reports, layer by layer.

Every metric named ``<module>.<function>.s`` is self time in seconds: the
function's spans minus the spans of traced calls inside them, summed over
the pass.  ``.calls`` is an exact call count.  The metrics in ``COMPUTED``
are not timed but computed from array sizes or call arguments.  Each
per-layer figure is the median over the run's traced passes.
"""

from __future__ import annotations

import numpy as np

from tracer import self_times

PACKAGE = "paulilab"

# Modules whose every public function is traced; ``scenarios`` contributes
# only its two entry points.
TRACED_MODULES = ("grids", "inference", "functionals", "variational", "pauli",
                  "classical", "fieldio", "verification")
SCENARIO_ENTRY_POINTS = ["parse_scenario", "run"]
LAYERS = TRACED_MODULES + ("scenarios",)

CALLS = ("grids.derive_along", "grids.quadrature_weights", "variational.fisher_value_psi",
         "variational.fisher_gradient_psi", "functionals.equivalence_residual",
         "pauli.observables")

SELF_TIMES = (
    "grids.derive_along", "grids.quadrature_weights",
    "variational.minimize", "variational.spectrum_scan", "variational.fisher_value_psi",
    "variational.fisher_gradient_psi",
    "functionals.equivalence_residual", "functionals.q_polar", "functionals.total_functional",
    "functionals.q_spinor", "functionals.random_smooth_configuration",
    "functionals.spinor_from_polar",
    "pauli.evolve", "pauli.stern_gerlach", "pauli.observables",
    "classical.lorentz_evolve", "classical.torque_evolve", "classical.canonical_evolve",
    "inference.sample_dataset",
    "fieldio.write_dataset_csv", "fieldio.read_dataset_csv", "fieldio.write_field_snapshots",
    "fieldio.write_table_csv",
    "scenarios.parse_scenario", "scenarios.run",
)

# name: (unit, better)
DERIVED = {
    "grids.derive_along.mb": ("MB", "lower"),
    "variational.accept_ratio": ("1", "higher"),
    "pauli.steps": ("count", "lower"),
    "pauli.us_per_step": ("us", "lower"),
    "classical.lorentz_steps": ("count", "lower"),
    "classical.lorentz_us_per_step": ("us", "lower"),
    "inference.events_per_s": ("1/s", "higher"),
    "fieldio.mb_written": ("MB", "lower"),
    "fieldio.write_mb_per_s": ("MB/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

COMPUTED = ("grids.derive_along.mb", "pauli.steps", "classical.lorentz_steps",
            "fieldio.mb_written")


def catalogue() -> list[dict]:
    """Every per-layer metric as ``{"name", "unit", "better"}``."""
    rows = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    rows += [(f"{name}.calls", "count", "lower") for name in CALLS]
    rows += [(f"{name}.s", "s", "lower") for name in SELF_TIMES]
    rows += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


# ---------------------------------------------------------------------------
# meters: counts computed from a traced call's arguments and result
# ---------------------------------------------------------------------------


def _derive_bytes(args: dict, result) -> dict:
    return {"grids.derive_along.bytes": np.asarray(args["values"]).nbytes
            + np.asarray(result).nbytes}


def _evolve_steps(args: dict, result) -> dict:
    return {"pauli.steps": int(round(args["t_final"] / args["config"].dt))}


def _stern_gerlach_steps(args: dict, result) -> dict:
    config = args["config"]
    return {"pauli.steps": int(round(config.t_final / config.dt))}


def _lorentz_steps(args: dict, result) -> dict:
    return {"classical.lorentz_steps": int(round(args["t_final"] / args["dt"]))}


def _sampled_events(args: dict, result) -> dict:
    return {"inference.events": int(args["repetitions"]) * args["table"].slices}


def _bytes_written(args: dict, result) -> dict:
    # Every fieldio writer ends in atomic_write_bytes, so metering it alone
    # counts each output file once.
    return {"fieldio.bytes_written": len(args["data"])}


METERS = {
    "grids.derive_along": _derive_bytes,
    "pauli.evolve": _evolve_steps,
    "pauli.stern_gerlach": _stern_gerlach_steps,
    "classical.lorentz_evolve": _lorentz_steps,
    "inference.sample_dataset": _sampled_events,
    "fieldio.atomic_write_bytes": _bytes_written,
}


def tracer_targets(package_modules: dict) -> dict:
    """Tracer targets from ``{short module name: module}``."""
    targets = {package_modules[name]: None for name in TRACED_MODULES}
    targets[package_modules["scenarios"]] = SCENARIO_ENTRY_POINTS
    return targets


def self_time_share(spans: list, prefixes: tuple[str, ...]) -> float:
    """Share of a pass's self time spent in spans whose names start with
    any of ``prefixes``."""
    table = self_times(spans)
    total = sum(s for _c, s in table.values())
    return _ratio(sum(s for name, (_c, s) in table.items() if name.startswith(prefixes)), total)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without ``trace.overhead_s``)."""
    table = self_times(spans)

    def calls(name):
        return table.get(name, (0, 0.0))[0]

    def self_s(name):
        return table.get(name, (0, 0.0))[1]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for name, (_c, s) in table.items()
                                     if name.split(".", 1)[0] == layer)
    for name in CALLS:
        out[f"{name}.calls"] = calls(name)
    for name in SELF_TIMES:
        out[f"{name}.s"] = self_s(name)

    steps = counters.get("pauli.steps", 0)
    lorentz_steps = counters.get("classical.lorentz_steps", 0)
    written = counters.get("fieldio.bytes_written", 0) / 1e6
    write_s = sum(s for name, (_c, s) in table.items()
                  if name.startswith(("fieldio.write_", "fieldio.atomic_write_")))
    out.update({
        "grids.derive_along.mb": counters.get("grids.derive_along.bytes", 0) / 1e6,
        "variational.accept_ratio": _ratio(calls("variational.fisher_gradient_psi"),
                                           calls("variational.fisher_value_psi")),
        "pauli.steps": steps,
        # Self time excludes the traced recording calls (observables,
        # quadrature weights), so this is the stepping loop's cost.
        "pauli.us_per_step": 1e6 * _ratio(self_s("pauli.evolve") + self_s("pauli.stern_gerlach"),
                                          steps),
        "classical.lorentz_steps": lorentz_steps,
        "classical.lorentz_us_per_step": 1e6 * _ratio(self_s("classical.lorentz_evolve"),
                                                      lorentz_steps),
        "inference.events_per_s": _ratio(counters.get("inference.events", 0),
                                         self_s("inference.sample_dataset")),
        "fieldio.mb_written": written,
        "fieldio.write_mb_per_s": _ratio(written, write_s),
    })
    return out
