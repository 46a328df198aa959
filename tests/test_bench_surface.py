"""The ``src/`` names that ``bench/`` calls directly.

The benchmark traces and meters these by name (``bench/layers.py``'s
``METERS`` and ``CALLS``, ``bench/tests/test_bench.py``), and the suite
here does not collect ``bench/tests``.  A change to ``src/`` that renames
or drops one of them breaks the benchmark; these tests fail with it, so
the change carries the benchmark's update or keeps the name.
"""

import importlib
import inspect
import pkgutil
import sys

import pytest

import paulilab
from paulilab import classical, fieldio, grids, inference, pauli


@pytest.mark.parametrize("function,parameters", [
    (pauli.evolve, ("config", "t_final")),
    (classical.lorentz_evolve, ("t_final", "dt")),
    (inference.sample_dataset, ("table", "repetitions")),
    (fieldio.atomic_write_bytes, ("data",)),
    (grids.derive_along, ("values",)),
], ids=lambda value: getattr(value, "__qualname__", None))
def test_metered_functions_keep_the_parameter_names_the_meters_read(function, parameters):
    assert set(parameters) <= set(inspect.signature(function).parameters)


def test_evolve_config_carries_the_step_the_meter_reads():
    assert "dt" in {field.name for field in pauli.SolverConfig.__dataclass_fields__.values()}


def test_integrate_reaches_the_quadrature_weights_through_integrate_values(monkeypatch):
    # the tracer's nested spans: integrate -> integrate_values -> quadrature_weights
    calls = []
    for name in ("integrate_values", "quadrature_weights"):
        original = getattr(grids, name)

        def traced(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(grids, name, traced)
    grid = grids.Grid((1.0,), (16,), grids.PERIODIC)
    assert grids.integrate(grids.ScalarField.full(grid, 2.0)) == pytest.approx(2.0)
    assert calls == ["integrate_values", "quadrature_weights"]


def test_derive_along_is_held_by_name_in_at_least_five_modules():
    # the tracer rebinds every module that imports it by name
    for module in pkgutil.iter_modules(paulilab.__path__):
        importlib.import_module(f"paulilab.{module.name}")
    holders = [name for name, module in sys.modules.items()
               if name.startswith("paulilab") and getattr(module, "derive_along", None)
               is grids.derive_along]
    assert len(holders) >= 5, holders
