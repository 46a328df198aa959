"""Session setup shared by every test module."""

import functools
import importlib.util
import json
import struct
import warnings
from pathlib import Path

import numpy as np
from hypothesis import settings

from paulilab import fieldio, pauli

# hypothesis imports libcst to explain a failing example; under the
# warnings-as-errors filter that import's DeprecationWarning (from
# mypy_extensions) would turn the failure report into an internal error
# that ends the session, so import it once here with the warning ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

# every hypothesis test draws the same examples on every run, and none has
# a deadline: a slow moment of a shared host is not a failure
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def _load(name: str, *path: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent.joinpath(*path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tools/manifest.py: the golden documents, the entries of a run, and the
# comparison that names each entry that moved
manifest = _load("manifest", "tools", "manifest.py")
# bench/workloads.py: the benchmark's documents, which the schema must admit
workloads = _load("workloads", "bench", "workloads.py")


@functools.cache
def _pins() -> dict:
    return manifest.read(manifest.PINS)


def pin_moves(key, outputs, checks) -> list[str]:
    """``manifest.moved`` from the committed entries under ``key`` to those of
    a run with the data outputs ``outputs`` and the (name, value, tolerance)
    check records ``checks``: one line per entry that moved, none if the run
    matches its pins."""
    pinned = {name: value for name, value in _pins().items() if name.startswith(key + "/")}
    return manifest.moved(pinned, manifest.entries(key, outputs, checks),
                          "tests/manifest.tsv", "this run")


def full_fft_derivative(values, h, axis, order):
    """The spectral derivative of order 1 or 2 by the full complex FFT, an
    oracle for the half-spectrum transform of real stacks and for the
    spectral Laplacian of a wavefunction."""
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    mult = 1j * k if order == 1 else -(k * k)
    if order == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)


def whole_array_snapshots(grid, dt, fields, metadata) -> bytes:
    """The snapshot file of the stacks ``fields`` (time axis first) as the
    whole-array writer encoded it: the byte oracle for
    ``fieldio.field_snapshot_stream``, and a file of several fields for the
    reader."""
    arrays = {name: np.ascontiguousarray(stack) for name, stack in fields.items()}
    counts = {arr.shape[0] for arr in arrays.values()}
    header = {
        "format": "paulilab-snapshots-1",
        "grid": grid.descriptor(),
        "dt": dt,
        "snapshots": counts.pop() if counts else 0,
        "fields": [{"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
                   for name, arr in arrays.items()],
        "metadata": metadata,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return (fieldio.SNAPSHOT_MAGIC + struct.pack("<Q", len(blob)) + blob
            + b"".join(arr.tobytes() for arr in arrays.values()))


def evolve_with_snapshots(initial, config, t_final, record_every=1):
    """``pauli.evolve`` with a copy of each record's (..., 2) wavefunction,
    taken through ``on_record``: (trajectory, stacked snapshots)."""
    snapshots = []
    traj = pauli.evolve(initial, config, t_final, record_every,
                        on_record=lambda psi, *_: snapshots.append(psi.copy()))
    return traj, np.array(snapshots)
