"""Scenario documents for each benchmark workload, generated from a seed.

Each workload is a list of JSON scenario documents that the benchmark feeds
through ``paulilab.scenarios`` one after another.  The seed reaches only the
scenario ``seed`` fields, which the box multistarts, the equivalence
configurations and the multinomial sampler use; every other parameter is
fixed, so one seed always yields the same documents.

``full`` is the measured size.  Its documents are short, about 0.1-0.2 s
each on a 2-vCPU host, and a pass takes one or two seconds: the benchmark
divides each document's time by a reference kernel timed just before it,
and the shorter the document, the likelier both see the same host speed.  ``smoke``
keeps every scenario kind and recording pattern of a workload at the
smallest size that still passes its checks, for the benchmark's own tests.
"""

from __future__ import annotations

SIZES = ("full", "smoke")

# Why each workload exists, and which layers it is predicted to load.
WHY = {
    "static_solve": "Fisher box minimizer and equivalence sets: variational, functionals "
    "and grids do the work; pauli, classical and fieldio stay idle",
    "evolve": "pauli and classical stepping, recording every 100th step: the stepping "
    "loops and the Lorentz field sampler",
    "record_io": "pauli propagators recording every step, snapshot binary and dataset "
    "CSV write and read: recording and fieldio rather than stepping",
}

WORKLOADS = tuple(WHY)

# Span-name prefixes predicted to take most of each workload's traced self
# time; a traced run reports the share they actually took.
PREDICTED = {
    "static_solve": ("variational.", "functionals.", "grids."),
    "evolve": ("pauli.", "classical."),
    "record_io": ("fieldio.", "pauli.observables"),
}


def _doc(kind: str, seed: int, **parameters) -> dict:
    return {"kind": kind, "seed": seed, "parameters": parameters}


def _static_solve(seed: int, full: bool) -> list[dict]:
    # Eight single-start box documents rather than two starts of a large
    # box: the descent's iteration count swings widely from one start to
    # the next, and summing many starts keeps the work per pass nearly the
    # same for every seed.  Seeds one apart share no start.
    if not full:
        return [_doc("box_minimize", seed, cells=32, multistarts=2, modes=3),
                _doc("equivalence", seed, cells=12, frames=12, sets=1)]
    return (
        [_doc("box_minimize", 10 * seed + k, cells=64, multistarts=1, modes=3)
         for k in range(8)]
        + [_doc("equivalence", 10 * seed + k, cells=16, frames=12, sets=1) for k in range(2)]
    )


def _evolve(seed: int, full: bool) -> list[dict]:
    if not full:
        return [
            _doc("pauli_evolve", seed, setup="uniform_field", cells=256, steps=100,
                 record_every=10),
            _doc("pauli_evolve", seed, setup="free_packet", scheme="crank_nicolson", steps=100,
                 record_every=10),
            _doc("pauli_evolve", seed, setup="larmor", periods=1.0, steps=100),
            _doc("stern_gerlach", seed, field_gradient=0.02, cells=256, dt=0.1, record_every=10),
            _doc("lorentz", seed, turns=0.5, steps_per_turn=100),
            _doc("moment", seed, t_final=0.2),
        ]
    # Recording every 100th step.  larmor keeps 8 cells and 1000 steps per
    # period, where the interpreter's cost per step dominates; each lorentz
    # document takes 150 RK4 steps through the grid field sampler.
    return (
        [_doc("pauli_evolve", seed, setup="uniform_field", steps=1000, record_every=100),
         _doc("pauli_evolve", seed, setup="free_packet", scheme="crank_nicolson", steps=1000,
              record_every=100)]
        + 2 * [_doc("pauli_evolve", seed, setup="larmor", periods=2.0)]
        + [_doc("stern_gerlach", seed, field_gradient=0.02, cells=1024, dt=0.01,
                record_every=100)]
        + 2 * [_doc("lorentz", seed, turns=0.5)]
        + [_doc("moment", seed, t_final=0.5)]
    )


def _record_io(seed: int, full: bool) -> list[dict]:
    steps = 250 if full else 50
    small = {} if full else {"cells": 256}
    # Every step recorded: free_packet writes a 1024-cell x 251-record
    # snapshot binary of 8 MB; each sample document draws, writes and reads
    # back a 10,000-cell x 2-slice dataset.
    return [
        _doc("pauli_evolve", seed, setup="free_packet", steps=steps, record_every=1, **small),
        _doc("stern_gerlach", seed, field_gradient=0.02, record_every=1,
             **({"t_final": 2.5} if full else {"cells": 256, "dt": 0.2})),
        _doc("pauli_evolve", seed, setup="uniform_field", steps=steps, record_every=1, **small),
    ] + [
        _doc("sample", 2 * seed + k, cells=10000 if full else 200, slices=2,
             sigma=1000.0 if full else 20.0, repetitions=100000)
        for k in range(2 if full else 1)
    ]


_GENERATORS = {
    "static_solve": _static_solve,
    "evolve": _evolve,
    "record_io": _record_io,
}


def documents(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The scenario documents of one workload pass, without ``output_dir``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {list(SIZES)}")
    return _GENERATORS[workload](seed, size == "full")
