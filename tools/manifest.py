"""Pins: the output bytes, check values and bounds of a fixed set of scenario runs.

    python tools/manifest.py write MANIFEST
    python tools/manifest.py compare OLD NEW

``write`` runs the golden documents (``GOLDEN``), ``verify-all --fast``
and the scenario documents of each benchmark workload
(``bench/workloads.py``) at seeds 0 and 1, full and smoke size, each
document in a fresh temporary directory, with the paulilab source tree
under ``src/`` next to this directory.  It writes one line per entry, key
and value split by a tab.  A golden document's key is ``golden/NN-kind``,
``verify-all``'s is ``verify_all/fast``, and a benchmark document's is
``workload/size/seedS/NNN-kind``.  Under that key come:

- each CSV output's entries: the sha256 of its ``# `` line, if it has one,
  under ``file.csv:#``, and the sha256 of each column under
  ``file.csv:name``, which covers the column's position in the header line
  and its cells in row order;
- every other output's sha256, under its file name;
- ``repr(value)`` of each check record, under ``check name``, and next to
  it the record's bound, its ``tolerance`` text as ``CheckRecord.line()``
  prints it (``<= 1e-06``), under ``bound name``.

``report.json`` is left out (it holds the wall time and absolute paths),
and so are the values of the wall-clock records (``*.runtime_seconds``)
and their rows of ``verification.csv``, which differ from run to run; their
bounds are pinned.

The output of ``write`` is committed as ``tests/manifest.tsv``.  The tests
run each golden document, ``verify-all --fast`` and each benchmark document
and compare their entries with the committed ones.  A re-pin is one
``write`` into ``tests/manifest.tsv``, whose diff names every entry that
moved.

``compare`` names every entry that is in one manifest and not the other, or
whose value moved, and says how far it moved: for a check value whose old
and new text both parse as floats, the absolute difference and the relative
difference |new - old| / max(|old|, |new|); for a bound, or a check value
that is not a number, the old and the new text; for a data output or a
column, that its bytes differ.  It exits 1 if any entry moved, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "manifest.tsv"
SEEDS = (0, 1)
_RUNTIME = "runtime_seconds"
_CHECK = "/check "  # in the key of a check value, not in that of a data output
_BOUND = "/bound "  # in the key of a check's bound

# (kind, parameters[, seed]): small documents that together take every
# scenario kind, both propagators and each recording pattern
GOLDEN = [
    ("pauli_evolve", {"setup": "larmor", "periods": 1.0, "steps": 200}),
    ("pauli_evolve", {"setup": "larmor", "periods": 1.0, "steps": 200,
                      "scheme": "crank_nicolson"}),
    ("pauli_evolve", {"setup": "uniform_field", "cells": 128, "steps": 100}),
    ("pauli_evolve", {"setup": "uniform_field", "cells": 128, "steps": 100, "t_final": 1.0,
                      "scheme": "crank_nicolson"}),
    ("pauli_evolve", {"setup": "free_packet", "cells": 128, "steps": 100,
                      "record_every": 20}),
    ("pauli_evolve", {"setup": "free_packet", "cells": 128, "steps": 100, "record_every": 20,
                      "t_final": 1.0, "scheme": "crank_nicolson"}),
    ("stern_gerlach", {"field_gradient": 0.02, "cells": 256, "dt": 0.1, "record_every": 10}),
    ("lorentz", {"setup": "uniform_b", "turns": 0.5, "steps_per_turn": 100}),
    ("lorentz", {"setup": "uniform_e", "t_final": 0.2}),
    ("moment", {"t_final": 0.2}),
    ("sample", {"cells": 64, "sigma": 5.0, "slices": 2, "repetitions": 1000}),
    ("evidence", {"cells": 160}),
    ("fisher_discrete", {"cells": 160}),
    ("box_minimize", {"cells": 64, "multistarts": 1, "modes": 3}),
    ("equivalence", {"cells": 12, "frames": 12, "sets": 1}),
    # one occupied color takes the deflection branch of the center law:
    # stern_gerlach.deflection_rel_error reads 3.55e-14 (up) and 6.39e-14 (down)
    ("stern_gerlach", {"field_gradient": 0.02, "spin_down_weight": 0.0}),
    ("stern_gerlach", {"field_gradient": 0.02, "spin_up_weight": 0.0}),
    # the default constants, and constants with every coefficient moved
    ("equivalence", {"cells": 12, "frames": 8, "sets": 1}),
    ("equivalence", {"cells": 12, "frames": 8, "sets": 1, "hbar": 0.7, "mass": 1.9,
                     "charge": -1.3}, 3),
]
VERIFY_ALL = ("verify_all/fast", {"kind": "verify_all", "parameters": {"fast": True}})


def golden() -> list[tuple[str, dict]]:
    """(key, document) of each golden document."""
    docs = []
    for index, (kind, parameters, *seed) in enumerate(GOLDEN):
        docs.append((f"golden/{index:02d}-{kind}",
                     {"kind": kind, "parameters": parameters, "seed": seed[0] if seed else 0}))
    return docs


def benchmark(workloads) -> list[tuple[str, dict]]:
    """(key, document) of each benchmark document, from the loaded
    ``bench/workloads.py`` module ``workloads``: every workload at each size
    and seed, numbered in that order."""
    bench = [(f"{workload}/{size}/seed{seed}", doc)
             for workload in workloads.WORKLOADS for size in workloads.SIZES for seed in SEEDS
             for doc in workloads.documents(workload, seed, size)]
    return [(f"{group}/{index:03d}-{doc['kind']}", doc)
            for index, (group, doc) in enumerate(bench)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _output_entries(key: str, path: str) -> dict[str, str]:
    key = f"{key}/{os.path.basename(path)}"
    with open(path, "rb") as handle:
        data = handle.read()
    if not path.endswith(".csv"):
        return {key: _sha256(data)}
    # the wall-clock rows of a verification table change from run to run
    lines = [line for line in data.decode("utf-8").splitlines() if _RUNTIME not in line]
    entries = {}
    if lines[0].startswith("# "):
        entries[f"{key}:#"] = _sha256(lines.pop(0).encode())
    # a row with more or fewer cells than the header raises
    columns = zip(*(line.split(",") for line in lines), strict=True)
    for index, (name, *cells) in enumerate(columns):
        entries[f"{key}:{name}"] = _sha256("\n".join([str(index), *cells]).encode())
    return entries


def entries(key: str, outputs, checks) -> dict[str, str]:
    """The entries of one run under ``key``: ``outputs`` are the paths of its
    data outputs, ``checks`` its (name, value, tolerance) check records."""
    found = {}
    for path in outputs:
        found.update(_output_entries(key, path))
    for name, value, tolerance in checks:
        if not name.endswith(_RUNTIME):
            found[f"{key}{_CHECK}{name}"] = repr(value)
        found[f"{key}{_BOUND}{name}"] = tolerance
    return found


def write(path: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from paulilab import scenarios

    runs = golden() + [VERIFY_ALL] + benchmark(workloads)
    found = {}
    for key, doc in runs:
        with tempfile.TemporaryDirectory() as tmp:
            scenario = scenarios.parse_scenario(json.dumps({**doc, "output_dir": tmp}))
            report = scenarios.run(scenario)
            found.update(entries(key, report.outputs,
                                 [(c.name, c.value, c.tolerance) for c in report.checks]))
    Path(path).write_text("".join(f"{key}\t{value}\n" for key, value in found.items()),
                          encoding="utf-8")
    print(f"wrote {len(found)} entries from {len(runs)} documents to {path}")
    return 0


def read(path) -> dict[str, str]:
    entries = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("\t")
        entries[key] = value
    return entries


def _move(key: str, old: str, new: str) -> str:
    """How far the entry ``key`` moved from ``old`` to ``new``."""
    if _CHECK not in key and _BOUND not in key:
        return "bytes differ"
    try:
        a, b = float(old), float(new)
    except ValueError:
        return f"{old} -> {new}"
    diff, scale = abs(b - a), max(abs(a), abs(b))
    return f"{old} -> {new} (abs {diff:.3g}, rel {diff / scale if scale else 0.0:.3g})"


def moved(old: dict[str, str], new: dict[str, str], old_name: str, new_name: str) -> list[str]:
    """One line for each entry that is in one of ``old`` and ``new`` and not
    the other, or whose value moved from ``old`` to ``new``."""
    lines = [f"only in {old_name}: {key}" for key in old if key not in new]
    lines += [f"only in {new_name}: {key}" for key in new if key not in old]
    lines += [f"moved: {key}: {_move(key, old[key], new[key])}"
              for key in old if key in new and old[key] != new[key]]
    return lines


def compare(old_path: str, new_path: str) -> int:
    old, new = read(old_path), read(new_path)
    lines = moved(old, new, old_path, new_path)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(old.keys() | new.keys())} entries moved")
    return 1 if lines else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write").add_argument("manifest")
    compare_p = sub.add_parser("compare")
    compare_p.add_argument("old")
    compare_p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.manifest)
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
