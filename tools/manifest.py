"""Manifest of every output byte and check value of the benchmark documents.

    python tools/manifest.py write MANIFEST
    python tools/manifest.py compare OLD NEW

``write`` runs the scenario documents of each benchmark workload
(``bench/workloads.py``) at seeds 0 and 1, full and smoke size, and then
``verify-all --fast``, each document in a fresh temporary directory, with
the paulilab source tree under ``src/`` next to this directory.  It writes
one line per entry, key and value split by a tab: the sha256 of each data
output, and ``repr(value)`` of each check record under its name.
``report.json`` is left out (it holds the wall time and absolute paths),
and so are the wall-clock records (``*.runtime_seconds``) and their rows of
``verification.csv``, which differ from run to run.

``compare`` names every entry that is in one manifest and not the other, or
whose value moved, and says how far it moved: for a check value whose old
and new text both parse as floats, the absolute difference and the relative
difference |new - old| / max(|old|, |new|); for a data output, that its
bytes differ.  It exits 1 if any entry moved, else 0.
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
SEEDS = (0, 1)
_RUNTIME = "runtime_seconds"
_CHECK = "/check "  # in the key of a check value, not in that of a data output


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    # the wall-clock rows of a verification table change from run to run
    return hashlib.sha256(b"".join(line for line in lines if _RUNTIME.encode() not in line)
                          ).hexdigest()


def _entries(key: str, report) -> list[str]:
    lines = [f"{key}/{os.path.basename(path)}\t{_digest(path)}" for path in report.outputs]
    lines += [f"{key}{_CHECK}{c.name}\t{c.value!r}" for c in report.checks
              if not c.name.endswith(_RUNTIME)]
    return lines


def write(path: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from paulilab import scenarios

    runs = [(f"{workload}/{size}/seed{seed}", doc)
            for workload in workloads.WORKLOADS for size in workloads.SIZES for seed in SEEDS
            for doc in workloads.documents(workload, seed, size)]
    runs.append(("verify_all/fast", {"kind": "verify_all", "parameters": {"fast": True}}))
    lines = []
    for index, (group, doc) in enumerate(runs):
        with tempfile.TemporaryDirectory() as tmp:
            scenario = scenarios.parse_scenario(json.dumps({**doc, "output_dir": tmp}))
            lines += _entries(f"{group}/{index:03d}-{doc['kind']}", scenarios.run(scenario))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} entries from {len(runs)} documents to {path}")
    return 0


def _read(path: str) -> dict[str, str]:
    entries = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("\t")
        entries[key] = value
    return entries


def _move(key: str, old: str, new: str) -> str:
    """How far the entry ``key`` moved from ``old`` to ``new``."""
    if _CHECK not in key:
        return "bytes differ"
    try:
        a, b = float(old), float(new)
    except ValueError:
        return f"{old} -> {new}"
    diff, scale = abs(b - a), max(abs(a), abs(b))
    return f"{old} -> {new} (abs {diff:.3g}, rel {diff / scale if scale else 0.0:.3g})"


def compare(old_path: str, new_path: str) -> int:
    old, new = _read(old_path), _read(new_path)
    moved = [f"only in {old_path}: {key}" for key in old if key not in new]
    moved += [f"only in {new_path}: {key}" for key in new if key not in old]
    moved += [f"moved: {key}: {_move(key, old[key], new[key])}"
              for key in old if key in new and old[key] != new[key]]
    for line in moved:
        print(line)
    print(f"{len(moved)} of {len(old.keys() | new.keys())} entries moved")
    return 1 if moved else 0


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
