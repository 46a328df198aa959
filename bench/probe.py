"""One set-up of a benchmark run, in a fresh interpreter.

    python3 bench/probe.py WORKLOAD SEED SIZE

Imports paulilab as the command-line tool does, generates the workload's
documents from the seed and parses them; the caller times the whole process.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

import paulilab.cli  # noqa: E402,F401  - the import every CLI invocation pays
from paulilab import scenarios  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, size = argv[0], int(argv[1]), argv[2]
    for doc in workloads.documents(workload, seed, size):
        scenarios.parse_scenario(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
