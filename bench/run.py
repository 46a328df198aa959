"""Scenario-level benchmark of paulilab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the paulilab source tree under ``src/``
next to this directory, and writes only under ``.bench_out/`` there.

One process per run, one caller, closed loop: each scenario document of
the workload is parsed and run through ``paulilab.scenarios`` (compute,
write the data outputs, write ``report.json``), and the next starts only
when it returns.  A pass is one trip through the workload's documents;
passes repeat until they have taken ``--seconds`` and at least
``MIN_PASSES`` untraced ones have run.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_ref``: one pass's time in units of a reference kernel.  Between
  scenarios the run times ``reference_s``, a fixed kernel that does not
  use paulilab; each scenario's time is divided by the mean of the readings
  just before and after it, and the result is the sum over the scenarios
  of each one's median ratio across the passes.  On a shared 2-vCPU Xeon
  host whose speed drops by 1.5-2x for seconds to minutes at a time, the
  plain seconds (``wall_s`` in the context) spread by 12-32% over ten
  seeds, and the ratio by 2-6%.
* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time
  to import paulilab, generate the documents and parse them.
* ``pass_ratio``: 1 - (failed check records + scenarios that raised) /
  (check records + scenarios that raised), that is 1 - fail ratio.
* ``tol_used``: largest value / bound over the ``<=`` check records with a
  nonzero bound: how much of its stated tolerance the run spent.
* ``peak_rss_mb``: the run's own peak resident set size.

With ``--trace 1`` passes alternate between untraced and traced, and the
run reports the per-layer metrics of ``layers.py`` plus the tracing
overhead; spans are written to ``.bench_out/<workload>/spans.csv``, and the
context says whether the layers ``workloads.PREDICTED`` names took most of
the self time.

Every run checks its outputs: every check record must pass, no scenario may
raise, and each data output must be byte-identical across all passes,
traced or not.  The last line of standard output is the JSON result; the
line before it holds the run's context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = {"full": 3, "smoke": 2}  # untraced passes per run, by size
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

END_TO_END = {  # name: unit
    "wall_ref": "ref",
    "setup_s": "s",
    "pass_ratio": "1",
    "tol_used": "1",
    "peak_rss_mb": "MB",
}


class SourceMissing(RuntimeError):
    pass


def import_paulilab():
    """Import paulilab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "paulilab" / "__init__.py").is_file():
        raise SourceMissing(f"no paulilab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import paulilab
    from paulilab import (classical, fieldio, functionals, grids, inference, pauli,
                          scenarios, variational, verification)

    if Path(paulilab.__file__).resolve().parent != SRC / "paulilab":
        raise SourceMissing(f"paulilab was imported from {paulilab.__file__}, not {SRC}")
    modules = dict(classical=classical, fieldio=fieldio, functionals=functionals, grids=grids,
                   inference=inference, pauli=pauli, scenarios=scenarios,
                   variational=variational, verification=verification)
    return paulilab, modules


# ---------------------------------------------------------------------------
# reference kernel and run context
# ---------------------------------------------------------------------------


_REF_SMALL = np.linspace(0.0, 1.0, 64)
_REF_WAVE = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 2048))
_REF_ROW = np.arange(400) * 0.1


def reference_s() -> float:
    """Seconds taken by a fixed kernel that does not use paulilab, built
    from what paulilab's scenarios spend their time on: numpy calls on small
    arrays in an interpreter loop, FFTs of 2048 points and float
    formatting."""
    started = time.perf_counter()
    a, total = _REF_SMALL.copy(), 0.0
    for _ in range(1000):
        a = np.where(a > 0.5, a * 0.999, a + 1e-3)
        total += float(np.sum(a * a))
    for _ in range(60):
        total += float(np.abs(np.fft.ifft(np.fft.fft(_REF_WAVE) * 0.5)).sum())
    for _ in range(3):
        ",".join(repr(v) for v in _REF_ROW * total)
    return time.perf_counter() - started


def calibration_s() -> float:
    """Median of nine reference-kernel timings.  Taken at the start and end
    of a run, it only flags an unusually fast or slow host."""
    return statistics.median(reference_s() for _ in range(9))


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "paulilab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_context(paulilab, args, docs: list[dict]) -> dict:
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "paulilab": paulilab.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one process",
        "documents": docs,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, size: str) -> float:
    """Wall time of one fresh interpreter that imports paulilab, generates
    the documents and parses them."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed), size],
                   check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return time.perf_counter() - started


def _output_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Tally:
    """Check records, failures and output digests across every pass."""

    def __init__(self):
        self.records = 0
        self.failed = 0
        self.raised = 0
        self.tol_used = 0.0
        self.tol_used_by = ""
        self.digests: dict[int, dict[str, str]] = {}
        self.mismatches: list[str] = []

    def add(self, index: int, report) -> None:
        self.records += len(report.checks)
        for check in report.checks:
            if not check.passed:
                self.failed += 1
                print(f"check failed: {check.line()}", file=sys.stderr)
            if check.tolerance.startswith("<= "):
                bound = float(check.tolerance[3:])
                if bound != 0.0 and check.value / bound > self.tol_used:
                    self.tol_used, self.tol_used_by = check.value / bound, check.name
        digest = {os.path.basename(p): _output_digest(p) for p in report.outputs}
        first = self.digests.setdefault(index, digest)
        if digest != first:
            self.mismatches.append(f"scenario {index}: outputs differ between passes")

    @property
    def attempted(self) -> int:
        return self.records + self.raised

    @property
    def failures(self) -> int:
        return self.failed + self.raised

    @property
    def correct(self) -> bool:
        return self.failures == 0 and not self.mismatches and self.attempted > 0


def run_pass(scenarios, texts: list[str], tally: Tally) -> list[tuple[float, float]]:
    """Parse and run each document in turn.  Return, per scenario, its
    seconds and the mean of the reference kernel's seconds just before and
    just after it."""
    times, references = [], [reference_s()]
    for index, text in enumerate(texts):
        started = time.perf_counter()
        try:
            report = scenarios.run(scenarios.parse_scenario(text))
        except Exception:  # noqa: BLE001 - a raising scenario is counted, not fatal
            times.append(time.perf_counter() - started)
            tally.raised += 1
            traceback.print_exc(file=sys.stderr)
        else:
            times.append(time.perf_counter() - started)
            tally.add(index, report)
        references.append(reference_s())
    return [(s, (before + after) / 2) for s, before, after in
            zip(times, references, references[1:])]


def wall_s(passes: list[list[tuple[float, float]]]) -> float:
    """Sum over scenarios of each scenario's median seconds across passes."""
    return sum(statistics.median(s for s, _ref in column) for column in zip(*passes))


def wall_ref(passes: list[list[tuple[float, float]]]) -> float:
    """Sum over scenarios of each scenario's median ratio of its seconds to
    the reference kernel's, across passes."""
    return sum(statistics.median(s / ref for s, ref in column) for column in zip(*passes))


def write_spans(path: Path, traced_spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("pass,index,parent,name,start_s,end_s\n")
        for number, spans in enumerate(traced_spans):
            for index, (name, start, end, parent) in enumerate(spans):
                handle.write(f"{number},{index},{parent},{name},{start!r},{end!r}\n")


def measure(args) -> tuple[dict, dict]:
    paulilab, modules = import_paulilab()
    import layers
    from tracer import Tracer

    scenarios = modules["scenarios"]
    docs = workloads.documents(args.workload, args.seed, args.size)
    context = run_context(paulilab, args, docs)
    context["calibration_start_s"] = calibration_s()

    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    texts = [json.dumps({**doc, "output_dir": str(run_dir / f"{i:02d}_{doc['kind']}")})
             for i, doc in enumerate(docs)]
    tracer = Tracer(layers.PACKAGE, layers.tracer_targets(modules), layers.METERS) \
        if args.trace else None

    tally = Tally()
    plain: list[list[tuple[float, float]]] = []
    traced: list[list[tuple[float, float]]] = []
    traced_spans: list[list] = []
    per_pass_layers: list[dict] = []
    predicted_shares: list[float] = []
    probes: list[float] = []
    wanted_probes = 0 if tracer is not None else SETUP_PROBES
    measured_s = 0.0
    try:
        while True:
            started = time.perf_counter()
            plain.append(run_pass(scenarios, texts, tally))
            if tracer is not None:
                with tracer:
                    traced.append(run_pass(scenarios, texts, tally))
                spans, counters = tracer.take()
                traced_spans.append(spans)
                per_pass_layers.append(layers.layer_metrics(spans, counters))
                predicted_shares.append(
                    layers.self_time_share(spans, workloads.PREDICTED[args.workload]))
            measured_s += time.perf_counter() - started
            # Set-up probes run between passes, so that they sample the
            # host's speed over the whole run rather than at its start.
            if len(probes) < wanted_probes:
                probes.append(setup_probe(args.workload, args.seed, args.size))
            enough = len(plain) >= (1 if tracer is not None else MIN_PASSES[args.size])
            if enough and measured_s >= args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    while len(probes) < wanted_probes:
        probes.append(setup_probe(args.workload, args.seed, args.size))

    context["calibration_end_s"] = calibration_s()
    context.update(setup_probes_s=probes, passes=len(plain), traced_passes=len(traced),
                   wall_s=wall_s(plain), measured_s=measured_s,
                   scenario_and_reference_s=plain,
                   traced_scenario_and_reference_s=traced, check_records=tally.records,
                   failed_records=tally.failed, raised=tally.raised,
                   fail_ratio=tally.failures / max(tally.attempted, 1),
                   tol_used_by=tally.tol_used_by, output_mismatches=tally.mismatches,
                   computed_metrics=list(layers.COMPUTED))

    if tracer is None:
        values = {
            "wall_ref": wall_ref(plain),
            "setup_s": statistics.median(probes),
            "pass_ratio": 1.0 - context["fail_ratio"],
            "tol_used": tally.tol_used,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        write_spans(OUT / args.workload / "spans.csv", traced_spans)
        units = {row["name"]: row["unit"] for row in layers.catalogue()}
        values = {name: statistics.median(row[name] for row in per_pass_layers)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = wall_s(traced) - wall_s(plain)
        share = statistics.median(predicted_shares)
        context.update(wall_s_untraced=wall_s(plain), wall_s_traced=wall_s(traced),
                       predicted_layers=workloads.PREDICTED[args.workload],
                       predicted_self_time_share=share, prediction_met=share > 0.5)

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failures,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return context, result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke runs every scenario at its smallest size")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        context, result = measure(args)
    except SourceMissing as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    OUT.joinpath(args.workload).mkdir(parents=True, exist_ok=True)
    record = {"context": context, "result": result}
    name = f"result-seed{args.seed}-trace{args.trace}.json"
    (OUT / args.workload / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
