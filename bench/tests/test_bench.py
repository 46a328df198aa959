"""Tests of the benchmark itself: documents, tracer and every workload's result.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

import paulilab  # noqa: E402
from paulilab import scenarios  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _modules() -> dict:
    return run.import_paulilab()[1]


def _package_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "paulilab" or name.startswith("paulilab."))
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("size", workloads.SIZES)
def test_documents_are_deterministic_in_the_seed_and_parse(workload, size):
    first = workloads.documents(workload, 7, size)
    assert first == workloads.documents(workload, 7, size)
    for doc in first:
        scenarios.parse_scenario(json.dumps(doc))


def test_neighbouring_seeds_share_no_box_start():
    def starts(seed):
        return [d["seed"] + k for d in workloads.documents("static_solve", seed)
                if d["kind"] == "box_minimize" for k in range(d["parameters"]["multistarts"])]

    assert len(set(starts(3))) == len(starts(3)) > 1
    assert set(starts(3)).isdisjoint(starts(4))
    assert workloads.documents("static_solve", 3) != workloads.documents("static_solve", 4)


def test_benchmark_json_names_the_metrics_the_run_reports():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert BENCHMARK["per_layer"] == layers.catalogue()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_rebinds_every_import_and_restores_every_binding():
    modules = _modules()
    grids, verification = modules["grids"], modules["verification"]
    original = grids.derive_along
    holders = [name for name, module in sys.modules.items()
               if name.startswith("paulilab") and getattr(module, "derive_along", None) is original]
    assert len(holders) >= 5
    before = _package_bindings()

    tracer = Tracer(layers.PACKAGE, layers.tracer_targets(modules), layers.METERS)
    with tracer:
        for name in holders:
            assert sys.modules[name].derive_along is not original
            assert sys.modules[name].derive_along.__wrapped__ is original
        assert all(fn.__wrapped__ for _group, fn in verification.ALL_CHECKS)
        assert scenarios.run is not before[("paulilab.scenarios", "run")]

    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_records_nested_spans_self_time_and_meters():
    modules = _modules()
    grids = modules["grids"]
    grid = grids.Grid((1.0,), (16,), grids.PERIODIC)
    field = grids.ScalarField.full(grid, 2.0)
    tracer = Tracer(layers.PACKAGE, layers.tracer_targets(modules), layers.METERS)
    with tracer:
        assert grids.integrate(field) == pytest.approx(2.0)
        grids.derive_along(field.values, 0.1, 0, grids.PERIODIC)
    spans, counters = tracer.take()
    names = [s[0] for s in spans]
    assert names == ["grids.integrate", "grids.integrate_values", "grids.quadrature_weights",
                     "grids.derive_along"]
    assert [s[3] for s in spans] == [-1, 0, 1, -1]
    assert counters == {"grids.derive_along.bytes": 2 * 16 * 8}
    table = self_times(spans)
    outer = spans[0][2] - spans[0][1]
    assert sum(s for _c, s in table.values()) - table["grids.derive_along"][1] == \
        pytest.approx(outer)
    assert all(calls == 1 for calls, _s in table.values())
    assert tracer.take() == ([], {})


def _run(capsys, *argv) -> tuple[dict, dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_named_metric(workload, capsys):
    for trace, wanted in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        context, result = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                               "--trace", str(trace), "--size", "smoke")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in wanted}
        assert context["passes"] >= 1 and context["seed"] == 3
        for key in ("source_sha256", "python", "numpy", "scipy", "nproc", "documents",
                    "calibration_start_s", "calibration_end_s"):
            assert context[key] is not None
        if trace == 0:
            assert result["metrics"]["pass_ratio"]["value"] == 1.0
            assert result["metrics"]["setup_s"]["value"] > 0


def test_call_counts_repeat_for_a_seed_and_move_with_it(capsys):
    def calls(seed):
        _context, result = _run(capsys, "--workload", "static_solve", "--seed", str(seed),
                                "--seconds", "0", "--trace", "1", "--size", "smoke")
        return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}

    first = calls(4)
    assert first == calls(4)
    assert first["variational.fisher_value_psi.calls"] > 0
    assert first != calls(5)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "evolve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert paulilab.__file__.startswith(str(ROOT))
