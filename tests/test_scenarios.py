"""Tests for scenario parsing, execution, reports, and the CLI."""

import json
import os

import pytest

from paulilab import cli, scenarios
from paulilab.scenarios import Scenario, ScenarioError, parse_scenario, run, schema_text


def test_parse_minimal_box_scenario_fills_defaults():
    scenario = parse_scenario('{"kind": "box_minimize"}')
    assert scenario.kind == "box_minimize"
    assert scenario.parameters["cells"] == 512
    assert scenario.parameters["grad_tol"] == 1e-6
    assert scenario.seed == 0


def test_parse_unknown_kind():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"kind": "foo"}')
    assert "foo" in str(err.value)


def test_parse_missing_required_parameter():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"kind": "stern_gerlach", "parameters": {}}')
    assert "field_gradient" in str(err.value)


def test_parse_collects_every_violation():
    doc = json.dumps(
        {
            "kind": "stern_gerlach",
            "seed": "abc",
            "parameters": {"cells": 1.5, "bogus": 1},
            "mystery": True,
        }
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    text = str(err.value)
    for fragment in ("field_gradient", "cells", "bogus", "seed", "mystery"):
        assert fragment in text


def test_parse_malformed_json():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("{nope")
    assert "malformed" in str(err.value)


def test_schema_text_for_every_kind():
    for kind in scenarios.SCHEMAS:
        text = schema_text(kind)
        assert kind in text
    with pytest.raises(ScenarioError):
        schema_text("nope")


def test_sample_run_byte_identical(tmp_path):
    params = {"cells": 64, "sigma": 5.0, "slices": 1, "repetitions": 1000}
    blobs = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        scenario = Scenario("sample", dict(parse_scenario(
            json.dumps({"kind": "sample", "parameters": params})
        ).parameters), seed=7, output_dir=str(out))
        report = run(scenario)
        assert report.passed
        blobs.append((out / "dataset.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_run_writes_report_json(tmp_path):
    scenario = Scenario(
        "fisher_discrete", {"cells": 160, "sigma": 10.0, "slices": 1},
        seed=0, output_dir=str(tmp_path),
    )
    report = run(scenario)
    assert report.passed
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["version"]
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == len(set(names))  # every check appears exactly once
    for check in doc["checks"]:
        assert set(check) == {"name", "value", "tolerance", "pass", "note"}


def test_no_temp_residue_after_run(tmp_path):
    scenario = Scenario(
        "moment",
        dict(parse_scenario('{"kind": "moment"}').parameters),
        output_dir=str(tmp_path),
    )
    run(scenario)
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".tmp")]
    assert leftovers == []


def test_stern_gerlach_boundary_failure_report(tmp_path):
    params = dict(
        parse_scenario(
            json.dumps(
                {"kind": "stern_gerlach", "parameters": {"field_gradient": 0.02,
                                                         "velocity": 5.0}}
            )
        ).parameters
    )
    scenario = Scenario("stern_gerlach", params, output_dir=str(tmp_path))
    report = run(scenario)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert "boundary" in failed[0].note


def test_cli_run_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "kind": "moment", "parameters": {"t_final": 0.5}
    }))
    assert cli.main(["run", str(good), "--output-dir", str(tmp_path / "out")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "foo"}')
    assert cli.main(["run", str(bad)]) == 2

    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2

    failing = tmp_path / "fail.json"
    failing.write_text(json.dumps({
        "kind": "stern_gerlach",
        "parameters": {"field_gradient": 0.02, "velocity": 5.0},
    }))
    assert cli.main(["run", str(failing), "--output-dir", str(tmp_path / "out2")]) == 1


def test_cli_schema_and_version(capsys):
    assert cli.main(["schema", "box_minimize"]) == 0
    out = capsys.readouterr().out
    assert "grad_tol" in out
    assert cli.main(["schema", "pauli_evolve"]) == 0
    out = capsys.readouterr().out
    assert "steps (int, default 1000, >= 1)" in out
    assert "one of split_operator | crank_nicolson" in out
    assert "> 0 when setup is larmor" in out
    assert cli.main(["--version"]) == 0


@pytest.mark.parametrize("kind,parameters,offending", [
    ("pauli_evolve", {"steps": 0}, "steps"),
    ("pauli_evolve", {"record_every": 0}, "record_every"),
    ("pauli_evolve", {"scheme": "rk4"}, "scheme"),
    ("lorentz", {"setup": "uniform_b", "bz": 0.0}, "bz"),
    ("stern_gerlach", {"field_gradient": 0.02, "dt": 0.0}, "dt"),
    ("moment", {"dt": 0.0}, "dt"),
    ("sample", {"repetitions": -1}, "repetitions"),
    ("equivalence", {"sets": 0}, "sets"),
    ("equivalence", {"cells": 2}, "cells"),
    ("box_minimize", {"modes": 0}, "modes"),
])
def test_cli_range_errors_exit_2(tmp_path, capsys, kind, parameters, offending):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": kind, "parameters": parameters}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 2
    assert f"parameter {offending!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_range_errors_are_all_listed(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "pauli_evolve",
                               "parameters": {"steps": 0, "scheme": "rk4"}}))
    assert cli.main(["run", str(doc)]) == 2
    err = capsys.readouterr().err
    assert "parameter 'steps' must be >= 1" in err
    assert "parameter 'scheme' must be one of" in err


def test_setup_rules_admit_other_setups(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "lorentz",
                               "parameters": {"setup": "uniform_e", "bz": 0.0, "t_final": 0.2}}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 0


def test_cli_seed_override(tmp_path):
    doc = tmp_path / "sample.json"
    doc.write_text(json.dumps({
        "kind": "sample",
        "seed": 1,
        "parameters": {"cells": 64, "sigma": 5.0, "slices": 1, "repetitions": 500},
    }))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["run", str(doc), "--output-dir", str(out_a)]) == 0
    assert cli.main(["run", str(doc), "--output-dir", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "dataset.csv").read_bytes() != (out_b / "dataset.csv").read_bytes()


@pytest.mark.parametrize("kind,extra", [
    ("evidence", {"cells": 160}),
    ("pauli_evolve", {"setup": "larmor", "steps": 400, "periods": 3.0}),
    ("pauli_evolve", {"setup": "larmor", "steps": 2000, "periods": 3.0,
                      "scheme": "crank_nicolson"}),
    ("lorentz", {"setup": "uniform_e", "t_final": 1.0}),
    ("lorentz", {"setup": "uniform_b", "turns": 2.0}),
    ("lorentz", {"setup": "uniform_b", "turns": 0.5, "charge": -1.0}),
])
def test_scenario_kinds_pass(tmp_path, kind, extra):
    base = parse_scenario(json.dumps({"kind": kind, "parameters": {}})) if kind != "stern_gerlach" else None
    params = dict(base.parameters)
    params.update(extra)
    report = run(Scenario(kind, params, seed=0, output_dir=str(tmp_path)))
    assert report.passed, [c.line() for c in report.checks if not c.passed]


def test_free_packet_scenario_dumps_snapshots(tmp_path):
    params = dict(parse_scenario(json.dumps({
        "kind": "pauli_evolve",
        "parameters": {"setup": "free_packet", "cells": 256, "steps": 200,
                       "t_final": 2.0, "extent": 40.0},
    })).parameters)
    report = run(Scenario("pauli_evolve", params, output_dir=str(tmp_path)))
    assert report.passed
    from paulilab import fieldio
    grid, dt, fields, meta = fieldio.read_field_snapshots(str(tmp_path / "snapshots.bin"))
    assert meta["setup"] == "free_packet"
    assert fields["wavefunction"].ndim == 3  # (snapshots, cells, 2)


def test_equivalence_scenario_small(tmp_path):
    params = dict(parse_scenario(json.dumps({
        "kind": "equivalence",
        "parameters": {"cells": 16, "frames": 8, "sets": 2},
    })).parameters)
    report = run(Scenario("equivalence", params, seed=4, output_dir=str(tmp_path)))
    assert report.passed
    assert (tmp_path / "breakdown.csv").exists()


def _read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


# Values written by the equivalence runner before the polar functionals shared
# one integrand; they pin that refactor to round-off.
@pytest.mark.parametrize("seed,constants,pinned,terms", [
    (0, {}, (0.5370582134468099, 0.5370582134468099, 0.5370582134805348), {
        "fisher": 0.06513793202308854,
        "kinetic": 0.49717213491738166,
        "moment_coupling": -0.017850939564490118,
        "potential": -0.004899758847983583,
        "time": -0.0025011550811864895,
        "total": 0.5370582134468099,
    }),
    (3, {"hbar": 0.7, "mass": 1.9, "charge": -1.3},
     (0.44412034347456913, 0.44412034347456913, 0.4441203434633656), {
        "fisher": 0.03326524331906373,
        "kinetic": 0.35105100953852175,
        "moment_coupling": 0.006153777335933219,
        "potential": 0.05247043232474221,
        "time": 0.0011798809563082942,
        "total": 0.44412034347456913,
    }),
])
def test_equivalence_outputs_pinned(tmp_path, seed, constants, pinned, terms):
    params = {"cells": 12, "frames": 8, "sets": 1, **constants}
    report = run(parse_scenario(json.dumps({
        "kind": "equivalence", "seed": seed, "parameters": params,
        "output_dir": str(tmp_path),
    })))
    assert report.passed
    header, rows = _read_csv(tmp_path / "equivalence.csv")
    assert header == ["seed", "q_polar", "total_functional", "q_spinor", "rel_residual",
                      "spinor_rel_residual"]
    (row,) = rows
    assert int(row[0]) == seed
    for got, want in zip(row[1:4], pinned):
        assert float(got) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert float(row[4]) <= 1e-8 and float(row[5]) <= 1e-8
    header, rows = _read_csv(tmp_path / "breakdown.csv")
    got_terms = {name: float(value) for name, value in rows}
    assert sorted(got_terms) == sorted(terms)
    for name, want in terms.items():
        assert got_terms[name] == pytest.approx(want, rel=1e-14, abs=0.0)
