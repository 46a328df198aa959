"""Tests for scenario parsing, execution, reports, and the CLI."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paulilab import cli, functionals, scenarios, variational
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
    ("moment", {"z0": 1.5}, "z0"),
    ("moment", {"z0": 1.0}, "z0"),
    ("moment", {"z0": -1.0}, "z0"),
    ("moment", {"b": [0.0, 1.0]}, "b"),
])
def test_cli_range_errors_exit_2(tmp_path, capsys, kind, parameters, offending):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": kind, "parameters": parameters}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 2
    assert f"parameter {offending!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_JOINT = "parameters must satisfy: "


# rules: the start of each violation the document must list, and no other
@pytest.mark.parametrize("kind,parameters,rules", [
    ("stern_gerlach", {"field_gradient": 0.02, "spin_up_weight": 0.0, "spin_down_weight": 0.0},
     [_JOINT + "spin_up_weight and spin_down_weight are not both 0"]),
    ("stern_gerlach", {"field_gradient": 0.02, "gamma_energy": 0.0},
     [_JOINT + "gamma_energy != 0 when field_gradient != 0"]),
    ("stern_gerlach", {"field_gradient": -0.02, "gamma_energy": 0.0, "spin_up_weight": 0.0,
                       "spin_down_weight": 0.0},
     [_JOINT + "spin_up_weight and spin_down_weight are not both 0",
      _JOINT + "gamma_energy != 0 when field_gradient != 0"]),
    ("evidence", {"cells": 12}, [_JOINT + "shift lies along x"]),
    ("evidence", {"shift": [1.0, 0.0, 0.0]}, [_JOINT + "shift lies along x"]),
    ("evidence", {"shift": [0.25, 0.1, 0.0]}, [_JOINT + "shift lies along x"]),
    ("evidence", {"shift": [0.25, 0.0]}, [_JOINT + "shift lies along x"]),
    # a range violation leaves the joint rules of the other parameters in force
    ("stern_gerlach", {"field_gradient": 0.02, "spin_up_weight": 0.0, "spin_down_weight": 0.0,
                       "cells": -5},
     ["parameter 'cells' must be >= 1, got -5",
      _JOINT + "spin_up_weight and spin_down_weight are not both 0"]),
    # ... and suspends the joint rules that read it
    ("evidence", {"cells": 12, "repetitions": 0}, ["parameter 'repetitions' must be >= 1"]),
    ("stern_gerlach", {"field_gradient": 0.02, "gamma_energy": "x", "spin_up_weight": 0.0,
                       "spin_down_weight": 0.0},
     ["parameter 'gamma_energy' must be of type float",
      _JOINT + "spin_up_weight and spin_down_weight are not both 0"]),
])
def test_cli_joint_rule_errors_exit_2(tmp_path, capsys, kind, parameters, rules):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": kind, "parameters": parameters}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 2
    listed = [line.removeprefix("scenario error: ")
              for line in capsys.readouterr().err.splitlines()]
    assert len(listed) == len(rules)
    for rule in rules:
        assert any(line.startswith(rule) for line in listed), (rule, listed)
    assert not (tmp_path / "out").exists()


def test_joint_rules_admit_the_documents_that_run(tmp_path):
    for kind, parameters in [
        ("stern_gerlach", {"field_gradient": 0.0, "gamma_energy": 0.0, "cells": 256, "dt": 0.1}),
        ("stern_gerlach", {"field_gradient": 0.02, "spin_up_weight": 0.0, "cells": 256,
                           "dt": 0.1, "t_final": 1.0}),
        ("evidence", {"cells": 96}),
        ("evidence", {"shift": [0.25]}),
    ]:
        parse_scenario(json.dumps({"kind": kind, "parameters": parameters}))


def test_cli_schema_prints_joint_rules(capsys):
    assert cli.main(["schema", "stern_gerlach"]) == 0
    out = capsys.readouterr().out
    assert "requires: spin_up_weight and spin_down_weight are not both 0" in out
    assert "requires: gamma_energy != 0 when field_gradient != 0" in out
    assert cli.main(["schema", "moment"]) == 0
    out = capsys.readouterr().out
    assert "z0 (float, default 0.35, |x| <= 0.999999)" in out
    assert "b (list, default [0.4, -0.3, 0.85], len == 3)" in out
    assert cli.main(["schema", "evidence"]) == 0
    assert "requires: shift lies along x" in capsys.readouterr().out


def test_cli_range_errors_are_all_listed(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "pauli_evolve",
                               "parameters": {"steps": 0, "scheme": "rk4"}}))
    assert cli.main(["run", str(doc)]) == 2
    err = capsys.readouterr().err
    assert "parameter 'steps' must be >= 1" in err
    assert "parameter 'scheme' must be one of" in err


def test_scenarios_import_leaves_scipy_interpolate_out():
    # the field sampler is a direct stencil; scipy.interpolate costs import
    # time and memory in every run
    import paulilab

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(paulilab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, paulilab.scenarios; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


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
    # polarized beams do not split: the lone color is deflected instead
    ("stern_gerlach", {"field_gradient": 0.02, "spin_up_weight": 0.0, "cells": 256, "dt": 0.1}),
    ("stern_gerlach", {"field_gradient": 0.02, "spin_down_weight": 0.0, "cells": 256,
                       "dt": 0.1}),
])
def test_scenario_kinds_pass(tmp_path, kind, extra):
    params = dict(parse_scenario(json.dumps({"kind": kind, "parameters": extra})).parameters)
    report = run(Scenario(kind, params, seed=0, output_dir=str(tmp_path)))
    assert report.passed, [c.line() for c in report.checks if not c.passed]


def test_box_document_solves_each_mode_once(tmp_path, monkeypatch):
    calls = []
    solve = variational._sphere_minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(variational, "_sphere_minimize", counted)
    report = run(parse_scenario(json.dumps({
        "kind": "box_minimize", "output_dir": str(tmp_path),
        "parameters": {"cells": 32, "multistarts": 2, "modes": 3},
    })))
    assert report.passed
    assert len(calls) == 2 * 3


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


def test_equivalence_document_prepares_each_set_once(tmp_path, monkeypatch):
    calls = {"_prepare": 0, "_polar_terms": 0}
    for name in calls:
        original = getattr(functionals, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(functionals, name, counted)
    report = run(parse_scenario(json.dumps({
        "kind": "equivalence", "output_dir": str(tmp_path),
        "parameters": {"cells": 12, "frames": 8, "sets": 2},
    })))
    assert report.passed
    assert calls == {"_prepare": 2, "_polar_terms": 2}


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


# sha256 of every data output and of the check names and values. The
# stepping documents were recorded before the kernels moved off np.fft.fftn,
# RegularGridInterpolator and np.cross, the others before the scenario
# runners and the acceptance criteria shared one check per guarantee; both
# changes must keep every bit. Recorded with numpy 2.4 and scipy 1.17 on
# x86-64: other builds of the transcendental and FFT kernels may round
# differently.
_GOLDEN_DIGESTS = [
    ("pauli_evolve", {"setup": "larmor", "periods": 1.0, "steps": 200}, {
        "trajectory.csv": "5ad1049b310b56129d77349675ca7933d980a53082244baeb06649747a4aea36",
        "checks": "d3fcc317d710025d8a1f966f32180487755d3efe850c30f49ce3c96894c73374",
    }),
    ("pauli_evolve", {"setup": "larmor", "periods": 1.0, "steps": 200,
                      "scheme": "crank_nicolson"}, {
        "trajectory.csv": "89f2c29d85e7d5d6789e9db2ce8db83522c1c587885d0335b3e5a0bdf2ffc0e5",
        "checks": "1e2cccfa46664db3fd07ed1ddccc317335f2b81ecd730033517570301968b13e",
    }),
    ("pauli_evolve", {"setup": "uniform_field", "cells": 128, "steps": 100}, {
        "trajectory.csv": "f2b1bf4ddc3b72b15645108bc3cce9b3b41b9856340111258f38e03b83676548",
        "checks": "569e40e1ac2d2d0e9969f9e7070b3d85d204dcaa2fc3ec0a5e95989a4a2698f3",
    }),
    ("pauli_evolve", {"setup": "uniform_field", "cells": 128, "steps": 100, "t_final": 1.0,
                      "scheme": "crank_nicolson"}, {
        "trajectory.csv": "7394e5d16c784924a0af9e618b317cd66b76d0148f605b5e6e6a58a2caac42da",
        "checks": "962f7770c79a6d66b046ee263b8c162603367fd463793e63781697a38341c234",
    }),
    ("pauli_evolve", {"setup": "free_packet", "cells": 128, "steps": 100,
                      "record_every": 20}, {
        "trajectory.csv": "a1c1fe01c8815fd3945752b14af4851c35483d859aa0d50b501d0bcb7c690b4a",
        "snapshots.bin": "eea99d5c68a787c50bf61da5d2f3a5d20d3965e49bc160bd68790d0cc6694a53",
        "checks": "cb8b7ef37e69424a29af3b3dc5a17e6779a10951213d00010bcf2c163c57372d",
    }),
    ("pauli_evolve", {"setup": "free_packet", "cells": 128, "steps": 100, "record_every": 20,
                      "t_final": 1.0, "scheme": "crank_nicolson"}, {
        "trajectory.csv": "f4a5d06155049702e7cb042fdf6e1a62ce8e7009759d7185abd84b3edae7d088",
        "snapshots.bin": "0640975cec13943a764f15d8956e555b1e1b78de812dedd17d28b3a8ba2a6f65",
        "checks": "a1cc2dd7dc1bba7126e7f7746f4bf0b9bc4f2599c15b6c970c701c53bfc5254d",
    }),
    ("stern_gerlach", {"field_gradient": 0.02, "cells": 256, "dt": 0.1, "record_every": 10}, {
        "separation.csv": "1af8bce494511dc300d5e35717be8fd2d163a992fafec8d934dfdc3b7b01f774",
        "checks": "f3b1d0876c9a1805dcdf00dfb97939447084bf15b0daa3b6b09505559f67504c",
    }),
    ("lorentz", {"setup": "uniform_b", "turns": 0.5, "steps_per_turn": 100}, {
        "particle.csv": "d56485a9f24fca67b5575c9d1b8b32542b77765823af01eec9fd068d20551dd7",
        "checks": "fa36294c2c689f543dbc32b07200f2c1f063f1993eec3c2d442b1f30b9f24efe",
    }),
    ("lorentz", {"setup": "uniform_e", "t_final": 0.2}, {
        "particle.csv": "d6cfe9c278bb90e2b4d8e6050bab9f61671725aa920011b0a461bf1f9bde922c",
        "checks": "063d5e1c595530c7f8813915e7a3a0a843522cf2737be24a6c03ae7b9fb37318",
    }),
    ("moment", {"t_final": 0.2}, {
        "moment.csv": "0e4ad52b79a539cc7cce49420fffab49c24b73184196d23d11250679aa6a8ff1",
        "canonical.csv": "629aabdeac8dc06fcf563db72b4180df5719afa03587f17f8604eda7c8aa996e",
        "checks": "9705f9e861e61d8ab3db3e4dadf8836d3cb7e371cd2b438afb3ac827c2f36097",
    }),
    ("sample", {"cells": 64, "sigma": 5.0, "slices": 2, "repetitions": 1000}, {
        "dataset.csv": "8c85089ae65056f8a1feadfe6f569137ce490c983e4185471f6276375de8fe61",
        "checks": "b1c31595cb636235d0c0813f131cfc2241c4380223112d43a8734736f34febb1",
    }),
    ("evidence", {"cells": 160}, {
        "evidence.csv": "aeaf6926b11494724363f24a6dc92c6c2ef903abf565503b94791a9c3e0c2ba1",
        "checks": "f82be5bcdba4315901f76820c9dba91a1e91f87acb2e1683ba9c7af9a84fdcfb",
    }),
    ("fisher_discrete", {"cells": 160}, {
        "fisher.csv": "e94b4efcbc6aab91e71971c5215bc44a5685a68da02c91c8a567c99d863a14e9",
        "checks": "64dd1387c4ee058fac785e498aea8d7ed41231e270f87a3b474a4181b2f63ddd",
    }),
    ("box_minimize", {"cells": 64, "multistarts": 1, "modes": 3}, {
        "density.csv": "9ead0384d37cc761366550636dfde04485e8cd40889233c4c4dacf65c077f73c",
        "trace.csv": "f9154a06aa9e19384407169aca48440b487f0aee24401e4a3868005b5b9f7576",
        "checks": "2468ea51ac88f54eb821de0ffd971c07b830537f684ef5b7277a9af2f0150ccf",
    }),
    ("equivalence", {"cells": 12, "frames": 12, "sets": 1}, {
        "equivalence.csv": "7c5a31606ff34d207a175795dbe3784d363148e4b5b142d13214bbf5833d2acd",
        "breakdown.csv": "cc39ccfac65059d5a571800e42d6d1fcea77c55b8181be1a805a15e61b0fd499",
        "checks": "c70c54c25e2d75f6fd569149543849bf61d9c6183e546ffb695b02f9ddd19e55",
    }),
]


@pytest.mark.parametrize("kind,parameters,digests", _GOLDEN_DIGESTS)
def test_stepping_outputs_match_golden_digests(tmp_path, kind, parameters, digests):
    report = run(parse_scenario(json.dumps({
        "kind": kind, "parameters": parameters, "output_dir": str(tmp_path),
    })))
    got = {os.path.basename(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
           for path in report.outputs}
    checks = "\n".join(f"{c.name} {c.value!r}" for c in report.checks)
    got["checks"] = hashlib.sha256(checks.encode()).hexdigest()
    assert got == digests
