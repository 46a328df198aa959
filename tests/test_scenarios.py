"""Tests for scenario parsing, execution, reports, and the CLI."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (evolve_with_snapshots, manifest, pin_moves, whole_array_snapshots,
                      workloads)
from paulilab import (cli, classical, fieldio, functionals, pauli, scenarios, variational,
                      verification)
from paulilab.grids import PERIODIC, Grid
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


def test_cli_run_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "kind": "moment", "parameters": {"t_final": 0.5}
    }))
    assert cli.main(["run", str(good), "--output-dir", str(tmp_path / "out")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "foo"}')
    assert cli.main(["run", str(bad)]) == 2

    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2

    # 30 Cayley steps over 10 periods put the precession rate 0.65% off
    failing = tmp_path / "fail.json"
    failing.write_text(json.dumps({
        "kind": "pauli_evolve", "parameters": {"scheme": "crank_nicolson", "steps": 30},
    }))
    assert cli.main(["run", str(failing), "--output-dir", str(tmp_path / "out2")]) == 1

    # an aborted solve is a runtime error, not a failed check, and writes no report
    aborted = tmp_path / "abort.json"
    aborted.write_text(json.dumps({"kind": "stern_gerlach", "parameters": {"field_gradient": 0.5}}))
    assert cli.main(["run", str(aborted), "--output-dir", str(tmp_path / "out3")]) == 3
    assert "packet reached the grid boundary at t=7.5" in capsys.readouterr().err
    assert not (tmp_path / "out3" / "report.json").exists()


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
    # the larmor atom is neutral and the free packet sees no field: any
    # other charge wrote the default's bytes
    ("pauli_evolve", {"setup": "larmor", "charge": 0.0}, "charge"),
    ("pauli_evolve", {"setup": "free_packet", "charge": -1.0}, "charge"),
])
def test_cli_range_errors_exit_2(tmp_path, capsys, kind, parameters, offending):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": kind, "parameters": parameters}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 2
    assert f"parameter {offending!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,parameters,offending", [
    # json reads NaN and Infinity; each of these failed at run time with exit 3
    ("stern_gerlach", {"field_gradient": 0.02, "center": float("nan")}, "center"),
    ("stern_gerlach", {"field_gradient": 0.02, "velocity": float("inf")}, "velocity"),
    ("stern_gerlach", {"field_gradient": float("inf")}, "field_gradient"),
    ("pauli_evolve", {"setup": "free_packet", "extent": float("inf")}, "extent"),
    ("moment", {"t_final": float("inf")}, "t_final"),
    ("moment", {"b": [float("nan"), 0.0, 1.0]}, "b"),
])
def test_cli_non_finite_floats_exit_2(tmp_path, capsys, kind, parameters, offending):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": kind, "parameters": parameters}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"parameter {offending!r} must be of type" in err
    assert "finite" in err
    assert not (tmp_path / "out").exists()


_JOINT = "parameters must satisfy: "
_CN_RULE = _JOINT + "dt hbar / (mass h^2) <= 1000"
_SG_START_RULE = _JOINT + "the initial packet's mass within max(3, cells // 64) cells"
_SG_GRID_RULE = _JOINT + "sigma (pi cells / extent - k) >= pi"


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
    # without a gradient, a field offset parts two occupied colors at round-off
    ("stern_gerlach", {"field_gradient": 0.0},
     [_JOINT + "field_offset == 0 when field_gradient == 0"]),
    ("stern_gerlach", {"field_gradient": 0.0, "field_offset": -1.2},
     [_JOINT + "field_offset == 0 when field_gradient == 0"]),
    ("evidence", {"cells": 12}, [_JOINT + "shift lies along x"]),
    ("evidence", {"shift": [1.0, 0.0, 0.0]}, [_JOINT + "shift lies along x"]),
    ("evidence", {"shift": [0.25, 0.1, 0.0]}, [_JOINT + "shift lies along x"]),
    ("evidence", {"shift": [0.25, 0.0]}, [_JOINT + "shift lies along x"]),
    # three modes need three free cells; four cells leave two inside the walls
    ("box_minimize", {"cells": 4, "multistarts": 1, "modes": 3},
     [_JOINT + "modes <= cells - 2"]),
    # the default moment passes within 0.0142 rad of the z axis in this field
    ("moment", {"b": [1.0, 1.0, 2.0]}, [_JOINT + "the precession cone clears the poles"]),
    # the rule without t_final admitted this run, which drifts 1.68e-8 in
    # energy over its 105 periods
    ("moment", {"b": [0.8645658815307702, -1.954554506283807, -2.722245554429509],
                "gamma": 1.9073263014114088, "dt": 0.001, "phi0": 0.9255894654223997,
                "z0": 0.9029837578666249, "t_final": 100.0},
     [_JOINT + "the precession cone clears the poles"]),
    # 10^8 RK4 steps, which the pole rule admits with b along z, where its
    # left side is 0; then the step rule's edge, 10^6 + 1 steps
    ("moment", {"b": [0.0, 0.0, 1.0], "t_final": 1e5}, [_JOINT + "t_final / dt <= 10^6"]),
    ("moment", {"b": [0.0, 0.0, 1.0], "t_final": 1000.001}, [_JOINT + "t_final / dt <= 10^6"]),
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
    # the particle reaches x = 50, the edge of the setup's stated domain, at
    # t = 13.2; the box also bounds the steps, where t_final 1e6 would build
    # a 1e9-entry time array
    ("lorentz", {"setup": "uniform_e", "t_final": 14.0}, [_JOINT + "the uniform_e path"]),
    ("lorentz", {"setup": "uniform_e", "t_final": 1e6}, [_JOINT + "the uniform_e path"]),
    ("lorentz", {"setup": "uniform_e", "e0": -0.5, "t_final": 5.0},
     [_JOINT + "the uniform_e path"]),
    # each table underflowed to all zeros and exited 3 from a 0/0
    ("sample", {"sigma": 1e-3}, [_JOINT + "for even cells, exp(-0.125 / sigma^2)"]),
    ("sample", {"sigma": 0.01, "cells": 2}, [_JOINT + "for even cells, exp(-0.125 / sigma^2)"]),
    ("fisher_discrete", {"sigma": 1e-200}, [_JOINT + "sigma >= 2"]),
    # sigma**2 overflowed a Python float in the table, and the run exited 3
    ("sample", {"sigma": 1e200}, [_JOINT + "sigma^2 is finite"]),
    ("fisher_discrete", {"sigma": 1e200},
     [_JOINT + "sigma^2 is finite", _JOINT + "sigma <= cells / 10"]),
    # the snapshot header held one dt, 2.4, for a last record at t = 6.0, not 7.2
    ("pauli_evolve", {"setup": "free_packet", "steps": 250, "record_every": 100},
     [_JOINT + "steps is a multiple of record_every when setup is free_packet"]),
    ("pauli_evolve", {"setup": "free_packet", "steps": 250, "record_every": 100,
                      "scheme": "crank_nicolson"},
     [_JOINT + "steps is a multiple of record_every when setup is free_packet"]),
    # the table overfilled its lattice and the run exited 1 on fisher.rel_error
    # (0.078 at sigma 50 against the 0.02 bound; 0.024 at 64 cells and sigma 10.5)
    ("fisher_discrete", {"sigma": 50.0}, [_JOINT + "sigma <= cells / 10"]),
    ("fisher_discrete", {"sigma": 10.5, "cells": 64}, [_JOINT + "sigma <= cells / 10"]),
    # the table was too narrow for the lattice differences, and the run exited 1
    # on fisher.rel_error (0.175 at sigma 1, 0.0201 at sigma 1.7)
    ("fisher_discrete", {"sigma": 1.0}, [_JOINT + "sigma >= 2"]),
    ("fisher_discrete", {"sigma": 1.7}, [_JOINT + "sigma >= 2"]),
    # below 20 cells no sigma meets both width rules, so the range of cells
    # says so and suspends the width rule that reads it
    ("fisher_discrete", {"sigma": 1.9, "cells": 18},
     ["parameter 'cells' must be >= 20, got 18", _JOINT + "sigma >= 2"]),
    # 3e11 RK4 steps, whose time array alone would take 2.4 TB
    ("lorentz", {"setup": "uniform_b", "turns": 1e9}, [_JOINT + "turns * steps_per_turn"]),
    ("lorentz", {"setup": "uniform_b", "turns": 1000.0, "steps_per_turn": 501},
     [_JOINT + "turns * steps_per_turn"]),
    # 10^9 steps, hours at 1,024 cells
    ("pauli_evolve", {"steps": 1000000000}, [_JOINT + "at most 10^6 time steps"]),
    ("pauli_evolve", {"setup": "larmor", "steps": 100001, "periods": 10.0, "record_every": 11},
     [_JOINT + "at most 10^6 time steps"]),
    ("pauli_evolve", {"setup": "uniform_field", "steps": 100000, "record_every": 1},
     [_JOINT + "at most 10^6 time steps"]),
    # 1e10 steps at the default t_final
    ("stern_gerlach", {"field_gradient": 0.02, "dt": 1e-9}, [_JOINT + "at most 10^6 time steps"]),
    # a 16 GB block per color, and for free_packet a 3.2 TB snapshot file
    ("stern_gerlach", {"field_gradient": 0.02, "cells": 1000000000},
     [_JOINT + "at most 10^6 time steps"]),
    ("pauli_evolve", {"setup": "free_packet", "cells": 1000000000, "steps": 1000,
                      "record_every": 10},
     [_JOINT + "at most 10^6 time steps", _JOINT + "the free_packet snapshot file"]),
    # the grid ceilings' edges
    ("stern_gerlach", {"field_gradient": 0.02, "cells": 65537, "t_final": 0.1},
     [_JOINT + "at most 10^6 time steps"]),
    ("stern_gerlach", {"field_gradient": 0.02, "cells": 65536, "dt": 0.00063},
     [_JOINT + "at most 10^6 time steps"]),
    ("pauli_evolve", {"setup": "uniform_field", "cells": 2048, "steps": 500001},
     [_JOINT + "at most 10^6 time steps"]),
    ("pauli_evolve", {"setup": "free_packet", "steps": 32768, "record_every": 1},
     [_JOINT + "the free_packet snapshot file"]),
    # Crank-Nicolson's first solves missed the 1e-12 residual bound, and the
    # runs exited 3: r = 15,466 (residual 2.6e-12), 19,333 (2.3e-12) and
    # 17,476 (1.6e-12); then the rule's edges, r = 1,017 and 1,002
    ("pauli_evolve", {"setup": "larmor", "scheme": "crank_nicolson", "gamma_energy": 1e-4,
                      "periods": 1.0, "steps": 100}, [_CN_RULE]),
    ("pauli_evolve", {"setup": "larmor", "scheme": "crank_nicolson", "mass": 1e-4,
                      "periods": 1.0, "steps": 100}, [_CN_RULE]),
    ("pauli_evolve", {"setup": "free_packet", "scheme": "crank_nicolson", "steps": 10,
                      "record_every": 10, "t_final": 600}, [_CN_RULE]),
    ("pauli_evolve", {"setup": "larmor", "scheme": "crank_nicolson", "steps": 1, "mass": 0.19},
     [_CN_RULE]),
    ("pauli_evolve", {"setup": "free_packet", "scheme": "crank_nicolson", "steps": 10,
                      "t_final": 34.4}, [_CN_RULE]),
    # one field stack alone is 12.8 GB, and the run exited 3 allocating 23.8 GiB;
    # then the rule's edges, over 2^20 values and over 2^26 values times sets
    ("equivalence", {"cells": 200, "frames": 200}, [_JOINT + "cells^3 * frames <= 2^20"]),
    ("equivalence", {"cells": 64, "frames": 5, "sets": 1}, [_JOINT + "cells^3 * frames <= 2^20"]),
    ("equivalence", {"cells": 32, "frames": 32, "sets": 65},
     [_JOINT + "cells^3 * frames <= 2^20"]),
    # an empty band exited 3 ("index 0 is out of bounds"), and a field that
    # peaks past 1 made the density p = (1 + field) / volume negative (3)
    ("equivalence", {"max_mode": -1, "sets": 1, "cells": 8, "frames": 4},
     ["parameter 'max_mode' must be >= 0, got -1"]),
    ("equivalence", {"max_mode": -3, "sets": 1, "cells": 8, "frames": 4},
     ["parameter 'max_mode' must be >= 0, got -3"]),
    ("equivalence", {"amplitude": 2.0, "sets": 1, "cells": 8, "frames": 4},
     ["parameter 'amplitude' must be |x| <= 1, got 2.0"]),
    ("equivalence", {"amplitude": -1.5, "sets": 1, "cells": 8, "frames": 4},
     ["parameter 'amplitude' must be |x| <= 1, got -1.5"]),
    # t_final / dt rounded to 0 steps, and the run exited 1 on a 0/0:
    # separation_rel_error read nan, and for one color deflection_rel_error inf
    ("stern_gerlach", {"field_gradient": 0.02, "dt": 0.3, "t_final": 0.1, "cells": 256},
     [_JOINT + "t_final / dt > 0.5"]),
    ("stern_gerlach", {"field_gradient": 0.02, "dt": 0.3, "t_final": 0.1, "cells": 256,
                       "spin_down_weight": 0.0}, [_JOINT + "t_final / dt > 0.5"]),
    # the two guard bands of max(3, cells // 64) cells held more than 1e-8 of
    # the packet, and below 7 cells the whole grid: each run exited 3 at t = 0
    *[("stern_gerlach", {"field_gradient": 0.02, "dt": 0.5, "t_final": 1.0, "cells": cells},
       [_SG_GRID_RULE, _SG_START_RULE]) for cells in (1, 6, 7, 8)],
    ("stern_gerlach", {"field_gradient": 0.02, "center": 3.0}, [_SG_START_RULE]),
    # grids too coarse for the packet (h / sigma 2.5 to 1.25): 12 to 20 cells
    # stopped on the boundary guard (exit 3) under all three step settings,
    # 24 cells under the last two
    *[("stern_gerlach", {"field_gradient": 0.02, "cells": cells, **steps}, [_SG_GRID_RULE])
      for cells in (12, 16, 20, 24)
      for steps in ({"dt": 0.5, "t_final": 1.0}, {"dt": 0.1, "t_final": 10.0}, {})],
    # at rest on 30 cells (h = sigma), but moving at 0.5: stopped at t = 1
    ("stern_gerlach", {"field_gradient": 0.02, "cells": 30, "velocity": 0.5, "dt": 0.5,
                       "t_final": 1.0}, [_SG_GRID_RULE]),
    # overflowed to a packet that cannot be normalized, and exited 3
    ("stern_gerlach", {"field_gradient": 0.02, "velocity": 1e308, "dt": 0.5, "t_final": 1.0},
     [_SG_GRID_RULE, _SG_START_RULE]),
    # numpy's multinomial takes an int64, and the run exited 3 ("Python int
    # too large to convert to C long")
    ("sample", {"repetitions": 2**63}, [_JOINT + "repetitions <= 2^63 - 1"]),
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
        ("stern_gerlach", {"field_gradient": 0.0, "field_offset": 0.0}),
        ("stern_gerlach", {"field_gradient": 0.0, "spin_down_weight": 0.0}),
        ("stern_gerlach", {"field_gradient": 0.02, "spin_up_weight": 0.0, "cells": 256,
                           "dt": 0.1, "t_final": 1.0}),
        ("evidence", {"cells": 96}),
        ("evidence", {"shift": [0.25]}),
        ("lorentz", {"setup": "uniform_e", "t_final": 13.0}),
        ("lorentz", {"setup": "uniform_b", "t_final": 1e6}),
        ("sample", {"sigma": 1e-3, "cells": 161}),
        ("sample", {"sigma": 0.0135, "cells": 4}),
        ("fisher_discrete", {"sigma": 2.0, "cells": 20}),
        ("sample", {"sigma": 1e150}),
        ("fisher_discrete", {"sigma": 1.3407807929942596e154, "cells": 2 * 10**155}),
        ("fisher_discrete", {"sigma": 25.6}),
        ("pauli_evolve", {"setup": "free_packet", "steps": 300, "record_every": 100}),
        ("pauli_evolve", {"setup": "uniform_field", "steps": 250, "record_every": 100}),
        ("pauli_evolve", {"setup": "larmor", "steps": 250, "record_every": 100}),
        # the step ceilings' edges, and the setups they do not read
        ("lorentz", {"setup": "uniform_b", "turns": 1000.0, "steps_per_turn": 500}),
        ("lorentz", {"setup": "uniform_e", "turns": 1e9}),
        ("pauli_evolve", {"setup": "larmor", "steps": 100000, "periods": 10.0,
                          "record_every": 11}),
        ("pauli_evolve", {"setup": "uniform_field", "steps": 99999, "record_every": 1}),
        ("pauli_evolve", {"setup": "free_packet", "steps": 1000000, "record_every": 40}),
        ("pauli_evolve", {"setup": "uniform_field", "periods": 1e9}),
        ("stern_gerlach", {"field_gradient": 0.02, "cells": 65536, "dt": 0.00064}),
        ("stern_gerlach", {"field_gradient": 0.02, "dt": 1e-5}),
        ("pauli_evolve", {"setup": "uniform_field", "cells": 2048, "steps": 500000}),
        ("pauli_evolve", {"setup": "free_packet", "steps": 32767, "record_every": 1}),
        ("pauli_evolve", {"setup": "larmor", "cells": 1000000000}),
        ("moment", {"b": [0.0, 0.0, 1.0], "t_final": 1000.0}),
        # the Crank-Nicolson rule's edges (r = 999 and 967), and a split-operator
        # run that it does not read; the equivalence ceilings' edges
        ("pauli_evolve", {"setup": "free_packet", "scheme": "crank_nicolson", "steps": 10,
                          "t_final": 34.3}),
        ("pauli_evolve", {"setup": "larmor", "scheme": "crank_nicolson", "steps": 1,
                          "mass": 0.2}),
        ("pauli_evolve", {"setup": "free_packet", "steps": 10, "t_final": 600}),
        ("equivalence", {"cells": 32, "frames": 32, "sets": 64}),
        ("equivalence", {"cells": 64, "frames": 4, "sets": 1}),
        # the band and amplitude ranges' edges: a constant field, and a
        # density that touches 0
        ("equivalence", {"max_mode": 0, "sets": 1, "cells": 8, "frames": 4}),
        ("equivalence", {"amplitude": 1.0, "sets": 1, "cells": 12, "frames": 8}),
        ("equivalence", {"amplitude": -1.0, "sets": 1, "cells": 12, "frames": 8}),
    ]:
        parse_scenario(json.dumps({"kind": kind, "parameters": parameters}))
    # every default, golden and benchmark document
    for kind in scenarios.SCHEMAS:
        parse_scenario(json.dumps({"kind": kind, "parameters": {"field_gradient": 0.02}
                                   if kind == "stern_gerlach" else {}}))
    for _, doc in manifest.golden():
        parse_scenario(json.dumps(doc))
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for doc in workloads.documents(workload, 0, size):
                parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("steps", [{"dt": 0.5, "t_final": 1.0}, {"dt": 0.1, "t_final": 10.0},
                                   {}], ids=["dt0.5", "dt0.1", "defaults"])
def test_stern_gerlach_grid_rule_admits_a_grid_that_resolves_the_packet(tmp_path, steps):
    # 34 cells (h / sigma 0.88), the fewest the rule admits under all three
    # step settings in the default field, run to a pass; 12 to 24 cells
    # (h / sigma 2.5 to 1.25) stopped on the boundary guard under some
    report = run(parse_scenario(json.dumps({
        "kind": "stern_gerlach", "output_dir": str(tmp_path),
        "parameters": {"field_gradient": 0.02, "cells": 34, **steps}})))
    assert report.passed


@pytest.mark.parametrize("side,exits", [(-0.1, 2), (0.1, 0)])
def test_stern_gerlach_start_rule_edge(tmp_path, capsys, side, exits):
    # the initial packet's mass in the left guard band grows as its center
    # nears the band: bisect the center where it reads 1e-8, then step to
    # either side of it; the packet admitted there runs without reaching the
    # band, and the one refused would have stopped at t = 0
    def edge_mass(center):
        return verification.stern_gerlach_start_edge_mass(
            60.0, 768, 2.0, center, 0.0, (1.0, 1.0), functionals.PhysicalConstants(1, 1, 1))

    inside, outside = 20.0, 5.0
    for _ in range(40):
        mid = 0.5 * (inside + outside)
        inside, outside = (mid, outside) if edge_mass(mid) <= 1e-8 else (inside, mid)
    center = (inside if side > 0 else outside) + side
    assert (edge_mass(center) <= 1e-8) == (exits == 0)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "stern_gerlach", "parameters": {
        "field_gradient": 0.02, "center": center, "dt": 0.05, "t_final": 0.1}}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == exits
    err = capsys.readouterr().err
    assert (_SG_START_RULE in err) == (exits == 2)


def test_only_the_equivalence_documents_start_a_thread(tmp_path, monkeypatch):
    # the spinor route's worker is the one thread a document starts: the
    # stepping and recording workloads run on the calling thread alone
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    counts = {}
    for workload in workloads.WORKLOADS:
        started.clear()
        for index, doc in enumerate(workloads.documents(workload, 0, "smoke")):
            out = tmp_path / f"{workload}-{index}"
            assert run(parse_scenario(json.dumps({**doc, "output_dir": str(out)}))).passed
        counts[workload] = len(started)
    assert counts == {"static_solve": 1, "evolve": 0, "record_io": 0}


@pytest.mark.parametrize("parameters", [
    {"max_mode": 0, "sets": 1, "cells": 8, "frames": 4},
    {"amplitude": 1.0, "sets": 1, "cells": 12, "frames": 8},
    {"amplitude": -1.0, "sets": 1, "cells": 12, "frames": 8},
])
def test_equivalence_range_edges_reach_a_verdict(tmp_path, parameters):
    # 0 or 1, not the runtime error's 3: at |amplitude| 1 the density
    # touches 0, and the worst residual fails its bound
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "equivalence", "parameters": parameters}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) in (0, 1)


@pytest.mark.parametrize("e0,wall", [(50.0, 50.0), (-50.0, 0.0)])
@pytest.mark.parametrize("before,admitted", [(1.5e-3, True), (0.5e-3, False)])
def test_lorentz_box_rule_admits_the_paths_that_stay_inside(tmp_path, e0, wall, before,
                                                            admitted):
    # x(t) = 5 + 0.1 t + e0 t^2 / 2 reaches the wall at t_wall; the run steps
    # by 1e-3 to the multiple of it nearest t_final
    t_wall = max(np.roots([e0 / 2.0, 0.1, 5.0 - wall]))
    doc = json.dumps({"kind": "lorentz", "output_dir": str(tmp_path), "parameters": {
        "setup": "uniform_e", "e0": e0, "t_final": t_wall - before}})
    if admitted:
        assert run(parse_scenario(doc)).passed
    else:
        with pytest.raises(ScenarioError):
            parse_scenario(doc)


@pytest.mark.parametrize("dt,admitted", [(1e-3, False), (2.5e-4, True)])
def test_moment_pole_rule_refuses_the_runs_that_drift(dt, admitted):
    # the cone about b = [1, 1, 2] comes within 0.0142 rad of the pole: at the
    # default dt the conjugate-pair run drifts 9.8e-8 in energy, at a quarter
    # of it 3.5e-10
    canonical = classical.canonical_evolve(0.7, 0.35, [1.0, 1.0, 2.0], 1.7, 2.0, dt)
    _, record = verification.moment_energy_drift("moment.energy_rel_drift", canonical,
                                                 [1.0, 1.0, 2.0], 1.7)
    assert record.passed is admitted
    doc = json.dumps({"kind": "moment", "parameters": {"b": [1.0, 1.0, 2.0], "dt": dt}})
    if admitted:
        parse_scenario(doc)
    else:
        with pytest.raises(ScenarioError):
            parse_scenario(doc)


def test_moment_document_far_from_the_pole_runs_and_passes(tmp_path):
    # |b| close to [1, 1, 2]'s, but the cone stays 0.618 rad from the z axis
    report = run(parse_scenario(json.dumps({
        "kind": "moment", "output_dir": str(tmp_path), "parameters": {"b": [0.8, -0.6, 1.7]},
    })))
    assert report.checks and report.passed


def test_box_document_with_one_free_cell_per_mode_runs(tmp_path):
    # the smallest box the modes rule admits for three modes: its modes are far
    # from the continuum ones, but the block solve finishes and writes its outputs
    report = run(parse_scenario(json.dumps({
        "kind": "box_minimize", "output_dir": str(tmp_path),
        "parameters": {"cells": 5, "multistarts": 1, "modes": 3},
    })))
    checks = {c.name: c for c in report.checks}
    assert checks["box.converged"].passed
    assert checks["box.density_max_error"].passed
    assert (tmp_path / "density.csv").exists() and (tmp_path / "trace.csv").exists()


def test_cli_schema_prints_joint_rules(capsys):
    assert cli.main(["schema", "stern_gerlach"]) == 0
    out = capsys.readouterr().out
    assert "requires: spin_up_weight and spin_down_weight are not both 0" in out
    assert "requires: gamma_energy != 0 when field_gradient != 0" in out
    assert cli.main(["schema", "moment"]) == 0
    out = capsys.readouterr().out
    assert "z0 (float, default 0.35, |x| <= 0.999999)" in out
    assert "b (list, default [0.4, -0.3, 0.85], len == 3)" in out
    assert "requires: the precession cone clears the poles" in out
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
    # no run interpolates a field; scipy.interpolate would cost import time
    # and memory in every run
    import paulilab

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(paulilab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, paulilab.scenarios; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def test_charge_is_no_stern_gerlach_parameter(tmp_path, capsys):
    # the Stern-Gerlach atom is neutral, with the moment gamma_energy
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "stern_gerlach",
                               "parameters": {"field_gradient": 0.02, "charge": -7.5}}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 2
    assert "unknown parameter 'charge' for kind 'stern_gerlach'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_setup_rules_admit_other_setups(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "lorentz",
                               "parameters": {"setup": "uniform_e", "bz": 0.0, "t_final": 0.2}}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("kind,parameters,seed", [
    ("sample", {"cells": 16}, -1),
    ("equivalence", {"cells": 8, "frames": 4, "sets": 1}, -3),
    ("box_minimize", {"cells": 16}, -1),
])
def test_a_negative_seed_exits_2(tmp_path, capsys, kind, parameters, seed):
    # numpy's generators refused it at run time ("expected non-negative
    # integer"), and the run exited 3
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": kind, "seed": seed, "parameters": parameters}))
    assert cli.main(["run", str(doc), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"scenario error: seed must be a non-negative integer, got {seed}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(scenarios.SCHEMAS))
def test_a_negative_seed_override_exits_2(tmp_path, capsys, kind):
    # the override skips parse_scenario; the scenario it builds refuses the seed
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": kind, "parameters": {"field_gradient": 0.02}
                               if kind == "stern_gerlach" else {}}))
    argv = ["run", str(doc), "--output-dir", str(tmp_path / "out"), "--seed", "-1"]
    assert cli.main(argv) == 2
    assert "scenario error: seed must be a non-negative integer, got -1" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ScenarioError):
        Scenario(kind, {}, seed=-1)


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
    # the edges of the one-step and int64 rules: t_final / dt = 0.8 rounds to one step
    ("stern_gerlach", {"field_gradient": 0.02, "dt": 0.5, "t_final": 0.4, "cells": 256}),
    ("stern_gerlach", {"field_gradient": 0.02, "dt": 0.5, "t_final": 0.4, "cells": 256,
                       "spin_down_weight": 0.0}),
    ("sample", {"cells": 16, "repetitions": 2**63 - 1}),
])
def test_scenario_kinds_pass(tmp_path, kind, extra):
    params = dict(parse_scenario(json.dumps({"kind": kind, "parameters": extra})).parameters)
    report = run(Scenario(kind, params, seed=0, output_dir=str(tmp_path)))
    assert report.passed, [c.line() for c in report.checks if not c.passed]


def test_box_document_solves_each_start_once(tmp_path, monkeypatch):
    calls = {"_fisher_operator": 0, "_block_lobpcg": 0}

    def counted(name):
        solve = getattr(variational, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solve(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(variational, name, counted(name))
    report = run(parse_scenario(json.dumps({
        "kind": "box_minimize", "output_dir": str(tmp_path),
        "parameters": {"cells": 32, "multistarts": 2, "modes": 3},
    })))
    assert report.passed
    # one preconditioner factor per document, one block solve per start
    assert calls == {"_fisher_operator": 1, "_block_lobpcg": 2}


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


def free_packet_document(output_dir, **parameters) -> Scenario:
    return parse_scenario(json.dumps({"kind": "pauli_evolve", "output_dir": str(output_dir),
                                      "parameters": {"setup": "free_packet", **parameters}}))


@pytest.mark.parametrize("record_every", [1, 2, 5, 100])
@pytest.mark.parametrize("scheme", ["split_operator", "crank_nicolson"])
def test_streamed_snapshots_are_the_whole_array_encoding(tmp_path, scheme, record_every):
    scenario = free_packet_document(tmp_path, cells=128, steps=100, record_every=record_every,
                                    scheme=scheme)
    run(scenario)
    p = scenario.parameters
    grid = Grid((p["extent"],), (p["cells"],), PERIODIC)
    consts = functionals.PhysicalConstants(p["hbar"], p["mass"], p["charge"])
    packet = pauli.gaussian_packet_state(grid, p["sigma"], p["extent"] / 2, 0.0, (1.0, 0.0),
                                         consts)
    config = pauli.SolverConfig(scheme, p["t_final"] / p["steps"], consts, grid,
                                np.zeros(grid.shape), np.zeros(grid.shape + (3,)))
    _, snapshots = evolve_with_snapshots(packet, config, p["t_final"], record_every)
    assert (tmp_path / "snapshots.bin").read_bytes() == whole_array_snapshots(
        grid, p["t_final"] / p["steps"] * record_every, {"wavefunction": snapshots},
        {"setup": "free_packet"})


def plant_nan_in_third_advance(monkeypatch):
    advance = pauli._SplitOperatorPropagator.advance
    calls = []

    def planted(self, psi, n):
        calls.append(n)
        advance(self, psi, n)
        if len(calls) == 3:
            psi[0, 0] = np.nan
        return psi

    monkeypatch.setattr(pauli._SplitOperatorPropagator, "advance", planted)


def stream_one_record_short(monkeypatch):
    spreading = verification.free_packet_spreading

    def short(*args):
        *head, on_record = args
        records = []

        def skip_first(*record):
            if records:
                on_record(*record)
            records.append(None)

        return spreading(*head, skip_first)

    monkeypatch.setattr(verification, "free_packet_spreading", short)


@pytest.mark.parametrize("plant,error,message", [
    (plant_nan_in_third_advance, pauli.SolverError, "state norm nan left 1"),
    (stream_one_record_short, fieldio.FormatError, "10 records written, not the header's 11"),
], ids=["nan", "short_sink"])
def test_free_packet_run_that_raises_mid_stream_keeps_the_previous_snapshots(
        tmp_path, monkeypatch, plant, error, message):
    previous = tmp_path / "snapshots.bin"
    previous.write_bytes(b"previous")
    plant(monkeypatch)
    with pytest.raises(error, match=message):
        run(free_packet_document(tmp_path, cells=128, steps=100))
    assert previous.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["snapshots.bin"]


def test_free_packet_memory_does_not_grow_with_its_records(tmp_path):
    # the records stream to their file through a fixed buffer: a run that
    # kept them all held 1,024 cells x 2 colors x 16 bytes more per record,
    # 24.6 MB more at 1,001 records than at 251
    run(free_packet_document(tmp_path / "warm", steps=250, record_every=1))
    peaks = []
    for steps in (250, 1000):
        scenario = free_packet_document(tmp_path / str(steps), steps=steps, record_every=1)
        tracemalloc.start()
        try:
            run(scenario)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6, peaks


def test_equivalence_scenario_small(tmp_path):
    params = dict(parse_scenario(json.dumps({
        "kind": "equivalence",
        "parameters": {"cells": 16, "frames": 8, "sets": 2},
    })).parameters)
    report = run(Scenario("equivalence", params, seed=4, output_dir=str(tmp_path)))
    assert report.passed
    assert (tmp_path / "breakdown.csv").exists()


def test_equivalence_document_prepares_each_set_once(tmp_path, monkeypatch):
    # each set is checked, prepared and split into its polar terms once
    calls = {"_check_stacks": 0, "_stacks": 0, "_polar_terms": 0}
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
    assert calls == {"_check_stacks": 2, "_stacks": 2, "_polar_terms": 2}


@pytest.mark.parametrize("key,document", manifest.golden(),
                         ids=[key.removeprefix("golden/") for key, _ in manifest.golden()])
def test_golden_document_matches_its_pins(tmp_path, key, document):
    report = run(parse_scenario(json.dumps({**document, "output_dir": str(tmp_path)})))
    moves = pin_moves(key, report.outputs,
                      [(c.name, c.value, c.tolerance) for c in report.checks])
    assert not moves, "\n".join(moves)


_BENCHMARK = manifest.benchmark(workloads)


@pytest.mark.parametrize("group", sorted({key.rsplit("/", 1)[0] for key, _ in _BENCHMARK}))
def test_benchmark_documents_match_their_pins(tmp_path, group):
    # one workload at one size and seed: each document in its own directory
    for key, document in _BENCHMARK:
        if key.rsplit("/", 1)[0] == group:
            out = tmp_path / key.rsplit("/", 1)[1]
            report = run(parse_scenario(json.dumps({**document, "output_dir": str(out)})))
            moves = pin_moves(key, report.outputs,
                              [(c.name, c.value, c.tolerance) for c in report.checks])
            assert not moves, "\n".join(moves)


@pytest.mark.parametrize("bz", [0.8, np.linspace(-1.0, 1.0, 6)], ids=["number", "cell_array"])
def test_axial_field_is_bz_in_component_2_without_potentials(bz):
    grid = Grid((3.0,), (6,), PERIODIC)
    atom = functionals.PhysicalConstants(1.0, 1.0, 0.0, moment=0.5)
    config = verification._axial_solver(pauli.SPLIT_OPERATOR, 0.1, atom, grid, bz)
    want = np.zeros(grid.shape + (3,))
    want[..., 2] = bz
    assert np.array_equal(config.b, want)
    assert not np.any(config.phi_pot) and config.consts.spin_coupling == 0.5
