"""``tools/manifest.py``: which entries moved and how far, and the pins in
``tests/manifest.tsv`` failing on a one-ulp change or a moved bound."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import manifest, pin_moves
from paulilab.scenarios import parse_scenario, run

_DOC = "evolve/full/seed0/002-pauli_evolve"
_VALUE = 0.00020720555880658937
_ENTRIES = {
    f"{_DOC}/observables.csv": "5e7939e110f8c8c2a0559c3626ff3c8cd0d317563b27d758ae13b5d0373aeff5",
    f"{_DOC}/check pauli.norm_drift": repr(_VALUE),
    f"{_DOC}/bound pauli.norm_drift": "<= 1e-10",
    f"{_DOC}/check pauli.completed": "True",
}


def _write(path: Path, entries: dict[str, str]) -> str:
    path.write_text("".join(f"{key}\t{value}\n" for key, value in entries.items()),
                    encoding="utf-8")
    return str(path)


def _compare(tmp_path, capsys, **changed) -> tuple[int, list[str]]:
    old = _write(tmp_path / "old", _ENTRIES)
    new = _write(tmp_path / "new", {**_ENTRIES, **changed})
    code = manifest.main(["compare", old, new])
    return code, capsys.readouterr().out.splitlines()


def test_compare_of_equal_manifests_exits_0(tmp_path, capsys):
    assert _compare(tmp_path, capsys) == (0, ["0 of 4 entries moved"])


def test_compare_names_a_one_ulp_move_with_its_relative_difference(tmp_path, capsys):
    key = f"{_DOC}/check pauli.norm_drift"
    moved = float(np.nextafter(_VALUE, 1.0))
    code, lines = _compare(tmp_path, capsys, **{key: repr(moved)})
    diff = moved - _VALUE
    assert code == 1
    assert lines == [f"moved: {key}: {_VALUE!r} -> {moved!r} "
                     f"(abs {diff:.3g}, rel {diff / moved:.3g})", "1 of 4 entries moved"]
    assert 1e-16 < diff / moved < 2.3e-16  # one ulp, relative


def test_compare_names_a_tampered_digest(tmp_path, capsys):
    key = f"{_DOC}/observables.csv"
    tampered = _ENTRIES[key][:-1] + "4"
    code, lines = _compare(tmp_path, capsys, **{key: tampered})
    assert code == 1
    assert lines == [f"moved: {key}: bytes differ", "1 of 4 entries moved"]


def test_compare_names_a_moved_bound_with_its_old_and_new_text(tmp_path, capsys):
    key = f"{_DOC}/bound pauli.norm_drift"
    code, lines = _compare(tmp_path, capsys, **{key: "<= 1e-08"})
    assert code == 1
    assert lines == [f"moved: {key}: <= 1e-10 -> <= 1e-08", "1 of 4 entries moved"]


@pytest.mark.parametrize("old,new,distance", [
    ("True", "False", "True -> False"),
    ("0.0", "-0.0", "0.0 -> -0.0 (abs 0, rel 0)"),
    ("1.0", "nan", "1.0 -> nan (abs nan, rel nan)"),
])
def test_compare_reports_check_values_that_are_not_plain_numbers(tmp_path, capsys, old, new,
                                                                 distance):
    key = f"{_DOC}/check pauli.completed"
    _write(tmp_path / "old", {key: old})
    _write(tmp_path / "new", {key: new})
    assert manifest.compare(str(tmp_path / "old"), str(tmp_path / "new")) == 1
    assert capsys.readouterr().out.splitlines() == [f"moved: {key}: {distance}",
                                                    "1 of 1 entries moved"]


def _run_golden(tmp_path, kind):
    """Run the first golden document of ``kind``: its key and report."""
    key, doc = next((key, doc) for key, doc in manifest.golden() if doc["kind"] == kind)
    return key, run(parse_scenario(json.dumps({**doc, "output_dir": str(tmp_path)})))


def _checks(report) -> dict[str, list]:
    return {c.name: [c.name, c.value, c.tolerance] for c in report.checks}


def test_pins_name_a_one_ulp_move_of_a_check_value(tmp_path):
    key, report = _run_golden(tmp_path, "lorentz")
    checks = _checks(report)
    assert pin_moves(key, report.outputs, checks.values()) == []
    name = "lorentz.speed_rel_drift"
    value = checks[name][1]
    checks[name][1] = moved = float(np.nextafter(value, np.inf))
    diff = moved - value
    assert pin_moves(key, report.outputs, checks.values()) == [
        f"moved: {key}/check {name}: {value!r} -> {moved!r} "
        f"(abs {diff:.3g}, rel {diff / moved:.3g})"]


def test_pins_name_a_loosened_bound(tmp_path):
    key, report = _run_golden(tmp_path, "lorentz")
    checks = _checks(report)
    name = "lorentz.speed_rel_drift"
    checks[name][2] = "<= 0.01"
    assert pin_moves(key, report.outputs, checks.values()) == [
        f"moved: {key}/bound {name}: <= 1e-06 -> <= 0.01"]


def test_pins_name_the_file_and_column_of_a_one_ulp_move_in_a_csv_cell(tmp_path):
    key, report = _run_golden(tmp_path, "lorentz")
    checks = _checks(report).values()
    path = tmp_path / "particle.csv"
    header, *rows = path.read_text().splitlines()
    column = header.split(",").index("vy")
    cells = rows[25].split(",")
    cells[column] = repr(float(np.nextafter(float(cells[column]), np.inf)))
    rows[25] = ",".join(cells)
    path.write_text("\n".join([header] + rows) + "\n")
    assert pin_moves(key, report.outputs, checks) == [
        f"moved: {key}/particle.csv:vy: bytes differ"]


def test_every_pinned_leq_check_value_is_a_magnitude():
    # a "<=" record reads a distance or an error; a negative value would pass
    # whatever its bound, as the uniform-field error once did at charge -1
    pins = manifest.read(manifest.PINS)
    values = {key: pins[key.replace("/bound ", "/check ")] for key, bound in pins.items()
              if "/bound " in key and bound.startswith("<= ")
              and key.replace("/bound ", "/check ") in pins}
    assert values
    assert [key for key, value in values.items() if not float(value) >= 0.0] == []
