"""Acceptance suite: every criterion at full scale, one pass/fail line each.

Criteria 1-9 call the shared verification battery at full resolution;
criterion 10 drives the command-line ``verify-all --fast`` end to end and
holds it to its runtime and report contract, and its outputs and check
values to their pins in ``tests/manifest.tsv``.
"""

import json
import time

from conftest import manifest, pin_moves
from paulilab import cli, verification


def _run(name, fn, fast=False):
    records = fn(fast=fast)
    print()
    for record in records:
        print(f"  criterion {name}: {record.line()}")
    failed = [r for r in records if not r.passed]
    assert not failed, f"{name}: {[r.line() for r in failed]}"
    return records


def test_criterion_1_box_fisher_minimum():
    records = _run("1 (box minimum)", verification.check_box_minimum)
    assert any("runtime" in r.name and r.value < 30.0 for r in records)


def test_criterion_2_functional_equivalence():
    records = _run("2 (equivalence)", verification.check_equivalence)
    assert any("runtime" in r.name and r.value < 60.0 for r in records)


def test_criterion_3_evidence_structure():
    _run("3 (evidence)", verification.check_evidence_structure)


def test_criterion_4_gaussian_fisher_oracle():
    _run("4 (gaussian fisher)", verification.check_gaussian_fisher)


def test_criterion_5_solver_unitarity_and_spectroscopy():
    _run("5 (solver)", verification.check_pauli_solver)


def test_criterion_6_classical_correspondence():
    _run("6 (classical)", verification.check_classical_correspondence)


def test_criterion_7_ehrenfest_checks():
    _run("7 (ehrenfest)", verification.check_ehrenfest)


def test_criterion_8_gradient_correctness():
    _run("8 (gradients)", verification.check_gradients)


def test_criterion_9_statistical_sampling():
    _run("9 (sampling)", verification.check_sampling)


def test_criterion_10_verify_all_fast(tmp_path):
    started = time.perf_counter()
    code = cli.main(["verify-all", "--fast", "--output-dir", str(tmp_path)])
    elapsed = time.perf_counter() - started
    print(f"\n  criterion 10: verify-all --fast finished in {elapsed:.1f} s (exit {code})")
    assert code == 0
    assert elapsed < 300.0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    failures = [c for c in report["checks"] if not c["pass"]]
    assert failures == []
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    key, _ = manifest.VERIFY_ALL
    moves = pin_moves(key, report["outputs"],
                      [(c["name"], c["value"], c["tolerance"]) for c in report["checks"]])
    assert not moves, "\n".join(moves)
