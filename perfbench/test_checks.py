"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench

The checks must accept ntk's real outputs and reject corrupted ones; the
reference arithmetic they rest on must agree with ntk's tables.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import refgroups  # noqa: E402
from ntk import construction  # noqa: E402
from ntk.catalog import builtin_catalog  # noqa: E402
from ntk.groups import sylow2  # noqa: E402
from ntk.groupspec import parse_group_spec  # noqa: E402

SPECS = ["Z1", "Z6", "Z16", "D5", "D6", "Dic3", "Dic4", "S3", "S4", "S3 x Z3",
         "Z2 x Z5", "Z2 x Z2 x Z2", "Z3 x Z3"]


def _agrees(ref, group) -> bool:
    return all(ref.mul(a, b) == group.table[a][b] for a in range(group.n) for b in range(group.n))


@pytest.mark.parametrize("spec", SPECS)
def test_reference_arithmetic_matches_specs(spec):
    group, _ = parse_group_spec(spec)
    ref = refgroups.from_spec(spec)
    assert ref.n == group.n and _agrees(ref, group)
    assert (ref.k, ref.sylow_class) == (sylow2(group).k, sylow2(group).classification)


def test_reference_arithmetic_matches_catalog():
    labels = refgroups.catalog_labels(48)
    entries = builtin_catalog(48)
    assert labels == sorted((e.label, e.group.n) for e in entries)
    for entry in entries:
        ref = refgroups.catalog_group(entry.label)
        assert _agrees(ref, entry.group), entry.label
        assert ref.sylow_class == sylow2(entry.group).classification, entry.label


def test_catalog_enumeration_has_383_groups_to_order_200():
    assert len(refgroups.catalog_labels(200)) == 383


def _construct_payload(spec: str) -> dict:
    group, label = parse_group_spec(spec)
    return construction.result_json(construction.near_transversal(group), label)


@pytest.mark.parametrize("spec", ["Z30", "D15", "Dic5", "S3 x Z5", "Z2 x Z7", "Z48"])
def test_construct_check_accepts_real_output(spec):
    payload = _construct_payload(spec)
    assert checks.check_construct(refgroups.from_spec(spec), json.dumps(payload), 0) == []


def test_construct_check_rejects_repeated_symbol():
    payload = _construct_payload("Z30")
    (r1, c1, s1), (r2, c2, s2) = payload["cells"][:2]
    payload["cells"][1] = [r2, (s1 - r2) % 30, s1]   # a true product, but s1 twice
    problems = checks.check_construct(refgroups.from_spec("Z30"), json.dumps(payload), 0)
    assert any("symbol is repeated" in p for p in problems)


def test_construct_check_rejects_wrong_symbol():
    payload = _construct_payload("D15")
    r, c, s = payload["cells"][0]
    payload["cells"][0] = [r, c, (s + 1) % 30]
    problems = checks.check_construct(refgroups.from_spec("D15"), json.dumps(payload), 0)
    assert any("the product is" in p for p in problems)


def test_construct_check_rejects_n_minus_2_cells():
    payload = _construct_payload("Dic5")
    payload["cells"].pop()
    problems = checks.check_construct(refgroups.from_spec("Dic5"), json.dumps(payload), 0)
    assert "Dic5: 18 cells, expected 19" in problems


def test_construct_check_rejects_wrong_parameters():
    payload = _construct_payload("S3 x Z5")
    payload["m"], payload["verified"] = 15, False
    problems = checks.check_construct(refgroups.from_spec("S3 x Z5"), json.dumps(payload), 0)
    assert any(p.startswith("S3 x Z5: m =") for p in problems)
    assert any("verified" in p for p in problems)


@pytest.mark.parametrize("spec,count", [("Z5", 15), ("Z3 x Z3", 2241), ("Z6", 0),
                                        ("Z2 x Z4", 384)])
def test_count_check_uses_published_values(spec, count):
    ref = refgroups.from_spec(spec)
    assert checks.check_oracle("count", spec, ref, json.dumps({"count": count}), 0) == []
    wrong = json.dumps({"count": count + ref.n})
    assert checks.check_oracle("count", spec, ref, wrong, 0) != []


def test_count_check_rejects_hall_paige_violation_without_published_value():
    ref = refgroups.from_spec("D6")
    assert checks.check_oracle("count", "D6", ref, json.dumps({"count": 0}), 0) != []


def test_transversal_and_maxpartial_checks():
    ref = refgroups.from_spec("Z5")
    cells = [[i, i, 2 * i % 5] for i in range(5)]
    assert checks.check_oracle("transversal", "Z5", ref,
                               json.dumps({"present": True, "cells": cells}), 0) == []
    assert checks.check_oracle("maxpartial", "Z5", ref,
                               json.dumps({"size": 5, "cells": cells}), 0) == []
    assert checks.check_oracle("maxpartial", "Z5", ref,
                               json.dumps({"size": 4, "cells": cells[:4]}), 0) != []
    absent = refgroups.from_spec("Z4")
    assert checks.check_oracle("transversal", "Z4", absent,
                               json.dumps({"present": True, "cells": cells[:4]}), 0) != []


def test_completemapping_check_reads_names():
    group, _ = parse_group_spec("Z3")
    ref = refgroups.from_spec("Z3")
    good = json.dumps({"present": True, "sigma": ["1", "c", "c2"]})
    bad = json.dumps({"present": True, "sigma": ["1", "c2", "c"]})   # g*sigma(g) = 1 three times
    assert checks.check_oracle("completemapping", "Z3", ref, good, 0, group.names) == []
    assert checks.check_oracle("completemapping", "Z3", ref, bad, 0, group.names) != []


def test_independent_set_check():
    ref = refgroups.from_spec("Z6")
    cells = _construct_payload("Z6")["cells"]
    assert checks.check_independent_set(ref, 12, 5, [c[:2] for c in cells]) == []
    assert checks.check_independent_set(ref, 12, 4, [c[:2] for c in cells[:4]]) != []


def _catalog_output(lines: list[str], skipped: int) -> str:
    summary = {"groups": len(lines), "passed": len(lines) - skipped, "failed": 0,
               "skipped": skipped}
    return json.dumps({"summary": summary, "lines": lines})


def _catalog_lines(max_order: int) -> tuple[list[str], int]:
    lines, skipped = [], 0
    for label, order in refgroups.catalog_labels(max_order):
        ref = refgroups.catalog_group(label)
        if ref.sylow_class == refgroups.NON_CYCLIC and order > 16:
            lines.append(f"{label:<12} order={order:<4} skipped (guard)")
            skipped += 1
        else:
            branch = "construction" if ref.sylow_class == refgroups.CYCLIC else "complete-mapping"
            lines.append(f"{label:<12} order={order:<4} branch={branch:<17} pass")
    return lines, skipped


def test_catalog_check_counts_guard_skips_as_failed():
    lines, skipped = _catalog_lines(40)
    attempted, failed, problems, passed = checks.check_catalog(
        _catalog_output(lines, skipped), 0, 40)
    assert problems == []
    assert (attempted, failed) == (len(lines), skipped) and skipped > 0
    assert len(passed) == attempted - failed


def test_catalog_check_rejects_skips_the_fault_does_not_explain():
    lines, skipped = _catalog_lines(40)
    for label in ("Z20", "D6"):   # cyclic Sylow; non-cyclic but within the guard
        i = next(i for i, line in enumerate(lines) if line.split()[0] == label)
        lines[i] = f"{label:<12} order={lines[i].split('order=')[1].split()[0]:<4} skipped (guard)"
        skipped += 1
    _, _, problems, _ = checks.check_catalog(_catalog_output(lines, skipped), 0, 40)
    assert any(p.startswith("Z20: skipped") for p in problems)
    assert any(p.startswith("D6: skipped") for p in problems)


def test_catalog_check_rejects_missing_group():
    lines, skipped = _catalog_lines(40)
    _, _, problems, _ = checks.check_catalog(_catalog_output(lines[1:], skipped), 0, 40)
    assert problems


def test_catalog_cells_check():
    cells = {}
    for entry in builtin_catalog(24):
        if entry.group.n <= 16 or entry.label in ("Z17", "Z18", "Z24"):
            result = construction.near_transversal(entry.group)
            cells[entry.label] = construction.result_json(result, entry.label)["cells"]
    assert checks.check_catalog_cells(cells, cells) == []
    broken = dict(cells, Z18=cells["Z18"][:-1])
    assert checks.check_catalog_cells(broken, cells)


def test_tracer_wraps_every_binding():
    """A traced worker records sylow2 under construction.near_transversal
    (bound in ntk.construction) and cyclic under parse_group_spec (bound in
    the constructor table of ntk.groupspec)."""
    request = {"op": "cli", "argv": ["construct", "Z2 x Z3", "--format", "json"]}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), "--trace"],
                          input=json.dumps(request) + "\n", capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, timeout=120)
    setup, reply = (json.loads(line) for line in proc.stdout.splitlines())
    spans = reply["spans"]
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and spans[0][3] is None
    parent_of = {name: names[parent] for name, _, _, parent, _ in spans if parent is not None}
    assert parent_of["groups.cyclic"] == "groupspec.parse_group_spec"
    assert "groups.sylow2" in names and "construction.decompose" in names
    assert all(start <= end for _, start, end, _, _ in spans)
    assert reply["rc"] == 0 and setup["seconds"] > 0
