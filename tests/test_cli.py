import argparse
import hashlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntk
from ntk import cli, construction, graphs
from ntk.catalog import builtin_catalog
from ntk.cli import main
from ntk.errors import NotAssociative, OrderTooLarge, TooLarge

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_z6(capsys):
    code, out, _ = run(capsys, "analyze", "Z6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "cyclic-nontrivial"
    assert (data["k"], data["l"], data["m"]) == (2, 3, 3)


def test_analyze_s3_z3(capsys):
    code, out, _ = run(capsys, "analyze", "S3 x Z3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["k"], data["l"], data["m"]) == (2, 9, 3)


def test_analyze_q8_not_applicable_note(capsys):
    code, out, _ = run(capsys, "analyze", "Dic2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "non-cyclic"
    assert "note" in data


def test_construct_z6(capsys):
    code, out, _ = run(capsys, "construct", "Z6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["cells"]) == 5
    assert data["branch"] == "construction"


def test_construct_round_trip_revalidates(capsys):
    code, out, _ = run(capsys, "construct", "S3 x Z3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    group, _ = ntk.parse_group_spec(data["group"])
    square = ntk.cayley_square(group)
    cells = ntk.cells_from_json(data["cells"], square)
    ok, violation = ntk.is_partial_transversal(square, cells)
    assert ok, violation
    assert len(cells) == data["n"] - 1


def test_construct_with_ordering_override(capsys):
    code, out, _ = run(capsys, "construct", "S3 x Z3",
                       "--ordering", "1,c,c2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ordering"] == ["1", "c", "c2"]
    assert len(data["cells"]) == 17


def test_construct_bad_ordering(capsys):
    code, _, err = run(capsys, "construct", "S3 x Z3", "--ordering", "1,c")
    assert code == 1
    assert "harmonious" in err or "ordering" in err


def test_permutation_that_is_not_harmonious_is_refused(capsys):
    # Z10's fixed part is {1, c2, c4, c6, c8}; 1·c4 = c6·c8 = c4
    for command in ("construct", "verify"):
        code, out, err = run(capsys, command, "Z10", "--ordering", "1,c4,c2,c6,c8")
        assert code == 1 and not out and _one_error_line(err), command
        assert "ordering is not harmonious" in err
        assert run(capsys, command, "Z10", "--ordering", "1,c2,c4,c6,c8")[0] == 0, command


@pytest.mark.parametrize("spec", ["Z0", "D0", "Dic0", "S0", "Z2 x Z0"])
def test_zero_parameter_atom_is_refused(capsys, spec):
    code, out, err = run(capsys, "construct", spec)
    assert code == 1 and not out and _one_error_line(err)
    assert "must be positive" in err


def test_empty_ordering_is_refused(capsys):
    for command in ("construct", "verify"):
        for argv in ([command, "Z6", "--ordering", ""], [command, "Z6", "--ordering="]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and not out and _one_error_line(err), argv
            assert "no element named ''" in err


def test_ordering_off_the_ladder_branch_is_refused(capsys):
    for spec, ordering in (("Z5", "1,c"), ("Z5", "1,c2"), ("Z2 x Z2", "1·1,1·c")):
        for command in ("construct", "render"):
            code, out, err = run(capsys, command, spec, "--ordering", ordering)
            assert code == 1 and not out and _one_error_line(err), (command, spec)
            assert "ladder" in err


def test_construct_z5_complete_mapping_branch(capsys):
    code, out, _ = run(capsys, "construct", "Z5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == "complete-mapping"
    assert len(data["cells"]) == 4


def test_verify_pass_and_not_applicable(capsys):
    code, out, _ = run(capsys, "verify", "Z6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True

    code, out, _ = run(capsys, "verify", "Z2", "--format", "json")
    assert code == 0  # smallest case: one ladder on 4 cells

    code, _, err = run(capsys, "verify", "D4")
    assert code == 1
    assert "non-cyclic" in err


def test_oracle_count(capsys):
    code, out, _ = run(capsys, "oracle", "count", "Z3", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_oracle_transversal_absent(capsys):
    code, out, _ = run(capsys, "oracle", "transversal", "Z4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["present"] is False and data["cells"] is None


def test_oracle_complete_mapping_present(capsys):
    code, out, _ = run(capsys, "oracle", "completemapping", "Z2 x Z2", "--format", "json")
    assert code == 0
    assert json.loads(out)["present"] is True


def test_oracle_maxpartial(capsys):
    code, out, _ = run(capsys, "oracle", "maxpartial", "Z4", "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 3


def test_guard_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "count", "Z12")
    assert code == 3
    assert "guard" in err
    # the transversal guard stops searches that would run for seconds
    code, _, err = run(capsys, "oracle", "transversal", "Z14")
    assert code == 3
    assert "guard" in err


def test_non_associative_table_above_order_512_rejected(capsys, tmp_path):
    # Z514 with the intercalate on rows and columns 1 and 258 swapped: still
    # a latin square with identity 0, but not a group table
    n = 514
    table = [[(g + h) % n for h in range(n)] for g in range(n)]
    table[1][1], table[1][258] = table[1][258], table[1][1]
    table[258][1], table[258][258] = table[258][258], table[258][1]
    with pytest.raises(NotAssociative):
        ntk.group_from_table(table)
    path = tmp_path / "loop514.txt"
    path.write_text(f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table))
    code, out, err = run(capsys, "construct", f"table:{path}")
    assert code == 1 and not out
    assert "x*(a*y)" in err


def test_twisted_product_beyond_max_order_rejected(capsys, tmp_path):
    # Z2 acting on Z1025 by inversion: order 2050, like Z2 x Z1025
    action = tmp_path / "inversion.txt"
    action.write_text(" ".join(str(h) for h in range(1025)) + "\n"
                      + " ".join(str(-h % 1025) for h in range(1025)) + "\n")
    code, out, err = run(capsys, "analyze", f"sd:Z2,Z1025,{action}")
    assert code == 1 and not out
    assert "twisted product order 2050 beyond 2048" in err
    code, _, err = run(capsys, "analyze", "Z2 x Z1025")
    assert code == 1
    assert "product order 2050 beyond 2048" in err


def test_table_beyond_max_order_rejected_before_its_rows(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("\n2050\nno rows follow\n")
    code, out, err = run(capsys, "analyze", f"table:{path}")
    assert code == 1 and not out
    assert "table order 2050 beyond 2048" in err


def test_guard_override_flag(capsys):
    code, out, _ = run(capsys, "oracle", "count", "Z11", "--guard-override", "11",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] > 0


def test_guard_override_below_one_rejected(capsys):
    # a usage error (exit 1), not a guard that stops the search (exit 3) and
    # asks for the explicit guard that was passed
    for which in ("transversal", "count", "maxpartial", "completemapping"):
        for guard in ("0", "-1"):
            code, out, err = run(capsys, "oracle", which, "Z4", "--guard-override", guard)
            assert code == 1 and not out and _one_error_line(err), (which, guard)
            assert f"--guard-override {guard} is below 1" in err, (which, guard)
    code, out, _ = run(capsys, "oracle", "count", "Z1", "--guard-override", "1")
    assert code == 0 and out


def test_guard_override_is_the_oracles_alone(capsys):
    assert [command for command, (_, _, options) in cli.COMMANDS.items()
            if "--guard-override" in options] == ["oracle"]
    for argv in (["construct", "S4"], ["render", "S4"], ["catalog"]):
        code, out, err = run(capsys, *argv, "--guard-override", "24")
        assert code == 1 and not out, argv
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("usage: ntk"), argv
        assert lines[1] == "ntk: error: unrecognized arguments: --guard-override 24", argv


def test_construct_past_the_search_order_names_the_oracle_call(capsys):
    for command in ("construct", "render"):
        code, out, err = run(capsys, command, "S4")
        assert code == 3 and not out and _one_error_line(err), command
        assert "run `ntk oracle completemapping <spec> --guard-override 24`" in err
    # the call the message names finds S4's complete mapping
    code, out, _ = run(capsys, "oracle", "completemapping", "S4", "--guard-override", "24",
                       "--format", "json")
    assert code == 0 and json.loads(out)["present"] is True


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "Q8")
    assert code == 1
    assert "unrecognized" in err


def test_render_ascii_z6(capsys):
    code, out, _ = run(capsys, "render", "Z6")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 7  # header + 6 rows
    assert out.count("[") == 12  # all ladder cells marked


def test_render_ascii_z2(capsys):
    code, out, _ = run(capsys, "render", "Z2")
    assert code == 0
    assert out.count("[") == 4  # the whole 2x2 square is the ladder


def test_render_latex_order18(capsys):
    code, out, _ = run(capsys, "render", "S3 x Z3", "--format", "latex")
    assert code == 0
    assert r"\begin{tabular}" in out
    body = out.split(r"\begin{tabular}", 1)[1]
    assert body.count(r"\lad{") == 12
    assert body.count(r"\pri{") == 24



@pytest.mark.parametrize("argv, expected", [
    (["render", "S3 x Z3"], "render_s3xz3.txt"),                         # ladder and prisms
    (["render", "S3 x Z3", "--format", "latex"], "render_s3xz3.tex"),
    (["render", "D4"], "render_d4.txt"),                                 # complete mapping
])
def test_render_is_pinned_byte_for_byte(capsys, argv, expected):
    assert run(capsys, *argv) == (0, (DATA / expected).read_text(), "")


def test_analyze_and_construct_print_the_same_ordering(capsys):
    ladder = 0
    for entry in builtin_catalog(200):
        if ntk.sylow2(entry.group).classification != ntk.CYCLIC_NONTRIVIAL:
            continue
        ladder += 1
        analyzed = json.loads(run(capsys, "analyze", entry.label, "--format", "json")[1])
        built = json.loads(run(capsys, "construct", entry.label, "--format", "json")[1])
        assert analyzed["ordering"] == built["ordering"], entry.label
    assert ladder == 197

def test_catalog_small(capsys):
    code, out, _ = run(capsys, "catalog", "--max-order", "10")
    assert code == 0
    assert "failed=0" in out


def test_catalog_beyond_max_order_rejected_before_any_group(capsys, monkeypatch):
    def refuse(max_order):
        raise AssertionError(f"catalog built to order {max_order}")
    monkeypatch.setattr("ntk.cli.builtin_catalog", refuse)
    code, out, err = run(capsys, "catalog", "--max-order", "2049")
    assert code == 1 and not out and _one_error_line(err)
    assert "2049 beyond the supported 2048" in err


def test_catalog_below_order_one_rejected(capsys):
    for max_order in ("0", "-3"):
        code, out, err = run(capsys, "catalog", "--max-order", max_order)
        assert code == 1 and not out and _one_error_line(err)
        assert f"--max-order {max_order} is below 1" in err


def test_catalog_odd_filter_uses_mapping_branch(capsys):
    code, out, _ = run(capsys, "catalog", "--max-order", "9", "--filter", "odd")
    assert code == 0
    for line in out.splitlines():
        if "branch=" in line:
            assert "complete-mapping" in line


def test_catalog_filters_select_by_order_parity_and_sylow_class(capsys):
    entries = builtin_catalog(30)
    code, out, _ = run(capsys, "catalog", "--max-order", "30")
    assert code == 0
    every = dict(zip([e.label for e in entries], out.splitlines()))
    selected = {
        "odd": [e.label for e in entries if e.group.n % 2 == 1],
        "even": [e.label for e in entries if e.group.n % 2 == 0],
        "construction": [e.label for e in entries
                         if ntk.sylow2(e.group).classification == "cyclic-nontrivial"],
    }
    assert all(selected.values())
    assert all("branch=construction" in every[label] for label in selected["construction"])
    for filter, labels in selected.items():
        code, out, _ = run(capsys, "catalog", "--max-order", "30", "--filter", filter)
        assert code == 0, filter
        lines = [every[label] for label in labels]
        skipped = sum(line.endswith("skipped (guard)") for line in lines)  # S4, even order
        assert out.splitlines() == [
            *lines, f"passed={len(lines) - skipped} failed=0 skipped={skipped}"], filter


def _fail_every_cell_check(monkeypatch):
    monkeypatch.setattr(construction, "is_partial_transversal",
                        lambda square, cells: (False, "planted violation"))


def test_failed_output_check_exits_2(capsys, monkeypatch):
    _fail_every_cell_check(monkeypatch)
    for spec in ("Z6", "Z5", "D4"):   # the ladder, odd order and the search
        code, out, err = run(capsys, "construct", spec)
        assert code == 2 and not out, spec
        assert err == ("verification failure: cells are not a partial transversal: "
                       "planted violation\n"), spec


def test_catalog_counts_a_failed_output_check_and_exits_2(capsys, monkeypatch):
    _fail_every_cell_check(monkeypatch)
    entries = builtin_catalog(8)
    code, out, _ = run(capsys, "catalog", "--max-order", "8")
    assert code == 2
    assert out.splitlines() == [
        *(f"{e.label:<12} order={e.group.n:<4} FAIL (cells are not a partial transversal: "
          "planted violation)" for e in entries),
        f"passed=0 failed={len(entries)} skipped=0"]
    code, out, _ = run(capsys, "catalog", "--max-order", "8", "--format", "json")
    assert code == 2
    assert json.loads(out)["summary"] == {"groups": len(entries), "passed": 0,
                                          "failed": len(entries), "skipped": 0}


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--max-order", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0


# ``verify --format json`` as it read before the checks shared one witness graph
VERIFY_JSON = {
    "Z6": {"group": "Z6",
           "claim1": {"passed": True, "overlap": 0,
                      "crossEdges": {"row": 0, "column": 0, "symbol": 0}},
           "mobius": {"passed": True, "rimLength": 12, "chordOffsets": [6], "problems": []},
           "prisms": {"passed": True, "cycleCount": 0, "prismCount": 0,
                      "matchingOffset": 2, "problems": []},
           "independentSetSize": 5, "passed": True},
    "S3 x Z3": {"group": "S3 x Z3",
                "claim1": {"passed": True, "overlap": 0,
                           "crossEdges": {"row": 0, "column": 0, "symbol": 0}},
                "mobius": {"passed": True, "rimLength": 12, "chordOffsets": [6],
                           "problems": []},
                "prisms": {"passed": True, "cycleCount": 6, "prismCount": 3,
                           "matchingOffset": 2, "problems": []},
                "independentSetSize": 17, "passed": True},
}


@pytest.mark.parametrize("spec", sorted(VERIFY_JSON))
def test_verify_json_unchanged(capsys, spec):
    code, out, _ = run(capsys, "verify", spec, "--format", "json")
    assert code == 0
    assert out == json.dumps(VERIFY_JSON[spec], indent=2) + "\n"


# the text form of ``verify``, one line per section
VERIFY_TEXT = {
    "Z6": ("group: Z6\n"
           "claim1: pass\n"
           "mobius: pass (rim 12, chords at [6])\n"
           "prisms: pass (0 prisms, matching offset 2)\n"
           "independent set size: 5\n"
           "overall: pass\n"),
    "S3 x Z3": ("group: S3 x Z3\n"
                "claim1: pass\n"
                "mobius: pass (rim 12, chords at [6])\n"
                "prisms: pass (3 prisms, matching offset 2)\n"
                "independent set size: 17\n"
                "overall: pass\n"),
}


@pytest.mark.parametrize("spec", sorted(VERIFY_TEXT))
def test_verify_text_unchanged(capsys, spec):
    code, out, _ = run(capsys, "verify", spec)
    assert code == 0
    assert out == VERIFY_TEXT[spec]


def test_options_a_subcommand_does_not_read_are_refused(capsys):
    code, out, _ = run(capsys, "analyze", "Z6", "--ordering", "1,c", "--guard-override", "3",
                       "--format", "latex")
    assert code == 1 and not out
    for argv in (["analyze", "Z6", "--ordering", "1,c"],
                 ["analyze", "Z6", "--guard-override", "3"],
                 ["verify", "Z6", "--guard-override", "3"],
                 ["oracle", "count", "Z3", "--ordering", "1"],
                 ["catalog", "--ordering", "1"],
                 ["render", "Z6", "--format", "json"],
                 ["construct", "Z6", "--format", "latex"]):
        assert run(capsys, *argv)[0] == 1, argv


def test_render_format_defaults_to_ascii(capsys):
    assert run(capsys, "render", "Z6") == run(capsys, "render", "Z6", "--format", "ascii")


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err


def test_missing_table_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", f"table:{tmp_path / 'missing.txt'}")
    assert code == 1 and not out and _one_error_line(err)
    assert "cannot read" in err


def test_missing_action_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", f"sd:Z2,Z3,{tmp_path / 'missing.txt'}")
    assert code == 1 and not out and _one_error_line(err)
    assert "cannot read" in err


def test_table_row_with_a_non_integer_is_named(capsys, tmp_path):
    path = tmp_path / "z2.txt"
    path.write_text("2\n0 1\n1 x\n")
    code, out, err = run(capsys, "analyze", f"table:{path}")
    assert code == 1 and not out and _one_error_line(err)
    assert "row 1" in err


def test_action_line_with_a_non_integer_is_named(capsys, tmp_path):
    path = tmp_path / "action.txt"
    path.write_text("0 1 2\n0 x 2\n")
    code, out, err = run(capsys, "analyze", f"sd:Z2,Z3,{path}")
    assert code == 1 and not out and _one_error_line(err)
    assert "action line 1" in err


def test_table_names_line_with_a_wrong_count_is_named(capsys, tmp_path):
    path = tmp_path / "z2.txt"
    for names in ("a", "a b c"):
        path.write_text(f"2\n0 1\n1 0\nnames: {names}\n")
        code, out, err = run(capsys, "analyze", f"table:{path}")
        assert code == 1 and not out and _one_error_line(err)
        assert "names:" in err


def test_table_names_line_with_a_repeat_is_named(capsys, tmp_path):
    path = tmp_path / "z2.txt"
    path.write_text("2\n0 1\n1 0\nnames: a a\n")
    code, out, err = run(capsys, "analyze", f"table:{path}")
    assert code == 1 and not out and _one_error_line(err)
    assert "names:" in err


def test_table_line_after_the_names_line_is_named(capsys, tmp_path):
    path = tmp_path / "z2.txt"
    path.write_text("2\n0 1\n1 0\nnames: a b\nextra\n")
    code, out, err = run(capsys, "analyze", f"table:{path}")
    assert code == 1 and not out and _one_error_line(err)
    assert "'extra'" in err


def test_table_negative_order_is_refused(capsys, tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("-1\n")
    code, out, err = run(capsys, "analyze", f"table:{path}")
    assert code == 1 and not out and _one_error_line(err)
    assert "first line must be a positive order" in err


def test_table_zero_order_is_refused(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("0\n")
    code, out, err = run(capsys, "construct", f"table:{path}")
    assert code == 1 and not out and _one_error_line(err)
    assert "first line must be a positive order, got '0'" in err


def test_ladder_path_holds_no_table_at_the_order_cap(capsys):
    # construct and verify read O(n) products through Group.mul; the n x n
    # table of Z2046 or D1023 alone would take tens of MB
    tracemalloc.start()
    try:
        for spec in ("Z2046", "D1023"):
            assert run(capsys, "construct", spec, "--format", "json")[0] == 0
            assert run(capsys, "verify", spec)[0] == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_root_rule_holds_no_table_at_the_order_cap(capsys):
    # orders 2 mod 4, and orders 4m whose product test fails, are decided
    # before the rows are read: the n x n table would take tens of MB
    tracemalloc.start()
    try:
        for which in ("transversal", "count", "completemapping"):
            for spec in ("Z2046", "D1023", "Z2048", "Dic511"):
                code, out, _ = run(capsys, "oracle", which, spec, "--guard-override", "2048",
                                   "--format", "json")
                assert code == 0, (which, spec)
                data = json.loads(out)
                assert data.get("count", 0) == 0 and not data.get("present"), (which, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _src_env():
    src = str(Path(ntk.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


_NO_NUMPY_SCRIPT = """
import sys
import ntk.cli
assert "numpy" not in sys.modules, "import ntk.cli"
for argv in sys.argv[2:]:
    assert ntk.cli.main(argv.split("|")) == 0, argv
    assert "numpy" not in sys.modules, argv
# a table that comes in is checked in pure Python too
assert ntk.cli.main(["construct", "table:" + sys.argv[1]]) == 1
assert "numpy" not in sys.modules, "table:"
"""


def test_no_route_imports_numpy(tmp_path):
    # ntk needs only the standard library: neither the import, the built-in
    # groups nor the check of a table that comes in loads numpy.
    loop = tmp_path / "loop.txt"
    loop.write_text("5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n")
    twisted = DATA / "z6_on_z13_by_3.txt"
    calls = ["construct|Z2046|--format|json", "verify|D1023", "analyze|S3 x Z85",
             "oracle|count|Z8", "oracle|completemapping|Dic2", "render|S3",
             f"construct|sd:Z6,Z13,{twisted}", "catalog|--max-order|30"]
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT, str(loop), *calls],
                          env=_src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(x*a)*y != x*(a*y)" in proc.stderr


# the argv shapes of ordinary calls, the benchmark's among them: each is
# read by the short reader, without argparse
_ORDINARY_ARGV = [["construct", "Z6"], ["construct", "S3 x Z167", "--format", "json"],
                  ["verify", "D505", "--format=json"],
                  ["oracle", "completemapping", "Z2 x Z4", "--format", "json"],
                  ["catalog", "--max-order", "200", "--format", "json"]]


def test_import_and_construct_load_neither_argparse_nor_gettext():
    # pytest has loaded both already, so the calls are made in a fresh process
    script = ("import json, sys, ntk.cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert ntk.cli.main(argv) == 0, argv\n"
              "print(sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(_ORDINARY_ARGV)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # pytest has loaded both already, so the import is made in a fresh process
    script = ("import sys, ntk.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_SEQUENCE_SCRIPT = """
import contextlib, io, json, sys
import ntk.cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ntk.cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""

# calls whose options would show up in the next call's output if the
# reused parser kept them
_SEQUENCE = [["construct", "Z6", "--ordering", "1,c4,c2", "--format", "json"],
             ["construct", "Z6"],
             ["construct", "Z6", "--ordering"],
             ["oracle", "count", "Z5", "--format", "json"],
             ["catalog", "--max-order", "12"]]


def test_reused_parser_carries_nothing_between_calls():
    env = _src_env()
    proc = subprocess.run([sys.executable, "-c", _SEQUENCE_SCRIPT, json.dumps(_SEQUENCE)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    in_one_process = json.loads(proc.stdout)
    alone = []
    for argv in _SEQUENCE:
        one = subprocess.run([sys.executable, "-m", "ntk.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        alone.append([one.returncode, one.stdout])
    assert [code for code, _ in alone] == [0, 0, 1, 0, 0]
    assert in_one_process == alone


def test_closed_stdout_exits_quietly():
    # The Z2046 JSON is far larger than a pipe's buffer, so the writer is
    # still writing when the reader goes. Unbuffered, a write cut short
    # would lose its rest without raising if it were longer than PIPE_BUF.
    for unbuffered in (None, "1"):
        env = _src_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen([sys.executable, "-m", "ntk.cli", "construct", "Z2046",
                                 "--format", "json"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1, f"PYTHONUNBUFFERED={unbuffered}"
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


def test_closed_stdout_without_a_descriptor(monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["verify", "Z6", "--format", "json"]) == 1


_JSON_EDGES = [
    {}, [], {"a": []}, {"a": {}}, [[]], [[], []], [[[]]],
    [1, True, 2], [True, False], [[1, 2], [3, True]], [0, -1, 10 ** 30],
    [None, 1.5, -0.0, 1e300, float("nan"), float("inf"), -float("inf")],
    ["é", "snow ☃", 'quo"te', "back\\slash", "tab\tnew\nline", "\x00", ""],
    {"é": 'k"ey', "n": None, "f": 2.5, "b": False},
    [[-1, 0], [10, -30]], [[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1], [2, 3], []], [[1, 2], (3, 4)], ([1], [2]),
    [[1, "a"], [2, "b"]], [[[1, 2], [3, 4]], [[5, 6], [7, 8]]], [[1, 2], [3, 4], 5],
    {"cells": [[0, 1, 1], [1, 2, 3]], "ordering": None, "verified": True},
]


@pytest.mark.parametrize("obj", _JSON_EDGES, ids=range(len(_JSON_EDGES)))
def test_json_writer_matches_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


@pytest.fixture
def emitted(monkeypatch):
    """The payloads that ``_emit`` prints, in order."""
    payloads = []
    real = cli._emit

    def record(payload, fmt):
        payloads.append(payload)
        real(payload, fmt)

    monkeypatch.setattr(cli, "_emit", record)
    return payloads


def _assert_printed_as_json_dumps(capsys, emitted, *argv):
    before = len(emitted)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and len(emitted) == before + 1, argv
    assert out == json.dumps(emitted[-1], indent=2) + "\n", argv


CONSTRUCT_LARGE = ["Z2030", "Z1012", "Z488", "Z992", "D505", "Dic125", "S3 x Z167",
                   "Z2 x Z251"]


def test_json_output_is_json_dumps_on_every_payload(capsys, emitted):
    ladder = 0
    for entry in builtin_catalog(200):
        group = entry.group
        try:
            result = construction.near_transversal(group)
        except (OrderTooLarge, TooLarge):
            continue
        payload = construction.result_json(result, entry.label)
        assert cli._json(payload) == json.dumps(payload, indent=2), entry.label
        if result.witness is not None:
            ladder += 1
            payload = {"group": entry.label, **graphs.check_witness(result.witness)}
            assert cli._json(payload) == json.dumps(payload, indent=2), entry.label
    assert ladder == 197
    for spec in CONSTRUCT_LARGE:
        _assert_printed_as_json_dumps(capsys, emitted, "construct", spec)
        _assert_printed_as_json_dumps(capsys, emitted, "verify", spec)
    _assert_printed_as_json_dumps(capsys, emitted, "catalog", "--max-order", "200")
    for spec in ("Z6", "Dic2"):
        _assert_printed_as_json_dumps(capsys, emitted, "analyze", spec)
    for which in ("transversal", "count", "maxpartial", "completemapping"):
        for spec in ("Z2", "Z5", "D3"):
            _assert_printed_as_json_dumps(capsys, emitted, "oracle", which, spec)


# ---------------------------------------------------------------------------
# the argparse parser that ntk used before its command table, kept only as
# the reference that ``cli.parse_args`` is compared with

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ntk",
        description="Near transversals of group-based latin squares: "
                    "construct, verify, render, and cross-check with oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *, spec=True, which=None, ordering=False, guard=False,
                formats=("text", "json")):
        p = sub.add_parser(name, help=help)
        if which:
            p.add_argument("which", choices=which)
        if spec:
            p.add_argument("spec", help="group spec, e.g. 'Z6', 'S3 x Z3', 'Dic3', 'table:path'")
        p.add_argument("--format", default=formats[0], choices=formats)
        if ordering:
            p.add_argument("--ordering", default=None,
                           help="comma-separated element names overriding the harmonious ordering")
        if guard:
            p.add_argument("--guard-override", default=None, type=int, dest="guard",
                           help="raise/lower the search guards for this invocation")
        return p

    command("analyze", "order, Sylow-2 class, decomposition parameters")
    command("construct", "emit a verified near transversal", ordering=True)
    command("verify", "run the structural witness checks", ordering=True)
    command("oracle", "exhaustive baselines for cross-checking",
            which=["transversal", "count", "maxpartial", "completemapping"], guard=True)
    command("render", "print the table with witness cells marked", ordering=True,
            formats=("ascii", "latex"))
    cat = command("catalog", "run construct+verify across the built-in catalog", spec=False)
    cat.add_argument("--max-order", type=int, default=20)
    cat.add_argument("--filter", default="all",
                     choices=["all", "odd", "even", "construction"])
    return parser


_REFERENCE = build_parser()
# Python 3.13's argparse reads -h with a value attached (-hx, -h=h) otherwise
_AS_ARGPARSE_DID = pytest.mark.skipif(sys.version_info >= (3, 13),
                                      reason="the reference is argparse of Python 3.10-3.12")


def _outcome(parse, argv):
    """("accepted", fields), ("help", stdout) or ("refused", stderr), then
    what was written to the stream that should have stayed empty."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return "accepted", parse(argv), out.getvalue() + err.getvalue()
        except SystemExit as exc:
            if exc.code == 0:
                return "help", out.getvalue(), err.getvalue()
            return "refused", err.getvalue(), out.getvalue()


def _assert_parsed_as_argparse_did(argv):
    kind, value, stray = _outcome(cli.parse_args, argv)
    ref_kind, ref_value, _ = _outcome(lambda a: vars(_REFERENCE.parse_args(a)), argv)
    assert (kind, stray) == (ref_kind, ""), argv
    if kind == "accepted":
        assert value == ref_value, argv
    elif kind == "help":
        assert value.startswith("usage: ntk"), argv
    else:
        lines = value.splitlines()
        assert len(lines) == 2 and lines[0].startswith("usage: ntk"), argv
        assert re.fullmatch(r"ntk( [a-z]+)?: error: .+", lines[1]), argv


_FLAGS = ["--format", "--ordering", "--guard-override", "--max-order", "--filter", "--help"]
# every value a choice or int option meets, good or bad; "--" after "=" is
# left out (see test_double_dash_after_equals_is_a_value)
_VALUES = ["json", "text", "ascii", "latex", "all", "odd", "even", "construction", "transversal",
           "count", "JSON", "7", "-3", " 12 ", "+5", "1_0", "٣", "0x10", "x", "", "1,c",
           "-1,c", "a b", "Z6"]
_flag = st.builds(lambda flag, size: flag[:size], st.sampled_from(_FLAGS), st.integers(2, 16))
_token = st.one_of(
    st.sampled_from([*cli.COMMANDS, "bogus", "Z6", "S3 x Z3", "completemapping", "maxpartial"]),
    st.sampled_from(["--", "-h", "-hh", "-hx", "-h=h", "-h=", "-", "-1", "-.5", "-x", "-x y",
                     "--bogus", "--bogus=1", "---format"]),
    _flag,
    st.builds("{}={}".format, _flag, st.sampled_from(_VALUES)),
    st.sampled_from(_VALUES),
)
_argv = st.builds(lambda head, rest: head + rest,
                  st.lists(st.sampled_from(list(cli.COMMANDS)), max_size=1),
                  st.lists(_token, max_size=7))


@_AS_ARGPARSE_DID
@settings(max_examples=1500, deadline=None)
@given(_argv)
def test_parse_args_reads_argv_as_argparse_did(argv):
    _assert_parsed_as_argparse_did(argv)


@_AS_ARGPARSE_DID
@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--he"], ["-hh"], ["-hx"], ["--help=x"], ["--bogus"], ["--", "construct", "Z6"],
    ["--bogus", "construct", "Z6"], ["--bogus", "construct", "Z6", "-h"], ["bogus", "Z6"],
    ["construct"], ["construct", "Z6", "Z7"], ["construct", "-h", "--format", "bad"],
    ["construct", "--format", "bad", "-h"], ["construct", "--format"], ["construct", "-1"],
    ["construct", "Z6", "-1"], ["construct", "--", "-h"], ["construct", "--", "Z6", "--"],
    ["construct", "Z6", "--"], ["construct", "Z6", "--format", "json", "--"], ["catalog", "--"],
    ["construct", "Z6", "--form", "json", "--f=text"], ["construct", "Z6", "--=x"],
    ["construct", "Z6", "--ordering", "-1,c"], ["construct", "Z6", "--ordering", "-1 c"],
    ["construct", "--ordering", "1,c", "Z6", "--ordering", "1"], ["catalog", "--f", "json"],
    ["catalog", "-h", "--f"], ["catalog", "--max", "-3", "--fi=odd"],
    ["catalog", "--max-order", "x"], ["catalog", "--max-order=", "5"],
    ["catalog", "--max-order", "9" * 5000], ["oracle", "count", "--format", "json", "Z5"],
    ["oracle", "--", "count", "Z5"], ["oracle", "count", "--", "Z5"], ["oracle", "bogus", "-h"],
    ["oracle", "-h", "bogus"], ["oracle", "count", "Z5", "extra", "-h"],
    ["render", "Z6", "--format=json"],
])
def test_parse_args_edge_cases(argv):
    _assert_parsed_as_argparse_did(argv)


def test_double_dash_after_equals_is_a_value(capsys):
    # argparse on Python 3.10 and 3.11 read ``--opt=--`` as an empty list,
    # which ``catalog --max-order=--`` then met as a TypeError
    assert cli.parse_args(["construct", "Z6", "--ordering=--"])["ordering"] == "--"
    for argv in (["construct", "Z6", "--ordering=--"], ["catalog", "--max-order=--"],
                 ["construct", "Z6", "--format=--"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and "Traceback" not in err, argv
    # refused by the subcommand's own parser, naming the option
    err = run(capsys, "catalog", "--max-order=--")[2]
    assert err.splitlines()[-1].startswith("ntk catalog: error: argument --max-order")


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_lists_every_argument_of_the_table(capsys, command):
    code, out, err = run(capsys, *filter(None, [command, "--help"]))
    assert code == 0 and not err
    if command is None:
        assert all(f"  {name} " in out for name in cli.COMMANDS)
        return
    _, positionals, options = cli.COMMANDS[command]
    assert out.startswith(f"usage: ntk {command} [-h]")
    for name, choices, _ in positionals:
        assert ("{" + ",".join(choices) + "}" if choices else name) in out
    for flag, (_, _, choices, _, text) in options.items():
        assert flag in out and text in out and all(choice in out for choice in choices or ())


def test_each_handler_takes_the_fields_of_its_command():
    assert cli.HANDLERS.keys() == cli.COMMANDS.keys()
    for command, (_, positionals, options) in cli.COMMANDS.items():
        fields = {name for name, _, _ in positionals} | {dest for dest, *_ in options.values()}
        assert set(inspect.signature(cli.HANDLERS[command]).parameters) == fields, command


CATALOG_OUTPUTS = DATA / "catalog_outputs.json"


def _catalog_calls():
    """The pinned calls: construct (json and text), analyze and verify on
    every catalog group up to order 200, then the catalog itself."""
    for entry in builtin_catalog(200):
        yield ["construct", entry.label, "--format", "json"]
        yield ["construct", entry.label]
        yield ["analyze", entry.label, "--format", "json"]
        yield ["verify", entry.label, "--format", "json"]
    yield ["catalog", "--max-order", "200", "--format", "json"]


def _output_digest(argv):
    """SHA-256 of the exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalog_outputs_are_pinned():
    # Regenerate with `PYTHONPATH=src python tests/test_cli.py`, only when an
    # output is meant to change.
    pinned = json.loads(CATALOG_OUTPUTS.read_text())
    calls = list(_catalog_calls())
    assert [shlex.join(argv) for argv in calls] == list(pinned)
    for argv in calls:
        call = shlex.join(argv)
        assert _output_digest(argv) == pinned[call], f"output of `ntk {call}` changed"


if __name__ == "__main__":
    CATALOG_OUTPUTS.write_text(json.dumps(
        {shlex.join(argv): _output_digest(argv) for argv in _catalog_calls()}, indent=1) + "\n")
