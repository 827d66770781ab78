import os
import subprocess
import sys
from pathlib import Path

import pytest

import ntk
from ntk import groupspec
from ntk.catalog import builtin_catalog
from ntk.errors import InvalidAction, ParseError
from ntk.groupspec import NAMED_GROUPS, parse_group_spec


def test_atoms():
    for spec, order in [("Z6", 6), ("D4", 8), ("Dic3", 12), ("S3", 6), ("S4", 24)]:
        group, label = parse_group_spec(spec)
        assert group.n == order
        assert label == spec


def test_case_and_whitespace_insensitive():
    for spec in ("s3 x z3", "S3xZ3", "  S3 X Z3 "):
        group, label = parse_group_spec(spec)
        assert group.n == 18
        assert label == "S3 x Z3"


def test_every_catalog_label_is_a_spec():
    # every label names the catalog's own group, except S3xZ<q>: the grammar
    # reads it as the direct product S3 x Z<q>, while the catalog checks the
    # presentation Z2 twisted over Z<q> x Z3
    for entry in builtin_catalog(200):
        group, label = parse_group_spec(entry.label)
        if entry.label.startswith("S3xZ"):
            assert (group.n, label) == (entry.group.n, entry.label.replace("x", " x "))
        elif "x" in entry.label and entry.label not in NAMED_GROUPS:
            assert (group, label) == (entry.group, entry.label.replace("x", " x "))
        else:
            assert (group, label) == (entry.group, entry.label)
    assert parse_group_spec(" dih(z3xz3) ") == (dict(builtin_catalog(18))["Dih(Z3xZ3)"],
                                                "Dih(Z3xZ3)")


def test_products_fold_left():
    group, label = parse_group_spec("Z2 x Z2 x Z3")
    assert group.n == 12
    assert label == "Z2 x Z2 x Z3"


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_group_spec("Z6 x Q8")
    assert "Q8" in str(err.value)
    assert err.value.position > 0


def test_empty_spec():
    with pytest.raises(ParseError):
        parse_group_spec("   ")


def test_order_cap():
    with pytest.raises(ParseError, match="order"):
        parse_group_spec("Z5000")


def test_product_beyond_the_cap_is_refused_before_it_is_built(monkeypatch):
    build = groupspec.direct_product

    def bounded(a, b, label=""):
        assert a.n * b.n <= groupspec.MAX_SPEC_ORDER, (a.n, b.n)
        return build(a, b, label=label)

    monkeypatch.setattr(groupspec, "direct_product", bounded)
    for spec, order in (("Z2048 x Z2048", 2048 * 2048), ("S6 x S6", 720 * 720),
                        ("Z64 x Z32 x Z2", 4096)):
        with pytest.raises(ParseError, match=f"product order {order} beyond 2048") as err:
            parse_group_spec(spec)
        assert err.value.position == 0
    assert parse_group_spec("Z64 x Z32")[0].n == 2048


def test_the_grammar_does_not_load_the_catalog():
    src = str(Path(ntk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, ntk.groupspec; print('ntk.catalog' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_table_spec(tmp_path):
    path = tmp_path / "z3.txt"
    ntk.save_group(ntk.cyclic(3), path)
    group, label = parse_group_spec(f"table:{path}")
    assert group.n == 3
    assert label.startswith("table:")


def test_sd_spec(tmp_path):
    action = tmp_path / "inv.txt"
    action.write_text("0 1 2\n0 2 1\n0 1 2\n0 2 1\n")
    group, label = parse_group_spec(f"sd:Z4,Z3,{action}")
    assert group.n == 12
    assert label == "Z4:Z3"
    assert ntk.order_signature(group) == ntk.order_signature(ntk.dicyclic(3))


def test_sd_spec_invalid_action(tmp_path):
    action = tmp_path / "bad.txt"
    action.write_text("0 1 2\n1 0 2\n")
    with pytest.raises(InvalidAction):
        parse_group_spec(f"sd:Z2,Z3,{action}")


def test_sd_needs_three_parts():
    with pytest.raises(ParseError):
        parse_group_spec("sd:Z4,Z3")
