import pytest

import ntk
from ntk.catalog import NAMED_GROUPS, builtin_catalog
from ntk.errors import InvalidAction, ParseError
from ntk.groupspec import parse_group_spec


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
    # a label the grammar reads as a product (Z2xZ2, S3xZ3) gives that direct
    # product with the grammar's element names; every other label gives the
    # catalog's own group
    for entry in builtin_catalog(200):
        group, label = parse_group_spec(entry.label)
        if "x" in entry.label and entry.label not in NAMED_GROUPS:
            assert (group.n, label) == (entry.group.n, entry.label.replace("x", " x "))
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
