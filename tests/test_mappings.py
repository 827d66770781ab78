import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntk
from ntk.catalog import builtin_catalog
from ntk.errors import (InvalidInput, InvalidOrdering, NotPermutation, OddOrderRequired,
                        OrderTooLarge)
from ntk.groups import CYCLIC_NONTRIVIAL, _abelianized_product_is_identity
from ntk.groupspec import parse_group_spec
from ntk.latin import _search


def test_identity_is_complete_for_odd_order():
    for entry in builtin_catalog(15):
        group = entry.group
        if group.n % 2 == 1:
            assert ntk.is_complete_mapping(group, range(group.n))


def test_specific_mapping_on_klein_group():
    group = ntk.direct_product(ntk.cyclic(2, "u"), ntk.cyclic(2, "v"))
    # indices: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1); maps 00->00 01->10 10->11 11->01
    assert ntk.is_complete_mapping(group, (0, 2, 3, 1))
    assert not ntk.is_complete_mapping(group, range(4))  # g+g = 0 for all g


def test_is_complete_mapping_rejects_non_permutation():
    with pytest.raises(NotPermutation):
        ntk.is_complete_mapping(ntk.cyclic(3), (0, 0, 1))


def test_element_indices_must_be_ints_in_range():
    # a value equal to an int in [0, n) is read as it; 1.5, "1", -1 and n
    # are refused, where int() used to truncate or parse them
    z3 = ntk.cyclic(3)
    assert ntk.is_complete_mapping(z3, [0, 1.0, 2.0])
    assert ntk.verify_harmonious(z3, [0, 1.0, 2]) == (True, None)
    for bad in (1.5, "1", -1, 3):
        with pytest.raises(NotPermutation, match="sigma entry"):
            ntk.is_complete_mapping(z3, [0, bad, 2])
        with pytest.raises(NotPermutation, match="ordering entry"):
            ntk.verify_harmonious(z3, [0, bad, 2])
    with pytest.raises(NotPermutation, match=r"^sigma entry 1\.5 is not an int in \[0, 3\)$"):
        ntk.is_complete_mapping(z3, [0, 1.5, 2])
    with pytest.raises(NotPermutation, match=r"^ordering entry 1\.7 is not an int in \[0, 3\)$"):
        ntk.verify_harmonious(z3, [0, 1.7, 2])
    z9 = ntk.cyclic(9)
    assert ntk.harmonious_ordering(z9, [0, 3.0, 6]) == ntk.harmonious_ordering(z9, [0, 3, 6])
    with pytest.raises(InvalidInput, match="subgroup element '3'"):
        ntk.harmonious_ordering(z9, [0, "3", 6])
    with pytest.raises(InvalidInput, match="subgroup element 9"):
        ntk.verify_harmonious(z9, [0, 3, 6], subgroup=[0, 3, 6, 9])


def test_given_ladder_ordering_must_hold_ints_in_range():
    dec = ntk.decompose(ntk.cyclic(6))
    ordering = ntk.harmonious_ordering(dec.group, dec.fixed_part)
    assert ntk.build_witness(dec, [float(g) for g in ordering]).ordering == ordering
    for bad in (ordering[1] + 0.5, str(ordering[1]), -1, 6):
        with pytest.raises(InvalidOrdering, match="ordering entry"):
            ntk.build_witness(dec, (ordering[0], bad, *ordering[2:]))


def test_find_absent_for_z6():
    assert ntk.find_complete_mapping(ntk.cyclic(6)) is None


def test_find_present_for_klein_group():
    group = ntk.direct_product(ntk.cyclic(2, "u"), ntk.cyclic(2, "v"))
    sigma = ntk.find_complete_mapping(group)
    assert sigma is not None
    assert ntk.is_complete_mapping(group, sigma)


def test_find_present_for_z7():
    sigma = ntk.find_complete_mapping(ntk.cyclic(7))
    assert sigma is not None
    assert ntk.is_complete_mapping(ntk.cyclic(7), sigma)


def test_find_is_lexicographically_first():
    group = ntk.direct_product(ntk.cyclic(2, "u"), ntk.cyclic(2, "v"))
    sigma = ntk.find_complete_mapping(group)
    smaller = [p for p in _all_complete_mappings(group) if p < sigma]
    assert not smaller


def _all_complete_mappings(group):
    import itertools
    out = []
    for perm in itertools.permutations(range(group.n)):
        products = {group.mul(g, perm[g]) for g in range(group.n)}
        if len(products) == group.n:
            out.append(perm)
    return out


def test_pinned_search_finds_the_unpinned_first_mapping_to_order_16():
    for entry in builtin_catalog(16):
        group = entry.group
        sigma = ntk.find_complete_mapping(group)
        if sigma is not None:
            assert sigma == _search(group.table), entry.label


def test_find_guard():
    with pytest.raises(OrderTooLarge):
        ntk.find_complete_mapping(ntk.cyclic(18))


def test_presence_matches_sylow_class_small():
    for entry in builtin_catalog(12):
        group = entry.group
        present = ntk.find_complete_mapping(group) is not None
        cyclic_sylow = ntk.sylow2(group).classification == CYCLIC_NONTRIVIAL
        assert present == (not cyclic_sylow), entry.label



def test_abelianized_product_matches_hall_paige_criterion():
    # Hall and Paige: the product of all elements lies in G' exactly when the
    # Sylow 2-subgroup is trivial or non-cyclic.
    groups = [(e.label, e.group) for e in builtin_catalog(200)]
    groups += [(spec, parse_group_spec(spec)[0]) for spec in
               ("S4", "S5", "Z2 x Z2 x Z2 x Z2", "D8 x Z2", "Z2 x Z1023")]
    for label, group in groups:
        expected = ntk.sylow2(group).classification != CYCLIC_NONTRIVIAL
        assert _abelianized_product_is_identity(group) == expected, label


# ---------------------------------------------------------------------------
# harmonious orderings

def test_z3_closed_form_matches_expected_products():
    z3 = ntk.cyclic(3)
    ordering = ntk.harmonious_ordering(z3)
    assert ordering == (0, 1, 2)  # 1, c, c2
    products = [z3.mul(ordering[i], ordering[(i + 1) % 3]) for i in range(3)]
    assert products == [1, 0, 2]  # c, 1, c2: pairwise distinct


def test_z5_closed_form_verifies():
    z5 = ntk.cyclic(5)
    ordering = ntk.harmonious_ordering(z5)
    assert ordering == tuple(range(5))
    ok, _ = ntk.verify_harmonious(z5, ordering)
    assert ok


def test_trivial_group_ordering():
    one = ntk.cyclic(1)
    assert ntk.harmonious_ordering(one) == (0,)
    ok, _ = ntk.verify_harmonious(one, (0,))
    assert ok


def test_even_order_rejected():
    with pytest.raises(OddOrderRequired):
        ntk.harmonious_ordering(ntk.cyclic(6))


def test_verify_reports_collision():
    z9 = ntk.cyclic(9)
    # identity order 0..8 is harmonious (successor sums 2i+1 are distinct mod 9)
    ok, _ = ntk.verify_harmonious(z9, range(9))
    assert ok
    # swapping two entries of the Z7 identity ordering creates a collision
    z7 = ntk.cyclic(7)
    bad = (0, 2, 1, 3, 4, 5, 6)
    ok, collision = ntk.verify_harmonious(z7, bad)
    assert not ok and collision.kind == "successor"


def test_reversed_z3_ordering_is_harmonious():
    z3 = ntk.cyclic(3)
    ok, _ = ntk.verify_harmonious(z3, (0, 2, 1))
    assert ok


def test_subgroup_ordering_inside_ambient_group():
    z6 = ntk.cyclic(6)
    ordering = ntk.harmonious_ordering(z6, {0, 2, 4})
    assert set(ordering) == {0, 2, 4}
    ok, _ = ntk.verify_harmonious(z6, ordering, {0, 2, 4})
    assert ok


def test_lift_handles_non_cyclic_subgroups():
    for orders in ((3, 3), (3, 3, 3), (9, 3), (5, 5), (3, 3, 9)):
        group = ntk.cyclic(orders[0])
        for q in orders[1:]:
            group = ntk.direct_product(group, ntk.cyclic(q))
        ordering = ntk.harmonious_ordering(group)
        assert ordering[0] == group.identity
        ok, collision = ntk.verify_harmonious(group, ordering)
        assert ok, (orders, collision)


def test_verify_refuses_a_non_subgroup():
    z7 = ntk.cyclic(7)
    with pytest.raises(NotPermutation):  # no subgroup given: the whole group
        ntk.verify_harmonious(z7, (0, 1, 2))
    with pytest.raises(InvalidInput):
        ntk.verify_harmonious(z7, (0, 1, 2), {0, 1, 2})
    with pytest.raises(InvalidInput):
        ntk.harmonious_ordering(z7, {0, 1, 2})


def test_odd_catalog_orderings_verify():
    for entry in builtin_catalog(27):
        group = entry.group
        if group.n % 2 == 0:
            continue
        ordering = ntk.harmonious_ordering(group)
        ok, collision = ntk.verify_harmonious(group, ordering)
        assert ok, (entry.label, collision)


@settings(max_examples=25)
@given(st.data())
def test_cyclic_shifts_stay_harmonious(data):
    odd_entries = [e for e in builtin_catalog(15) if e.group.n % 2 == 1]
    group = data.draw(st.sampled_from(odd_entries)).group
    ordering = ntk.harmonious_ordering(group)
    shift = data.draw(st.integers(min_value=0, max_value=group.n - 1))
    rotated = ordering[shift:] + ordering[:shift]
    ok, _ = ntk.verify_harmonious(group, rotated)
    assert ok
