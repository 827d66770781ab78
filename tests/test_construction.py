import pytest

import ntk
from ntk import cli, construction, mappings
from ntk.catalog import _s3_times_cyclic, builtin_catalog
from ntk.construction import BRANCH_COMPLETE_MAPPING, BRANCH_CONSTRUCTION
from ntk.errors import InvalidOrdering, NotApplicable, OrderTooLarge
from ntk.groups import CYCLIC_NONTRIVIAL, is_subgroup
from ntk.groupspec import parse_group_spec


def cyclic_nontrivial_entries(max_order):
    return [e for e in builtin_catalog(max_order)
            if ntk.sylow2(e.group).classification == CYCLIC_NONTRIVIAL]


# ---------------------------------------------------------------------------
# decompose

def _odd_part(group):
    """H, the elements of odd order, computed apart from ``decompose``."""
    orders = ntk.element_orders(group)
    return frozenset(g for g in group.elements() if orders[g] % 2 == 1)


def _twist(dec):
    """Conjugation by the involution ``sylow_gen^(k/2)``."""
    return ntk.conjugation(dec.group, dec.gen_powers[dec.sylow_order // 2])


def test_decompose_order18_words():
    group = _s3_times_cyclic(3)
    dec = ntk.decompose(group)
    assert dec.sylow_order == 2 and dec.odd_order == 9 and dec.fixed_order == 3
    c, d = group.index_of("c"), group.index_of("d")
    assert _odd_part(group) == ntk.subgroup_closure(group, {c, d})
    assert dec.fixed_part == ntk.subgroup_closure(group, {c})
    assert len(_odd_part(group) - dec.fixed_part) == 6


def test_decompose_z6():
    group = ntk.cyclic(6)
    dec = ntk.decompose(group)
    assert dec.sylow_order == 2 and dec.odd_order == 3
    assert _odd_part(group) == {0, 2, 4}
    assert _twist(dec) == tuple(range(6))  # abelian: trivial twist
    assert dec.fixed_order == 3 and not _odd_part(group) - dec.fixed_part


def test_decompose_s3():
    group = ntk.symmetric(3)
    dec = ntk.decompose(group)
    assert dec.sylow_order == 2 and dec.odd_order == 3
    assert dec.fixed_part == {group.identity}
    assert dec.fixed_order == 1 and len(_odd_part(group) - dec.fixed_part) == 2


def test_decompose_not_applicable():
    with pytest.raises(NotApplicable):
        ntk.decompose(ntk.cyclic(15))  # trivial Sylow
    with pytest.raises(NotApplicable):
        ntk.decompose(ntk.dicyclic(2))  # non-cyclic Sylow


# Large groups of every witness shape: ladder only, prisms only, both, a
# generator of order 4, and a non-cyclic fixed part (Z3 x Z3), whose
# ordering is lifted over a cyclic quotient of order 3.
DECOMPOSITION_SPECS = ("Z2046", "D511", "S3 x Z85", "Dic127", "Z2 x Z255",
                       "Z2 x Z3 x Z3")


def _generating_set(group):
    """Greedy generators: each element not yet generated joins the set."""
    gens, reached = [], {group.identity}
    for g in group.elements():
        if g not in reached:
            gens.append(g)
            reached = ntk.subgroup_closure(group, gens)
    return gens


def test_decomposition_identities_across_catalog():
    """The facts ``decompose`` and ``build_witness`` take from the group
    axioms without re-checking them hold at every witness shape."""
    groups = [e.group for e in cyclic_nontrivial_entries(200)]
    groups += [parse_group_spec(spec)[0] for spec in DECOMPOSITION_SPECS]
    for group in groups:
        dec = ntk.decompose(group)
        k, l, m = dec.sylow_order, dec.odd_order, dec.fixed_order
        odd, fixed = _odd_part(group), dec.fixed_part
        moved, twist = odd - fixed, _twist(dec)
        assert group.n == k * l and len(odd) == l and m % 2 == 1 and l % m == 0, group.label
        for g in _generating_set(group):
            assert {group.conjugate(g, h) for h in odd} == odd
        assert set(dec.gen_powers) & odd == {group.identity}
        assert all(twist[twist[h]] == h for h in odd)
        assert is_subgroup(group, fixed)
        conj = ntk.conjugation(group, dec.sylow_gen)
        assert {conj[h] for h in fixed} == fixed
        assert {conj[f] for f in moved} == moved
        assert {group.mul(f, f) for f in moved} == moved
        paired = [f for pair in dec.orbit_pairs for f in pair]
        assert len(paired) == len(moved) and set(paired) == moved
        powers = dec.gen_powers
        fixed_block = {group.mul(p, h) for p in powers for h in fixed}
        moved_block = {group.mul(p, f) for p in powers for f in moved}
        assert not fixed_block & moved_block
        assert len(fixed_block | moved_block) == group.n
        assert len(set(ntk.build_witness(dec).all_cells)) == 2 * group.n
    assert len(groups) == 197 + len(DECOMPOSITION_SPECS)


def test_gen_powers_are_the_powers_of_the_sylow_generator():
    for entry in cyclic_nontrivial_entries(60):
        group = entry.group
        dec = ntk.decompose(group)
        powers = [group.identity]
        for _ in range(dec.sylow_order - 1):
            powers.append(group.mul(powers[-1], dec.sylow_gen))
        assert dec.gen_powers == tuple(powers), entry.label


def test_orbit_pairs_use_smaller_index_first():
    dec = ntk.decompose(ntk.symmetric(3))
    twist = _twist(dec)
    for rep, partner in dec.orbit_pairs:
        assert rep < partner
        assert twist[rep] == partner and twist[partner] == rep


# ---------------------------------------------------------------------------
# build_witness

def test_witness_cells_order18():
    group = _s3_times_cyclic(3)
    dec = ntk.decompose(group)
    witness = ntk.build_witness(dec)
    e = group.identity
    bc = group.index_of("bc")
    c2 = group.index_of("c2")
    assert witness.ladder_cells[0] == (e, e)
    assert witness.ladder_cells[6] == (e, bc)  # shifted cell 0, after km = 6
    assert group.mul(e, bc) == bc  # shown symbol
    assert witness.ladder_cells[2] == (c2, c2)
    assert group.mul(c2, c2) == group.index_of("c")


def test_witness_sizes_z6():
    dec = ntk.decompose(ntk.cyclic(6))
    witness = ntk.build_witness(dec)
    assert len(witness.ladder_cells) == 12  # 2km of the 36 cells
    assert not witness.prism_cells


def test_witness_sizes_order18():
    dec = ntk.decompose(_s3_times_cyclic(3))
    witness = ntk.build_witness(dec)
    assert len(witness.ladder_cells) == 12
    assert len(witness.prism_cells) == 24
    assert len(set(witness.all_cells)) == 36  # always 2n


# the two families as the earlier four-family layout held them: ladder
# diagonal then shifted cells, prism cells pair by pair in orbit_pairs order
WITNESS_CELLS = {
    "Z6": (
        ((0, 0), (5, 5), (4, 4), (3, 3), (2, 2), (1, 1),
         (0, 5), (5, 4), (4, 3), (3, 2), (2, 1), (1, 0)),
        (),
    ),
    "S3 x Z3": (
        ((0, 0), (4, 4), (2, 2), (3, 3), (1, 1), (5, 5),
         (0, 4), (4, 2), (2, 3), (3, 1), (1, 5), (5, 0)),
        ((9, 9), (15, 6), (12, 12), (6, 15), (10, 10), (16, 7),
         (13, 13), (7, 16), (11, 11), (17, 8), (14, 14), (8, 17),
         (9, 6), (15, 9), (12, 15), (6, 12), (10, 7), (16, 10),
         (13, 16), (7, 13), (11, 8), (17, 11), (14, 17), (8, 14)),
    ),
    "D5": (
        ((0, 0), (5, 5), (0, 5), (5, 0)),
        ((1, 1), (6, 9), (4, 4), (9, 6), (2, 2), (7, 8), (3, 3), (8, 7),
         (1, 9), (6, 1), (4, 6), (9, 4), (2, 8), (7, 2), (3, 7), (8, 3)),
    ),
}


@pytest.mark.parametrize("spec", sorted(WITNESS_CELLS))
def test_witness_families_pinned(spec):
    group, _ = parse_group_spec(spec)
    witness = ntk.build_witness(ntk.decompose(group))
    assert (witness.ladder_cells, witness.prism_cells) == WITNESS_CELLS[spec]
    assert witness.all_cells == witness.ladder_cells + witness.prism_cells


def test_witness_layout_contract_to_order_100():
    for entry in cyclic_nontrivial_entries(100):
        group = entry.group
        witness = ntk.build_witness(ntk.decompose(group))
        dec = witness.dec
        k = dec.sylow_order
        for cells, cycle in ((witness.ladder_cells, k * dec.fixed_order),
                             (witness.prism_cells, k)):
            half = len(cells) // 2
            diag, shift = cells[:half], cells[half:]
            for j in range(half):
                assert diag[j][0] == shift[j][0], entry.label
                start = j - j % cycle
                assert shift[j][1] == diag[start + (j + 1) % cycle][1], entry.label
        # cycle c of the prisms belongs to the c-th moved element, pair by pair
        moved = [f for pair in dec.orbit_pairs for f in pair]
        rows = [cell[0] for cell in witness.prism_cells[:len(moved) * k]]
        assert rows == [group.mul(p, f) for f in moved for p in dec.gen_powers], entry.label


def test_invalid_ordering_rejected():
    dec = ntk.decompose(ntk.cyclic(6))
    with pytest.raises(InvalidOrdering):
        ntk.build_witness(dec, (0, 4, 2, 1))  # wrong length / not the subgroup
    with pytest.raises(InvalidOrdering):
        ntk.build_witness(dec, (0, 1, 2))  # not the fixed subgroup


def test_ordering_refused_off_the_ladder_branch():
    for group in (ntk.cyclic(5), ntk.direct_product(ntk.cyclic(2), ntk.cyclic(2))):
        assert ntk.near_transversal(group).branch == BRANCH_COMPLETE_MAPPING
        with pytest.raises(InvalidOrdering, match="ladder"):
            ntk.near_transversal(group, ordering=(group.identity,))


def test_ordering_override_is_used():
    group = _s3_times_cyclic(3)
    dec = ntk.decompose(group)
    c, c2 = group.index_of("c"), group.index_of("c2")
    witness = ntk.build_witness(dec, (group.identity, c2, c))
    assert witness.ordering == (group.identity, c2, c)


# ---------------------------------------------------------------------------
# extraction

def test_extract_z6_indices():
    dec = ntk.decompose(ntk.cyclic(6))
    witness = ntk.build_witness(dec)
    cells = ntk.extract_near_transversal(witness)
    expected = witness.ladder_cells[:3] + witness.ladder_cells[6 + 3:6 + 5]
    assert cells == expected
    square = ntk.cayley_square(ntk.cyclic(6))
    size, _ = ntk.max_partial_transversal(square)
    assert len(cells) == size == 5


def test_extract_order18_counts():
    dec = ntk.decompose(_s3_times_cyclic(3))
    witness = ntk.build_witness(dec)
    cells = ntk.extract_near_transversal(witness)
    assert len(cells) == 17
    ladder_used = set(cells) & set(witness.ladder_cells)
    prism_used = set(cells) & set(witness.prism_cells)
    assert len(ladder_used) == 5 and len(prism_used) == 12


def test_extract_s3():
    group = ntk.symmetric(3)
    witness = ntk.build_witness(ntk.decompose(group))
    cells = ntk.extract_near_transversal(witness)
    assert len(cells) == 5
    assert len(set(cells) & set(witness.ladder_cells)) == 1
    ok, _ = ntk.is_partial_transversal(ntk.cayley_square(group), cells)
    assert ok


# ---------------------------------------------------------------------------
# near_transversal dispatch

def test_odd_order_uses_identity_mapping():
    group = ntk.cyclic(5)
    result = ntk.near_transversal(group)
    assert result.branch == BRANCH_COMPLETE_MAPPING
    assert result.cells == tuple((g, g) for g in range(4))


def test_z6_uses_construction():
    result = ntk.near_transversal(ntk.cyclic(6))
    assert result.branch == BRANCH_CONSTRUCTION
    assert len(result.cells) == 5


def test_z2_single_cell():
    result = ntk.near_transversal(ntk.cyclic(2))
    assert result.cells == ((0, 0),)


def test_trivial_group_empty():
    result = ntk.near_transversal(ntk.cyclic(1))
    assert result.cells == ()


def test_non_cyclic_sylow_uses_search():
    group = ntk.dicyclic(2)
    result = ntk.near_transversal(group)
    assert result.branch == BRANCH_COMPLETE_MAPPING
    assert len(result.cells) == 7
    ok, _ = ntk.is_partial_transversal(ntk.cayley_square(group), result.cells)
    assert ok


def test_closed_forms_are_complete_mappings_to_the_order_cap():
    # D_n and Dic_n with even n, up to order 2048; with odd n their Sylow
    # 2-subgroup is cyclic and no complete mapping exists
    for build, top in ((ntk.dihedral, 1024), (ntk.dicyclic, 512)):
        for n in range(1, top + 1):
            group = build(n)
            closed_form = group._cache.get("complete_mapping")
            if n % 2:
                assert closed_form is None, group.label
            else:
                assert mappings.is_complete_mapping(group, closed_form()), group.label


def test_closed_form_only_past_the_guard():
    # within the guard the search keeps its lexicographically first mapping
    for group in (ntk.dihedral(4), ntk.dihedral(6), ntk.dicyclic(2), ntk.dicyclic(4)):
        first = mappings.find_complete_mapping(group)
        assert first != group._cache["complete_mapping"](), group.label
        assert ntk.near_transversal(group).cells == tuple(enumerate(first))[:-1]
    # past it, D and Dic with even n take their closed form; S4 has none
    for group in (ntk.dihedral(10), ntk.dicyclic(6), ntk.dihedral(1024), ntk.dicyclic(512)):
        sigma = group._cache["complete_mapping"]()
        result = ntk.near_transversal(group)
        assert result.branch == BRANCH_COMPLETE_MAPPING
        assert result.cells == tuple(enumerate(sigma))[:-1], group.label
    with pytest.raises(OrderTooLarge,
                       match="run `ntk oracle completemapping <spec> --guard-override 24`"):
        ntk.near_transversal(ntk.symmetric(4))


def _count_sylow2_calls(monkeypatch, *modules):
    calls = []
    real = ntk.sylow2

    def counting(group):
        calls.append(group)
        return real(group)

    for module in modules:
        monkeypatch.setattr(module, "sylow2", counting)
    return calls


@pytest.mark.parametrize("spec", ["Z6", "S3 x Z3", "Dic3", "Z15", "Dic2"])
def test_near_transversal_runs_sylow2_once(monkeypatch, spec):
    calls = _count_sylow2_calls(monkeypatch, construction)
    group, _ = parse_group_spec(spec)
    ntk.near_transversal(group)
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_cli_runs_sylow2_once(monkeypatch, capsys, command):
    calls = _count_sylow2_calls(monkeypatch, construction, cli)
    assert cli.main([command, "S3 x Z3"]) == 0
    assert len(calls) == 1


def test_analyze_tests_one_subgroup(monkeypatch, capsys):
    # decompose's Burnside check only: the fixed part it builds is a
    # subgroup, and analyze lifts its ordering without testing that again
    calls = []

    def counting(group, members):
        calls.append(group)
        return is_subgroup(group, members)

    for module in (construction, mappings):
        monkeypatch.setattr(module, "is_subgroup", counting)
    assert cli.main(["analyze", "Z2038", "--format", "json"]) == 0
    assert len(calls) == 1


def test_near_transversal_sizes_catalog_200():
    for entry in cyclic_nontrivial_entries(200):
        group = entry.group
        result = ntk.near_transversal(group)
        assert len(result.cells) == group.n - 1, entry.label
        ok, violation = ntk.is_partial_transversal(
            ntk.cayley_square(group), result.cells)
        assert ok, (entry.label, violation)


def test_construction_beyond_associativity_threshold():
    # past order 512; the constructor's table is checked for associativity
    # in tests/test_groups.py, not at run time
    group = ntk.cyclic(520)
    result = ntk.near_transversal(group)
    assert len(result.cells) == 519
    data = ntk.result_json(result)
    assert (data["k"], data["l"], data["m"]) == (8, 65, 65)
    assert ntk.check_witness(result.witness)["passed"]


def test_result_json_schema():
    group = _s3_times_cyclic(3)
    data = ntk.result_json(ntk.near_transversal(group), "S3xZ3")
    assert data["group"] == "S3xZ3"
    assert data["n"] == 18 and data["k"] == 2 and data["l"] == 9 and data["m"] == 3
    assert data["branch"] == "construction"
    assert data["ordering"] == ["1", "c", "c2"]
    assert data["verified"] is True
    assert data["cells"] == sorted(data["cells"])
    assert len(data["cells"]) == 17

    odd = ntk.result_json(ntk.near_transversal(ntk.cyclic(5)), "Z5")
    assert odd["m"] is None and odd["ordering"] is None
    assert odd["branch"] == "complete-mapping"


# ---------------------------------------------------------------------------
# display layout

def test_display_orders_cover_group_and_diagonalize():
    for label in ("Z6", "S3"):
        group = {"Z6": ntk.cyclic(6), "S3": ntk.symmetric(3)}[label]
        witness = ntk.build_witness(ntk.decompose(group))
        rows, cols = ntk.display_orders(witness)
        assert sorted(rows) == list(group.elements())
        assert sorted(cols) == list(group.elements())
        row_pos = {g: i for i, g in enumerate(rows)}
        col_pos = {g: i for i, g in enumerate(cols)}
        ladder, prisms = witness.ladder_cells, witness.prism_cells
        for r, c in ladder[:len(ladder) // 2] + prisms[:len(prisms) // 2]:
            assert row_pos[r] == col_pos[c]
