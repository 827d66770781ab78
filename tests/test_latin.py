import itertools
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntk
from ntk.catalog import builtin_catalog
from ntk.errors import InvalidInput, NotLatin, NotPermutation, OrderTooLarge
from ntk.groups import CYCLIC_NONTRIVIAL, _abelianized_product_is_identity
from ntk.latin import ROLES, _column_regular, _search, _splits, _square_search


def test_cayley_square_examples():
    one = ntk.cayley_square(ntk.cyclic(1))
    assert one.n == 1 and one.cells == ((0,),)
    z2 = ntk.cayley_square(ntk.cyclic(2))
    assert z2.cells == ((0, 1), (1, 0))


def test_cayley_squares_are_latin():
    for entry in builtin_catalog(12):
        square = ntk.cayley_square(entry.group)
        ntk.latin_square(square.cells)  # would raise on a bad row/column


def test_latin_square_rejects_bad_rows():
    with pytest.raises(NotLatin):
        ntk.latin_square([[0, 1], [0, 1]])


@pytest.mark.parametrize("cells", [[[0, 1.5], [1.5, 0]], [[0, "1"], ["1", 0]]])
def test_latin_square_refuses_entries_that_are_not_ints(cells):
    with pytest.raises(NotLatin, match=r"^entry table\[0\]\[1\] = .* is not an int$"):
        ntk.latin_square(cells)


# ---------------------------------------------------------------------------
# partial transversal predicate

def test_empty_set_is_partial_transversal():
    square = ntk.cayley_square(ntk.cyclic(4))
    ok, violation = ntk.is_partial_transversal(square, ())
    assert ok and violation is None


def test_symbol_clash_reported():
    square = ntk.cayley_square(ntk.cyclic(2))
    ok, violation = ntk.is_partial_transversal(square, [(0, 0), (1, 1)])
    assert not ok
    assert violation.kind == "symbol"
    assert violation.first == (0, 0) and violation.second == (1, 1)


def test_z3_diagonal_is_transversal():
    square = ntk.cayley_square(ntk.cyclic(3))
    ok, _ = ntk.is_partial_transversal(square, [(0, 0), (1, 1), (2, 2)])
    assert ok


def test_out_of_bounds_cell_rejected():
    square = ntk.cayley_square(ntk.cyclic(3))
    with pytest.raises(InvalidInput):
        ntk.is_partial_transversal(square, [(0, 3)])


# ---------------------------------------------------------------------------
# brute-force oracles (expected values computed by these same oracles and
# frozen after cross-checking small cases by hand)

def test_brute_force_z3_lexicographically_first():
    square = ntk.cayley_square(ntk.cyclic(3))
    assert ntk.brute_force_transversal(square) == ((0, 0), (1, 1), (2, 2))


def test_brute_force_absent_for_even_cyclic():
    for n in (2, 4, 6):
        square = ntk.cayley_square(ntk.cyclic(n))
        assert ntk.brute_force_transversal(square) is None


def test_transversal_counts():
    expected = {1: 1, 2: 0, 3: 3, 4: 0, 5: 15, 6: 0, 7: 133}
    for n, count in expected.items():
        square = ntk.cayley_square(ntk.cyclic(n))
        assert ntk.count_transversals(square) == count


def test_max_partial_sizes():
    expected = {2: 1, 4: 3, 6: 5}
    for n, size in expected.items():
        square = ntk.cayley_square(ntk.cyclic(n))
        got, witness = ntk.max_partial_transversal(square)
        assert got == size
        ok, _ = ntk.is_partial_transversal(square, witness)
        assert ok and len(witness) == size


def _itertools_oracles(rows):
    """Every transversal as a column tuple, in lexicographic order, and the
    first maximum partial transversal among the row-by-row choice sequences,
    each row choosing a column before leaving the row uncovered."""
    n = len(rows)
    transversals = [cols for cols in itertools.permutations(range(n))
                    if len({rows[r][c] for r, c in enumerate(cols)}) == n]
    best: list = []
    for choice in itertools.product([*range(n), None], repeat=n):
        cells = [(r, c) for r, c in enumerate(choice) if c is not None]
        cols = {c for _, c in cells}
        syms = {rows[r][c] for r, c in cells}
        if len(cols) == len(syms) == len(cells) > len(best):
            best = cells
    return transversals, tuple(best)


def test_oracles_match_itertools_reference_to_order_6():
    for entry in builtin_catalog(6):
        group = entry.group
        square = ntk.cayley_square(group)
        transversals, witness = _itertools_oracles(group.table)
        first = transversals[0] if transversals else None
        assert ntk.brute_force_transversal(square) == (
            tuple(enumerate(first)) if first else None), entry.label
        assert ntk.count_transversals(square) == len(transversals), entry.label
        assert ntk.find_complete_mapping(group) == first, entry.label
        assert ntk.max_partial_transversal(square) == (len(witness), witness), entry.label


def _plain_search(rows, skips=0, count=False):
    """The row-major bitmask DFS without forward checking: the reference
    for the pruned kernel, with the same branching order and leaves."""
    n = len(rows)
    picked = [None] * n

    def dfs(r, used_cols, used_syms, skips):
        if r == n:
            return 1
        found = 0
        for c in range(n):
            s = rows[r][c]
            if used_cols >> c & 1 or used_syms >> s & 1:
                continue
            picked[r] = c
            found += dfs(r + 1, used_cols | 1 << c, used_syms | 1 << s, skips)
            if found and not count:
                return found
        if skips:
            picked[r] = None
            found += dfs(r + 1, used_cols, used_syms, skips - 1)
        return found

    found = dfs(0, 0, 0, skips)
    if count:
        return found
    return tuple(picked) if found else None


def _assert_oracles_match_plain_search(square, label, max_count_order=9, blocks=()):
    """The kernel and the oracle wrappers on ``square``, which pin row 0 on
    Cayley and column-regular squares, against the unpinned plain search;
    every kernel call gets ``blocks``."""
    rows = square.cells
    n = len(rows)
    first = _plain_search(rows)
    assert _search(rows, blocks=blocks) == first, label
    assert ntk.brute_force_transversal(square) == (
        None if first is None else tuple(enumerate(first))), label
    # no first leaf means no leaf: order 10 counts without the plain count
    count = 0 if first is None else _plain_search(rows, count=True)
    assert ntk.count_transversals(square) == count, label
    best = first if first is not None else _plain_search(rows, 1)
    cells = tuple((r, c) for r, c in enumerate(best) if c is not None)
    assert ntk.max_partial_transversal(square, guard=n) == (len(cells), cells), label
    assert _search(rows, count=True, blocks=blocks) == count, label
    for skips in (1, 2):
        assert _search(rows, skips, blocks=blocks) == _plain_search(rows, skips), (label, skips)
        if n <= max_count_order:
            assert _search(rows, skips, count=True, blocks=blocks) == _plain_search(
                rows, skips, count=True), (label, skips)


def test_search_kernel_matches_plain_search_to_order_10():
    # first leaf, transversal counts, maximum partial transversal and first
    # leaves with 1 or 2 uncovered rows to order 10; kernel counts with 1
    # or 2 uncovered rows to order 9
    for entry in builtin_catalog(10):
        _assert_oracles_match_plain_search(ntk.latin_square(entry.group.table), entry.label)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_search_kernel_matches_plain_search_on_isotopes(data):
    entry = data.draw(st.sampled_from(builtin_catalog(9)))
    n = entry.group.n
    perms = [data.draw(st.permutations(range(n))) for _ in range(3)]
    square = ntk.apply_isotopy(ntk.cayley_square(entry.group), *perms)
    _assert_oracles_match_plain_search(square, entry.label, max_count_order=8)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_search_kernel_matches_plain_search_on_switched_squares(data):
    # Z_n (n even) with one to three of its disjoint intercalates
    # {r, r + h} x {c, c + h}, h = n / 2, switched, under a random isotopy:
    # mostly squares that are not group tables, where rows run out of
    # candidates in other patterns than in a group's
    n = data.draw(st.sampled_from([2, 4, 6, 8]))
    h = n // 2
    cells = [[(r + c) % n for c in range(n)] for r in range(n)]
    corners = data.draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, h - 1)),
                                 min_size=1, max_size=3, unique=True))
    for r, c in corners:
        for rr, cc in ((r, c), (r, c + h), (r + h, c), (r + h, c + h)):
            cells[rr][cc] = (cells[rr][cc] + h) % n
    perms = [data.draw(st.permutations(range(n))) for _ in range(3)]
    rows = ntk.apply_isotopy(ntk.latin_square(cells), *perms).cells
    for skips in (0, 1, 2):
        assert _search(rows, skips) == _plain_search(rows, skips), (rows, skips)
        assert _search(rows, skips, count=True) == _plain_search(
            rows, skips, count=True), (rows, skips)


# an order-6 latin square that is not the table of a group: its column-0
# subtree holds 8 of its 32 transversals, so pinning it would count 48
NON_GROUP_SQUARE = ((3, 4, 2, 0, 1, 5), (4, 5, 3, 1, 2, 0), (2, 3, 4, 5, 0, 1),
                    (0, 1, 5, 3, 4, 2), (1, 2, 0, 4, 5, 3), (5, 0, 1, 2, 3, 4))


def test_columns_regular_on_group_tables_and_not_on_a_non_group_square():
    for entry in builtin_catalog(16):
        assert _column_regular(entry.group.table), entry.label
    assert not _column_regular(NON_GROUP_SQUARE)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_columns_regular_on_isotopes(data):
    entry = data.draw(st.sampled_from(builtin_catalog(16)))
    n = entry.group.n
    perms = [data.draw(st.permutations(range(n))) for _ in range(3)]
    square = ntk.apply_isotopy(ntk.cayley_square(entry.group), *perms)
    assert _column_regular(square.cells), entry.label


def test_non_group_square_is_searched_unpinned():
    rows = NON_GROUP_SQUARE
    assert _plain_search(rows, count=True) == 32
    assert 6 * _search(rows, count=True, pin=True) == 48  # what a pin would claim
    _assert_oracles_match_plain_search(ntk.latin_square(rows), "non-group square")


# ---------------------------------------------------------------------------
# the block cut: a subgroup N of index 2 splits a group table into four
# n/2 x n/2 blocks by row and column in N, and every transversal takes n/4
# cells from each

def test_only_cayley_squares_have_blocks():
    # the cut reads its blocks from the square's group; a plain square, an
    # isotope or a conjugate holds no group, and so no blocks
    group = ntk.dihedral(4)
    square = ntk.cayley_square(group)
    assert square.group is group and square.rows is None
    assert len(_splits(square.group)) == 3
    for other in (ntk.latin_square(square.cells), ntk.apply_isotopy(square, *[range(8)] * 3),
                  ntk.conjugate_square(square, ROLES)):
        assert other.group is None and other.cells == square.cells


def test_block_cut_leaves_partial_transversals_alone():
    # a leaf with uncovered rows need not split evenly: D4's first leaf with
    # two uncovered rows has 3 cells in one block, where n/4 = 2, and Z6 has
    # leaves with one uncovered row although 4 does not divide 6
    for group in (ntk.dihedral(4), ntk.cyclic(6)):
        for skips in (1, 2):
            assert _search(group.table, skips, blocks=_splits(group)) == _plain_search(
                group.table, skips), (group.label, skips)


def test_every_transversal_takes_a_quarter_of_each_block_to_order_8():
    found = 0
    for entry in builtin_catalog(8):
        rows = entry.group.table
        n = len(rows)
        blocks = _splits(entry.group)
        for mask, col_mask in blocks:
            assert mask == col_mask
            # the diagonal blocks hold the symbols in N, the others the rest
            assert all((mask >> rows[r][c] & 1) == ((mask >> r & 1) == (mask >> c & 1))
                       for r in range(n) for c in range(n)), entry.label
        for cols in itertools.permutations(range(n)):
            if len({rows[r][c] for r, c in enumerate(cols)}) < n:
                continue
            for row_mask, col_mask in blocks:
                quarters = [0] * 4
                for r, c in enumerate(cols):
                    quarters[2 * (row_mask >> r & 1) + (col_mask >> c & 1)] += 1
                assert quarters == [n // 4] * 4, (entry.label, cols)
                found += 1
    # Z2 x Z2 has 8 transversals and 3 splits; D4, Dic2 and Z2 x Z4 have
    # 384 and 3, Z2 x Z2 x Z2 has 384 and 7
    assert found == 8 * 3 + 384 * (3 + 3 + 3 + 7)


def test_block_cut_keeps_the_first_leaf_to_order_16():
    # Groups whose Sylow 2-subgroup is cyclic and nontrivial have no
    # transversal (Hall and Paige). Past order 10 the plain search would
    # exhaust its tree to say so, and so would the kernel on Z16, whose one
    # subgroup of index 2 seldom cuts; it runs for minutes.
    for entry in builtin_catalog(16):
        group = entry.group
        if entry.label == "Z16":
            continue
        none = group.n > 10 and ntk.sylow2(group).classification == CYCLIC_NONTRIVIAL
        first = None if none else _plain_search(group.table)
        assert _search(group.table, blocks=_splits(group)) == first, entry.label
        assert _search(group.table, pin=True, blocks=_splits(group)) == first, entry.label


def test_block_cut_keeps_every_leaf_to_order_10():
    # counts, pinned and unpinned, and leaves with 1 or 2 uncovered rows,
    # which the cut leaves alone
    for entry in builtin_catalog(10):
        _assert_oracles_match_plain_search(ntk.cayley_square(entry.group), entry.label,
                                           blocks=_splits(entry.group))


def _moved(mask, perm):
    """``mask`` with bit i moved to bit perm[i]."""
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_block_cut_on_isotopes(data):
    # the blocks follow an isotopy's rows and columns, so the kernel's cut
    # runs on layouts where N's rows and columns are not the group's
    entry = data.draw(st.sampled_from([e for e in builtin_catalog(10) if e.group.n % 2 == 0]))
    n = entry.group.n
    perms = [data.draw(st.permutations(range(n))) for _ in range(3)]
    square = ntk.apply_isotopy(ntk.cayley_square(entry.group), *perms)
    blocks = tuple((_moved(row_mask, perms[0]), _moved(col_mask, perms[1]))
                   for row_mask, col_mask in _splits(entry.group))
    _assert_oracles_match_plain_search(square, entry.label, max_count_order=8, blocks=blocks)


def test_block_cut_decides_orders_not_divisible_by_4_at_once():
    for group in (ntk.cyclic(14), ntk.dihedral(7), ntk.cyclic(30)):
        assert _search(group.table, blocks=_splits(group)) is None
        assert _search(group.table, count=True, blocks=_splits(group)) == 0
    assert ntk.brute_force_transversal(ntk.cayley_square(ntk.cyclic(14)), guard=14) is None
    for group in (ntk.dihedral(12), ntk.dicyclic(6),
                  ntk.parse_group_spec("Z2 x Z2 x Z2 x Z2 x Z2")[0]):
        sigma = ntk.find_complete_mapping(group, guard=32)
        assert ntk.is_complete_mapping(group, sigma), group.label


# ---------------------------------------------------------------------------
# the product rule: a search for whole transversals of a Cayley square of
# order 4m ends at the root when the product of all elements lies outside G'

def _kernel_nodes(call, limit=None):
    """``(nodes, result)``: the nodes of the search kernel that ``call()``
    enters, counted as calls of ``_search``'s inner ``dfs``, and what it
    returns. Entering more than ``limit`` nodes raises AssertionError at
    once, so that a search which would run for minutes fails fast."""
    dfs = next(code for code in _search.__code__.co_consts
               if isinstance(code, types.CodeType) and code.co_name == "dfs")
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        nodes += event == "call" and frame.f_code is dfs
        if limit is not None and nodes > limit:
            raise AssertionError(f"the search entered more than {limit} nodes")

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(before)
    return nodes, result


def test_product_rule_fires_only_where_the_plain_pinned_kernel_finds_no_leaf():
    # the kernel without blocks or product test exhausts its pinned tree
    fired = [entry for entry in builtin_catalog(12) if entry.group.n % 4 == 0
             and not _abelianized_product_is_identity(entry.group)]
    assert [entry.label for entry in fired] == ["Z4", "Z8", "Dic3", "Z12"]
    for entry in fired:
        assert _search(entry.group.table, pin=True) is None, entry.label


def test_product_rule_decides_at_the_root():
    for spec in ("Z4", "Z8", "Z12", "Dic3", "Z16"):
        group = ntk.parse_group_spec(spec)[0]
        square = ntk.cayley_square(group)
        guard = group.n
        assert _kernel_nodes(lambda: ntk.brute_force_transversal(square, guard=guard),
                             limit=0) == (0, None), spec
        assert _kernel_nodes(lambda: ntk.count_transversals(square, guard=guard),
                             limit=0) == (0, 0), spec
        assert _kernel_nodes(lambda: ntk.find_complete_mapping(group, guard=guard),
                             limit=0) == (0, None), spec
    # the same rows without the rule: Z8's pinned search enters 160 nodes
    plain = ntk.latin_square(ntk.cayley_square(ntk.cyclic(8)).cells)
    assert _kernel_nodes(lambda: ntk.count_transversals(plain)) == (160, 0)


def test_max_partial_transversal_of_z12_keeps_its_witness():
    # the pass with no uncovered row ends at the root; the witness is the
    # first leaf with one uncovered row, as it was before the rule
    square = ntk.cayley_square(ntk.cyclic(12))
    cells = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
             (6, 7), (7, 8), (8, 9), (9, 10), (10, 11))
    assert ntk.max_partial_transversal(square, guard=12) == (11, cells)


def test_product_test_runs_once_and_only_in_whole_searches_of_order_4m(monkeypatch):
    calls = []
    commutator_subgroup = ntk.groups.commutator_subgroup
    monkeypatch.setattr(ntk.groups, "commutator_subgroup",
                        lambda group: calls.append(group.label) or commutator_subgroup(group))
    z8 = ntk.cyclic(8)
    for _ in range(2):
        ntk.brute_force_transversal(ntk.cayley_square(z8))
        ntk.count_transversals(ntk.cayley_square(z8))
        ntk.max_partial_transversal(ntk.cayley_square(z8))
        ntk.find_complete_mapping(z8)
    assert calls == ["Z8"]
    # odd orders and orders 2 mod 4 never read it, nor does the search of
    # near_transversal, nor a search that may leave rows uncovered
    for group in (ntk.cyclic(7), ntk.cyclic(6), ntk.dihedral(5), ntk.cyclic(14)):
        square = ntk.cayley_square(group)
        ntk.brute_force_transversal(square, guard=group.n)
        ntk.count_transversals(square, guard=group.n)
        ntk.find_complete_mapping(group)
        ntk.near_transversal(group)
    for group in (ntk.dihedral(4), ntk.dicyclic(2), ntk.dihedral(8)):
        ntk.near_transversal(group)
    assert _square_search(ntk.cayley_square(ntk.cyclic(4)), skips=1) is not None
    assert calls == ["Z8"]


def test_only_cayley_squares_carry_regular_columns_and_the_product_test():
    # a Cayley square is pinned and product-tested by its group; any other
    # square holds no group and is pinned only where _column_regular holds
    group = ntk.cyclic(12)
    square = ntk.cayley_square(group)
    assert square.group is group and not _abelianized_product_is_identity(square.group)
    for other in (ntk.latin_square(square.cells), ntk.apply_isotopy(square, *[range(12)] * 3),
                  ntk.conjugate_square(square, ROLES)):
        assert other.group is None and _column_regular(other.rows)


def test_transversal_presence_matches_sylow_class_to_order_16():
    for entry in builtin_catalog(16):
        square = ntk.cayley_square(entry.group)
        present = ntk.brute_force_transversal(square, guard=16) is not None
        cyclic_sylow = ntk.sylow2(entry.group).classification == CYCLIC_NONTRIVIAL
        assert present == (not cyclic_sylow), entry.label


def test_constructed_near_transversals_non_extendable_to_order_10():
    for entry in builtin_catalog(10):
        square = ntk.cayley_square(entry.group)
        if ntk.brute_force_transversal(square) is not None:
            continue
        cells = ntk.near_transversal(entry.group).cells
        assert not ntk.is_extendable(square, cells), entry.label


def test_guards_raise():
    big = ntk.cayley_square(ntk.cyclic(16))
    with pytest.raises(OrderTooLarge):
        ntk.brute_force_transversal(big)
    with pytest.raises(OrderTooLarge):
        ntk.count_transversals(big)
    with pytest.raises(OrderTooLarge):
        ntk.max_partial_transversal(big)


def test_guard_override_allows_larger():
    square = ntk.cayley_square(ntk.cyclic(11))
    assert ntk.count_transversals(square, guard=11) > 0


# ---------------------------------------------------------------------------
# extendability

def test_empty_is_extendable():
    square = ntk.cayley_square(ntk.cyclic(3))
    assert ntk.is_extendable(square, ())


def test_every_two_cell_partial_of_z3_extends():
    square = ntk.cayley_square(ntk.cyclic(3))
    for cells in itertools.combinations(itertools.product(range(3), range(3)), 2):
        ok, _ = ntk.is_partial_transversal(square, cells)
        if ok:
            assert ntk.is_extendable(square, cells)


def test_constructed_near_transversal_not_extendable():
    group = ntk.cyclic(6)
    square = ntk.cayley_square(group)
    result = ntk.near_transversal(group)
    assert not ntk.is_extendable(square, result.cells)


def test_is_extendable_rejects_invalid_input():
    square = ntk.cayley_square(ntk.cyclic(2))
    with pytest.raises(InvalidInput):
        ntk.is_extendable(square, [(0, 0), (1, 1)])


# ---------------------------------------------------------------------------
# isotopies

def test_identity_isotopy():
    square = ntk.cayley_square(ntk.cyclic(4))
    same = ntk.apply_isotopy(square, range(4), range(4), range(4))
    assert same.cells == square.cells


def test_row_swap_z2():
    square = ntk.cayley_square(ntk.cyclic(2))
    swapped = ntk.apply_isotopy(square, [1, 0], [0, 1], [0, 1])
    assert swapped.cells == ((1, 0), (0, 1))


def test_isotopy_rejects_non_permutation():
    square = ntk.cayley_square(ntk.cyclic(3))
    with pytest.raises(NotPermutation):
        ntk.apply_isotopy(square, [0, 0, 1], range(3), range(3))


def test_isotopy_reads_ints_in_range_only():
    square = ntk.cayley_square(ntk.cyclic(3))
    swapped = ntk.apply_isotopy(square, [0, 2.0, 1], range(3), range(3))
    assert swapped.cells == ntk.apply_isotopy(square, [0, 2, 1], range(3), range(3)).cells
    for bad in (1.9, "1", -1, 3):
        with pytest.raises(NotPermutation, match="row permutation entry"):
            ntk.apply_isotopy(square, [0, bad, 2], range(3), range(3))


@settings(max_examples=40)
@given(st.data())
def test_isotopy_maps_near_transversal_to_near_transversal(data):
    entries = [e for e in builtin_catalog(8)]
    entry = data.draw(st.sampled_from(entries))
    group = entry.group
    n = group.n
    rp = data.draw(st.permutations(range(n)))
    cp = data.draw(st.permutations(range(n)))
    sp = data.draw(st.permutations(range(n)))
    square = ntk.cayley_square(group)
    cells = ntk.near_transversal(group).cells
    image_square = ntk.apply_isotopy(square, rp, cp, sp)
    image_cells = ntk.map_cells(cells, rp, cp)
    ok, violation = ntk.is_partial_transversal(image_square, image_cells)
    assert ok, violation
    assert len(image_cells) == n - 1


# ---------------------------------------------------------------------------
# conjugates

def test_identity_conjugate():
    square = ntk.cayley_square(ntk.cyclic(5))
    same = ntk.conjugate_square(square, ROLES)
    assert same.cells == square.cells


def test_row_column_swap_is_transpose():
    square = ntk.cayley_square(ntk.symmetric(3))
    transposed = ntk.conjugate_square(square, ("column", "row", "symbol"))
    for r in range(6):
        for c in range(6):
            assert transposed.cells[r][c] == square.cells[c][r]


def test_conjugates_preserve_transversal_counts():
    for entry in builtin_catalog(7):
        square = ntk.cayley_square(entry.group)
        baseline = ntk.count_transversals(square)
        for perm in itertools.permutations(ROLES):
            conj = ntk.conjugate_square(square, perm)
            assert ntk.count_transversals(conj) == baseline


def test_conjugate_cells_stay_partial_transversals():
    group = ntk.cyclic(6)
    square = ntk.cayley_square(group)
    cells = ntk.near_transversal(group).cells
    for perm in itertools.permutations(ROLES):
        conj = ntk.conjugate_square(square, perm)
        image = ntk.conjugate_cells(square, cells, perm)
        ok, violation = ntk.is_partial_transversal(conj, image)
        assert ok, (perm, violation)


# ---------------------------------------------------------------------------
# serialization surfaces

def test_square_text_round_trip(tmp_path):
    square = ntk.cayley_square(ntk.dihedral(3))
    path = tmp_path / "d3.txt"
    ntk.save_square(square, path)
    assert ntk.load_square(path).cells == square.cells


def test_square_text_with_a_non_integer_is_named():
    with pytest.raises(NotLatin, match="row 1 has a non-integer entry"):
        ntk.latin.square_from_text("2\n0 1\n1 y\n")
    with pytest.raises(NotLatin, match="first line must be the order"):
        ntk.latin.square_from_text("two\n0 1\n1 0\n")


def test_cells_json_round_trip():
    group = ntk.cyclic(6)
    square = ntk.cayley_square(group)
    cells = ntk.near_transversal(group).cells
    data = ntk.cells_to_json(square, cells)
    assert data == sorted(data)  # row-sorted triples
    assert all(len(item) == 3 for item in data)
    back = ntk.cells_from_json(data, square)
    assert set(back) == set(cells)


def test_cells_json_reads_ints_in_range_only():
    square = ntk.cayley_square(ntk.cyclic(4))
    assert ntk.cells_from_json([[1.0, 2, 3.0]], square) == ((1, 2),)
    assert ntk.cells_from_json([[7, 0], [-1, 2]]) == ((7, 0), (-1, 2))  # no square, no range
    for bad in ([[1.5, 0]], [["2", "1"]]):
        with pytest.raises(InvalidInput, match="is not an int$"):
            ntk.cells_from_json(bad)
        with pytest.raises(InvalidInput, match=r"is not an int in \[0, 4\)$"):
            ntk.cells_from_json(bad, square)
    # symbol(-1, 0) wraps to 3, so the stored symbol alone would pass
    for bad in ([[7, 0]], [[-1, 0, 3]], [[0, 4]], [[0, 1, 1.5]]):
        with pytest.raises(InvalidInput, match=r"is not an int in \[0, 4\)$"):
            ntk.cells_from_json(bad, square)
    # an item that is not a sequence of 2 or 3 entries is named, not read in part
    for bad in ([[1]], [5], [[1, 2, 3, 4]], [[]], [None]):
        for sq in (None, square):
            with pytest.raises(InvalidInput, match=r"^cell item .* is not a sequence of 2 or 3 "):
                ntk.cells_from_json(bad, sq)


def test_cells_json_symbol_mismatch_rejected():
    square = ntk.cayley_square(ntk.cyclic(3))
    with pytest.raises(InvalidInput):
        ntk.cells_from_json([[0, 0, 1]], square)
