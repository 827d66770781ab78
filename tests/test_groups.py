import itertools
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntk
from ntk import catalog, groups, groupspec
from ntk.catalog import builtin_catalog
from ntk.errors import InvalidAction, NoIdentity, NotAssociative, NotLatin
from ntk.groups import CYCLIC_NONTRIVIAL, NON_CYCLIC, TRIVIAL
from ntk.groupspec import parse_group_spec

REPEATED_ROW = [[0, 1], [1, 1]]
OUT_OF_RANGE = [[0, 2], [2, 0]]
# latin (every element idempotent) but no identity row/column
IDEMPOTENT = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
# a latin square with identity that is not a group table
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]
INVALID_TABLES = [REPEATED_ROW, OUT_OF_RANGE, IDEMPOTENT, NON_ASSOCIATIVE_LOOP,
                  [[0, 1], [0, 1]], [[0, -1], [1, 0]]]


def small_catalog():
    return builtin_catalog(16)


# ---------------------------------------------------------------------------
# table validation

def test_trivial_group():
    g = ntk.group_from_table([[0]])
    assert g.n == 1 and g.identity == 0


def test_z2_table_identity_location():
    g = ntk.group_from_table([[0, 1], [1, 0]])
    assert g.identity == 0
    assert g.inv(1) == 1


def test_identity_need_not_be_zero():
    # Z2 with the identity moved to index 1
    g = ntk.group_from_table([[1, 0], [0, 1]])
    assert g.identity == 1


def test_not_latin_names_offending_row():
    with pytest.raises(NotLatin, match="row 1"):
        ntk.group_from_table(REPEATED_ROW)


def test_out_of_range_entry():
    with pytest.raises(NotLatin, match="outside"):
        ntk.group_from_table(OUT_OF_RANGE)


def test_no_identity():
    with pytest.raises(NoIdentity):
        ntk.group_from_table(IDEMPOTENT)


def test_not_associative_names_triple():
    with pytest.raises(NotAssociative):
        ntk.group_from_table(NON_ASSOCIATIVE_LOOP)


def test_short_row_named():
    with pytest.raises(NotLatin, match="row 1 has length 1, expected 2"):
        ntk.group_from_table([[0, 1], [1]])


@pytest.mark.parametrize("raw, shown", [([[0, 1.5], [1.5, 0]], "1.5"),
                                        ([[0, "1"], ["1", 0]], "'1'"),
                                        ([[0, None], [None, 0]], "None")])
def test_entries_that_are_not_ints_are_refused(raw, shown):
    with pytest.raises(NotLatin, match=rf"^entry table\[0\]\[1\] = {shown} is not an int$"):
        ntk.group_from_table(raw)


@pytest.mark.parametrize("raw, shown", [([[0, 2], [2, 0]], "2"),
                                        ([[0, -1], [-1, 0]], "-1"),
                                        ([[0, 2.0], [2.0, 0]], "2.0")])
def test_entries_out_of_range_are_named(raw, shown):
    with pytest.raises(NotLatin, match=rf"^entry table\[0\]\[1\] = {shown} outside \[0, 2\)$"):
        ntk.group_from_table(raw)


@pytest.mark.parametrize("raw, message", [
    # no identity, and column 0 repeats: the column is named
    ([[0, 1, 2], [1, 2, 0], [1, 2, 0]], "column 0 repeats symbol 1"),
    # identity 0, not associative, and column 1 repeats: the column is named
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 repeats symbol 1"),
])
def test_repeated_column_is_named_before_identity_and_associativity(raw, message):
    with pytest.raises(NotLatin, match=f"^{message}$"):
        ntk.group_from_table(raw)


def _raised(raw):
    with pytest.raises(Exception) as info:
        ntk.group_from_table(raw)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("raw", INVALID_TABLES)
def test_array_and_nested_list_raise_alike(raw):
    assert _raised(np.array(raw)) == _raised(raw)


def test_array_and_nested_list_give_equal_groups():
    for entry in small_catalog():
        g = entry.group
        from_list = ntk.group_from_table([list(row) for row in g.table], g.names)
        from_array = ntk.group_from_table(np.array(g.table), g.names)
        assert from_array == from_list
        for attr in ("table", "identity", "inverses", "names"):
            assert getattr(from_array, attr) == getattr(from_list, attr)


def _assert_table_reads_mul(g):
    """The table equals ``mul`` entry by entry, and its n^2 entries are n
    int objects, not n^2: at n = 2048 separate ints would cost ~100 MB."""
    for x in g.elements():
        products = tuple(map(g.mul, itertools.repeat(x, g.n), g.elements()))
        assert products == g.table[x], (g.label, x)
    assert len({id(v) for row in g.table for v in row}) == g.n, g.label


# Groups at the order cap, and S6, whose tables are built by right
# translation from a few rows of products.
CAP_SPECS = ("Z2046", "D1023", "Dic511", "S3 x Z341", "S6")


def test_table_entries_share_one_int_per_element():
    for spec in CAP_SPECS:
        _assert_table_reads_mul(parse_group_spec(spec)[0])


# Large groups of every witness shape and S6; the constructors build their
# tables without checking them, so the suite checks them here.
LARGE_SPECS = ("Z2046", "D511", "S3 x Z85", "Dic127", "Z2 x Z255", "S6")


def _identity_off_zero_products():
    """A direct and a twisted product over Z2 with its identity at index 1."""
    z2 = ntk.group_from_table([[1, 0], [0, 1]], ("s", "1"))
    z3 = ntk.cyclic(3)
    inversion = [(0, 2, 1), (0, 1, 2)]  # s inverts, the identity fixes
    return [ntk.direct_product(z2, z3), ntk.semidirect(z2, z3, inversion),
            ntk.direct_product(z3, z2)]


def test_round_trip_catalog():
    """Every built-in constructor's product agrees with its table, which
    passes ``group_from_table``'s checks and gives the same group, identity
    and inverses included. Both tables share one int per element."""
    built = [entry.group for entry in builtin_catalog(200)]
    built += [parse_group_spec(spec)[0] for spec in LARGE_SPECS]
    built += _identity_off_zero_products()
    for g in built:
        _assert_table_reads_mul(g)
        for x in g.elements():
            assert g.table[x][g.inverses[x]] == g.identity, (g.label, x)
        again = ntk.group_from_table(g.table, g.names)
        assert again == g, g.label
        assert len({id(v) for row in again.table for v in row}) == g.n, g.label
        for attr in ("n", "table", "identity", "inverses", "names"):
            assert getattr(again, attr) == getattr(g, attr), (g.label, attr)
    assert len(built) == 383 + len(LARGE_SPECS) + 3
    assert [g.identity for g in built[-3:]] == [3, 3, 1]


def test_constructor_names_are_checked():
    with pytest.raises(NotLatin, match="^names: element names must be whitespace-free$"):
        ntk.cyclic(3, "a b")


def test_text_format_round_trip(tmp_path):
    g = ntk.dihedral(4)
    path = tmp_path / "d4.txt"
    ntk.save_group(g, path)
    back = ntk.load_group(path)
    assert back.table == g.table
    assert back.names == g.names


def test_text_format_without_names():
    g = ntk.group_from_text("2\n0 1\n1 0\n")
    assert g.names == ("0", "1")


def test_text_format_reads_other_spellings_of_ints():
    g = ntk.group_from_text("2\n00 +1\n01 0\n")
    assert g.table == ((0, 1), (1, 0))
    with pytest.raises(NotLatin, match=r"^row 1 has length 1, expected 2$"):
        ntk.group_from_text("2\n0 1\n1\n")


TOKENS = ["0", "1", "2", "3", "07", "00", "+1", "-1", "1_0", "x", "1.0", "\u0663", "5", ""]


@settings(max_examples=200)
@given(st.integers(1, 4), st.data())
def test_rows_read_as_int_reads_each_token(n, data):
    # the gather from the pool of plain spellings, and the int() loop it
    # falls back to, give the ints or the message of int() token by token
    line = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5).map(" ".join)
    lines = [ln.strip() or "0" for ln in data.draw(st.lists(line, min_size=n, max_size=n))]
    try:
        expected = [list(map(int, ln.split())) for ln in lines]
    except ValueError:
        bad = next(i for i, ln in enumerate(lines) if not all(_reads(t) for t in ln.split()))
        with pytest.raises(NotLatin, match="^" + re.escape(
                f"row {bad} has a non-integer entry: {lines[bad]!r}") + "$"):
            groups._read_rows(f"{n}\n" + "\n".join(lines), "table")
        return
    rows, rest = groups._read_rows(f"{n}\n" + "\n".join(lines) + "\nnames: a", "table")
    assert [list(row) for row in rows] == expected and rest == ["names: a"]


def _reads(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# built-in constructors

def test_cyclic_six_is_abelian():
    g = ntk.cyclic(6)
    assert g.n == 6
    assert all(g.mul(a, b) == g.mul(b, a) for a in g.elements() for b in g.elements())


def test_direct_product_matches_word_presentation():
    via_product = ntk.direct_product(ntk.symmetric(3), ntk.cyclic(3))
    assert via_product.n == 18
    from ntk.catalog import _s3_times_cyclic
    via_words = _s3_times_cyclic(3)
    assert ntk.order_signature(via_product) == ntk.order_signature(via_words)


def test_semidirect_inversion_matches_dicyclic():
    act = [(0, 1, 2), (0, 2, 1), (0, 1, 2), (0, 2, 1)]
    sd = ntk.semidirect(ntk.cyclic(4, "b"), ntk.cyclic(3), act)
    assert sd.n == 12
    assert any(sd.mul(a, b) != sd.mul(b, a) for a in sd.elements() for b in sd.elements())
    assert ntk.order_signature(sd) == ntk.order_signature(ntk.dicyclic(3))


def test_semidirect_rejects_non_automorphism():
    # swapping identity with a generator is no automorphism of Z3
    act = [(0, 1, 2), (1, 0, 2)]
    with pytest.raises(InvalidAction):
        ntk.semidirect(ntk.cyclic(2), ntk.cyclic(3), act)


def test_semidirect_rejects_non_homomorphism():
    # each map is an automorphism of Z5 but powers do not compose correctly
    ident = tuple(range(5))
    double = tuple(2 * i % 5 for i in range(5))
    with pytest.raises(InvalidAction):
        ntk.semidirect(ntk.cyclic(2), ntk.cyclic(5), [ident, double])


def _mult(n, factor):
    return tuple(factor * i % n for i in range(n))


@pytest.mark.parametrize("k_part, h_part, action, message", [
    (ntk.cyclic(2), ntk.cyclic(7), [_mult(7, 1), (0, 1, 2, 3, 4, 6, 5)],
     "action[1] is not an automorphism: images of 1*4 disagree"),
    (ntk.cyclic(3), ntk.cyclic(7), [_mult(7, 1), _mult(7, 2), (0, 1, 2, 3, 4, 6, 5)],
     "action[2] is not an automorphism: images of 1*4 disagree"),
    (ntk.cyclic(3), ntk.cyclic(3), [(0, 1, 2), (0, 2, 1), (1, 0, 2)],
     "action[2] moves the identity"),
    (ntk.cyclic(3), ntk.cyclic(3), [(0, 1, 2), (0, 2, 1), (0, 2, 2)],
     "action[2] is not a permutation of 0..2"),
    (ntk.cyclic(3), ntk.cyclic(3), [(0, 1, 2)], "expected 3 permutations, got 1"),
    (ntk.cyclic(4), ntk.cyclic(5), [_mult(5, 1), _mult(5, 2), _mult(5, 4), _mult(5, 4)],
     "action is not a homomorphism at K elements (1,2)"),
    (ntk.cyclic(6), ntk.cyclic(7), [_mult(7, 3 ** k) for k in range(5)] + [_mult(7, 2)],
     "action is not a homomorphism at K elements (1,4)"),
    (ntk.direct_product(ntk.cyclic(2), ntk.cyclic(2)), ntk.cyclic(7),
     [_mult(7, 1), _mult(7, 6), _mult(7, 2), _mult(7, 5)],
     "action is not a homomorphism at K elements (2,2)"),
])
def test_semidirect_names_first_offending_pair(k_part, h_part, action, message):
    with pytest.raises(InvalidAction) as info:
        ntk.semidirect(k_part, h_part, action)
    assert str(info.value) == message


def test_semidirect_action_holds_ints_in_range():
    z3 = ntk.cyclic(3)
    inverted = ntk.semidirect(ntk.cyclic(2), z3, [(0, 1, 2), (0, 2.0, 1)])
    assert inverted.table == ntk.semidirect(ntk.cyclic(2), z3, [(0, 1, 2), (0, 2, 1)]).table
    for bad in (1.5, "2", -1, 3):
        with pytest.raises(InvalidAction, match=r"^action\[1\] entry .* is not an int in"):
            ntk.semidirect(ntk.cyclic(2), z3, [(0, 1, 2), (0, bad, 1)])


def test_word_presentation_relations():
    from ntk.catalog import _s3_times_cyclic
    g = _s3_times_cyclic(3)
    b, c, d = g.index_of("b"), g.index_of("c"), g.index_of("d")
    e = g.identity
    assert g.mul(b, b) == e
    assert g.power(c, 3) == e and g.power(d, 3) == e
    assert g.mul(b, c) == g.mul(c, b)
    assert g.mul(b, d) == g.mul(g.mul(d, d), b)  # bd = d2 b


def test_dihedral_relation():
    g = ntk.dihedral(5)
    r, s = g.index_of("r"), g.index_of("s")
    assert g.mul(g.mul(s, r), s) == g.inv(r)


def test_dihedral_and_dicyclic_tables_match_word_formulas():
    for n in range(1, 31):
        d = ntk.dihedral(n).table
        q = ntk.dicyclic(n).table
        for j1, i1, j2, i2 in itertools.product(range(2), range(n), range(2), range(n)):
            # s^j1 r^i1 . s^j2 r^i2 = s^(j1+j2) r^(+-i1 + i2)
            i = ((i1 if j2 == 0 else -i1) + i2) % n
            assert d[j1 * n + i1][j2 * n + i2] == (j1 + j2) % 2 * n + i
        for j1, i1, j2, i2 in itertools.product(range(2), range(2 * n), range(2),
                                                range(2 * n)):
            # a^i1 x^j1 . a^i2 x^j2 = a^(i1 +- i2 + n [j1 = j2 = 1]) x^(j1+j2)
            i = (i1 + (i2 if j1 == 0 else -i2) + (n if j1 and j2 else 0)) % (2 * n)
            assert q[j1 * 2 * n + i1][j2 * 2 * n + i2] == (j1 + j2) % 2 * 2 * n + i


def test_symmetric_table_composes_permutations():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        table = ntk.symmetric(n).table
        for a, p in enumerate(perms):
            for b, q in enumerate(perms):
                assert perms[table[a][b]] == tuple(p[q[i]] for i in range(n))


def test_catalog_products_match_their_rules(monkeypatch):
    calls = []

    def recording(build):
        def wrapper(*args, **kwargs):
            out = build(*args, **kwargs)
            calls.append((build, args, out))
            return out
        return wrapper

    # products are built in the grammar and the S3xZ<q> builder, twists in groups._twist
    direct, semi = groups.direct_product, groups.semidirect
    monkeypatch.setattr(groupspec, "direct_product", recording(direct))
    monkeypatch.setattr(catalog, "direct_product", recording(direct))
    monkeypatch.setattr(groups, "semidirect", recording(semi))
    catalog.builtin_catalog.__wrapped__(200)
    assert {build for build, _, _ in calls} == {direct, semi}
    for build, args, out in calls:
        a, b = args[:2]
        nb = b.n
        for x1, y1, x2, y2 in itertools.product(range(a.n), range(nb), range(a.n), range(nb)):
            if build is direct:
                expected = a.table[x1][x2] * nb + b.table[y1][y2]
            else:
                # (k1, h1) * (k2, h2) = (k1*k2, action[inv(k2)](h1) * h2)
                twisted = args[2][a.inverses[x2]][y1]
                expected = a.table[x1][x2] * nb + b.table[twisted][y2]
            assert out.table[x1 * nb + y1][x2 * nb + y2] == expected


def test_dicyclic_relations():
    g = ntk.dicyclic(3)
    a, x = g.index_of("a"), g.index_of("x")
    assert g.mul(x, x) == g.power(a, 3)
    assert g.mul(g.mul(x, a), g.inv(x)) == g.inv(a)


# ---------------------------------------------------------------------------
# element orders and signatures

def test_element_order_examples():
    z6 = ntk.cyclic(6)
    assert ntk.element_order(z6, 3) == 2
    assert ntk.element_order(z6, 2) == 3
    s3 = ntk.symmetric(3)
    transpositions = [g for g in s3.elements() if ntk.element_order(s3, g) == 2]
    assert len(transpositions) == 3


def test_cached_element_orders_match_per_element_walk():
    from ntk.groupspec import parse_group_spec
    large = [parse_group_spec(spec)[0] for spec in ("Z2030", "D509", "S3 x Z169")]
    for g in [entry.group for entry in builtin_catalog(200)] + large:
        assert ntk.element_orders(g) == [ntk.element_order(g, x) for x in g.elements()]


def test_element_orders_returns_a_copy():
    g = ntk.dihedral(5)
    orders = ntk.element_orders(g)
    orders[1] = 99
    assert ntk.element_orders(g) == [1, 5, 5, 5, 5, 2, 2, 2, 2, 2]


def test_element_orders_shared_across_threads():
    # the cache is filled on first use; threads racing to fill it must all
    # see the full list, never a half-written or doubled one
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = ntk.cyclic(600)
            start = threading.Barrier(6)
            results = []

            def read():
                start.wait(timeout=10)
                results.append(ntk.element_orders(g))

            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            expected = [ntk.element_order(g, x) for x in g.elements()]
            assert results == [expected] * 6
            assert ntk.element_orders(g) == expected
    finally:
        sys.setswitchinterval(old)


def test_groups_and_records_refuse_assignment():
    # values are shared across threads, so none of them may be changed
    group = ntk.cyclic(6)
    result = ntk.near_transversal(group)
    values = [(group, "n"), (ntk.sylow2(group), "k"), (result.witness.dec, "group"),
              (result.witness, "dec"), (result, "cells"), (ntk.cayley_square(group), "n")]
    for value, field in values:
        for name in (field, "unknown"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert group.n == 6 and result.witness.dec.group is group


def test_lagrange_over_catalog():
    for entry in small_catalog():
        g = entry.group
        for order in ntk.element_orders(g):
            assert g.n % order == 0


# ---------------------------------------------------------------------------
# sylow analysis

def test_sylow_trivial_z15():
    rep = ntk.sylow2(ntk.cyclic(15))
    assert rep.k == 1 and rep.classification == TRIVIAL
    assert rep.generator is None


def test_sylow_cyclic_s3_z3():
    from ntk.catalog import _s3_times_cyclic
    rep = ntk.sylow2(_s3_times_cyclic(3))
    assert rep.k == 2 and rep.classification == CYCLIC_NONTRIVIAL


def test_sylow_non_cyclic_q8():
    q8 = ntk.dicyclic(2)
    assert max(ntk.element_orders(q8)) == 4  # no element of order 8
    rep = ntk.sylow2(q8)
    assert rep.k == 8 and rep.classification == NON_CYCLIC
    assert rep.generator is None


def test_sylow_isomorphism_invariant():
    assert (ntk.sylow2(ntk.dihedral(3)).classification
            == ntk.sylow2(ntk.symmetric(3)).classification)


def test_sylow_generator_deterministic():
    rep = ntk.sylow2(ntk.cyclic(12))
    assert rep.generator == 3  # smallest index of order 4
    assert rep.k == 4


# ---------------------------------------------------------------------------
# conjugation and closures

def test_conjugation_abelian_is_identity():
    g = ntk.cyclic(9)
    assert ntk.conjugation(g, 4) == tuple(range(9))


def test_conjugation_inverts_three_cycles_in_s3():
    s3 = ntk.symmetric(3)
    orders = ntk.element_orders(s3)
    t = next(g for g in s3.elements() if orders[g] == 2)
    r = next(g for g in s3.elements() if orders[g] == 3)
    assert ntk.conjugation(s3, t)[r] == s3.mul(r, r)


def test_conjugation_fixes_central_factor():
    from ntk.catalog import _s3_times_cyclic
    g = _s3_times_cyclic(3)
    conj = ntk.conjugation(g, g.index_of("b"))
    for name in ("1", "c", "c2"):
        assert conj[g.index_of(name)] == g.index_of(name)


@settings(max_examples=30)
@given(st.data())
def test_conjugation_by_involution_is_involution(data):
    entries = small_catalog()
    g = data.draw(st.sampled_from(entries)).group
    involutions = [a for a in g.elements() if g.mul(a, a) == g.identity]
    a = data.draw(st.sampled_from(involutions))
    conj = ntk.conjugation(g, a)
    assert all(conj[conj[h]] == h for h in g.elements())


def test_closure_examples():
    z6 = ntk.cyclic(6)
    assert ntk.subgroup_closure(z6, {z6.identity}) == {0}
    assert ntk.subgroup_closure(z6, {2}) == {0, 2, 4}
    s3 = ntk.symmetric(3)
    orders = ntk.element_orders(s3)
    t = next(g for g in s3.elements() if orders[g] == 2)
    r = next(g for g in s3.elements() if orders[g] == 3)
    assert len(ntk.subgroup_closure(s3, {t, r})) == 6


def _closed(g, s):
    return g.identity in s and all(g.table[a][b] in s for a in s for b in s)


def _two_sided_closure(g, seed):
    members = {g.identity, *seed}
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(members):
                for p in (g.table[x][y], g.table[y][x]):
                    if p not in members:
                        members.add(p)
                        nxt.append(p)
        frontier = nxt
    return frozenset(members)


def test_is_subgroup_matches_pairwise_closure_to_order_8():
    for entry in builtin_catalog(8):
        g = entry.group
        others = [x for x in g.elements() if x != g.identity]
        for r in range(len(others) + 1):
            for subset in itertools.combinations(others, r):
                s = {g.identity, *subset}
                assert groups.is_subgroup(g, s) == _closed(g, s), (entry.label, s)
        assert not groups.is_subgroup(g, others)


DRAWN_FROM = {"S4": ntk.symmetric(4), "D12": ntk.dihedral(12)}


@settings(max_examples=60)
@given(st.data())
def test_is_subgroup_and_closure_on_drawn_subsets(data):
    g = DRAWN_FROM[data.draw(st.sampled_from(sorted(DRAWN_FROM)))]
    seed = data.draw(st.sets(st.integers(0, g.n - 1), max_size=5))
    s = {g.identity, *seed}
    assert groups.is_subgroup(g, s) == _closed(g, s)
    closure = ntk.subgroup_closure(g, seed)
    assert closure == _two_sided_closure(g, seed)
    assert groups.is_subgroup(g, closure) and _closed(g, closure)


INDEX_2_COUNTS = {"Z2 x Z2 x Z2 x Z2": 15, "D8": 3, "Dic4": 3, "Z2 x Z8": 3,
                  "Z2 x Z2 x Z4": 7, "Z12": 1, "S4": 1, "A4": 0, "Z2": 1, "S3 x S3": 3}


def test_index2_subgroups():
    specs = [*INDEX_2_COUNTS, *(e.label for e in builtin_catalog(45) if e.group.n % 2)]
    for spec in specs:
        g = parse_group_spec(spec)[0]
        subs = groups.index2_subgroups(g)
        assert len(subs) == INDEX_2_COUNTS.get(spec, 0), spec
        assert len(set(subs)) == len(subs), spec
        for members in subs:
            assert len(members) * 2 == g.n and groups.is_subgroup(g, members), spec
        if g.n % 2 == 0:
            assert groups.index2_subgroups(g) is subs, spec  # cached on the group


def test_index2_subgroups_match_a_closure_search_to_order_16():
    # the subgroups of index 2 are the subgroups of half the order, and one
    # of order at most 8 is generated by at most 3 elements
    for entry in builtin_catalog(16):
        g = entry.group
        found = set()
        for seed in itertools.combinations_with_replacement(g.elements(), 3):
            closure = ntk.subgroup_closure(g, seed)
            if 2 * len(closure) == g.n:
                found.add(closure)
        assert set(groups.index2_subgroups(g)) == found, entry.label


def test_index2_subgroups_of_a_rank_5_group_are_quick():
    g = parse_group_spec("Z2 x Z2 x Z2 x Z2 x Z2")[0]
    start = time.process_time()
    subs = groups.index2_subgroups(g)
    assert time.process_time() - start < 0.05
    assert len(subs) == 31


def test_commutator_subgroup():
    s3 = ntk.symmetric(3)
    comm = ntk.commutator_subgroup(s3)
    assert len(comm) == 3  # the rotation subgroup
    z8 = ntk.cyclic(8)
    assert ntk.commutator_subgroup(z8) == {0}
