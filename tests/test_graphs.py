import dataclasses
import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntk
from ntk.catalog import _s3_times_cyclic, builtin_catalog
from ntk.errors import DuplicateCell, TooLarge
from ntk.graphs import COLUMN, ROW, SYMBOL, WitnessShape
from ntk.groups import CYCLIC_NONTRIVIAL
from ntk.groupspec import parse_group_spec


def witness_for(group):
    return ntk.build_witness(ntk.decompose(group))


def witness_graph(group, witness):
    return ntk.induced_subgraph(ntk.cayley_square(group), witness.all_cells)


def graph_and_witness(group):
    witness = witness_for(group)
    return witness_graph(group, witness), witness


def cyclic_nontrivial_groups(max_order):
    return [e.group for e in builtin_catalog(max_order)
            if ntk.sylow2(e.group).classification == CYCLIC_NONTRIVIAL]


# ---------------------------------------------------------------------------
# induced subgraphs

def test_all_four_cells_of_z2_form_a_clique():
    square = ntk.cayley_square(ntk.cyclic(2))
    graph = ntk.induced_subgraph(square, list(itertools.product(range(2), range(2))))
    assert len(graph.vertices) == 4
    assert len(graph.edges) == 6
    # each pair shares exactly one of row/column/symbol
    per_label = {lab: [e[2] for e in graph.edges].count(lab) for lab in (ROW, COLUMN, SYMBOL)}
    assert per_label == {ROW: 2, COLUMN: 2, SYMBOL: 2}


def test_single_cell_graph():
    square = ntk.cayley_square(ntk.cyclic(4))
    graph = ntk.induced_subgraph(square, [(2, 3)])
    assert len(graph.vertices) == 1 and not graph.edges


def test_duplicate_cell_rejected():
    square = ntk.cayley_square(ntk.cyclic(3))
    with pytest.raises(DuplicateCell):
        ntk.induced_subgraph(square, [(0, 0), (0, 0)])


def test_z6_witness_graph_is_cubic():
    group = ntk.cyclic(6)
    witness = witness_for(group)
    graph = ntk.induced_subgraph(ntk.cayley_square(group), witness.all_cells)
    assert len(graph.vertices) == 12 and len(graph.edges) == 18
    masks = graph.adjacency_masks()
    assert all(m.bit_count() == 3 for m in masks)


def test_row_and_column_labels_never_coincide():
    group = ntk.symmetric(3)
    square = ntk.cayley_square(group)
    cells = list(itertools.product(range(6), range(6)))[:20]
    graph = ntk.induced_subgraph(square, cells)
    seen = {}
    for u, v, lab in graph.edges:
        key = (u, v)
        seen.setdefault(key, set()).add(lab)
    for labels in seen.values():
        assert not ({ROW, COLUMN} <= labels)
        assert len(labels) == 1  # in a latin square each pair shares one class


def test_witness_graphs_are_cubic_with_expected_symbol_counts():
    for group in cyclic_nontrivial_groups(40):
        witness = witness_for(group)
        square = ntk.cayley_square(group)
        shape = WitnessShape.of(witness)
        ladder = ntk.induced_subgraph(square, witness.ladder_cells)
        assert [e[2] for e in ladder.edges].count(SYMBOL) == shape.ladder_size
        if witness.prism_cells:
            prisms = ntk.induced_subgraph(square, witness.prism_cells)
            assert [e[2] for e in prisms.edges].count(SYMBOL) == shape.k * (shape.l - shape.m)
        whole = ntk.induced_subgraph(square, witness.all_cells)
        assert all(m.bit_count() == 3 for m in whole.adjacency_masks())


# ---------------------------------------------------------------------------
# structural checks

def test_separation_passes():
    for group in (ntk.cyclic(6), _s3_times_cyclic(3)):
        report = ntk.check_separation(*graph_and_witness(group))
        assert report.passed and report.overlap == 0


def test_separation_detects_moved_row_fault():
    group = _s3_times_cyclic(3)
    witness = witness_for(group)
    # drag one prism cell into a ladder row
    c = witness.prism_cells[0][1]
    t_row = witness.ladder_cells[0][0]
    tampered_prisms = list(witness.prism_cells)
    tampered_prisms[0] = (t_row, c)
    tampered = dataclasses.replace(witness, prism_cells=tuple(tampered_prisms))
    report = ntk.check_separation(witness_graph(group, tampered), tampered)
    assert not report.passed
    assert report.cross_edges[ROW] >= 1


def test_mobius_certificates():
    cases = {
        2: ntk.cyclic(2),       # rim 4 + 2 chords: complete graph on 4 vertices
        6: ntk.cyclic(6),       # rim 12 + 6 antipodal chords
    }
    for km, group in cases.items():
        report = ntk.check_mobius(*graph_and_witness(group))
        assert report.passed
        assert report.rim_length == 2 * km
        assert report.chord_offsets == (km,)


def test_mobius_order18():
    group = _s3_times_cyclic(3)
    report = ntk.check_mobius(*graph_and_witness(group))
    assert report.passed and report.rim_length == 12


def test_mobius_detects_shifted_cell():
    group = ntk.cyclic(6)
    witness = witness_for(group)
    dec = witness.dec
    g = dec.group
    # recompute one shifted-family cell with the fixed-part index off by one
    powers = dec.gen_powers
    i = 2
    h_wrong = witness.ordering[(i + 2) % dec.fixed_order]
    row = g.mul(powers[i % dec.sylow_order], witness.ordering[i % dec.fixed_order])
    bad_cell = (row, g.mul(h_wrong, powers[(i + 1) % dec.sylow_order]))
    cells = list(witness.ladder_cells)
    cells[dec.sylow_order * dec.fixed_order + i] = bad_cell  # shifted cell i
    tampered = dataclasses.replace(witness, ladder_cells=tuple(cells))
    report = ntk.check_mobius(witness_graph(group, tampered), tampered)
    assert not report.passed


def test_prism_certificates():
    z6_report = ntk.check_prisms(*graph_and_witness(ntk.cyclic(6)))
    assert z6_report.passed and z6_report.prism_count == 0

    group = _s3_times_cyclic(3)
    report = ntk.check_prisms(*graph_and_witness(group))
    assert report.passed
    assert report.prism_count == 3 and report.cycle_count == 6
    assert report.matching_offset == 2

    s3 = ntk.symmetric(3)
    report = ntk.check_prisms(*graph_and_witness(s3))
    assert report.passed and report.prism_count == 1


def test_prisms_detects_swapped_cycles():
    group = _s3_times_cyclic(3)
    witness = witness_for(group)
    k = witness.dec.sylow_order
    # swap the first shifted cells of cycles 0 and 2, whose moved elements
    # lie in different orbit pairs: the cell set, and so separation and the
    # ladder, stay as they were
    cells = list(witness.prism_cells)
    first, other = len(cells) // 2, len(cells) // 2 + 2 * k
    cells[first], cells[other] = cells[other], cells[first]
    tampered = dataclasses.replace(witness, prism_cells=tuple(cells))
    graph = witness_graph(group, tampered)
    assert ntk.check_separation(graph, tampered).passed
    assert ntk.check_mobius(graph, tampered).passed
    report = ntk.check_prisms(graph, tampered)
    assert not report.passed
    assert len(report.problems) == 2
    assert report.problems[0].startswith("row/column edges do not form the expected cycles")
    assert report.problems[1].startswith(f"symbol edges do not form the offset-{k} matching")


def test_full_witness_check_catalog():
    for group in cyclic_nontrivial_groups(100):
        report = ntk.check_witness(witness_for(group))
        assert report.passed, group.label


def test_witness_families_sharing_a_cell_raise_duplicate_cell():
    group = _s3_times_cyclic(3)
    witness = witness_for(group)
    shared = list(witness.prism_cells)
    shared[0] = witness.ladder_cells[0]
    tampered = dataclasses.replace(witness, prism_cells=tuple(shared))
    with pytest.raises(DuplicateCell):
        ntk.check_witness(tampered)


def _bucket_cross_edges(square, left, right):
    # the per-label count of (left, right) pairs sharing a row, column or
    # symbol, as the separation check counted them before it read the
    # witness graph
    counts = {}
    for lab, key in ((ROW, lambda c: c[0]), (COLUMN, lambda c: c[1]),
                     (SYMBOL, lambda c: square.cells[c[0]][c[1]])):
        buckets = {}
        for cell in left:
            buckets[key(cell)] = buckets.get(key(cell), 0) + 1
        counts[lab] = sum(buckets.get(key(cell), 0) for cell in right)
    return counts


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_graph_holds_both_sides_and_their_crossings(data):
    group = data.draw(st.sampled_from([e.group for e in builtin_catalog(8)]))
    square = ntk.cayley_square(group)
    all_cells = list(itertools.product(range(group.n), repeat=2))
    cells = data.draw(st.lists(st.sampled_from(all_cells), unique=True, max_size=40))
    split = data.draw(st.integers(0, len(cells)))
    graph = ntk.induced_subgraph(square, cells)
    for start, stop in ((0, split), (split, len(cells))):
        side = ntk.induced_subgraph(square, cells[start:stop])
        inside = tuple((u - start, v - start, lab) for u, v, lab in graph.edges
                       if start <= u and v < stop)
        assert inside == side.edges
        block = graph.block(start, stop)
        assert block.vertices == side.vertices and block.edges == side.edges
    crossing = {lab: 0 for lab in (ROW, COLUMN, SYMBOL)}
    for u, v, lab in graph.edges:
        if u < split <= v:
            crossing[lab] += 1
    assert crossing == _bucket_cross_edges(square, cells[:split], cells[split:])


def test_witness_report_json_keys():
    group = ntk.cyclic(6)
    report = ntk.check_witness(witness_for(group))
    data = report.to_json()
    assert set(data) == {"claim1", "mobius", "prisms", "independentSetSize", "passed"}
    assert set(data["mobius"]) >= {"rimLength", "chordOffsets"}
    assert set(data["prisms"]) >= {"cycleCount", "matchingOffset"}
    assert data["independentSetSize"] == 5


# ---------------------------------------------------------------------------
# exact independent sets

def _complete_graph_on_z2():
    square = ntk.cayley_square(ntk.cyclic(2))
    return ntk.induced_subgraph(square, list(itertools.product(range(2), range(2))))


def test_mis_on_complete_graph():
    size, witness = ntk.max_independent_set(_complete_graph_on_z2())
    assert size == 1 and len(witness) == 1


def test_mis_on_mobius_and_prism():
    group = ntk.cyclic(6)
    witness = witness_for(group)
    square = ntk.cayley_square(group)
    ladder = ntk.induced_subgraph(square, witness.ladder_cells)
    size, _ = ntk.max_independent_set(ladder)
    assert size == 5  # km - 1 with km = 6

    s18 = _s3_times_cyclic(3)
    w18 = witness_for(s18)
    sq18 = ntk.cayley_square(s18)
    prisms = ntk.induced_subgraph(sq18, w18.prism_cells)
    size, chosen = ntk.max_independent_set(prisms)
    assert size == 12  # three prisms on 8 vertices, alpha = 4 each
    ok, _ = ntk.is_partial_transversal(sq18, chosen)
    assert ok


def test_mis_guard():
    group = _s3_times_cyclic(7)  # |W| = 2n = 84 > 60
    witness = witness_for(group)
    graph = ntk.induced_subgraph(ntk.cayley_square(group), witness.all_cells)
    with pytest.raises(TooLarge):
        ntk.max_independent_set(graph)
    size, _ = ntk.max_independent_set(graph, guard=100)
    assert size == group.n - 1


def test_mis_matches_brute_force_on_small_graphs():
    import itertools as it
    group = ntk.symmetric(3)
    square = ntk.cayley_square(group)
    cells = [(r, c) for r in range(6) for c in range(6) if (r + c) % 3 != 1][:12]
    graph = ntk.induced_subgraph(square, cells)
    size, chosen = ntk.max_independent_set(graph)
    adj = {i: set() for i in range(len(graph.vertices))}
    for u, v, _ in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    best = 0
    for r in range(len(graph.vertices), 0, -1):
        for combo in it.combinations(range(len(graph.vertices)), r):
            if all(v not in adj[u] for u, v in it.combinations(combo, 2)):
                best = r
                break
        if best:
            break
    assert size == best
    chosen_idx = [graph.vertices.index(cell) for cell in chosen]
    assert all(v not in adj[u] for u, v in it.combinations(chosen_idx, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mis_matches_networkx_on_drawn_subgraphs(data):
    group = data.draw(st.sampled_from([e.group for e in builtin_catalog(6)]))
    square = ntk.cayley_square(group)
    all_cells = list(itertools.product(range(group.n), repeat=2))
    cells = data.draw(st.lists(st.sampled_from(all_cells), unique=True, max_size=18))
    graph = ntk.induced_subgraph(square, cells)
    size, chosen = ntk.max_independent_set(graph)
    _, best = nx.max_weight_clique(nx.complement(_nx_from_labeled(graph)), weight=None)
    assert size == best == len(chosen)
    index = {cell: i for i, cell in enumerate(graph.vertices)}
    chosen_idx = {index[cell] for cell in chosen}
    assert not any(u in chosen_idx and v in chosen_idx for u, v, _ in graph.edges)


# (size, witness) of max_independent_set on each ladder witness graph, as the
# solver gave them before it kept a memo of solved vertex sets
LADDER_MIS = {
    "Z6": (5, ((0, 0), (5, 5), (4, 4), (3, 2), (2, 1))),
    "Z8": (7, ((0, 0), (1, 1), (2, 2), (7, 7), (3, 4), (4, 5), (5, 6))),
    "Z10": (9, ((0, 0), (7, 7), (4, 4), (1, 1), (8, 8), (5, 2), (2, 9), (9, 6), (6, 3))),
    "Z12": (11, ((0, 0), (7, 7), (2, 2), (9, 9), (4, 4), (5, 5), (11, 6), (6, 1), (1, 8),
                 (8, 3), (3, 10))),
    "Z14": (13, ((0, 0), (9, 9), (4, 4), (13, 13), (8, 8), (3, 3), (12, 12), (7, 2),
                 (2, 11), (11, 6), (6, 1), (1, 10), (10, 5))),
    "Z16": (15, ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (15, 15), (7, 8),
                 (8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14))),
    "Z18": (17, ((0, 0), (11, 11), (4, 4), (15, 15), (8, 8), (1, 1), (12, 12), (5, 5),
                 (16, 16), (9, 2), (2, 13), (13, 6), (6, 17), (17, 10), (10, 3), (3, 14),
                 (14, 7))),
    "Z20": (19, ((0, 0), (9, 9), (18, 18), (7, 7), (16, 16), (5, 5), (14, 14), (3, 3),
                 (12, 12), (11, 11), (1, 10), (10, 19), (19, 8), (8, 17), (17, 6), (6, 15),
                 (15, 4), (4, 13), (13, 2))),
    "Dic3": (11, ((0, 0), (10, 8), (1, 1), (9, 9), (2, 2), (11, 7), (8, 3), (3, 11), (7, 4),
                  (4, 6), (6, 5))),
}


@pytest.mark.parametrize("spec", sorted(LADDER_MIS))
def test_mis_on_ladder_witness_graphs_unchanged(spec):
    group, _ = parse_group_spec(spec)
    graph = ntk.induced_subgraph(ntk.cayley_square(group), witness_for(group).all_cells)
    assert ntk.max_independent_set(graph) == LADDER_MIS[spec]


# ---------------------------------------------------------------------------
# generic isomorphism cross-validation (small cases only)

def _nx_from_labeled(graph):
    g = nx.Graph()
    g.add_nodes_from(range(len(graph.vertices)))
    g.add_edges_from((u, v) for u, v, _ in graph.edges)
    return g


def test_ladder_subgraphs_match_reference_generators():
    for group in (ntk.cyclic(2), ntk.cyclic(4), ntk.symmetric(3), ntk.cyclic(6)):
        witness = witness_for(group)
        shape = WitnessShape.of(witness)
        if 2 * shape.ladder_size > 16:
            continue
        ladder = _nx_from_labeled(
            ntk.induced_subgraph(ntk.cayley_square(group), witness.ladder_cells))
        reference = nx.circulant_graph(2 * shape.ladder_size, [1, shape.ladder_size])
        assert nx.is_isomorphic(ladder, reference)


def test_prism_components_match_reference_generators():
    for group in (ntk.symmetric(3), _s3_times_cyclic(3)):
        witness = witness_for(group)
        shape = WitnessShape.of(witness)
        whole = ntk.induced_subgraph(ntk.cayley_square(group), witness.prism_cells)
        g = _nx_from_labeled(whole)
        components = list(nx.connected_components(g))
        assert len(components) == shape.prism_count
        reference = nx.circular_ladder_graph(shape.cycle_length)
        for comp in components:
            assert nx.is_isomorphic(g.subgraph(comp), reference)
