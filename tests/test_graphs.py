import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntk
from ntk.catalog import _s3_times_cyclic, builtin_catalog
from ntk.errors import DuplicateCell, TooLarge
from ntk.graphs import COLUMN, ROW, SYMBOL, LabeledGraph
from ntk.groups import CYCLIC_NONTRIVIAL
from ntk.groupspec import parse_group_spec
from ntk.guards import ensure_within
from ntk.latin import Cell


def witness_for(group):
    return ntk.build_witness(ntk.decompose(group))


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
        dec = witness.dec
        k, l, m = dec.sylow_order, dec.odd_order, dec.fixed_order
        ladder = ntk.induced_subgraph(square, witness.ladder_cells)
        assert [e[2] for e in ladder.edges].count(SYMBOL) == k * m
        if witness.prism_cells:
            prisms = ntk.induced_subgraph(square, witness.prism_cells)
            assert [e[2] for e in prisms.edges].count(SYMBOL) == k * (l - m)
        whole = ntk.induced_subgraph(square, witness.all_cells)
        assert all(m.bit_count() == 3 for m in whole.adjacency_masks())


# ---------------------------------------------------------------------------
# the witness certificate

SECTIONS = ("claim1", "mobius", "prisms")


def failed_sections(report):
    return {sec for sec in SECTIONS if not report[sec]["passed"]}


def test_separation_passes():
    for group in (ntk.cyclic(6), _s3_times_cyclic(3)):
        claim1 = ntk.check_witness(witness_for(group))["claim1"]
        assert claim1["passed"] and claim1["overlap"] == 0


def test_separation_detects_moved_row_fault():
    group = _s3_times_cyclic(3)
    witness = witness_for(group)
    # drag the first shifted cell of prism cycle 0, which the extraction
    # does not use, into a ladder row
    first = len(witness.prism_cells) // 2
    c = witness.prism_cells[first][1]
    t_row = witness.ladder_cells[0][0]
    tampered_prisms = list(witness.prism_cells)
    tampered_prisms[first] = (t_row, c)
    tampered = witness._replace(prism_cells=tuple(tampered_prisms))
    report = ntk.check_witness(tampered)
    # the moved cell also leaves its row pair in cycle 0
    assert failed_sections(report) == {"claim1", "prisms"}
    assert not report["passed"]
    cross = report["claim1"]["crossEdges"]
    assert cross[ROW] == 2
    assert cross == _bucket_cross_edges(ntk.cayley_square(group), tampered.ladder_cells,
                                        tampered.prism_cells)


def test_mobius_certificates():
    cases = {
        2: ntk.cyclic(2),       # rim 4 + 2 chords: complete graph on 4 vertices
        6: ntk.cyclic(6),       # rim 12 + 6 antipodal chords
    }
    for km, group in cases.items():
        mobius = ntk.check_witness(witness_for(group))["mobius"]
        assert mobius["passed"]
        assert mobius["rimLength"] == 2 * km
        assert mobius["chordOffsets"] == [km]


def test_mobius_order18():
    group = _s3_times_cyclic(3)
    mobius = ntk.check_witness(witness_for(group))["mobius"]
    assert mobius["passed"] and mobius["rimLength"] == 12


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
    tampered = witness._replace(ladder_cells=tuple(cells))
    report = ntk.check_witness(tampered)
    assert failed_sections(report) == {"mobius"}
    assert not report["passed"]
    assert report["mobius"]["chordOffsets"] == []


def test_prism_certificates():
    z6_prisms = ntk.check_witness(witness_for(ntk.cyclic(6)))["prisms"]
    assert z6_prisms["passed"] and z6_prisms["prismCount"] == 0

    group = _s3_times_cyclic(3)
    prisms = ntk.check_witness(witness_for(group))["prisms"]
    assert prisms["passed"]
    assert prisms["prismCount"] == 3 and prisms["cycleCount"] == 6
    assert prisms["matchingOffset"] == 2

    s3 = ntk.symmetric(3)
    prisms = ntk.check_witness(witness_for(s3))["prisms"]
    assert prisms["passed"] and prisms["prismCount"] == 1


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
    tampered = witness._replace(prism_cells=tuple(cells))
    report = ntk.check_witness(tampered)
    assert failed_sections(report) == {"prisms"}
    assert report["prisms"]["problems"] == [
        f"rows and columns do not close cycles of length {2 * k}",
        f"symbols do not pair cycle 2t position p with cycle 2t + 1 position p + {k}",
    ]


# Z6 ladders in walk order, (rows, columns), that depart from the layout in
# one way each, with the problems the certificate names
ODD_LADDERS = [
    # the row pairs, column pairs and chords hold, but pairs 0 and 2 (and 3
    # and 5) share a row
    (([0, 0, 1, 1, 0, 0, 3, 3, 4, 4, 3, 3], [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0]),
     ["4 distinct rows, expected 6", "4 distinct symbols, expected 6"]),
    # the column pairs, chords and counts hold, but rows pair other positions
    (([2, 4, 2, 1, 5, 4, 5, 3, 1, 2, 0, 1], [3, 4, 4, 2, 2, 0, 0, 5, 5, 1, 1, 3]),
     ["rows and columns do not close cycles of length 12"]),
    # the row pairs, chords and counts hold, but columns pair other positions
    (([3, 3, 0, 0, 5, 5, 2, 2, 4, 4, 1, 1], [5, 2, 4, 1, 4, 1, 0, 3, 0, 3, 2, 5]),
     ["rows and columns do not close cycles of length 12"]),
]


@pytest.mark.parametrize("walk, problems", ODD_LADDERS)
def test_mobius_names_each_departure_from_the_layout(monkeypatch, walk, problems):
    # these ladders' extractions would fail, so only the layout comparison runs
    monkeypatch.setattr("ntk.graphs.extract_near_transversal", lambda witness: ())
    cells = list(zip(*walk))
    witness = witness_for(ntk.cyclic(6))._replace(
        ladder_cells=tuple(cells[0::2] + cells[1::2]))
    report = ntk.check_witness(witness)
    assert failed_sections(report) == {"mobius"}
    assert report["mobius"]["chordOffsets"] == [6]
    assert report["mobius"]["problems"] == problems


def test_prisms_count_their_cells(monkeypatch):
    # drop the last prism: the rest still follows the layout, but a prism is
    # missing; the extraction would fail, so only the layout comparison runs
    monkeypatch.setattr("ntk.graphs.extract_near_transversal", lambda witness: ())
    witness = witness_for(_s3_times_cyclic(3))
    cells = witness.prism_cells
    half, prism = len(cells) // 2, 2 * witness.dec.sylow_order
    fewer = cells[:half - prism] + cells[half:-prism]
    report = ntk.check_witness(witness._replace(prism_cells=fewer))
    assert failed_sections(report) == {"prisms"}
    assert report["prisms"]["problems"] == ["16 cells, expected 24"]
    assert report["prisms"]["cycleCount"] == 4


def test_full_witness_check_catalog():
    for group in cyclic_nontrivial_groups(100):
        report = ntk.check_witness(witness_for(group))
        assert report["passed"], group.label


def test_witness_families_sharing_a_cell_raise_duplicate_cell():
    group = _s3_times_cyclic(3)
    witness = witness_for(group)
    shared = list(witness.prism_cells)
    shared[0] = witness.ladder_cells[0]
    tampered = witness._replace(prism_cells=tuple(shared))
    with pytest.raises(DuplicateCell):
        ntk.check_witness(tampered)


def _bucket_cross_edges(square, left, right):
    # the per-label count of (left, right) pairs sharing a row, column or
    # symbol, counted from the table
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
    crossing = {lab: 0 for lab in (ROW, COLUMN, SYMBOL)}
    for u, v, lab in graph.edges:
        if u < split <= v:
            crossing[lab] += 1
    assert crossing == _bucket_cross_edges(square, cells[:split], cells[split:])


def test_witness_report_json_keys():
    group = ntk.cyclic(6)
    data = ntk.check_witness(witness_for(group))
    assert list(data) == ["claim1", "mobius", "prisms", "independentSetSize", "passed"]
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


# (size, witness) of max_independent_set on each ladder witness graph: to Z20
# and Dic3 as the solver gave them before it kept a memo of solved vertex
# sets, Z22 to S3 x Z5 (the largest graphs of the benchmark) as the memo
# solver gave them before its bit loops were inlined, and Z2 to S3 x Z3 (the
# rest of the benchmark's 29) as the memo solver gave them before the size
# was found apart from the witness
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
    "Z22": (21, ((0, 0), (13, 13), (4, 4), (17, 17), (8, 8), (21, 21), (12, 12), (3, 3),
             (16, 16), (7, 7), (20, 20), (11, 2), (2, 15), (15, 6), (6, 19), (19, 10), (10, 1),
             (1, 14), (14, 5), (5, 18), (18, 9))),
    "Z24": (23, ((0, 0), (11, 11), (22, 22), (9, 9), (20, 20), (7, 7), (18, 18), (5, 5),
             (16, 16), (3, 3), (14, 14), (13, 13), (1, 12), (12, 23), (23, 10), (10, 21),
             (21, 8), (8, 19), (19, 6), (6, 17), (17, 4), (4, 15), (15, 2))),
    "Z26": (25, ((0, 0), (15, 15), (4, 4), (19, 19), (8, 8), (23, 23), (12, 12), (1, 1),
             (16, 16), (5, 5), (20, 20), (9, 9), (24, 24), (13, 2), (2, 17), (17, 6), (6, 21),
             (21, 10), (10, 25), (25, 14), (14, 3), (3, 18), (18, 7), (7, 22), (22, 11))),
    "Z28": (27, ((0, 0), (11, 11), (22, 22), (5, 5), (16, 16), (27, 27), (10, 10), (21, 21),
             (4, 4), (15, 15), (26, 26), (9, 9), (20, 20), (17, 17), (3, 14), (14, 25),
             (25, 8), (8, 19), (19, 2), (2, 13), (13, 24), (24, 7), (7, 18), (18, 1), (1, 12),
             (12, 23), (23, 6))),
    "Z30": (29, ((0, 0), (17, 17), (4, 4), (21, 21), (8, 8), (25, 25), (12, 12), (29, 29),
             (16, 16), (3, 3), (20, 20), (7, 7), (24, 24), (11, 11), (28, 28), (15, 2),
             (2, 19), (19, 6), (6, 23), (23, 10), (10, 27), (27, 14), (14, 1), (1, 18),
             (18, 5), (5, 22), (22, 9), (9, 26), (26, 13))),
    "Dic5": (19, ((0, 0), (18, 12), (9, 9), (19, 11), (8, 8), (10, 10), (7, 7), (11, 19),
              (6, 6), (17, 13), (12, 5), (5, 17), (13, 4), (4, 16), (14, 3), (3, 15), (15, 2),
              (2, 14), (16, 1))),
    "Dic7": (27, ((0, 0), (26, 16), (11, 11), (15, 27), (8, 8), (18, 24), (5, 5), (21, 21),
              (2, 2), (24, 18), (13, 13), (27, 15), (10, 10), (23, 19), (16, 7), (7, 23),
              (19, 4), (4, 20), (22, 1), (1, 17), (25, 12), (12, 14), (14, 9), (9, 25),
              (17, 6), (6, 22), (20, 3))),
    "S3 x Z5": (29, ((0, 0), (6, 6), (2, 2), (8, 8), (4, 4), (5, 1), (1, 7), (7, 3), (3, 9),
                 (15, 15), (25, 10), (16, 16), (26, 11), (17, 17), (27, 12), (18, 18),
                 (28, 13), (19, 19), (29, 14), (20, 25), (10, 20), (21, 26), (11, 21),
                 (22, 27), (12, 22), (23, 28), (13, 23), (24, 29), (14, 24))),
    "Z2": (1, ((0, 0),)),
    "Z4": (3, ((0, 0), (3, 3), (1, 2))),
    "D1": (1, ((0, 0),)),
    "D3": (5, ((0, 0), (1, 1), (4, 5), (2, 4), (5, 2))),
    "D5": (9, ((0, 0), (1, 1), (6, 9), (2, 2), (7, 8), (4, 6), (9, 4), (3, 7), (8, 3))),
    "D7": (13, ((0, 0), (1, 1), (8, 13), (2, 2), (9, 12), (3, 3), (10, 11), (6, 8), (13, 6),
                (5, 9), (12, 5), (4, 10), (11, 4))),
    "D9": (17, ((0, 0), (1, 1), (10, 17), (2, 2), (11, 16), (3, 3), (12, 15), (4, 4),
                (13, 14), (8, 10), (17, 8), (7, 11), (16, 7), (6, 12), (15, 6), (5, 13),
                (14, 5))),
    "D11": (21, ((0, 0), (1, 1), (12, 21), (2, 2), (13, 20), (3, 3), (14, 19), (4, 4),
                 (15, 18), (5, 5), (16, 17), (10, 12), (21, 10), (9, 13), (20, 9), (8, 14),
                 (19, 8), (7, 15), (18, 7), (6, 16), (17, 6))),
    "D13": (25, ((0, 0), (1, 1), (14, 25), (2, 2), (15, 24), (3, 3), (16, 23), (4, 4),
                 (17, 22), (5, 5), (18, 21), (6, 6), (19, 20), (12, 14), (25, 12), (11, 15),
                 (24, 11), (10, 16), (23, 10), (9, 17), (22, 9), (8, 18), (21, 8), (7, 19),
                 (20, 7))),
    "D15": (29, ((0, 0), (1, 1), (16, 29), (2, 2), (17, 28), (3, 3), (18, 27), (4, 4),
                 (19, 26), (5, 5), (20, 25), (6, 6), (21, 24), (7, 7), (22, 23), (14, 16),
                 (29, 14), (13, 17), (28, 13), (12, 18), (27, 12), (11, 19), (26, 11),
                 (10, 20), (25, 10), (9, 21), (24, 9), (8, 22), (23, 8))),
    "Dic1": (3, ((0, 0), (3, 3), (2, 1))),
    "S3 x Z3": (17, ((0, 0), (4, 4), (2, 2), (3, 1), (1, 5), (9, 9), (15, 6), (10, 10),
                     (16, 7), (11, 11), (17, 8), (12, 15), (6, 12), (13, 16), (7, 13),
                     (14, 17), (8, 14))),
}


@pytest.mark.parametrize("spec", sorted(LADDER_MIS))
def test_mis_on_ladder_witness_graphs_unchanged(spec):
    group, _ = parse_group_spec(spec)
    graph = ntk.induced_subgraph(ntk.cayley_square(group), witness_for(group).all_cells)
    assert ntk.max_independent_set(graph) == LADDER_MIS[spec]


@pytest.mark.parametrize("spec", ["Z42", "Dic9", "Z2 x Z21"])
def test_mis_matches_reference_past_the_guard(spec):
    group, _ = parse_group_spec(spec)
    graph = ntk.induced_subgraph(ntk.cayley_square(group), witness_for(group).all_cells)
    assert ntk.max_independent_set(graph, guard=100) == _reference_mis(graph, guard=100)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 26), st.floats(0, 1), st.randoms(use_true_random=False))
def test_mis_matches_reference_on_random_graphs(n, density, rng):
    edges = tuple((u, v, ROW) for u, v in itertools.combinations(range(n), 2)
                  if rng.random() < density)
    graph = LabeledGraph(tuple((v, v) for v in range(n)), edges)
    assert ntk.max_independent_set(graph) == _reference_mis(graph)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mis_matches_reference_on_drawn_cells(data):
    group = data.draw(st.sampled_from([e.group for e in builtin_catalog(8)]))
    all_cells = list(itertools.product(range(group.n), repeat=2))
    cells = data.draw(st.lists(st.sampled_from(all_cells), unique=True, max_size=40))
    graph = ntk.induced_subgraph(ntk.cayley_square(group), cells)
    assert ntk.max_independent_set(graph) == _reference_mis(graph)


# ---------------------------------------------------------------------------
# max_independent_set as it was before it found the size apart from the
# witness, kept only as the reference that the solver is compared with

def _reference_mis(graph: LabeledGraph, *,
                   guard: int | None = None) -> tuple[int, tuple[Cell, ...]]:
    """Exact maximum independent set, by exhaustive branching with a memo.

    Splits the vertex set into connected components and branches on a
    maximum-degree vertex of each (take it, or leave it out); once every
    degree in a component drops to 2 the remainder is a disjoint union of
    paths and cycles and is solved in closed form. There is no bound: the
    search stays exact by solving each vertex set that it meets once, in a
    memo local to the call. The result depends on the vertex set alone, so
    the memo changes neither the size nor the witness. Guarded by vertex
    count.
    """
    n = len(graph.vertices)
    ensure_within("independent_set", n, guard, error=TooLarge)
    adj = graph.adjacency_masks()
    full = (1 << n) - 1

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def component(mask: int) -> int:
        comp = frontier = mask & -mask
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & mask & ~comp
            comp |= frontier
        return comp

    def solve_sparse(mask: int) -> tuple[int, int]:
        # every vertex in mask has degree <= 2: paths and cycles
        best_size, chosen = 0, 0
        remaining = mask
        while remaining:
            comp = component(remaining)
            remaining &= ~comp
            members = list(bits(comp))
            degs = {v: (adj[v] & comp).bit_count() for v in members}
            ends = [v for v in members if degs[v] <= 1]
            if ends:
                start = min(ends)  # path (or isolated vertex)
                is_cycle = False
            else:
                start = min(members)
                is_cycle = True
            order = [start]
            seen = 1 << start
            while True:
                nxt = adj[order[-1]] & comp & ~seen
                if not nxt:
                    break
                v = (nxt & -nxt).bit_length() - 1
                order.append(v)
                seen |= 1 << v
            count = len(order)
            take = count // 2 if is_cycle else (count + 1) // 2
            for i in range(take):
                chosen |= 1 << order[2 * i]
            best_size += take
        return best_size, chosen

    solved: dict[int, tuple[int, int]] = {0: (0, 0)}

    def solve(mask: int) -> tuple[int, int]:
        if mask in solved:
            return solved[mask]
        comp = component(mask)
        if comp != mask:
            s1, c1 = solve(comp)
            s2, c2 = solve(mask ^ comp)
            best = s1 + s2, c1 | c2
        else:
            pick, pick_deg, todo = -1, -1, mask
            while todo:
                v = (todo & -todo).bit_length() - 1
                todo ^= 1 << v
                d = (adj[v] & mask).bit_count()
                if d > pick_deg:
                    pick, pick_deg = v, d
            if pick_deg <= 2:
                best = solve_sparse(mask)
            else:
                s_in, c_in = solve(mask & ~(adj[pick] | (1 << pick)))
                s_out, c_out = solve(mask & ~(1 << pick))
                best = (s_in + 1, c_in | 1 << pick) if s_in + 1 >= s_out else (s_out, c_out)
        solved[mask] = best
        return best

    size, chosen = solve(full)
    witness = tuple(graph.vertices[v] for v in bits(chosen))
    return size, witness


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
        km = witness.dec.sylow_order * witness.dec.fixed_order
        if 2 * km > 16:
            continue
        ladder = _nx_from_labeled(
            ntk.induced_subgraph(ntk.cayley_square(group), witness.ladder_cells))
        reference = nx.circulant_graph(2 * km, [1, km])
        assert nx.is_isomorphic(ladder, reference)


def test_prism_components_match_reference_generators():
    for group in (ntk.symmetric(3), _s3_times_cyclic(3)):
        witness = witness_for(group)
        dec = witness.dec
        whole = ntk.induced_subgraph(ntk.cayley_square(group), witness.prism_cells)
        g = _nx_from_labeled(whole)
        components = list(nx.connected_components(g))
        assert len(components) == (dec.odd_order - dec.fixed_order) // 2
        reference = nx.circular_ladder_graph(2 * dec.sylow_order)
        for comp in components:
            assert nx.is_isomorphic(g.subgraph(comp), reference)
