"""Acceptance suite.

One test per criterion; each prints a single pass/fail line with its
runtime and enforces the stated budget. Everything is exact: fixtures,
equalities and exhaustive cross-checks, no tolerances.
"""

import itertools
import json
import random
import time
from pathlib import Path

import ntk
import ntk.cli
from ntk.catalog import _s3_times_cyclic, builtin_catalog
from ntk.groups import CYCLIC_NONTRIVIAL, NON_CYCLIC, TRIVIAL
from ntk.groupspec import parse_group_spec
from ntk.render import render_model

DATA = Path(__file__).parent / "data"


class _Budget:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s / {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name} exceeded its runtime budget: {elapsed:.2f}s"
            )
        return False


def _cyclic_nontrivial(max_order):
    return [e for e in builtin_catalog(max_order)
            if ntk.sylow2(e.group).classification == CYCLIC_NONTRIVIAL]


def test_criterion_1_order18_reference_layout():
    with _Budget("order-18 reference layout", 1.0):
        group = _s3_times_cyclic(3)
        b, c, d = group.index_of("b"), group.index_of("c"), group.index_of("d")
        e = group.identity
        # the generating relations of the presentation
        assert group.mul(b, b) == e
        assert group.power(c, 3) == e and group.power(d, 3) == e
        assert group.mul(b, c) == group.mul(c, b)
        assert group.mul(b, d) == group.mul(group.mul(d, d), b)

        dec = ntk.decompose(group)
        assert dec.sylow_order == 2
        assert dec.odd_order == 9
        assert dec.fixed_order == 3
        orders = ntk.element_orders(group)
        odd_part = {g for g in group.elements() if orders[g] % 2 == 1}
        assert odd_part == ntk.subgroup_closure(group, {c, d})
        assert dec.fixed_part == ntk.subgroup_closure(group, {c})

        ordering = (e, c, group.mul(c, c))  # fixed subgroup as 1, c, c2
        result = ntk.near_transversal(group, ordering=ordering)
        assert result.witness.ordering == ordering

        model = render_model(result)
        witness = result.witness
        row_pos = {g: i for i, g in enumerate(
            group.index_of(lbl) for lbl in model.row_labels)}
        col_pos = {g: j for j, g in enumerate(
            group.index_of(lbl) for lbl in model.col_labels)}
        ladder, prisms = witness.ladder_cells, witness.prism_cells
        diag_cells = ladder[:len(ladder) // 2] + prisms[:len(prisms) // 2]
        # the two diagonal families tile the main diagonal exactly
        assert {row_pos[r] for r, _ in diag_cells} == set(range(18))
        for r, cc in diag_cells:
            assert row_pos[r] == col_pos[cc]

        fixture = json.loads((DATA / "order18_reference_marks.json").read_text())
        assert list(model.row_labels) == fixture["row_labels"]
        assert list(model.col_labels) == fixture["col_labels"]
        expected_ladder = {(r, cc) for r, cc, _ in fixture["ladder"]}
        expected_prism = {(r, cc) for r, cc, _ in fixture["prism"]}
        assert set(model.ladder_marks) == expected_ladder
        assert set(model.prism_marks) == expected_prism
        for r, cc, symbol in fixture["ladder"] + fixture["prism"]:
            assert model.grid[r][cc] == symbol

        # the generic product construction renders the same marked coordinates
        grammar_group, _ = ntk.parse_group_spec("S3 x Z3")
        alt = render_model(ntk.near_transversal(grammar_group))
        assert set(alt.ladder_marks) == expected_ladder
        assert set(alt.prism_marks) == expected_prism


def test_criterion_2_construction_soundness_to_order_200():
    with _Budget("construction soundness <= 200", 60.0):
        entries = _cyclic_nontrivial(200)
        assert len(entries) >= 150  # the catalog must reach broadly
        for entry in entries:
            group = entry.group
            result = ntk.near_transversal(group)
            assert len(result.cells) == group.n - 1, entry.label
            square = ntk.cayley_square(group)
            ok, violation = ntk.is_partial_transversal(square, result.cells)
            assert ok, (entry.label, violation)
            report = ntk.check_witness(result.witness)
            assert report["claim1"]["passed"], entry.label
            assert report["mobius"]["passed"], entry.label
            assert report["prisms"]["passed"], entry.label
            assert report["passed"], entry.label


def test_criterion_3_oracle_equivalence_to_order_9():
    with _Budget("oracle equivalence <= 9", 30.0):
        entries = _cyclic_nontrivial(9)
        assert {e.group.n for e in entries} == {2, 4, 6, 8}
        for entry in entries:
            group = entry.group
            square = ntk.cayley_square(group)
            size, _ = ntk.max_partial_transversal(square)
            assert size == group.n - 1, entry.label
            assert ntk.brute_force_transversal(square) is None, entry.label
            result = ntk.near_transversal(group)
            assert len(result.cells) == size, entry.label
            assert not ntk.is_extendable(square, result.cells), entry.label


def test_criterion_4_complete_mapping_dichotomy_to_order_16():
    with _Budget("complete-mapping dichotomy <= 16", 60.0):
        entries = builtin_catalog(16)
        assert len(entries) >= 30
        for entry in entries:
            group = entry.group
            classification = ntk.sylow2(group).classification
            sigma = ntk.find_complete_mapping(group)
            if classification in (TRIVIAL, NON_CYCLIC):
                assert sigma is not None, entry.label
                assert ntk.is_complete_mapping(group, sigma), entry.label
            else:
                assert sigma is None, entry.label


def test_criterion_5_harmonious_suite_to_order_27():
    with _Budget("harmonious suite <= 27", 10.0):
        labels = set()
        for entry in builtin_catalog(27):
            group = entry.group
            if group.n % 2 == 0:
                continue
            labels.add(entry.label)
            ordering = ntk.harmonious_ordering(group)
            ok, collision = ntk.verify_harmonious(group, ordering)
            assert ok, (entry.label, collision)
            gen = next((g for g in group.elements()
                        if ntk.element_order(group, g) == group.n), None)
            if gen is not None:  # cyclic: the closed form g^i verifies
                closed = tuple(group.power(gen, i) for i in range(group.n))
                ok, collision = ntk.verify_harmonious(group, closed)
                assert ok, (entry.label, collision)
        assert {"Z7:Z3", "He3", "Z3xZ3", "Z3xZ5", "Z27"} <= labels


def test_non_cyclic_fixed_parts_through_sd(tmp_path):
    # Z2 x (Z_p : Z3) as Z6 acting on Z_p by x -> a^i x with a of order 3
    # mod p, and Z2 x (Z7 : Z9) as Z18 on Z7; the fixed part is the odd factor.
    cases = [(6, 7, 2), (6, 13, 3), (6, 31, 5), (6, 127, 19), (18, 7, 2)]
    with _Budget("non-cyclic fixed parts through sd:", 2.0):
        for k, p, a in cases:
            action = tmp_path / f"z{k}_on_z{p}.txt"
            action.write_text("".join(
                " ".join(str(pow(a, i, p) * x % p) for x in range(p)) + "\n"
                for i in range(k)))
            spec = f"sd:Z{k},Z{p},{action}"
            group, _ = parse_group_spec(spec)
            dec = ntk.decompose(group)
            assert dec.fixed_order == k * p // 2, spec
            assert all(ntk.element_order(group, h) < dec.fixed_order
                       for h in dec.fixed_part), spec  # not cyclic
            for command in ("construct", "verify"):
                assert ntk.cli.main([command, spec, "--format", "json"]) == 0, (command, spec)


def test_criterion_6_independent_set_optimality():
    with _Budget("independent-set optimality", 30.0):
        checked = 0
        for entry in _cyclic_nontrivial(200):
            group = entry.group
            if 2 * group.n > 60:
                continue
            result = ntk.near_transversal(group)
            witness = result.witness
            square = ntk.cayley_square(group)
            graph = ntk.induced_subgraph(square, witness.all_cells)
            size, chosen = ntk.max_independent_set(graph)
            assert size == group.n - 1, entry.label
            assert len(result.cells) == size, entry.label
            ok, _ = ntk.is_partial_transversal(square, chosen)
            assert ok, entry.label

            # literal greedy around the rim reproduces the closed-form picks
            dec = witness.dec
            km = dec.sylow_order * dec.fixed_order
            lad = witness.ladder_cells
            rim = [cell for pair in zip(lad[:km], lad[km:]) for cell in pair]
            ladder = ntk.induced_subgraph(square, lad)
            index = {cell: i for i, cell in enumerate(ladder.vertices)}
            masks = ladder.adjacency_masks()
            mask = 0
            greedy = []
            for cell in rim:
                if not masks[index[cell]] & mask:
                    mask |= 1 << index[cell]
                    greedy.append(cell)
            closed_form = list(lad[:km // 2]) + list(lad[km + km // 2:2 * km - 1])
            assert greedy == closed_form, entry.label

            # prism picks are one full bipartition side of every prism
            k, prisms = dec.sylow_order, witness.prism_cells
            half = len(prisms) // 2
            for t in range(len(dec.orbit_pairs)):
                f_diag = prisms[2 * t * k:(2 * t + 1) * k]
                partner_shift = prisms[half + (2 * t + 1) * k:half + (2 * t + 2) * k]
                picked = set(result.cells) & set(f_diag + partner_shift)
                assert len(picked) == 2 * dec.sylow_order
            checked += 1
        assert checked >= 25


def test_criterion_7_invariance_under_isotopy_and_conjugacy():
    with _Budget("isotopy/conjugacy invariance", 30.0):
        rng = random.Random(20260810)
        entries = [e for e in builtin_catalog(10)]
        for entry in entries:
            group = entry.group
            n = group.n
            square = ntk.cayley_square(group)
            cells = ntk.near_transversal(group).cells
            for _ in range(100):
                rp = rng.sample(range(n), n)
                cp = rng.sample(range(n), n)
                sp = rng.sample(range(n), n)
                image_square = ntk.apply_isotopy(square, rp, cp, sp)
                image_cells = ntk.map_cells(cells, rp, cp)
                ok, violation = ntk.is_partial_transversal(image_square, image_cells)
                assert ok, (entry.label, violation)
                assert len(image_cells) == n - 1
            for perm in itertools.permutations(("row", "column", "symbol")):
                conj = ntk.conjugate_square(square, perm)
                image_cells = ntk.conjugate_cells(square, cells, perm)
                ok, violation = ntk.is_partial_transversal(conj, image_cells)
                assert ok, (entry.label, perm, violation)
            if n <= 7:
                baseline = ntk.count_transversals(square)
                for perm in itertools.permutations(("row", "column", "symbol")):
                    conj = ntk.conjugate_square(square, perm)
                    assert ntk.count_transversals(conj) == baseline, (entry.label, perm)
