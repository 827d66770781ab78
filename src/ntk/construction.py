"""Explicit near-transversal construction for group-based latin squares.

Pipeline for a group whose Sylow 2-subgroup is cyclic and nontrivial:

1. ``decompose``: split ``G = <b> ⋉ H`` where ``b`` generates a Sylow
   2-subgroup of order ``k`` and ``H`` is the normal odd-order part of
   order ``l = n/k``. Conjugation by the involution ``a = b^(k/2)`` is an
   order-2 automorphism of H; its fixed subgroup has odd order ``m``
   dividing ``l`` and the remaining ``l - m`` elements pair up under it.
2. ``build_witness``: materialize two interleaved cell families over the
   fixed part (the "ladder" cells, ``2km`` of them) and two over the moved
   part (the "prism" cells, ``2k(l-m)``), driven by a harmonious ordering
   of the fixed subgroup.
3. ``extract_near_transversal``: read off ``n - 1`` pairwise-independent
   cells: a greedy walk around the ladder rim yields ``km - 1`` and one
   bipartition side of every prism yields ``k`` per moved pair, twice.

Groups with trivial or non-cyclic Sylow 2-subgroup instead take a full
transversal from a complete mapping and drop one cell.

Every step re-verifies its structural invariants and raises
:class:`StructureViolation` on any failure, so a returned result is always
a checked near transversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidOrdering, NotApplicable, StructureViolation
from .groups import (
    CYCLIC_NONTRIVIAL,
    Group,
    SylowReport,
    _cached_orders,
    conjugation,
    is_subgroup,
    subgroup_closure,
    sylow2,
)
from .latin import Cell, cayley_square, is_partial_transversal
from .mappings import find_complete_mapping, harmonious_ordering, verify_harmonious

BRANCH_CONSTRUCTION = "construction"
BRANCH_COMPLETE_MAPPING = "complete-mapping"


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The data splitting G over its cyclic Sylow 2-subgroup.

    ``sylow_gen`` (order ``sylow_order = k``) generates the Sylow
    2-subgroup; ``odd_part`` is the normal subgroup of all odd-order
    elements (order ``odd_order = l``); ``involution`` is
    ``sylow_gen^(k/2)``; ``twist`` is conjugation by the involution;
    ``fixed_part``/``fixed_order`` are its fixed subgroup inside the odd
    part and that subgroup's (odd) order ``m``; ``moved_part`` is the rest
    of the odd part, paired up by the twist into ``orbit_pairs`` with the
    smaller index listed first; ``gen_powers`` lists ``sylow_gen^i`` for
    ``i`` in ``[k]``.
    """

    group: Group
    sylow_gen: int
    sylow_order: int
    involution: int
    odd_part: frozenset[int]
    odd_order: int
    twist: tuple[int, ...]
    fixed_part: frozenset[int]
    fixed_order: int
    moved_part: frozenset[int]
    orbit_pairs: tuple[tuple[int, int], ...]
    gen_powers: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Witness:
    """The four cell families inducing the ladder-plus-prisms subgraph.

    ``ladder_diag[i]`` / ``ladder_shift[i]`` (``i`` in ``[km]``) sit over
    the fixed block; ``prism_diag[(f, i)]`` / ``prism_shift[(f, i)]``
    (``f`` in the moved part, ``i`` in ``[k]``) over the moved block.
    ``ordering`` is the harmonious ordering used; indices into it are taken
    modulo ``m`` and generator exponents modulo ``k``.
    """

    dec: Decomposition
    ordering: tuple[int, ...]
    ladder_diag: tuple[Cell, ...]
    ladder_shift: tuple[Cell, ...]
    prism_diag: dict[tuple[int, int], Cell]
    prism_shift: dict[tuple[int, int], Cell]

    @property
    def ladder_cells(self) -> tuple[Cell, ...]:
        return self.ladder_diag + self.ladder_shift

    @property
    def prism_cells(self) -> tuple[Cell, ...]:
        return tuple(self.prism_diag.values()) + tuple(self.prism_shift.values())

    @property
    def all_cells(self) -> tuple[Cell, ...]:
        return self.ladder_cells + self.prism_cells


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """A verified near transversal plus the provenance of its branch."""

    group: Group
    branch: str
    cells: tuple[Cell, ...]
    sylow: SylowReport
    k: int
    l: int
    m: int | None = None
    ordering: tuple[int, ...] | None = None
    witness: Witness | None = None


def decompose(group: Group, *, report: SylowReport | None = None) -> Decomposition:
    """Split a cyclic-nontrivial-Sylow group over its odd-order normal part.

    The odd part is computed directly as the set of odd-order elements;
    for a cyclic Sylow 2-subgroup this is exactly the normal complement,
    and every property that makes it so is re-checked here (subgroup,
    normality, size, unique factorization), raising
    :class:`StructureViolation` if any fails. Normality is checked for
    conjugation by G's generators, whose products give every element.
    ``report`` is the group's :func:`sylow2` report when the caller has
    one already; it is computed here otherwise.
    """
    if report is None:
        report = sylow2(group)
    if report.classification != CYCLIC_NONTRIVIAL:
        raise NotApplicable(
            f"Sylow 2-subgroup is {report.classification}; the ladder "
            "construction needs it cyclic and nontrivial"
        )
    n = group.n
    k = report.k
    l = n // k
    b = report.generator
    assert b is not None
    table = group.table

    orders = _cached_orders(group)
    odd_part = frozenset(g for g in group.elements() if orders[g] % 2 == 1)
    if len(odd_part) != l:
        raise StructureViolation(
            f"odd-order elements number {len(odd_part)}, expected {l}"
        )
    if not is_subgroup(group, odd_part):
        raise StructureViolation("odd-order elements do not form a subgroup")
    for g in group.generators:
        row, g_inv = table[g], group.inverses[g]
        if any(table[row[h]][g_inv] not in odd_part for h in odd_part):
            raise StructureViolation("odd part is not normal")

    gen_powers = []
    x = group.identity
    for _ in range(k):
        gen_powers.append(x)
        x = table[x][b]
    factored = {table[p][h] for p in gen_powers for h in odd_part}
    if len(factored) != n:
        raise StructureViolation("generator powers times odd part do not cover G")
    if subgroup_closure(group, {b}) & odd_part != {group.identity}:
        raise StructureViolation("Sylow subgroup meets the odd part")

    a = gen_powers[k // 2]
    twist = conjugation(group, a)
    for h in odd_part:
        if twist[twist[h]] != h:
            raise StructureViolation("twist is not an involution on the odd part")

    fixed_part = frozenset(h for h in odd_part if twist[h] == h)
    m = len(fixed_part)
    if not is_subgroup(group, fixed_part):
        raise StructureViolation("twist fixed points do not form a subgroup")
    if m % 2 == 0 or l % m != 0:
        raise StructureViolation(f"fixed order m={m} must be odd and divide l={l}")
    moved_part = odd_part - fixed_part

    conj_b = conjugation(group, b)
    if {conj_b[h] for h in fixed_part} != fixed_part:
        raise StructureViolation("generator conjugation does not preserve the fixed part")
    if {conj_b[f] for f in moved_part} != moved_part:
        raise StructureViolation("generator conjugation does not preserve the moved part")
    if {table[f][f] for f in moved_part} != moved_part:
        raise StructureViolation("squaring does not permute the moved part")
    fixed_block = {table[p][h] for p in gen_powers for h in fixed_part}
    moved_block = {table[p][f] for p in gen_powers for f in moved_part}
    if fixed_block & moved_block:
        raise StructureViolation("fixed and moved row blocks intersect")

    pairs = tuple(
        (f, twist[f]) for f in sorted(moved_part) if f < twist[f]
    )
    if 2 * len(pairs) != len(moved_part):
        raise StructureViolation("twist is not fixed-point-free on the moved part")

    return Decomposition(
        group=group,
        sylow_gen=b,
        sylow_order=k,
        involution=a,
        odd_part=odd_part,
        odd_order=l,
        twist=twist,
        fixed_part=fixed_part,
        fixed_order=m,
        moved_part=moved_part,
        orbit_pairs=pairs,
        gen_powers=tuple(gen_powers),
    )


def build_witness(dec: Decomposition,
                  ordering: Sequence[int] | None = None) -> Witness:
    """Materialize the four cell families from a harmonious ordering.

    ``ordering`` defaults to the deterministic harmonious ordering of the
    fixed part; a supplied override is re-verified and rejected with
    :class:`InvalidOrdering` if it is not harmonious.
    """
    group = dec.group
    if ordering is None:
        ordering = harmonious_ordering(group, dec.fixed_part)
    else:
        ordering = tuple(int(x) for x in ordering)
        try:
            ok, collision = verify_harmonious(group, ordering, dec.fixed_part)
        except Exception as exc:
            raise InvalidOrdering(str(exc)) from exc
        if not ok:
            raise InvalidOrdering(f"ordering is not harmonious: {collision}")

    k, m = dec.sylow_order, dec.fixed_order
    km = k * m
    table = group.table
    powers = dec.gen_powers

    ladder_diag = []
    ladder_shift = []
    for i in range(km):
        h_i = ordering[i % m]
        h_next = ordering[(i + 1) % m]
        b_i = powers[i % k]
        b_next = powers[(i + 1) % k]
        row = table[b_i][h_i]
        ladder_diag.append((row, table[h_i][b_i]))
        ladder_shift.append((row, table[h_next][b_next]))
    ladder_diag = tuple(ladder_diag)
    ladder_shift = tuple(ladder_shift)

    prism_diag = {}
    prism_shift = {}
    for f in sorted(dec.moved_part):
        for i in range(k):
            row = table[powers[i]][f]
            prism_diag[(f, i)] = (row, table[f][powers[i]])
            prism_shift[(f, i)] = (row, table[f][powers[(i + 1) % k]])

    distinct = set(ladder_diag) | set(ladder_shift)
    if len(distinct) != 2 * km:
        raise StructureViolation("ladder cells are not pairwise distinct")
    prisms = set(prism_diag.values()) | set(prism_shift.values())
    if len(prisms) != 2 * k * (dec.odd_order - m):
        raise StructureViolation("prism cells are not pairwise distinct")
    if distinct & prisms:
        raise StructureViolation("ladder and prism cells intersect")

    return Witness(dec, ordering, ladder_diag, ladder_shift, prism_diag, prism_shift)


def rim_sequence(witness: Witness) -> tuple[Cell, ...]:
    """The ladder cells in rim order: diag[0], shift[0], diag[1], shift[1], ...

    Consecutive cells (cyclically) alternate sharing a row and a column, so
    this sequence walks the Hamilton cycle of the ladder's row/column edges.
    """
    out = []
    for d, s in zip(witness.ladder_diag, witness.ladder_shift):
        out.append(d)
        out.append(s)
    return tuple(out)


def extract_near_transversal(witness: Witness) -> tuple[Cell, ...]:
    """The n-1 independent cells the witness guarantees.

    From the ladder: the greedy walk around the rim settles on
    ``diag[0 .. km/2 - 1]`` followed by ``shift[km/2 .. km - 2]``. From each
    moved pair ``(f, partner)``: all ``k`` diagonal cells of f's cycle and
    all ``k`` shifted cells of the partner's cycle (one bipartition side of
    the prism). The result is re-validated before being returned.
    """
    dec = witness.dec
    k, m = dec.sylow_order, dec.fixed_order
    km = k * m
    half = km // 2
    cells = list(witness.ladder_diag[:half])
    cells.extend(witness.ladder_shift[half:km - 1])
    for f, partner in dec.orbit_pairs:
        cells.extend(witness.prism_diag[(f, i)] for i in range(k))
        cells.extend(witness.prism_shift[(partner, i)] for i in range(k))

    n = dec.group.n
    if len(cells) != n - 1:
        raise StructureViolation(f"extracted {len(cells)} cells, expected {n - 1}")
    ok, violation = is_partial_transversal(cayley_square(dec.group), cells)
    if not ok:
        raise StructureViolation(f"cells are not a partial transversal: {violation}")
    return tuple(cells)


def near_transversal(group: Group, *,
                     ordering: Sequence[int] | None = None,
                     guard: int | None = None) -> ConstructionResult:
    """A verified near transversal of the group's multiplication table.

    Dispatch: cyclic nontrivial Sylow 2-subgroup runs the ladder
    construction; odd order takes the identity complete mapping; non-cyclic
    Sylow searches for a complete mapping (guarded). The complete-mapping
    branches drop the last diagonal cell of the full transversal.
    """
    report = sylow2(group)
    n = group.n
    k = report.k
    if report.classification == CYCLIC_NONTRIVIAL:
        dec = decompose(group, report=report)
        witness = build_witness(dec, ordering)
        cells = extract_near_transversal(witness)
        return ConstructionResult(
            group=group,
            branch=BRANCH_CONSTRUCTION,
            cells=cells,
            sylow=report,
            k=k,
            l=dec.odd_order,
            m=dec.fixed_order,
            ordering=witness.ordering,
            witness=witness,
        )

    if n % 2 == 1:
        sigma: Sequence[int] | None = tuple(range(n))
    else:
        sigma = find_complete_mapping(group, guard=guard)
        if sigma is None:
            raise StructureViolation(
                "no complete mapping found for a group whose Sylow 2-subgroup "
                "is trivial or non-cyclic; this contradicts the classification"
            )
    cells = tuple((g, sigma[g]) for g in range(n - 1))
    ok, violation = is_partial_transversal(cayley_square(group), cells)
    if not ok:
        raise StructureViolation(f"cells are not a partial transversal: {violation}")
    return ConstructionResult(
        group=group,
        branch=BRANCH_COMPLETE_MAPPING,
        cells=cells,
        sylow=report,
        k=k,
        l=n // k,
    )


def display_orders(witness: Witness) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column element orders that make the witness legible.

    Rows: the ladder rows (generator block over the fixed part) first, then
    for each generator power the moved elements, pair by pair. Columns: the
    ladder columns, then the moved elements multiplied by generator powers
    on the right. Under this layout the two diagonal families sit exactly
    on the main diagonal.
    """
    dec = witness.dec
    table = dec.group.table
    powers = dec.gen_powers
    moved = [x for pair in dec.orbit_pairs for x in pair]
    rows = [cell[0] for cell in witness.ladder_diag]
    cols = [cell[1] for cell in witness.ladder_diag]
    for p in powers:
        rows.extend(table[p][f] for f in moved)
        cols.extend(table[f][p] for f in moved)
    return tuple(rows), tuple(cols)


def result_json(result: ConstructionResult, label: str | None = None) -> dict:
    """The construct artifact: group, parameters, row-sorted cell triples.

    ``verified`` is always true: :func:`near_transversal` raises instead of
    returning cells it could not check.
    """
    group = result.group
    cells = sorted(
        [r, c, group.table[r][c]] for r, c in result.cells
    )
    return {
        "group": label if label is not None else group.label,
        "n": group.n,
        "k": result.k,
        "l": result.l,
        "m": result.m,
        "branch": result.branch,
        "cells": cells,
        "ordering": (
            [group.names[h] for h in result.ordering]
            if result.ordering is not None else None
        ),
        "verified": True,
    }
