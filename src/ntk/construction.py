"""Explicit near-transversal construction for group-based latin squares.

Pipeline for a group whose Sylow 2-subgroup is cyclic and nontrivial:

1. ``decompose``: split ``G = <b> ⋉ H`` where ``b`` generates a Sylow
   2-subgroup of order ``k`` and ``H`` is the normal odd-order part of
   order ``l = n/k``. Conjugation by the involution ``a = b^(k/2)`` is an
   order-2 automorphism of H; its fixed subgroup has odd order ``m``
   dividing ``l`` and the remaining ``l - m`` elements pair up under it.
   The :class:`Decomposition` keeps ``k``, ``l``, the fixed subgroup, ``m``,
   the orbit pairs and the powers of ``b``; H and the twist are not kept.
2. ``build_witness``: materialize the ``2n`` witness cells as two flat
   families, driven by a harmonious ordering of the fixed subgroup: the
   "ladder" cells over the fixed part (``2km`` of them) and the "prism"
   cells over the orbit pairs (``2k(l-m)``). Each family lists its diagonal
   cells first and then its shifted cells in the same order.
3. ``extract_near_transversal``: read off ``n - 1`` pairwise-independent
   cells by position: a greedy walk around the ladder rim yields
   ``km - 1`` and one bipartition side of every prism yields ``2k``.

Groups with trivial or non-cyclic Sylow 2-subgroup instead take a full
transversal from a complete mapping and drop one cell.

Facts that follow from the group axioms, which every :class:`Group` has
passed, are not re-checked. ``decompose`` checks the two that rest on
Burnside's normal 2-complement theorem, and every returned cell set passes
:func:`is_partial_transversal`, raising :class:`StructureViolation` if it
fails, so a returned result is always a checked near transversal.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .errors import InvalidOrdering, NotApplicable, OrderTooLarge, StructureViolation
from .groups import (
    CYCLIC_NONTRIVIAL,
    Group,
    SylowReport,
    _cached_orders,
    conjugation,
    is_subgroup,
    sylow2,
)
from .latin import Cell, _search, _splits, cayley_square, is_partial_transversal
from .mappings import _checked_ordering

BRANCH_CONSTRUCTION = "construction"
BRANCH_COMPLETE_MAPPING = "complete-mapping"
# Even orders off the ladder branch up to this take the search's first complete
# mapping, as construct always printed. The search would now find one for D12
# in milliseconds, but a larger bound would change what construct prints for
# D10 and the groups after it, which take their closed form.
SEARCH_ORDER = 16


Decomposition = namedtuple(
    "Decomposition",
    "group sylow_gen sylow_order odd_order fixed_part fixed_order orbit_pairs gen_powers")
Decomposition.__doc__ = """The data splitting G over its cyclic Sylow 2-subgroup.

``sylow_gen`` (order ``sylow_order = k``) generates the Sylow 2-subgroup;
``odd_order = l`` is the order of the normal subgroup H of all odd-order
elements; ``fixed_part``/``fixed_order`` are the subgroup of H fixed by
conjugation with the involution ``sylow_gen^(k/2)`` and its (odd) order
``m``; ``orbit_pairs`` pairs up the other ``l - m`` elements of H under that
conjugation, the smaller index first; ``gen_powers`` lists ``sylow_gen^i``
for ``i`` in ``[k]``.
"""


class Witness(namedtuple("Witness", "dec ordering ladder_cells prism_cells")):
    """The ``2n`` witness cells, as two flat families in graph order.

    Each family lists its diagonal cells, then its shifted cells in the
    same order. Diagonal cell ``j`` and shifted cell ``j`` share a row, and
    shifted cell ``j`` shares a column with the next diagonal cell of its
    cycle, so visiting diagonal ``j`` at ``2j`` and shifted ``j`` at
    ``2j + 1`` walks the row/column cycles.

    ``ladder_cells`` (``2km``, over the fixed block) form one cycle, the
    rim: for ``i`` in ``[km]``, diagonal cell ``i`` is ``(b^i h_i, h_i b^i)``
    and shifted cell ``i`` is ``(b^i h_i, h_(i+1) b^(i+1))``.
    ``prism_cells`` (``2k(l-m)``, over the moved block) hold a run of ``k``
    cells per moved element ``f`` in each half, ``(b^i f, f b^i)`` and
    ``(b^i f, f b^(i+1))``. The moved elements come pair by pair in
    ``dec.orbit_pairs`` order, so orbit pair ``t`` owns cycles ``2t`` and
    ``2t + 1``. ``ordering`` is the harmonious ordering ``h``; indices into
    it are taken modulo ``m`` and generator exponents modulo ``k``.
    """

    __slots__ = ()

    @property
    def all_cells(self) -> tuple[Cell, ...]:
        return self.ladder_cells + self.prism_cells


ConstructionResult = namedtuple(
    "ConstructionResult", "group branch cells k witness", defaults=(None,))
ConstructionResult.__doc__ = """A verified near transversal plus the provenance of its branch.

``k`` is the order of the Sylow 2-subgroup. ``witness`` holds the
decomposition and the ordering on the construction branch and is None on the
complete-mapping branch.
"""


def decompose(group: Group, *, report: SylowReport | None = None) -> Decomposition:
    """Split a cyclic-nontrivial-Sylow group over its odd-order normal part.

    The odd part H is the set of odd-order elements. That it is a subgroup
    of order ``l = n/k`` is Burnside's normal 2-complement theorem, so it is
    checked, raising :class:`StructureViolation`. The rest follows from the
    group axioms and is not re-checked: H is normal and meets ``<b>`` only
    in the identity, every element is ``b^i h`` in exactly one way, and the
    twist is an involution whose fixed part ``C(a) ∩ H`` is a subgroup.
    ``report`` is the group's :func:`sylow2` report when the caller has one
    already; it is computed here otherwise.
    """
    if report is None:
        report = sylow2(group)
    if report.classification != CYCLIC_NONTRIVIAL:
        raise NotApplicable(
            f"Sylow 2-subgroup is {report.classification}; the ladder "
            "construction needs it cyclic and nontrivial"
        )
    k = report.k
    l = group.n // k
    b = report.generator
    assert b is not None
    mul = group.mul

    orders = _cached_orders(group)
    odd_part = [g for g in group.elements() if orders[g] % 2 == 1]
    if len(odd_part) != l:
        raise StructureViolation(
            f"odd-order elements number {len(odd_part)}, expected {l}"
        )
    if not is_subgroup(group, odd_part):
        raise StructureViolation("odd-order elements do not form a subgroup")

    gen_powers = []
    x = group.identity
    for _ in range(k):
        gen_powers.append(x)
        x = mul(x, b)
    a = gen_powers[k // 2]
    twist = conjugation(group, a)
    fixed_part = frozenset(h for h in odd_part if twist[h] == h)
    pairs = tuple((f, twist[f]) for f in odd_part if f < twist[f])
    return Decomposition(group, b, k, l, fixed_part, len(fixed_part), pairs,
                         tuple(gen_powers))


def build_witness(dec: Decomposition,
                  ordering: Sequence[int] | None = None) -> Witness:
    """Materialize the ladder and prism families from a harmonious ordering
    of the fixed part: ``ordering`` if given (:class:`InvalidOrdering` if it
    is not one), else the one :func:`harmonious_ordering` lifts. The fixed
    part is not re-tested to be a subgroup: ``decompose`` built it as one.

    Each product is computed once: shifted ladder cell ``i`` takes the
    column of diagonal cell ``i + 1`` (mod ``km``), and a prism's rows and
    columns serve both halves. The ``2n`` cells are pairwise distinct
    without a check: a row ``b^i h`` factors uniquely, and with
    ``gcd(k, m) = 1`` the ladder rows ``b^i h_i`` run over ``km`` distinct
    pairs ``(i mod k, i mod m)``.
    """
    ordering = _checked_ordering(dec.group, sorted(dec.fixed_part), ordering)
    k, m = dec.sylow_order, dec.fixed_order
    km = k * m
    mul = dec.group.mul
    powers = dec.gen_powers

    rows = [mul(powers[i % k], ordering[i % m]) for i in range(km)]
    cols = [mul(ordering[i % m], powers[i % k]) for i in range(km)]
    ladder = tuple(zip(rows, cols)) + tuple(zip(rows, cols[1:] + cols[:1]))
    diagonal: list[Cell] = []
    shifted: list[Cell] = []
    for f in [f for pair in dec.orbit_pairs for f in pair]:
        run_rows = [mul(p, f) for p in powers]
        run_cols = [mul(f, p) for p in powers]
        diagonal.extend(zip(run_rows, run_cols))
        shifted.extend(zip(run_rows, run_cols[1:] + run_cols[:1]))
    return Witness(dec, ordering, ladder, tuple(diagonal + shifted))


def extract_near_transversal(witness: Witness) -> tuple[Cell, ...]:
    """The n-1 independent cells the witness guarantees, read by position.

    From the ladder: the greedy walk around the rim settles on the diagonal
    cells ``0 .. km/2 - 1`` followed by the shifted cells
    ``km/2 .. km - 2``. From orbit pair ``t``: the ``k`` diagonal cells of
    cycle ``2t`` and the ``k`` shifted cells of cycle ``2t + 1`` (one
    bipartition side of their prism). The result is re-validated before
    being returned.
    """
    dec = witness.dec
    k, m = dec.sylow_order, dec.fixed_order
    km = k * m
    ladder, prisms = witness.ladder_cells, witness.prism_cells
    shifted = len(prisms) // 2
    cells = list(ladder[:km // 2] + ladder[km + km // 2:2 * km - 1])
    for s in range(0, shifted, 2 * k):
        cells.extend(prisms[s:s + k] + prisms[shifted + s + k:shifted + s + 2 * k])

    n = dec.group.n
    if len(cells) != n - 1:
        raise StructureViolation(f"extracted {len(cells)} cells, expected {n - 1}")
    return _checked_cells(dec.group, cells)


def _checked_cells(group: Group, cells: Sequence[Cell]) -> tuple[Cell, ...]:
    """``cells`` as a tuple, once the output check has passed them."""
    ok, violation = is_partial_transversal(cayley_square(group), cells)
    if not ok:
        raise StructureViolation(f"cells are not a partial transversal: {violation}")
    return tuple(cells)


def near_transversal(group: Group, *,
                     ordering: Sequence[int] | None = None) -> ConstructionResult:
    """A verified near transversal of the group's multiplication table.

    Dispatch: cyclic nontrivial Sylow 2-subgroup runs the ladder
    construction; odd order takes the identity complete mapping; else up to
    :data:`SEARCH_ORDER` the search kernel's first complete mapping, past it
    the closed form the constructor stored (D_n and Dic_n with even n), and
    any other group raises :class:`OrderTooLarge`. The complete-mapping
    branches drop the last diagonal cell of the full transversal; they take
    no ordering, so one given for them raises :class:`InvalidOrdering`.
    """
    report = sylow2(group)
    n = group.n
    k = report.k
    if report.classification == CYCLIC_NONTRIVIAL:
        dec = decompose(group, report=report)
        witness = build_witness(dec, ordering)
        cells = extract_near_transversal(witness)
        return ConstructionResult(group, BRANCH_CONSTRUCTION, cells, k, witness)

    if ordering is not None:
        raise InvalidOrdering(
            f"an ordering applies only to the ladder construction; the Sylow "
            f"2-subgroup is {report.classification}"
        )
    if n % 2 == 1:
        sigma: Sequence[int] | None = tuple(range(n))
    elif n <= SEARCH_ORDER:
        # a group table's columns are regular
        sigma = _search(group.table, pin=True, blocks=_splits(group))
    elif "complete_mapping" in group._cache:
        sigma = group._cache["complete_mapping"]()
    else:
        raise OrderTooLarge(
            f"no closed-form complete mapping for a group of order {n} > {SEARCH_ORDER}; to "
            f"search for one, run `ntk oracle completemapping <spec> --guard-override {n}`")
    if sigma is None:
        raise StructureViolation("no complete mapping found for a group whose Sylow 2-subgroup "
                                 "is trivial or non-cyclic; this contradicts the classification")
    return ConstructionResult(group, BRANCH_COMPLETE_MAPPING,
                              _checked_cells(group, [(g, sigma[g]) for g in range(n - 1)]), k)


def display_orders(witness: Witness) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column element orders that make the witness legible.

    Rows: the ladder rows (generator block over the fixed part) first, then
    for each generator power the moved elements, pair by pair. Columns: the
    ladder columns, then the moved elements multiplied by generator powers
    on the right. Under this layout the two diagonal families sit exactly
    on the main diagonal.
    """
    dec = witness.dec
    k = dec.sylow_order
    diagonal = witness.prism_cells[:len(witness.prism_cells) // 2]
    cells = witness.ladder_cells[:k * dec.fixed_order] + tuple(
        cell for i in range(k) for cell in diagonal[i::k])
    rows, cols = zip(*cells)
    return rows, cols


def result_json(result: ConstructionResult, label: str | None = None) -> dict:
    """The construct artifact: group, parameters, row-sorted cell triples.

    ``verified`` is always true: :func:`near_transversal` raises instead of
    returning cells it could not check.
    """
    group, witness = result.group, result.witness
    cells = sorted([r, c, group.mul(r, c)] for r, c in result.cells)
    return {
        "group": label if label is not None else group.label,
        "n": group.n,
        "k": result.k,
        "l": group.n // result.k,
        "m": witness.dec.fixed_order if witness else None,
        "branch": result.branch,
        "cells": cells,
        "ordering": [group.names[h] for h in witness.ordering] if witness else None,
        "verified": True,
    }
