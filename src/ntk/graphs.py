"""Latin square graph machinery and structural witness verification.

Vertices of the latin square graph are cells; two cells are adjacent when
they share a row, a column, or a symbol, and every edge carries that label.
The witness certificate confirms, constructively, that the cells produced
by the construction module induce one Möbius ladder (over the fixed block)
plus a disjoint union of prisms (over the moved block), mirroring how the
guarantee is proved rather than calling a generic isomorphism test. It
builds no graph: it compares each cell family with its layout. A family
lists its diagonal cells first and its shifted cells in the same order,
so in walk order (diagonal 0, shifted 0, diagonal 1, ...) diagonal cell
``j`` sits at position ``2j`` and shifted cell ``j`` at ``2j + 1``. The
ladder's rim is walk positions ``0 .. 2km - 1``; prism cycle ``c`` is the
block of ``2k`` positions from ``2kc``, and cycles ``2t`` and ``2t + 1``
form prism ``t``. In every cycle, positions ``2j`` and ``2j + 1`` share a
row and ``2j + 1`` and the next share a column; the symbols pair the rim's
antipodes and the two cycles of a prism. Each row, column and symbol must
be shared by exactly the two cells the layout names, which is one slice
comparison per label and a count of distinct values.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Callable, Sequence

from .construction import Witness, extract_near_transversal
from .errors import DuplicateCell, TooLarge
from .guards import ensure_within
from .latin import Cell, LatinSquare

ROW = "row"
COLUMN = "column"
SYMBOL = "symbol"
LABELS = (ROW, COLUMN, SYMBOL)


class LabeledGraph(namedtuple("LabeledGraph", "vertices edges")):
    """Cells plus labeled edges; ``edges`` holds (u, v, label) with u < v
    indexing into ``vertices``."""

    __slots__ = ()

    def adjacency_masks(self) -> list[int]:
        masks = [0] * len(self.vertices)
        for u, v, _ in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


def _refuse_repeats(cells: Sequence[Cell]) -> None:
    if len(set(cells)) != len(cells):
        dup = next(c for c in cells if cells.count(c) > 1)
        raise DuplicateCell(f"cell {dup} appears more than once")


def induced_subgraph(square: LatinSquare, cells: Sequence[Cell]) -> LabeledGraph:
    """All and only the labeled edges among ``cells``.

    Cells are bucketed by row, column and symbol, so the cost is the output
    size plus O(|cells|) rather than a blind pairwise scan.
    """
    verts = tuple((int(r), int(c)) for r, c in cells)
    _refuse_repeats(verts)
    index = {v: i for i, v in enumerate(verts)}
    symbol = square.symbol
    buckets: dict[str, dict[int, list[int]]] = {lab: {} for lab in LABELS}
    for v, i in index.items():
        r, c = v
        buckets[ROW].setdefault(r, []).append(i)
        buckets[COLUMN].setdefault(c, []).append(i)
        buckets[SYMBOL].setdefault(symbol(r, c), []).append(i)
    edges = []
    for lab in LABELS:
        for group in buckets[lab].values():
            group.sort()
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    edges.append((group[a], group[b], lab))
    edges.sort()
    return LabeledGraph(verts, tuple(edges))


# ---------------------------------------------------------------------------
# exact maximum independent set

def max_independent_set(graph: LabeledGraph, *,
                        guard: int | None = None) -> tuple[int, tuple[Cell, ...]]:
    """Exact maximum independent set, in two passes: its size α by
    reductions, then a witness by replaying a fixed branching rule.

    α of a vertex set does not depend on how it is found, so ``alpha`` may
    use any exact rule: it takes vertices of degree at most 1 (each lies in
    some maximum set) until none is left, adds up connected components,
    counts a connected remainder of degree 2, a cycle, as half its length
    rounded down, and otherwise branches on a vertex of maximum degree,
    with a memo local to the call. The replay splits the vertex set into
    components, branches on the lowest-index vertex of maximum degree, and
    solves a component of degree at most 2 (paths and cycles) in closed
    form. At each branch it compares α with the vertex taken and α with it
    left out, takes the vertex on a tie, and follows that branch alone, so
    the witness is the one an exhaustive search by the same rule returns.
    Guarded by vertex count.
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

    def densest(mask: int) -> tuple[int, int]:
        # the lowest-index vertex of maximum degree in mask, and its degree
        pick, pick_deg, todo = -1, -1, mask
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo ^= 1 << v
            d = (adj[v] & mask).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        return pick, pick_deg

    sizes: dict[int, int] = {0: 0}

    def alpha(mask: int) -> int:
        if mask in sizes:
            return sizes[mask]
        key, size, todo = mask, 0, mask
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo ^= 1 << v
            near = adj[v] & mask
            if mask >> v & 1 and not near & (near - 1):  # degree at most 1
                mask &= ~(near | 1 << v)
                size += 1
                if near:
                    todo |= adj[near.bit_length() - 1] & mask
        comp = component(mask)
        if comp != mask:
            size += alpha(comp) + alpha(mask ^ comp)
        elif mask:
            pick, pick_deg = densest(mask)
            if pick_deg <= 2:
                size += mask.bit_count() // 2
            else:
                size += max(alpha(mask & ~(adj[pick] | 1 << pick)) + 1,
                            alpha(mask & ~(1 << pick)))
        sizes[key] = size
        return size

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

    def solve(mask: int) -> tuple[int, int]:
        comp = component(mask)
        if comp != mask:
            s1, c1 = solve(comp)
            s2, c2 = solve(mask ^ comp)
            return s1 + s2, c1 | c2
        pick, pick_deg = densest(mask)
        if pick_deg <= 2:
            return solve_sparse(mask)
        inside = mask & ~(adj[pick] | 1 << pick)
        if alpha(inside) + 1 >= alpha(mask & ~(1 << pick)):
            size, chosen = solve(inside)
            return size + 1, chosen | 1 << pick
        return solve(mask & ~(1 << pick))

    size, chosen = solve(full)
    witness = tuple(graph.vertices[v] for v in bits(chosen))
    return size, witness


# ---------------------------------------------------------------------------
# the witness certificate

def _walk_keys(cells: Sequence[Cell],
               mul: Callable[[int, int], int]) -> tuple[list[int], list[int], list[int]]:
    """The rows, columns and symbols of a family's cells in walk order:
    diagonal 0, shifted 0, diagonal 1, ... An odd family's last cell, which
    has no partner, goes last."""
    half = len(cells) // 2
    walk = [c for pair in zip(cells[:half], cells[half:]) for c in pair] + list(cells[2 * half:])
    rows = [r for r, _ in walk]
    cols = [c for _, c in walk]
    return rows, cols, list(map(mul, rows, cols))


def _layout_problems(keys, counts, size: int, cycle: int, chords_ok: bool,
                     chords: str) -> list[str]:
    """How one family departs from its layout: ``size`` cells in cycles of
    ``cycle`` walk positions, each row shared by positions ``2j`` and
    ``2j + 1``, each column by ``2j + 1`` and the next, each symbol by a
    chord pair, and nothing shared beyond those pairs."""
    rows, cols, _ = keys
    if len(rows) != size:
        return [f"{len(rows)} cells, expected {size}"]
    problems = []
    if rows[0::2] != rows[1::2] or any(
            cols[s + 1:s + cycle:2] != cols[s + 2:s + cycle:2] + cols[s:s + 1]
            for s in range(0, size, cycle)):
        problems.append(f"rows and columns do not close cycles of length {cycle}")
    if not chords_ok:
        problems.append(f"symbols do not pair {chords}")
    for lab, count in zip(LABELS, counts):
        if len(count) != size // 2:
            problems.append(f"{len(count)} distinct {lab}s, expected {size // 2}")
    return problems


def check_witness(witness: Witness) -> dict:
    """The ``verify`` report, as ``verify --format json`` prints it.

    Each family is compared with its layout in walk order (see the module
    docstring). The ladder is one cycle of ``2km`` walk positions whose
    symbols pair position ``p`` with ``p + km``; the prism cells are cycles
    of ``2k``, and cycle ``2t`` holds at position ``p`` the symbol of cycle
    ``2t + 1`` at ``p + k`` (mod ``2k``). ``claim1.crossEdges`` counts the
    ladder–prism pairs that share each label. ``chordOffsets`` is ``[km]``
    when the ladder's symbols pair as they should and empty otherwise.

    Raises :class:`DuplicateCell` on a repeated cell; the re-extraction
    raises :class:`StructureViolation` unless its n - 1 cells are
    independent.
    """
    dec = witness.dec
    k, l, m = dec.sylow_order, dec.odd_order, dec.fixed_order
    km = k * m
    _refuse_repeats(witness.all_cells)
    mul = dec.group.mul
    ladder = _walk_keys(witness.ladder_cells, mul)
    prisms = _walk_keys(witness.prism_cells, mul)
    ladder_counts = [Counter(keys) for keys in ladder]
    prism_counts = [Counter(keys) for keys in prisms]
    cross = {lab: sum(count * theirs[key] for key, count in ours.items())
             for lab, ours, theirs in zip(LABELS, ladder_counts, prism_counts)}

    syms, prism_syms = ladder[2], prisms[2]
    chords_ok = len(syms) == 2 * km and syms[:km] == syms[km:]
    matched = all(prism_syms[s:s + 2 * k]
                  == prism_syms[s + 3 * k:s + 4 * k] + prism_syms[s + 2 * k:s + 3 * k]
                  for s in range(0, len(prism_syms), 4 * k))
    ladder_problems = _layout_problems(ladder, ladder_counts, 2 * km, 2 * km, chords_ok,
                                       f"walk positions p and p + {km}")
    prism_problems = _layout_problems(
        prisms, prism_counts, 2 * k * (l - m), 2 * k, matched,
        f"cycle 2t position p with cycle 2t + 1 position p + {k}")
    report = {
        "claim1": {"passed": not any(cross.values()), "overlap": 0, "crossEdges": cross},
        "mobius": {"passed": not ladder_problems, "rimLength": 2 * km,
                   "chordOffsets": [km] if chords_ok else [], "problems": ladder_problems},
        "prisms": {"passed": not prism_problems,
                   "cycleCount": len(witness.prism_cells) // (2 * k),
                   "prismCount": (l - m) // 2, "matchingOffset": k,
                   "problems": prism_problems},
        "independentSetSize": len(extract_near_transversal(witness)),
    }
    report["passed"] = all(report[sec]["passed"] for sec in ("claim1", "mobius", "prisms"))
    return report
