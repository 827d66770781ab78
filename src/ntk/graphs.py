"""Latin square graph machinery and structural witness verification.

Vertices of the latin square graph are cells; two cells are adjacent when
they share a row, a column, or a symbol, and every edge carries that label.
The witness checks below certify, constructively, that the cells produced
by the construction module induce one Möbius ladder (over the fixed block)
plus a disjoint union of prisms (over the moved block), mirroring how the
guarantee is proved rather than calling a generic isomorphism test. They
all read one graph, induced on the ladder cells and then the prism cells,
and place each cell by its position in its family alone. A family lists
its diagonal cells first and its shifted cells in the same order, so
diagonal cell ``j`` sits at walk position ``2j`` and shifted cell ``j`` at
``2j + 1``. The ladder's rim is walk positions ``0 .. 2km - 1``; prism
cycle ``c`` is the block of ``2k`` positions from ``2kc``, and cycles
``2t`` and ``2t + 1`` form prism ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .construction import Witness, extract_near_transversal
from .errors import DuplicateCell, TooLarge
from .guards import ensure_within
from .latin import Cell, LatinSquare, cayley_square

ROW = "row"
COLUMN = "column"
SYMBOL = "symbol"
LABELS = (ROW, COLUMN, SYMBOL)


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Cells plus labeled edges; ``edges`` holds (u, v, label) with u < v
    indexing into ``vertices``."""

    vertices: tuple[Cell, ...]
    edges: tuple[tuple[int, int, str], ...]

    def adjacency_masks(self) -> list[int]:
        masks = [0] * len(self.vertices)
        for u, v, _ in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def block(self, start: int, stop: int) -> "LabeledGraph":
        """The subgraph on ``vertices[start:stop]``, renumbered from 0."""
        edges = tuple((u - start, v - start, lab) for u, v, lab in self.edges
                      if start <= u and v < stop)
        return LabeledGraph(self.vertices[start:stop], edges)


def induced_subgraph(square: LatinSquare, cells: Sequence[Cell]) -> LabeledGraph:
    """All and only the labeled edges among ``cells``.

    Cells are bucketed by row, column and symbol, so the cost is the output
    size plus O(|cells|) rather than a blind pairwise scan.
    """
    verts = tuple((int(r), int(c)) for r, c in cells)
    if len(set(verts)) != len(verts):
        dup = next(v for v in verts if verts.count(v) > 1)
        raise DuplicateCell(f"cell {dup} appears more than once")
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
        start = mask & -mask
        comp = start
        frontier = start
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v] & mask
            grow &= ~comp
            comp |= grow
            frontier = grow
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
            pick, pick_deg = -1, -1
            for v in bits(mask):
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
# witness structure reports

@dataclass(frozen=True)
class WitnessShape:
    """Expected shape parameters of the induced subgraph."""

    k: int
    l: int
    m: int
    ladder_size: int      # km: the ladder has a rim of length 2km
    cycle_length: int     # 2k: each prism is built from two cycles this long
    prism_count: int      # (l - m) / 2

    @classmethod
    def of(cls, witness: Witness) -> "WitnessShape":
        dec = witness.dec
        k, l, m = dec.sylow_order, dec.odd_order, dec.fixed_order
        return cls(k, l, m, k * m, 2 * k, (l - m) // 2)


@dataclass(frozen=True)
class SeparationReport:
    passed: bool
    overlap: int
    cross_edges: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"passed": self.passed, "overlap": self.overlap,
                "crossEdges": dict(self.cross_edges)}


@dataclass(frozen=True)
class MobiusReport:
    passed: bool
    rim_length: int
    chord_offsets: tuple[int, ...]
    problems: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"passed": self.passed, "rimLength": self.rim_length,
                "chordOffsets": list(self.chord_offsets),
                "problems": list(self.problems)}


@dataclass(frozen=True)
class PrismReport:
    passed: bool
    cycle_count: int
    prism_count: int
    matching_offset: int
    problems: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"passed": self.passed, "cycleCount": self.cycle_count,
                "prismCount": self.prism_count,
                "matchingOffset": self.matching_offset,
                "problems": list(self.problems)}


@dataclass(frozen=True)
class WitnessReport:
    separation: SeparationReport
    mobius: MobiusReport
    prisms: PrismReport
    size_ok: bool
    extracted_size: int

    @property
    def passed(self) -> bool:
        return (self.separation.passed and self.mobius.passed
                and self.prisms.passed and self.size_ok)

    def to_json(self) -> dict:
        return {
            "claim1": self.separation.to_json(),
            "mobius": self.mobius.to_json(),
            "prisms": self.prisms.to_json(),
            "independentSetSize": self.extracted_size,
            "passed": self.passed,
        }


def check_separation(graph: LabeledGraph, witness: Witness) -> SeparationReport:
    """No edge of the witness graph joins a ladder cell to a prism cell.

    Two distinct cells share at most one of row, column and symbol, so
    each label's count is the number of cross pairs sharing that label.
    """
    split = len(witness.ladder_cells)
    crossing = [lab for u, v, lab in graph.edges if u < split <= v]
    cross = {lab: crossing.count(lab) for lab in LABELS}
    return SeparationReport(not crossing, 0, cross)


def _walk(family_size: int) -> list[int]:
    """The walk position of each member of a family listed diagonal cells
    first: diagonal cell ``j`` sits at ``2j``, shifted cell ``j`` at
    ``2j + 1``."""
    return list(range(0, family_size, 2)) + list(range(1, family_size, 2))


def check_mobius(graph: LabeledGraph, witness: Witness) -> MobiusReport:
    """The ladder cells, first in the witness graph, induce a Möbius ladder.

    Certified structurally: one row, one column and one symbol edge per
    vertex; the row/column edges are exactly the rim cycle of length 2km,
    joining consecutive walk positions; every symbol edge is an antipodal
    chord (walk offset km).
    """
    km = WitnessShape.of(witness).ladder_size
    rim = 2 * km
    graph = graph.block(0, rim)
    walk = _walk(rim)
    problems: list[str] = []

    size = len(graph.vertices)
    degrees = {lab: [0] * size for lab in LABELS}  # degrees[lab][u]
    rim_edges = sym_count = 0
    on_rim = True
    offsets = set()
    for u, v, lab in graph.edges:
        tally = degrees[lab]
        tally[u] += 1
        tally[v] += 1
        d = (walk[v] - walk[u]) % rim
        if lab == SYMBOL:
            sym_count += 1
            offsets.add(min(d, rim - d))
        else:
            rim_edges += 1
            on_rim = on_rim and d in (1, rim - 1)
    ones = [1] * size
    if any(tally != ones for tally in degrees.values()):
        u = next(u for u in range(size)
                 if any(tally[u] != 1 for tally in degrees.values()))
        degs = {lab: degrees[lab][u] for lab in LABELS}
        problems.append(f"vertex {graph.vertices[u]} has label degrees {degs}")
    if not on_rim or rim_edges != rim:
        problems.append(
            f"row/column edges do not form the rim cycle "
            f"({rim_edges} edges vs {rim} expected)"
        )
    if sym_count != km:
        problems.append(f"{sym_count} symbol edges, expected {km}")
    if offsets and offsets != {km}:
        problems.append(f"chords at rim offsets {sorted(offsets)}, expected only {km}")

    return MobiusReport(not problems, rim, tuple(sorted(offsets)), tuple(problems))


def check_prisms(graph: LabeledGraph, witness: Witness) -> PrismReport:
    """The prism cells, last in the witness graph, induce (l-m)/2 disjoint
    prisms.

    Certified structurally: the row/column edges are exactly the 2k-cycles,
    one per moved element, each joining consecutive walk positions of one
    block of 2k; the symbol edges form a perfect matching joining position
    p of cycle 2t to position p + k (mod 2k) of cycle 2t + 1.
    """
    shape = WitnessShape.of(witness)
    k, cycle = shape.k, shape.cycle_length
    size = len(witness.prism_cells)
    graph = graph.block(len(witness.ladder_cells), len(graph.vertices))
    walk = _walk(size)
    problems: list[str] = []

    cycle_edges = matching = 0
    cycles_ok = matching_ok = True
    for u, v, lab in graph.edges:
        (cu, pu), (cv, pv) = sorted((divmod(walk[u], cycle), divmod(walk[v], cycle)))
        if lab == SYMBOL:
            matching += 1
            matching_ok = (matching_ok and cu % 2 == 0 and cv == cu + 1
                           and pv == (pu + k) % cycle)
        else:
            cycle_edges += 1
            cycles_ok = cycles_ok and cu == cv and (pv - pu) % cycle in (1, cycle - 1)
    if not cycles_ok or cycle_edges != size:
        problems.append(
            f"row/column edges do not form the expected cycles "
            f"({cycle_edges} vs {size})"
        )
    if not matching_ok or matching != size // 2:
        problems.append(
            f"symbol edges do not form the offset-{k} matching "
            f"({matching} vs {size // 2})"
        )

    return PrismReport(not problems, size // cycle, shape.prism_count, k,
                       tuple(problems))


def check_witness(witness: Witness) -> WitnessReport:
    """Every structural check, read off the one witness graph of 2n cells
    in the group's Cayley square.

    Building the graph raises :class:`DuplicateCell` on a repeated cell;
    the re-extraction raises :class:`StructureViolation` unless its n - 1
    cells are independent.
    """
    group = witness.dec.group
    graph = induced_subgraph(cayley_square(group), witness.all_cells)
    return WitnessReport(check_separation(graph, witness), check_mobius(graph, witness),
                         check_prisms(graph, witness), len(graph.vertices) == 2 * group.n,
                         len(extract_near_transversal(witness)))
