"""Latin square graph machinery and structural witness verification.

Vertices of the latin square graph are cells; two cells are adjacent when
they share a row, a column, or a symbol, and every edge carries that label.
The witness checks below certify, constructively, that the cells produced
by the construction module induce one Möbius ladder (over the fixed block)
plus a disjoint union of prisms (over the moved block), mirroring how the
guarantee is proved rather than calling a generic isomorphism test. They
all read one graph, induced on the ladder cells and then the prism cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .construction import Witness, extract_near_transversal, rim_sequence
from .errors import DuplicateCell, TooLarge
from .guards import ensure_within
from .latin import Cell, LatinSquare

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

    def edges_with_label(self, label: str) -> list[tuple[int, int]]:
        return [(u, v) for u, v, lab in self.edges if lab == label]

    def block(self, start: int, stop: int) -> "LabeledGraph":
        """The subgraph on ``vertices[start:stop]``, renumbered from 0."""
        edges = tuple((u - start, v - start, lab) for u, v, lab in self.edges
                      if start <= u and v < stop)
        return LabeledGraph(self.vertices[start:stop], edges)

    def label_degrees(self) -> list[dict[str, int]]:
        out = [{lab: 0 for lab in LABELS} for _ in self.vertices]
        for u, v, lab in self.edges:
            out[u][lab] += 1
            out[v][lab] += 1
        return out


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
    buckets: dict[str, dict[int, list[int]]] = {lab: {} for lab in LABELS}
    for v, i in index.items():
        r, c = v
        buckets[ROW].setdefault(r, []).append(i)
        buckets[COLUMN].setdefault(c, []).append(i)
        buckets[SYMBOL].setdefault(square.cells[r][c], []).append(i)
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
    shape: WitnessShape
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


def check_mobius(graph: LabeledGraph, witness: Witness) -> MobiusReport:
    """The ladder cells, first in the witness graph, induce a Möbius ladder.

    Certified structurally: one row, one column and one symbol edge per
    vertex; the row/column edges are exactly the rim cycle of length 2km;
    every symbol edge is an antipodal chord (rim offset km).
    """
    shape = WitnessShape.of(witness)
    km = shape.ladder_size
    rim = rim_sequence(witness)
    problems: list[str] = []

    graph = graph.block(0, len(witness.ladder_cells))
    position = {cell: i for i, cell in enumerate(rim)}

    for degs, cell in zip(graph.label_degrees(), graph.vertices):
        if any(degs[lab] != 1 for lab in LABELS):
            problems.append(f"vertex {cell} has label degrees {degs}")
            break

    expected_rim = set()
    for i, cell in enumerate(rim):
        nxt = rim[(i + 1) % (2 * km)]
        expected_rim.add(frozenset((position[cell], position[nxt])))
    actual_rowcol = {
        frozenset((position[graph.vertices[u]], position[graph.vertices[v]]))
        for u, v in graph.edges_with_label(ROW) + graph.edges_with_label(COLUMN)
    }
    if actual_rowcol != expected_rim:
        problems.append(
            f"row/column edges do not form the rim cycle "
            f"({len(actual_rowcol)} edges vs {len(expected_rim)} expected)"
        )

    offsets = set()
    for u, v in graph.edges_with_label(SYMBOL):
        pu = position[graph.vertices[u]]
        pv = position[graph.vertices[v]]
        d = (pv - pu) % (2 * km)
        offsets.add(min(d, 2 * km - d))
    sym_count = len(graph.edges_with_label(SYMBOL))
    if sym_count != km:
        problems.append(f"{sym_count} symbol edges, expected {km}")
    if offsets and offsets != {km}:
        problems.append(f"chords at rim offsets {sorted(offsets)}, expected only {km}")

    return MobiusReport(not problems, 2 * km, tuple(sorted(offsets)), tuple(problems))


def check_prisms(graph: LabeledGraph, witness: Witness) -> PrismReport:
    """The prism cells, last in the witness graph, induce (l-m)/2 disjoint
    prisms.

    Certified structurally: the row/column edges are exactly the expected
    2k-cycles, one per moved element, walked as diag/shift alternation; the
    symbol edges form a perfect matching between paired cycles joining
    position p to position p + k (mod 2k).
    """
    dec = witness.dec
    shape = WitnessShape.of(witness)
    k = shape.k
    problems: list[str] = []

    cycles: dict[int, list[Cell]] = {}
    for f in sorted(dec.moved_part):
        seq = []
        for i in range(k):
            seq.append(witness.prism_diag[(f, i)])
            seq.append(witness.prism_shift[(f, i)])
        cycles[f] = seq

    graph = graph.block(len(witness.ladder_cells), len(graph.vertices))
    index = {cell: i for i, cell in enumerate(graph.vertices)}

    expected_rowcol = set()
    for seq in cycles.values():
        for p, cell in enumerate(seq):
            nxt = seq[(p + 1) % (2 * k)]
            expected_rowcol.add(frozenset((index[cell], index[nxt])))
    actual_rowcol = {
        frozenset((u, v))
        for u, v in graph.edges_with_label(ROW) + graph.edges_with_label(COLUMN)
    }
    if actual_rowcol != expected_rowcol:
        problems.append(
            f"row/column edges do not form the expected cycles "
            f"({len(actual_rowcol)} vs {len(expected_rowcol)})"
        )

    expected_matching = set()
    for f, partner in dec.orbit_pairs:
        for p in range(2 * k):
            a = cycles[f][p]
            b = cycles[partner][(p + k) % (2 * k)]
            expected_matching.add(frozenset((index[a], index[b])))
    actual_matching = {
        frozenset((u, v)) for u, v in graph.edges_with_label(SYMBOL)
    }
    if actual_matching != expected_matching:
        problems.append(
            f"symbol edges do not form the offset-{k} matching "
            f"({len(actual_matching)} vs {len(expected_matching)})"
        )

    return PrismReport(not problems, len(cycles), shape.prism_count, k,
                       tuple(problems))


def check_witness(square: LatinSquare, witness: Witness) -> WitnessReport:
    """Every structural check, read off the one witness graph of 2n cells.

    Building the graph raises :class:`DuplicateCell` on a repeated cell;
    the re-extraction raises :class:`StructureViolation` unless its n - 1
    cells are independent.
    """
    graph = induced_subgraph(square, witness.all_cells)
    return WitnessReport(check_separation(graph, witness), check_mobius(graph, witness),
                         check_prisms(graph, witness), WitnessShape.of(witness),
                         len(graph.vertices) == 2 * witness.dec.group.n,
                         len(extract_near_transversal(witness)))
