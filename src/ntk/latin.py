"""Latin squares, partial transversals, and the brute-force oracles.

A partial transversal is kept as a plain tuple of ``(row, column)`` cells;
the symbols are implied by the square. Every exhaustive oracle, including
:func:`ntk.mappings.find_complete_mapping`, runs the one search kernel
``_search``: it branches row-major with ascending column index, so every
witness it returns is deterministic. The kernel checks forward: a node
packs the candidate columns of every row not yet reached into one int, and
a branch is cut as soon as more of those rows have none than may still be
left uncovered, which removes only subtrees without a leaf.

The kernel can also pin row 0 to column 0. In a group's Cayley table the
right translations ``(g, h) -> (g, h*b)`` fix every row and permute the
columns transitively, and they map partial transversals to partial
transversals that cover the same rows. So a transversal through ``(0, c)``
maps one-to-one onto one through ``(0, 0)``: the transversal count is n
times the count of the column-0 subtree, and whenever some leaf covers row
0 a leaf covers it in column 0, where the unpinned search looks first.
The oracles pin on every Cayley square, and on any other square only when
``_column_regular`` finds such a row-fixing autotopism for every column,
which holds on every group table and every isotope of one.

The kernel also cuts by blocks. A subgroup N of index 2 splits a group's
table into four n/2 x n/2 blocks by whether the row and the column lie in
N, and g*h lies in N iff both or neither do. If a transversal has x cells
in the block (N, N), the rows in N leave n/2 - x for (N, not N), the
columns in N n/2 - x for (not N, N), and the symbols in N n/2 - x for
(not N, not N); the n cells sum to 3n/2 - 2x = n, so every block holds
x = n/4 of them. A group gives one split per subgroup of index 2, and a
search for whole transversals cuts every child that puts n/4 + 1 cells in
a block, and stops at once when 4 does not divide n.

It also stops at once when 4 divides n and the product of all elements
lies outside the derived subgroup G' (Hall and Paige's product test). A
transversal is a complete mapping sigma, so the products g*sigma(g) run
over G once; in the abelian group G/G' the sum s of all elements is then
s + s, so s = 0. In G/N = Z2 the same count says that n/2 is even, the
rule above.

A Cayley square holds its group, from which ``_square_search``, the
oracles' one entry to the kernel, reads every cut: the pin, and the splits
and the product test before the rows, so that a search the root decides
builds no table. Any other square holds only its rows: it gets no splits
and no product test, and is pinned when ``_column_regular`` holds.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InvalidInput, NotLatin, NotPermutation
from .guards import ensure_within
from .groups import (Group, _abelianized_product_is_identity, _check_columns, _indices,
                     _latin_rows, _read_rows, index2_subgroups)

Cell = tuple[int, int]

ROLES = ("row", "column", "symbol")


class LatinSquare(namedtuple("LatinSquare", "n symbol rows group", defaults=(None,))):
    """A latin square of order ``n``; ``symbol(r, c)`` is the symbol in cell
    (r, c) and ``cells`` holds the rows.

    A plain square holds its ``rows`` and has no ``group``. A Cayley square
    holds its group instead, answers ``symbol`` with the group's product,
    and reads ``cells`` from the group's table, which is built only then.
    The searches read the group's cuts from it (see the module docstring).
    """

    __slots__ = ()

    @property
    def cells(self) -> Sequence[Sequence[int]]:
        return self.rows if self.group is None else self.group.table


class Violation(namedtuple("Violation", "kind first second")):
    """First at-most-once failure in a cell collection: two cells that
    share a ``kind``, one of ROLES."""

    __slots__ = ()

    def __str__(self):
        return f"cells {self.first} and {self.second} share a {self.kind}"


def latin_square(cells: Sequence[Sequence[int]]) -> LatinSquare:
    """Validate rows/columns as permutations and build a LatinSquare.

    The rows and columns are checked as :func:`ntk.groups.group_from_table`
    checks them, with its messages.
    """
    rows = _latin_rows(cells)
    _check_columns(rows)
    return _square(rows)


def _square(rows: tuple[tuple[int, ...], ...]) -> LatinSquare:
    """A square that holds its rows."""
    return LatinSquare(len(rows), lambda r, c: rows[r][c], rows)


def cayley_square(group: Group) -> LatinSquare:
    """The multiplication table of ``group`` viewed as a latin square."""
    return LatinSquare(group.n, group.mul, None, group)


# ---------------------------------------------------------------------------
# partial transversals

def is_partial_transversal(square: LatinSquare,
                           cells: Iterable[Cell]) -> tuple[bool, Violation | None]:
    """True iff rows, columns and symbols are pairwise distinct.

    On failure the returned :class:`Violation` names the clashing pair and
    which of the three classes they share.
    """
    n = square.n
    symbol = square.symbol
    seen_rows: dict[int, Cell] = {}
    seen_cols: dict[int, Cell] = {}
    seen_syms: dict[int, Cell] = {}
    for cell in cells:
        r, c = cell
        if not (0 <= r < n and 0 <= c < n):
            raise InvalidInput(f"cell {cell} outside the {n}x{n} square")
        if r in seen_rows:
            return False, Violation("row", seen_rows[r], cell)
        if c in seen_cols:
            return False, Violation("column", seen_cols[c], cell)
        s = symbol(r, c)
        if s in seen_syms:
            return False, Violation("symbol", seen_syms[s], cell)
        seen_rows[r] = seen_cols[c] = seen_syms[s] = cell
    return True, None


def triples(square: LatinSquare, cells: Iterable[Cell]) -> list[tuple[int, int, int]]:
    """Row-sorted (row, column, symbol) triples of a cell collection."""
    symbol = square.symbol
    return sorted((r, c, symbol(r, c)) for r, c in cells)


def cells_to_json(square: LatinSquare, cells: Iterable[Cell]) -> list[list[int]]:
    return [list(t) for t in triples(square, cells)]


def cells_from_json(data: Iterable[Sequence[int]],
                    square: LatinSquare | None = None) -> tuple[Cell, ...]:
    """The cells of ``[row, column(, symbol)]`` items, whose entries must be
    ints, in [0, n) with a ``square``, whose symbol a stored one must be.
    Any other item raises :class:`InvalidInput` naming it."""
    n = None if square is None else square.n
    out = []
    for item in data:
        if not isinstance(item, Sequence) or len(item) not in (2, 3):
            raise InvalidInput(f"cell item {item!r} is not a sequence of 2 or 3 entries")
        r, c, *stored = _indices(item, n, InvalidInput, "cell entry")
        if square is not None and stored and square.symbol(r, c) != stored[0]:
            raise InvalidInput(
                f"stored symbol {item[2]} disagrees with square at ({r},{c})"
            )
        out.append((r, c))
    return tuple(out)


# ---------------------------------------------------------------------------
# exhaustive oracles: thin wrappers over one search kernel

def _column_regular(rows: Sequence[Sequence[int]]) -> bool:
    """True iff, for every column c, some autotopism of the latin square
    ``rows`` fixes every row and maps column 0 to c.

    Such an autotopism ``(id, sigma, tau)`` with ``sigma(0) = c`` is unique
    if it exists: column 0 against column c fixes the symbol map ``tau``,
    and then row 0 fixes the column map ``sigma``. The check builds both
    and tests ``L(r, sigma(j)) == tau(L(r, j))`` on every cell, O(n^3) in
    all.
    """
    n = len(rows)
    first = rows[0]
    where = [0] * n  # where[s]: the column of symbol s in row 0
    for j, s in enumerate(first):
        where[s] = j
    for c in range(1, n):
        tau = [0] * n
        for row in rows:
            tau[row[0]] = row[c]
        sigma = [where[tau[s]] for s in first]
        for row in rows:
            if [row[j] for j in sigma] != [tau[s] for s in row]:
                return False
    return True


def _search(rows: Sequence[Sequence[int]], skips: int = 0, count: bool = False,
            pin: bool = False, blocks: Sequence[tuple[int, int]] = ()
            ) -> tuple[int | None, ...] | int | None:
    """Partial transversals of the square whose rows are ``rows``.

    Branches row-major, each row on ascending columns first and then, while
    fewer than ``skips`` rows are uncovered, on leaving the row uncovered.
    A leaf covers every row but at most ``skips``. Returns the first leaf
    as the column chosen in each row (``None`` for an uncovered row), or
    ``None`` when there is no leaf; with ``count=True``, the number of
    leaves.

    A node at row r is one int whose n-bit field i (bits i*n to i*n + n - 1)
    holds the candidate columns of row r + i, those whose column and symbol
    are both still free. Picking (r, c) is one ``&`` with a mask packed the
    same way. The forward cut: more later rows have an empty field than
    ``skips`` can still leave uncovered. Adding 2^(n-1) - 1 to a field's
    lower n - 1 bits carries into its top bit iff they are not all zero, so
    an add, an or and a mask leave one bit per non-empty field. A cut on
    free columns out of reach of every later row is left out: it visits
    fewer nodes but needs the union of all fields at each node, and the
    search without it takes about half the time.

    The block cut, with ``skips=0`` only: each ``(row_mask, col_mask)`` in
    ``blocks`` splits the square into four n/2 x n/2 blocks, (in, in),
    (in, out), (out, in) and (out, out) by whether the row and the column
    are in the masks, where (in, in) and (out, out) hold the same n/2
    symbols (in a group table, rows, columns and symbols in a subgroup N of
    index 2). Every transversal takes n/4 cells from each block:

        let x be its number of cells in (in, in); the n/2 rows in the mask
        give n/2 - x cells in (in, out), the n/2 columns in the mask give
        n/2 - x in (out, in), and the n/2 symbols of (in, in) give n/2 - x
        in (out, out); the n cells sum to 3n/2 - 2x = n, so x = n/4.

    So with 4 not dividing n there is no leaf, which the root decides, and
    else a child that puts n/4 + 1 cells in a block is cut. (On a Cayley
    square ``_square_search`` decides this rule, and Hall and Paige's
    product test, before it reads the rows; see the module docstring.)

    The count of each block is a field of one int kept next to the node
    int, started so that n/4 + 1 sets the field's top bit; a pick adds one
    to the field of the block it lands in, in every split. A partial
    transversal need not split evenly, so with ``skips`` the blocks are
    not read.

    Both cuts remove only subtrees without a leaf and the branching order
    is the plain row-major one, so the first leaf and the count are those
    of the unpruned search.

    With ``pin=True`` row 0 tries only column 0 (and, with ``skips``, may
    still be left uncovered); nothing else changes. On a square where
    ``_column_regular`` holds this keeps the first leaf, since a leaf that
    covers row 0 exists iff one covers it in column 0, the first column the
    unpinned search tries. For the same reason the pinned count with
    ``skips=0`` is the number of transversals divided by n.
    """
    n = len(rows)
    if blocks and not skips and n % 4:
        return 0 if count else None
    full = (1 << n) - 1
    ones = sum(1 << i * n for i in range(n))  # bit 0 of every field
    low_bits = (full >> 1) * ones  # each field's lower n - 1 bits
    top_bits = low_bits + ones  # each field's top bit
    picked: list[int | None] = [None] * n
    # keep[r][c]: field i holds the columns row r + 1 + i may still use once
    # (r, c) is picked, made on first use so that a search that ends early
    # builds few
    keep: list[list[int | None]] = [[None] * n for _ in range(n)]
    # steps[r][c]: what picking (r, c) adds to the block counters
    tally, tops, steps = 0, 0, [[0] * n] * n
    if blocks and not skips:
        width = (n // 4 + 1).bit_length() + 1  # bits per block counter
        quad = (1 << 4 * width) - 1  # the four counters of one split
        fields = sum(1 << i * width for i in range(4 * len(blocks)))
        tally = ((1 << width - 1) - 1 - n // 4) * fields
        tops = fields << width - 1
        # in split j, counter 4j + 2*(row in half) + (column in half)
        row_part = [sum(1 << (4 * j + 2 * (row_mask >> r & 1)) * width
                        for j, (row_mask, _) in enumerate(blocks)) for r in range(n)]
        col_part = [sum(quad << 4 * j * width
                        for j, (_, col_mask) in enumerate(blocks) if col_mask >> c & 1)
                    for c in range(n)]
        shift = (1 << width) - 1  # moves a counter bit to the next counter
        steps = [[part + (part & cols) * shift for cols in col_part] for part in row_part]

    def dfs(r: int, avail: int, skips: int, tally: int) -> int:
        if r == n:
            return 1
        found = 0
        keep_r, steps_r = keep[r], steps[r]
        later = n - 1 - r  # rows after r
        rest, todo = avail >> n, avail & full
        while todo:
            low = todo & -todo
            todo ^= low
            c = low.bit_length() - 1
            if keep_r[c] is None:
                s = rows[r][c]
                keep_r[c] = sum((full & ~(low | 1 << row.index(s))) << i * n
                                for i, row in enumerate(rows[r + 1:]))
            after = rest & keep_r[c]
            if ((((after & low_bits) + low_bits) | after)
                    & top_bits).bit_count() + skips < later:
                continue
            if (counted := tally + steps_r[c]) & tops:
                continue
            picked[r] = c
            found += dfs(r + 1, after, skips, counted)
            if found and not count:
                return found
        if skips and ((((rest & low_bits) + low_bits) | rest)
                      & top_bits).bit_count() + skips > later:
            picked[r] = None
            found += dfs(r + 1, rest, skips - 1, tally)
        return found

    found = dfs(0, full * (ones - 1) + (1 if pin else full), skips, tally)
    if count:
        return found
    return tuple(picked) if found else None


def _splits(group: Group) -> tuple[tuple[int, int], ...]:
    """``_search``'s blocks on the table of ``group``: ``(mask, mask)`` for
    each subgroup N of index 2, as g*h lies in N iff g and h both do or
    both do not."""
    masks = (sum(1 << g for g in members) for members in index2_subgroups(group))
    return tuple((mask, mask) for mask in masks)


def _square_search(square: LatinSquare, skips: int = 0, count: bool = False
                   ) -> tuple[int | None, ...] | int | None:
    """``_search`` on ``square`` with every cut it allows, a pinned count
    multiplied back by n. A Cayley square is pinned and split by its group,
    and with ``skips=0`` orders 2 mod 4, and orders 4m by the product test,
    are decided before its rows are read; any other square is pinned when
    ``_column_regular`` holds."""
    group = square.group
    if group is None:
        rows, pin, blocks = square.rows, _column_regular(square.rows), ()
    else:
        blocks = _splits(group)
        if not skips and blocks and (
                group.n % 4 or not _abelianized_product_is_identity(group)):
            return 0 if count else None
        rows, pin = group.table, True
    found = _search(rows, skips, count, pin, blocks)
    return square.n * found if count and pin else found


def brute_force_transversal(square: LatinSquare, *,
                            guard: int | None = None) -> tuple[Cell, ...] | None:
    """Lexicographically first transversal, or None when none exists."""
    ensure_within("transversal", square.n, guard)
    found = _square_search(square)
    return None if found is None else tuple(enumerate(found))


def count_transversals(square: LatinSquare, *, guard: int | None = None) -> int:
    """Exact number of transversals, by exhaustive backtracking; n times
    the count through cell (0, 0) when the columns are regular."""
    ensure_within("count", square.n, guard)
    return _square_search(square, count=True)


def max_partial_transversal(square: LatinSquare, *,
                            guard: int | None = None) -> tuple[int, tuple[Cell, ...]]:
    """Exact maximum partial transversal size, with a witness attaining it.

    Searches with ``d = 0, 1, ...`` uncovered rows and stops at the first
    ``d`` that has a leaf; the witness is that search's first leaf, which
    is also the first maximum-size leaf of the unbounded search.
    """
    ensure_within("max_partial", square.n, guard)
    skips = 0
    while (found := _square_search(square, skips)) is None:
        skips += 1
    cells = tuple((r, c) for r, c in enumerate(found) if c is not None)
    return len(cells), cells


def is_extendable(square: LatinSquare, cells: Sequence[Cell]) -> bool:
    """True iff some cell outside the used rows/columns/symbols can be added."""
    ok, violation = is_partial_transversal(square, cells)
    if not ok:
        raise InvalidInput(f"not a partial transversal: {violation}")
    n = square.n
    used_rows = {r for r, _ in cells}
    used_cols = {c for _, c in cells}
    used_syms = {square.symbol(r, c) for r, c in cells}
    rows = square.cells
    for r in range(n):
        if r in used_rows:
            continue
        row = rows[r]
        for c in range(n):
            if c not in used_cols and row[c] not in used_syms:
                return True
    return False


# ---------------------------------------------------------------------------
# main-class transformations

def _check_perm(perm: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    p = _indices(perm, n, NotPermutation, f"{what} entry")
    if sorted(p) != list(range(n)):
        raise NotPermutation(f"{what} is not a permutation of 0..{n - 1}")
    return p


def apply_isotopy(square: LatinSquare,
                  row_perm: Sequence[int],
                  col_perm: Sequence[int],
                  sym_perm: Sequence[int]) -> LatinSquare:
    """Relabel rows, columns and symbols by the three permutations."""
    n = square.n
    rp = _check_perm(row_perm, n, "row permutation")
    cp = _check_perm(col_perm, n, "column permutation")
    sp = _check_perm(sym_perm, n, "symbol permutation")
    rows = square.cells
    cells = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            cells[rp[r]][cp[c]] = sp[rows[r][c]]
    return _square(tuple(tuple(row) for row in cells))


def map_cells(cells: Iterable[Cell],
              row_perm: Sequence[int],
              col_perm: Sequence[int]) -> tuple[Cell, ...]:
    """Image of a cell collection under an isotopy's row/column permutations."""
    return tuple((row_perm[r], col_perm[c]) for r, c in cells)


def conjugate_square(square: LatinSquare,
                     role_perm: Sequence[str]) -> LatinSquare:
    """Permute the roles played by rows, columns and symbols.

    ``role_perm`` lists, for the new (row, column, symbol) slots, which old
    role feeds each one: ``("column", "row", "symbol")`` is the transpose.
    The result is always a valid latin square.
    """
    order = tuple(role_perm)
    if sorted(order) != sorted(ROLES):
        raise InvalidInput(f"role permutation must rearrange {ROLES}, got {order}")
    src = tuple(ROLES.index(role) for role in order)
    n = square.n
    rows = square.cells
    cells = [[-1] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            t = (r, c, rows[r][c])
            cells[t[src[0]]][t[src[1]]] = t[src[2]]
    return latin_square(cells)


def conjugate_cells(square: LatinSquare, cells: Iterable[Cell],
                    role_perm: Sequence[str]) -> tuple[Cell, ...]:
    """Image of a cell collection in the role-permuted square."""
    order = tuple(role_perm)
    if sorted(order) != sorted(ROLES):
        raise InvalidInput(f"role permutation must rearrange {ROLES}, got {order}")
    src = tuple(ROLES.index(role) for role in order)
    symbol = square.symbol
    out = []
    for r, c in cells:
        t = (r, c, symbol(r, c))
        out.append((t[src[0]], t[src[1]]))
    return tuple(out)


# ---------------------------------------------------------------------------
# plain-text square format: line 1 = n, then n rows of n symbol indices

def square_to_text(square: LatinSquare) -> str:
    lines = [str(square.n)]
    lines.extend(" ".join(map(str, row)) for row in square.cells)
    return "\n".join(lines) + "\n"


def square_from_text(text: str) -> LatinSquare:
    rows, rest = _read_rows(text, "square")
    if rest:
        raise NotLatin(f"unexpected trailing line {rest[0]!r}")
    return latin_square(rows)


def load_square(path: str | Path) -> LatinSquare:
    return square_from_text(Path(path).read_text())


def save_square(square: LatinSquare, path: str | Path) -> None:
    Path(path).write_text(square_to_text(square))
