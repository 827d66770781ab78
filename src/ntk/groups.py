"""Finite groups as explicit multiplication tables.

Elements are dense indices ``0..n-1``. The identity is located by scan, so
file-loaded tables may place it anywhere; the built-in constructors always
put it at index 0 and name it ``"1"``. All types are immutable after
construction and every operation here is a pure function, so values can be
shared freely across threads.

Validation is always on: the latin property, a two-sided identity, and
associativity are checked at every order before a :class:`Group` is handed
out. Associativity is checked by Light's test over a generating set, which
is exact and costs O(n^2) per generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidAction,
    NoIdentity,
    NotAssociative,
    NotLatin,
    StructureViolation,
)

# Rows of the table compared per step of the associativity check, so its
# temporaries stay small next to the table itself.
_ASSOC_BLOCK_ROWS = 64

# Sylow 2-subgroup classifications.
TRIVIAL = "trivial"
CYCLIC_NONTRIVIAL = "cyclic-nontrivial"
NON_CYCLIC = "non-cyclic"


@dataclass(frozen=True)
class Group:
    """A finite group given by its full multiplication table.

    ``table[g][h]`` is the index of the product ``g*h``. ``names`` holds one
    whitespace-free display string per element; ``label`` is a cosmetic tag
    (e.g. the CLI group string that produced the group) and never
    participates in comparisons.
    """

    n: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    names: tuple[str, ...]
    inverses: tuple[int, ...] = field(compare=False)
    label: str = field(default="", compare=False)
    _index_of: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index_of.update({name: i for i, name in enumerate(self.names)})

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self.inverses[g]

    def power(self, g: int, e: int) -> int:
        if e < 0:
            g, e = self.inverses[g], -e
        acc = self.identity
        row_mul = self.table
        for _ in range(e):
            acc = row_mul[acc][g]
        return acc

    def conjugate(self, a: int, h: int) -> int:
        """a * h * a^-1."""
        return self.table[self.table[a][h]][self.inverses[a]]

    def elements(self) -> range:
        return range(self.n)

    def index_of(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise KeyError(f"no element named {name!r} in group {self.label or '<unnamed>'}")


@dataclass(frozen=True)
class SylowReport:
    """Outcome of the Sylow 2-subgroup analysis.

    ``k`` is the largest power of 2 dividing the order. ``generator`` is the
    smallest-index element of order ``k`` and is present exactly when the
    classification is cyclic-nontrivial.
    """

    subgroup: frozenset[int]
    k: int
    classification: str
    generator: int | None = None


def _greedy_generators(rows: Sequence[Sequence[int]], identity: int) -> list[int]:
    """Generators whose right products, from the identity, reach every element.

    Each generator is the smallest element not yet reached by right-multiplying
    the reached set by the generators chosen so far.
    """
    reached = [False] * len(rows)
    reached[identity] = True
    members = [identity]
    gens: list[int] = []
    for a in range(len(rows)):
        if reached[a]:
            continue
        gens.append(a)
        stack = [rows[x][a] for x in members]
        while stack:
            y = stack.pop()
            if not reached[y]:
                reached[y] = True
                members.append(y)
                stack.extend(rows[y][b] for b in gens)
    return gens


def _check_associative(arr: np.ndarray, rows: Sequence[Sequence[int]],
                       identity: int) -> None:
    """Light's test: ``(x*a)*y == x*(a*y)`` for every x, y and generator a.

    The elements a that pass for all x, y are closed under the product and
    include the identity, so they contain everything the generators reach;
    the check is therefore exact.
    """
    n = len(rows)
    for a in _greedy_generators(rows, identity):
        right, left = arr[:, a], arr[a]
        for lo in range(0, n, _ASSOC_BLOCK_ROWS):
            lhs = arr[right[lo:lo + _ASSOC_BLOCK_ROWS]]   # (x*a)*y
            rhs = arr[lo:lo + _ASSOC_BLOCK_ROWS][:, left]  # x*(a*y)
            if not np.array_equal(lhs, rhs):
                x, y = map(int, np.argwhere(lhs != rhs)[0])
                x += lo
                raise NotAssociative(
                    f"(x*a)*y != x*(a*y) for (x,a,y) = ({x},{a},{y}): "
                    f"{rows[rows[x][a]][y]} != {rows[x][rows[a][y]]}"
                )


def group_from_table(raw: Sequence[Sequence[int]],
                     names: Sequence[str] | None = None,
                     *,
                     label: str = "") -> Group:
    """Validate a raw multiplication table and wrap it as a :class:`Group`.

    Raises :class:`NotLatin`, :class:`NoIdentity` or :class:`NotAssociative`
    with the first offending row/element/triple named in the message.
    """
    rows = [list(map(int, row)) for row in raw]
    n = len(rows)
    if n == 0:
        raise NotLatin("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotLatin(f"row {i} has length {len(row)}, expected {n}")
    arr = np.asarray(rows, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= n:
        g, h = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise NotLatin(f"entry table[{g}][{h}] = {rows[g][h]} outside [0, {n})")

    ident = np.arange(n)
    if not np.array_equal(np.sort(arr, axis=1), np.broadcast_to(ident, arr.shape)):
        for g in range(n):
            seen = set()
            for v in rows[g]:
                if v in seen:
                    raise NotLatin(f"row {g} repeats symbol {v}")
                seen.add(v)
    if not np.array_equal(np.sort(arr, axis=0), np.broadcast_to(ident[:, None], arr.shape)):
        for h in range(n):
            seen = set()
            for g in range(n):
                v = rows[g][h]
                if v in seen:
                    raise NotLatin(f"column {h} repeats symbol {v}")
                seen.add(v)

    is_row_id = (arr == ident).all(axis=1)
    is_col_id = (arr.T == ident).all(axis=1)
    both = np.flatnonzero(is_row_id & is_col_id)
    if both.size == 0:
        raise NoIdentity("no two-sided identity element")
    identity = int(both[0])

    _check_associative(arr, rows, identity)

    inv = (arr == identity).argmax(axis=1)
    if not np.array_equal(arr[inv, ident], np.full(n, identity)):
        g = int(np.flatnonzero(arr[inv, ident] != identity)[0])
        raise NotAssociative(f"element {g} has no two-sided inverse")

    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise ValueError(f"expected {n} names, got {len(names)}")
        if len(set(names)) != n:
            raise ValueError("element names must be unique")
        if any(any(ch.isspace() for ch in name) for name in names):
            raise ValueError("element names must be whitespace-free")

    return Group(
        n=n,
        table=tuple(tuple(row) for row in rows),
        identity=identity,
        names=names,
        inverses=tuple(int(x) for x in inv),
        label=label,
    )


# ---------------------------------------------------------------------------
# word-style element naming

def _pow_word(gen: str, e: int) -> str:
    if e == 0:
        return "1"
    if e == 1:
        return gen
    return f"{gen}{e}"


def _concat_words(parts: Iterable[str]) -> str:
    words = [w for w in parts if w != "1"]
    return "".join(words) if words else "1"


def _product_names(names_a: Sequence[str], names_b: Sequence[str]) -> list[str]:
    plain = [_concat_words((a, b)) for a in names_a for b in names_b]
    if len(set(plain)) == len(plain):
        return plain
    return [f"{a}·{b}" for a in names_a for b in names_b]


def _cycle_notation(perm: Sequence[int]) -> str:
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append(cyc)
    if not parts:
        return "1"
    sep = "" if n <= 9 else ","
    return "".join("(" + sep.join(str(x + 1) for x in cyc) + ")" for cyc in parts)


# ---------------------------------------------------------------------------
# built-in constructors

def cyclic(n: int, gen: str = "c") -> Group:
    """Cyclic group of order ``n``, elements named 1, c, c2, ..."""
    if n < 1:
        raise ValueError("order must be positive")
    r = np.arange(n)
    table = (r[:, None] + r[None, :]) % n
    names = [_pow_word(gen, i) for i in range(n)]
    return group_from_table(table.tolist(), names, label=f"Z{n}")


def dihedral(n: int, gens: tuple[str, str] = ("r", "s")) -> Group:
    """Dihedral group of order ``2n``: r of order n, s of order 2, srs = r^-1.

    Element ``j*n + i`` is the word s^j r^i.
    """
    if n < 1:
        raise ValueError("order parameter must be positive")
    rg, sg = gens
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for j1 in range(2):
        for i1 in range(n):
            for j2 in range(2):
                for i2 in range(n):
                    j = (j1 + j2) % 2
                    i = ((i1 if j2 == 0 else -i1) + i2) % n
                    table[j1 * n + i1][j2 * n + i2] = j * n + i
    names = [_concat_words((_pow_word(sg, j), _pow_word(rg, i)))
             for j in range(2) for i in range(n)]
    return group_from_table(table, names, label=f"D{n}")


def dicyclic(n: int, gens: tuple[str, str] = ("a", "x")) -> Group:
    """Dicyclic group of order ``4n``: a of order 2n, x^2 = a^n, xax^-1 = a^-1.

    Element ``j*2n + i`` is the word a^i x^j.
    """
    if n < 1:
        raise ValueError("order parameter must be positive")
    ag, xg = gens
    two_n = 2 * n
    size = 4 * n
    table = [[0] * size for _ in range(size)]
    for j1 in range(2):
        for i1 in range(two_n):
            for j2 in range(2):
                for i2 in range(two_n):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % two_n
                    if j1 and j2:
                        i = (i + n) % two_n
                    j = (j1 + j2) % 2
                    table[j1 * two_n + i1][j2 * two_n + i2] = j * two_n + i
    names = [_concat_words((_pow_word(ag, i), xg if j else "1"))
             for j in range(2) for i in range(two_n)]
    return group_from_table(table, names, label=f"Dic{n}")


def symmetric(n: int) -> Group:
    """Symmetric group on ``n`` points, permutations in lexicographic order.

    Composition convention: (p*q)(i) = p(q(i)). Names use 1-based cycle
    notation, ``"1"`` for the identity.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    names = [_cycle_notation(p) for p in perms]
    return group_from_table(table, names, label=f"S{n}")


def direct_product(a: Group, b: Group, label: str = "") -> Group:
    """Direct product; element ``i*|b| + j`` is the pair (a_i, b_j)."""
    nb = b.n
    table = [
        [a.table[a1][a2] * nb + b.table[b1][b2]
         for a2 in range(a.n) for b2 in range(nb)]
        for a1 in range(a.n) for b1 in range(nb)
    ]
    names = _product_names(a.names, b.names)
    if not label and a.label and b.label:
        label = f"{a.label} x {b.label}"
    return group_from_table(table, names, label=label)


def semidirect(k_part: Group, h_part: Group,
               action: Sequence[Sequence[int]], label: str = "") -> Group:
    """Twisted product ``K ⋉ H`` with multiplication fixed as

        (k1, h1) * (k2, h2) = (k1*k2, action[inv(k2)](h1) * h2),

    i.e. elements are the words ``k*h`` and ``action[k]`` is conjugation by
    ``k``: ``action[k](h) = k h k^-1``. ``action`` supplies one permutation
    of ``0..|H|-1`` per element of K; it must map K homomorphically into
    automorphisms of H, otherwise :class:`InvalidAction` is raised.

    Element ``i*|H| + j`` is the pair (k_i, h_j).
    """
    nk, nh = k_part.n, h_part.n
    if len(action) != nk:
        raise InvalidAction(f"expected {nk} permutations, got {len(action)}")
    acts = []
    for ki, perm in enumerate(action):
        p = tuple(int(x) for x in perm)
        if sorted(p) != list(range(nh)):
            raise InvalidAction(f"action[{ki}] is not a permutation of 0..{nh - 1}")
        acts.append(p)
    for ki, p in enumerate(acts):
        if p[h_part.identity] != h_part.identity:
            raise InvalidAction(f"action[{ki}] moves the identity")
        for x in range(nh):
            for y in range(nh):
                if p[h_part.table[x][y]] != h_part.table[p[x]][p[y]]:
                    raise InvalidAction(
                        f"action[{ki}] is not an automorphism: images of "
                        f"{x}*{y} disagree"
                    )
    for k1 in range(nk):
        for k2 in range(nk):
            composed = tuple(acts[k1][acts[k2][h]] for h in range(nh))
            if composed != acts[k_part.table[k1][k2]]:
                raise InvalidAction(
                    f"action is not a homomorphism at K elements ({k1},{k2})"
                )

    table = [[0] * (nk * nh) for _ in range(nk * nh)]
    for k1 in range(nk):
        for h1 in range(nh):
            row = table[k1 * nh + h1]
            for k2 in range(nk):
                tw = acts[k_part.inverses[k2]][h1]
                kk = k_part.table[k1][k2] * nh
                hrow = h_part.table[tw]
                for h2 in range(nh):
                    row[k2 * nh + h2] = kk + hrow[h2]
    names = _product_names(k_part.names, h_part.names)
    return group_from_table(table, names, label=label)


# ---------------------------------------------------------------------------
# structural queries

def element_order(group: Group, g: int) -> int:
    """Least t >= 1 with g^t = identity; divides the group order."""
    order = 1
    x = g
    table = group.table
    e = group.identity
    while x != e:
        x = table[x][g]
        order += 1
    return order


def element_orders(group: Group) -> list[int]:
    return [element_order(group, g) for g in group.elements()]


def order_signature(group: Group) -> tuple[tuple[int, int], ...]:
    """Multiset of element orders as sorted (order, count) pairs.

    Equal signatures are necessary (not sufficient) for isomorphism; used to
    cross-check independent constructions of the same group.
    """
    counts: dict[int, int] = {}
    for o in element_orders(group):
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def subgroup_closure(group: Group, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing ``seed``, by BFS closure."""
    members = {group.identity}
    members.update(seed)
    frontier = list(members)
    table = group.table
    while frontier:
        nxt = []
        for g in frontier:
            for h in list(members):
                for p in (table[g][h], table[h][g]):
                    if p not in members:
                        members.add(p)
                        nxt.append(p)
        frontier = nxt
    return frozenset(members)


def is_subgroup(group: Group, members: Iterable[int]) -> bool:
    s = set(members)
    if group.identity not in s:
        return False
    return all(group.table[a][b] in s for a in s for b in s)


def conjugation(group: Group, a: int) -> tuple[int, ...]:
    """The permutation h -> a h a^-1 (equal to h -> a h a when a*a = 1)."""
    return tuple(group.conjugate(a, h) for h in group.elements())


def commutator_subgroup(group: Group) -> frozenset[int]:
    table = group.table
    inv = group.inverses
    comms = {
        table[table[a][b]][table[inv[a]][inv[b]]]
        for a in group.elements()
        for b in group.elements()
    }
    return subgroup_closure(group, comms)


def _is_power_of_two(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


def sylow2(group: Group) -> SylowReport:
    """Classify the Sylow 2-subgroup: trivial, cyclic-nontrivial, non-cyclic.

    ``k`` is the largest power of 2 dividing the order. When cyclic, the
    generator is the smallest-index element of order ``k`` (deterministic)
    and the reported subgroup is the one it generates; otherwise a Sylow
    2-subgroup is located by closure search over 2-power-order elements
    (any one is acceptable, the construction never consumes it).
    """
    n = group.n
    k = 1
    while n % (2 * k) == 0:
        k *= 2
    if k == 1:
        return SylowReport(frozenset({group.identity}), 1, TRIVIAL)
    orders = element_orders(group)
    for g in group.elements():
        if orders[g] == k:
            return SylowReport(subgroup_closure(group, {g}), k, CYCLIC_NONTRIVIAL, g)

    candidates = [g for g in group.elements() if _is_power_of_two(orders[g])]

    def extend(current: frozenset[int]) -> frozenset[int] | None:
        if len(current) == k:
            return current
        for g in candidates:
            if g in current:
                continue
            grown = subgroup_closure(group, current | {g})
            if len(grown) <= k and _is_power_of_two(len(grown)):
                found = extend(grown)
                if found is not None:
                    return found
        return None

    subgroup = extend(frozenset({group.identity}))
    if subgroup is None:
        raise StructureViolation("failed to locate a Sylow 2-subgroup")
    return SylowReport(subgroup, k, NON_CYCLIC)


# ---------------------------------------------------------------------------
# plain-text table format
#
#   line 1: n
#   lines 2..n+1: n space-separated element indices
#   optional final line: "names:" followed by n whitespace-free strings

def group_to_text(group: Group) -> str:
    lines = [str(group.n)]
    lines.extend(" ".join(map(str, row)) for row in group.table)
    lines.append("names: " + " ".join(group.names))
    return "\n".join(lines) + "\n"


def group_from_text(text: str, label: str = "") -> Group:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise NotLatin("empty table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise NotLatin(f"first line must be the order, got {lines[0]!r}")
    if len(lines) < n + 1:
        raise NotLatin(f"expected {n} table rows, found {len(lines) - 1}")
    rows = [[int(x) for x in lines[1 + i].split()] for i in range(n)]
    names = None
    rest = lines[1 + n:]
    if rest:
        if not rest[0].startswith("names:"):
            raise NotLatin(f"unexpected trailing line {rest[0]!r}")
        names = rest[0][len("names:"):].split()
    return group_from_table(rows, names, label=label)


def load_group(path: str | Path) -> Group:
    p = Path(path)
    return group_from_text(p.read_text(), label=f"table:{p}")


def save_group(group: Group, path: str | Path) -> None:
    Path(path).write_text(group_to_text(group))
