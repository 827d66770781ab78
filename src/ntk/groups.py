"""Finite groups, each given by its product.

Elements are dense indices ``0..n-1``. The identity is located by scan, so
file-loaded tables may place it anywhere; the word constructors put it at
index 0 and name it ``"1"``, and a product puts it at the pair of its
factors' identities. All types are immutable after construction and every
operation here is a pure function, so values can be shared freely across
threads.

Each group computes its product with ``Group.mul``: a constructor by
formula in Python ints (words in Z_n, D_n and Dic_n; pairs taken apart by
``divmod`` for direct and twisted products), and a group that holds a
table, from :func:`group_from_table` or :func:`symmetric`, by reading it.
A constructor's ``Group.table`` is built from ``mul`` on first read and
cached (:func:`symmetric` builds it at once, from the composition of
permutations): the row of each generator takes n products, and every
other row is one gather of a row already built, by right translation. Its
n^2 entries share n int objects. The construction and its checks read O(n)
products and never build it. Everything here is pure Python.

Tables that come in are checked; products computed here are not.
:func:`group_from_table` checks that the entries are ints in [0, n), that
every row is a permutation, a two-sided identity and associativity, by
Light's test over a generating set (exact, O(n^2) per generator). Those
facts make the table a group, so its columns are permutations too; they
are scanned only when a check fails, to name a repeated column first.
:func:`semidirect` checks its action to be a homomorphism into Aut(H),
which is exactly what makes the product a group. The test suite checks
every constructor's product against its table and passes the tables back
through :func:`group_from_table`. Names are checked on every route.

Structural facts are computed once and checked over generators: element
orders and inverses are cached on the group on first use, and subgroup
tests and closures grow a set by right products with a generating set,
which is exact in a finite group and costs O(|S|) per generator. The
subgroups of index 2, which the latin search kernel cuts by, are cached
too; they are read off G modulo its squares by linear algebra over Z2. So
is Hall and Paige's product test, with which the kernel decides at its
root that a Cayley square of order 4m has no transversal.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import namedtuple
from math import gcd
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import InvalidAction, NoIdentity, NotAssociative, NotLatin

_WHITESPACE = re.compile(r"\s")

# Sylow 2-subgroup classifications.
TRIVIAL = "trivial"
CYCLIC_NONTRIVIAL = "cyclic-nontrivial"
NON_CYCLIC = "non-cyclic"


class Group:
    """A finite group given by its product.

    ``mul(g, h)`` is the index of the product ``g*h``; ``table[g][h]`` is the
    same product, read from the full table, which ``build()`` makes on the
    first read of ``table``. ``names`` holds one whitespace-free display
    string per element; ``label`` is a cosmetic tag (e.g. the CLI group
    string that produced the group) and never participates in comparisons,
    which read the order, identity, names and table. ``inverses[g]`` is the
    inverse of ``g``. Assigning or deleting an attribute raises
    :class:`AttributeError`.
    """

    __slots__ = ("n", "identity", "names", "mul", "label", "_build", "_index_of", "_cache")

    def __init__(self, n: int, identity: int, names: tuple[str, ...],
                 mul: Callable[[int, int], int],
                 build: Callable[[], tuple[tuple[int, ...], ...]], label: str = ""):
        fields = {"n": n, "identity": identity, "names": names, "mul": mul, "label": label,
                  "_build": build, "_index_of": {name: i for i, name in enumerate(names)},
                  "_cache": {}}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a Group is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return ((self.n, self.identity, self.names) == (other.n, other.identity, other.names)
                and self.table == other.table)

    def __hash__(self):
        return hash((self.n, self.table, self.identity, self.names))

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        table = self._cache.get("table")
        if table is None:
            table = self._build()
            self._cache["table"] = table  # one assignment: never seen half built
        return table

    @property
    def inverses(self) -> tuple[int, ...]:
        return _cyclic_walk(self)[1]

    def inv(self, g: int) -> int:
        return self.inverses[g]

    def power(self, g: int, e: int) -> int:
        if e < 0:
            g, e = self.inverses[g], -e
        acc = self.identity
        mul = self.mul
        for _ in range(e):
            acc = mul(acc, g)
        return acc

    def conjugate(self, a: int, h: int) -> int:
        """a * h * a^-1."""
        return self.mul(self.mul(a, h), self.inverses[a])

    def elements(self) -> range:
        return range(self.n)

    def index_of(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise KeyError(f"no element named {name!r} in group {self.label or '<unnamed>'}")


SylowReport = namedtuple("SylowReport", "k classification generator", defaults=(None,))
SylowReport.__doc__ = """Outcome of the Sylow 2-subgroup analysis.

``k`` is the largest power of 2 dividing the order. ``generator`` is the
smallest-index element of order ``k`` and is present exactly when the
classification is cyclic-nontrivial; no subgroup is reported, since
nothing reads one.
"""


def _generate(mul: Callable[[int, int], int], identity: int,
              candidates: Iterable[int], within: set[int] | None = None
              ) -> tuple[list[int], set[int]] | None:
    """Greedy generators taken from ``candidates``, and the subgroup they generate.

    Each candidate not yet reached becomes a generator, and the reached set
    grows by right products with the generators until it is closed under
    them; started from the identity in a finite group, that closure is the
    subgroup the generators generate. Returns None as soon as a product
    falls outside ``within``, when it is given.
    """
    reached = {identity}
    gens: list[int] = []
    for a in candidates:
        if a in reached:
            continue
        gens.append(a)
        stack = [mul(x, a) for x in reached]
        while stack:
            y = stack.pop()
            if y in reached:
                continue
            if within is not None and y not in within:
                return None
            reached.add(y)
            stack.extend([mul(y, b) for b in gens])
    return gens, reached


def _first_repeat(lines: Iterable[Iterable[int]]) -> tuple[int, int]:
    """The first line that repeats a symbol, and the first symbol it repeats."""
    for i, line in enumerate(lines):
        seen = set()
        for v in line:
            if v in seen:
                return i, v
            seen.add(v)
    raise AssertionError("no line repeats a symbol")


def _latin_rows(raw: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows of an n x n table of ints in [0, n), each a permutation.

    Each row is one C-level gather from ``pool``, whose keys are exactly the
    ints 0..n-1: a miss is an entry out of range or not an int, and the n^2
    entries share the pool's n int objects. Raises :class:`NotLatin` naming
    the first short row, the first entry out of range or not an int, or the
    first row that repeats a symbol.
    """
    n = len(raw)
    if n == 0:
        raise NotLatin("empty table")
    for i, row in enumerate(raw):
        if len(row) != n:
            raise NotLatin(f"row {i} has length {len(row)}, expected {n}")
    pool = {i: i for i in range(n)}
    rows = []
    for g, row in enumerate(raw):
        try:
            rows.append(itemgetter(*row)(pool))
        except (KeyError, TypeError):
            for h, v in enumerate(row):
                try:
                    pool[v]
                except (KeyError, TypeError):
                    shown = repr(v) if isinstance(v, str) else v  # "1" is not 1
                    fault = f"outside [0, {n})" if _integral(v) else "is not an int"
                    raise NotLatin(f"entry table[{g}][{h}] = {shown} {fault}") from None
            raise
    if n == 1:
        rows = [tuple(rows)]  # itemgetter of one item returns it bare
    if any(len(set(row)) != n for row in rows):
        raise NotLatin("row %d repeats symbol %d" % _first_repeat(rows))
    return tuple(rows)


def _integral(v) -> bool:
    """Whether ``v`` equals some int, as every entry the pool accepts does:
    2.0 does, 1.5 and "2" do not."""
    try:
        return v == int(v)
    except (TypeError, ValueError, OverflowError):
        return False


def _indices(values: Iterable, n: int | None, error: type[Exception],
             what: str) -> tuple[int, ...]:
    """``values`` read as element indices by the rule table entries follow:
    each must equal an int in [0, n) (any int when ``n`` is None) and is
    read as it, so 2.0 is 2 while 1.5, "1", -1 and n raise ``error``."""
    values = tuple(values)
    for v in values:
        if not (_integral(v) and (n is None or 0 <= v < n)):
            shown = repr(v) if isinstance(v, str) else v
            bound = "" if n is None else f" in [0, {n})"
            raise error(f"{what} {shown} is not an int{bound}")
    return tuple(map(int, values))


def _check_columns(rows: Sequence[Sequence[int]]) -> None:
    """Raise :class:`NotLatin` naming the first column that repeats a symbol."""
    n = len(rows)
    if any(len(set(col)) != n for col in zip(*rows)):
        raise NotLatin("column %d repeats symbol %d" % _first_repeat(zip(*rows)))


def group_from_table(raw: Sequence[Sequence[int]],
                     names: Sequence[str] | None = None,
                     *,
                     label: str = "") -> Group:
    """Validate a raw multiplication table and wrap it as a :class:`Group`.

    ``raw`` is n rows of n ints in [0, n): any sequence of sequences whose
    entries equal such ints, so 1.5 or "1" is refused. Raises
    :class:`NotLatin`, :class:`NoIdentity` or :class:`NotAssociative` with
    the first offending row/column/element/triple named in the message;
    ``names`` of the wrong count, repeated or holding whitespace raise
    :class:`NotLatin` too.

    Associativity is Light's test over a greedy generating set: for each
    generator a, row ``x*a`` must be row x read at the entries of row a,
    which is ``(x*a)*y == x*(a*y)`` for every y. The elements a that pass
    are closed under the product and include the identity, so they contain
    everything the generators reach, and the test is exact. The columns are
    scanned only when the identity or Light's test fails, so that a
    repeated column is named first: a table whose rows are permutations,
    with a two-sided identity, that passes is a finite monoid with left
    cancellation, which is a group, and its columns are permutations too.
    """
    rows = _latin_rows(raw)
    n = len(rows)
    elems = tuple(range(n))
    identity = next((e for e, row in enumerate(rows)
                     if row == elems and tuple(map(itemgetter(e), rows)) == elems), None)
    if identity is None:
        _check_columns(rows)
        raise NoIdentity("no two-sided identity element")
    gens, _ = _generate(lambda x, y: rows[x][y], identity, elems)
    for a in gens:
        gather = itemgetter(*rows[a])
        for x, row in enumerate(rows):
            lhs, rhs = rows[row[a]], gather(row)  # (x*a)*y and x*(a*y) over y
            if lhs != rhs:
                _check_columns(rows)
                y = next(y for y in elems if lhs[y] != rhs[y])
                raise NotAssociative(
                    f"(x*a)*y != x*(a*y) for (x,a,y) = ({x},{a},{y}): {lhs[y]} != {rhs[y]}"
                )
    return _group(n, identity, names, label, table=rows)


def _build_table(n: int, identity: int,
                 mul: Callable[[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """The full table of a product, by right translation.

    Each greedy generator s of :func:`_generate` costs one row of n
    products. Every other row is one gather of a row already built, since
    ``(x*s)*h = x*(s*h)`` makes row ``x*s`` the row of x read at the
    entries of row s. The rows grow from the identity's, ``tuple(range(n))``,
    so all n^2 entries are its n int objects.
    """
    elems = tuple(range(n))
    gens, _ = _generate(mul, identity, elems)
    gathers = [(s, itemgetter(*map(mul, itertools.repeat(s, n), elems))) for s in gens]
    rows: list = [None] * n
    rows[identity] = elems
    stack = [identity]
    while stack:
        row = rows[stack.pop()]
        for s, gather in gathers:
            y = row[s]
            if rows[y] is None:
                rows[y] = gather(row)
                stack.append(y)
    return tuple(rows)


def _group(n: int, identity: int, names: Sequence[str] | None, label: str, *,
           mul: Callable[[int, int], int] | None = None,
           table: tuple[tuple[int, ...], ...] | None = None) -> Group:
    """Wrap a product, whose identity the caller knows, as a :class:`Group`.

    The caller gives ``mul``, and the table is built from it on first read
    (:func:`_build_table`), or the ``table`` it holds, which ``mul`` then
    reads. Neither is checked: it comes from :func:`group_from_table` after
    its checks, or from a constructor whose formula is a group. The
    caller's ``names`` are checked, as they come from outside.
    """
    if names is None:
        names = tuple(map(str, range(n)))
    else:
        names = tuple(map(str, names))
        if len(names) != n:
            raise NotLatin(f"names: expected {n} element names, got {len(names)}")
        if len(set(names)) != n:
            dup = next(x for i, x in enumerate(names) if x in names[:i])
            raise NotLatin(f"names: element name {dup!r} repeats")
        if _WHITESPACE.search("".join(names)):
            raise NotLatin("names: element names must be whitespace-free")
    if table is None:
        build = functools.partial(_build_table, n, identity, mul)
    else:
        mul, build = (lambda g, h: table[g][h]), (lambda: table)
    return Group(n, identity, names, mul, build, label)


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
    names = [_pow_word(gen, i) for i in range(n)]
    return _group(n, 0, names, f"Z{n}", mul=lambda g, h: (g + h) % n)


def dihedral(n: int) -> Group:
    """Dihedral group of order ``2n``: r of order n, s of order 2, srs = r^-1.

    Element ``j*n + i`` is the word s^j r^i.
    """
    if n < 1:
        raise ValueError("order parameter must be positive")

    def mul(g, h):
        j, i = divmod(g, n)
        jh, ih = divmod(h, n)
        return (j ^ jh) * n + (ih - i if jh else i + ih) % n

    names = [_concat_words((_pow_word("s", j), _pow_word("r", i)))
             for j in range(2) for i in range(n)]
    group = _group(2 * n, 0, names, f"D{n}", mul=mul)
    if n % 2 == 0:
        group._cache["complete_mapping"] = functools.partial(_dihedral_mapping, n)
    return group


def _dihedral_mapping(n: int) -> tuple[int, ...]:
    """A complete mapping of D_n for even n, with h = n/2: r^i -> r^i and
    s r^i -> s r^(1-i) for i < h, r^i -> s r^(1-i) and s r^i -> r^i for
    i >= h. Their products r^(2i), r^(1-2i), s r^(1-2i) and s r^(2i) meet
    the even and the odd rotations and reflections once each."""
    h = n // 2
    flip = [n + (1 - i) % n for i in range(n)]
    return (*range(h), *flip[h:], *flip[:h], *range(h, n))


def dicyclic(n: int) -> Group:
    """Dicyclic group of order ``4n``: a of order 2n, x^2 = a^n, xax^-1 = a^-1.

    Element ``j*2n + i`` is the word a^i x^j.
    """
    if n < 1:
        raise ValueError("order parameter must be positive")
    two_n = 2 * n

    def mul(g, h):
        j, i = divmod(g, two_n)
        jh, ih = divmod(h, two_n)
        return (j ^ jh) * two_n + (i - ih + n * jh if j else i + ih) % two_n

    names = [_concat_words((_pow_word("a", i), "x" if j else "1"))
             for j in range(2) for i in range(two_n)]
    group = _group(4 * n, 0, names, f"Dic{n}", mul=mul)
    if n % 2 == 0:
        group._cache["complete_mapping"] = functools.partial(_dicyclic_mapping, n)
    return group


def _dicyclic_mapping(n: int) -> tuple[int, ...]:
    """A complete mapping of Dic_n for even n: a^i -> a^i and
    a^i x -> a^(n-1-i) x for i < n, a^i -> a^i x and a^i x -> a^(n-1-i) for
    i >= n. Their products a^(2i), a^(2i+1), a^(2i) x and a^(2i-n+1) x meet
    the even and the odd powers of a, without and with x, once each."""
    two_n = 2 * n
    rev = [(n - 1 - i) % two_n for i in range(two_n)]
    return (*range(n), *range(two_n + n, 2 * two_n), *(two_n + r for r in rev[:n]), *rev[n:])


def symmetric(n: int) -> Group:
    """Symmetric group on ``n`` points, permutations in lexicographic order.

    Composition convention: (p*q)(i) = p(q(i)). Names use 1-based cycle
    notation, ``"1"`` for the identity. The group holds its table.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = _build_table(len(perms), 0, lambda g, h: index[
        tuple(map(perms[g].__getitem__, perms[h]))])
    names = [_cycle_notation(p) for p in perms]
    return _group(len(perms), 0, names, f"S{n}", table=table)


def direct_product(a: Group, b: Group, label: str = "") -> Group:
    """Direct product; element ``i*|b| + j`` is the pair (a_i, b_j)."""
    n, nb = a.n * b.n, b.n
    mul_a, mul_b = a.mul, b.mul

    def mul(g, h):
        ga, gb = divmod(g, nb)
        ha, hb = divmod(h, nb)
        return mul_a(ga, ha) * nb + mul_b(gb, hb)

    names = _product_names(a.names, b.names)
    if not label and a.label and b.label:
        label = f"{a.label} x {b.label}"
    return _group(n, a.identity * nb + b.identity, names, label, mul=mul)


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
        acts.append(_indices(perm, nh, InvalidAction, f"action[{ki}] entry"))
        if sorted(acts[-1]) != list(range(nh)):
            raise InvalidAction(f"action[{ki}] is not a permutation of 0..{nh - 1}")
    # Whole rows are compared, each made by one C-level map over a table
    # row, so the checks take O(|K| |H| + |K|^2) interpreter steps.
    tk, th = k_part.table, h_part.table
    for ki, p in enumerate(acts):
        if p[h_part.identity] != h_part.identity:
            raise InvalidAction(f"action[{ki}] moves the identity")
        for x, row in enumerate(th):
            images = tuple(map(p.__getitem__, row))        # p(x*y) over y
            products = tuple(map(th[p[x]].__getitem__, p))  # p(x)*p(y) over y
            if images != products:
                y = next(y for y in range(nh) if images[y] != products[y])
                raise InvalidAction(
                    f"action[{ki}] is not an automorphism: images of {x}*{y} disagree"
                )
    for k1, p in enumerate(acts):
        for k2, k12 in enumerate(tk[k1]):
            if tuple(map(p.__getitem__, acts[k2])) != acts[k12]:
                raise InvalidAction(f"action is not a homomorphism at K elements ({k1},{k2})")

    n = nk * nh
    # twisted[k2][h1] = action[inv(k2)](h1)
    twisted = [acts[k] for k in k_part.inverses]
    mul_k, mul_h = k_part.mul, h_part.mul

    def mul(g, h):
        k1, h1 = divmod(g, nh)
        k2, h2 = divmod(h, nh)
        return mul_k(k1, k2) * nh + mul_h(twisted[k2][h1], h2)

    names = _product_names(k_part.names, h_part.names)
    return _group(n, k_part.identity * nh + h_part.identity, names, label, mul=mul)


def _twist(label: str, k_order: int, k_gen: str, h: Group, perm: tuple[int, ...]) -> Group:
    """Z_k, generated by ``k_gen``, acting on ``h``: element i acts as the
    i-th power of the automorphism ``perm``."""
    acts = [tuple(range(h.n))]
    for _ in range(k_order - 1):
        acts.append(tuple(perm[x] for x in acts[-1]))
    return semidirect(cyclic(k_order, k_gen), h, acts, label=label)


# ---------------------------------------------------------------------------
# structural queries

def element_order(group: Group, g: int) -> int:
    """Least t >= 1 with g^t = identity; divides the group order."""
    order = 1
    x = g
    mul = group.mul
    e = group.identity
    while x != e:
        x = mul(x, g)
        order += 1
    return order


def _cyclic_walk(group: Group) -> tuple[list[int], tuple[int, ...]]:
    """The order and the inverse of every element, computed on first use
    and cached on the group; callers read them and must not change them.

    One walk of each cyclic subgroup <g> not yet covered gives every power
    g^j its order o // gcd(j, o) and its inverse g^(o-j), where o is the
    order of g.
    """
    cached = group._cache.get("walk")
    if cached is None:
        orders = [0] * group.n
        inverses = [0] * group.n
        mul, e = group.mul, group.identity
        for g in group.elements():
            if orders[g]:
                continue
            powers = [e]
            x = g
            while x != e:
                powers.append(x)
                x = mul(x, g)
            o = len(powers)
            for j, x in enumerate(powers):
                if not orders[x]:
                    orders[x] = o // gcd(j, o)
                    inverses[x] = powers[-j]
        # One assignment publishes both lists, so a thread never sees them
        # half written.
        cached = group._cache["walk"] = (orders, tuple(inverses))
    return cached


def _cached_orders(group: Group) -> list[int]:
    """The order of every element, cached on the group (see _cyclic_walk)."""
    return _cyclic_walk(group)[0]


def element_orders(group: Group) -> list[int]:
    """The order of every element, a copy of the group's cached list."""
    return list(_cached_orders(group))


def order_signature(group: Group) -> tuple[tuple[int, int], ...]:
    """Multiset of element orders as sorted (order, count) pairs.

    Equal signatures are necessary (not sufficient) for isomorphism; used to
    cross-check independent constructions of the same group.
    """
    counts: dict[int, int] = {}
    for o in _cached_orders(group):
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def subgroup_closure(group: Group, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing ``seed``."""
    _, members = _generate(group.mul, group.identity, seed)
    return frozenset(members)


def is_subgroup(group: Group, members: Iterable[int]) -> bool:
    """Whether ``members`` is a subgroup, checked over a generating set of it.

    A greedy generating set of S reaches all of S; if S is closed under
    right products with each generator, S is what they generate.
    """
    s = set(members)
    return (group.identity in s
            and _generate(group.mul, group.identity, s, within=s) is not None)


def conjugation(group: Group, a: int) -> tuple[int, ...]:
    """The permutation h -> a h a^-1 (equal to h -> a h a when a*a = 1)."""
    mul, a_inv = group.mul, group.inverses[a]
    return tuple(mul(mul(a, h), a_inv) for h in group.elements())


def commutator_subgroup(group: Group, members: Iterable[int] | None = None) -> frozenset[int]:
    """The derived subgroup of the group, or of the subgroup ``members``,
    generated by the [a, s] with s in a generating set, since
    ``[a, bs] = [a, b] [ba, s] [b, s]^-1``."""
    mul, inv = group.mul, group.inverses
    members = group.elements() if members is None else list(members)
    gens, _ = _generate(mul, group.identity, members)
    comms = {mul(mul(a, b), mul(inv[a], inv[b])) for a in members for b in gens}
    return subgroup_closure(group, comms)


def index2_subgroups(group: Group) -> tuple[frozenset[int], ...]:
    """Every subgroup of index 2, computed on first use and cached on the group.

    They are the kernels of the nonzero homomorphisms G -> Z2. Each one
    vanishes on the squares, so it factors through Q = G/S with S generated
    by the g^2; every element of Q squares to 1, so Q is elementary abelian,
    a vector space over Z2 of some dimension d. Greedy generators of Q
    outside S give each element its coordinates: a new generator x doubles
    the span H reached so far by H -> Hx, which flips x's coordinate. The
    2^d - 1 nonzero linear forms f then give the kernels
    ``{g : f(g) = 0}``, in the order of f read as a d-bit integer. A group
    of odd order has none.
    """
    if group.n % 2:
        return ()
    cached = group._cache.get("index2")
    if cached is None:
        mul = group.mul
        coords = dict.fromkeys(subgroup_closure(group, {mul(g, g) for g in group.elements()}), 0)
        bit = 1
        for x in group.elements():
            if x not in coords:
                coords.update([(mul(h, x), v | bit) for h, v in coords.items()])
                bit <<= 1
        forms = [(f, []) for f in range(1, bit)]
        for g, v in coords.items():
            for f, members in forms:
                if not (v & f).bit_count() & 1:
                    members.append(g)
        cached = group._cache["index2"] = tuple(frozenset(members) for _, members in forms)
    return cached


def _abelianized_product_is_identity(group: Group) -> bool:
    """Hall and Paige's product test, computed on first use and cached on the
    group: whether the product of all elements lies in the derived subgroup
    G', which holds exactly when the Sylow 2-subgroup is trivial or not
    cyclic.

    A complete mapping forces it: the diagonal products re-enumerate the
    group, so in the abelianization s = 2s for the sum s of all elements.
    The image in G/G' does not depend on the order of the factors, so one
    product in G, tested for membership in G', decides it.
    """
    cached = group._cache.get("product_in_derived")
    if cached is None:
        product = functools.reduce(group.mul, group.elements(), group.identity)
        cached = group._cache["product_in_derived"] = product in commutator_subgroup(group)
    return cached


def sylow2(group: Group) -> SylowReport:
    """Classify the Sylow 2-subgroup: trivial, cyclic-nontrivial, non-cyclic.

    ``k`` is the largest power of 2 dividing the order. A Sylow 2-subgroup
    has order ``k``, so the Sylow 2-subgroups (all conjugate) are cyclic
    exactly when some element has order ``k``; the generator is then the
    smallest-index such element (deterministic). No subgroup is searched
    for: Sylow's first theorem says one exists, and the construction never
    consumes it.
    """
    n = group.n
    k = 1
    while n % (2 * k) == 0:
        k *= 2
    if k == 1:
        return SylowReport(1, TRIVIAL)
    orders = _cached_orders(group)
    for g in group.elements():
        if orders[g] == k:
            return SylowReport(k, CYCLIC_NONTRIVIAL, g)
    return SylowReport(k, NON_CYCLIC)


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


def _read_rows(text: str, what: str) -> tuple[list[tuple[int, ...]], list[str]]:
    """The n integer rows under the order line and the lines after them, for
    the table and square formats; ``what`` names the file in messages.

    Each row is one C-level gather from ``pool``, which maps the plain
    spelling of each int in [0, n) to it; a row with any other token
    ("07", "-1", "x") is read by ``int`` token by token, as before.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise NotLatin(f"empty {what} file")
    try:
        n = int(lines[0])
    except ValueError:
        raise NotLatin(f"first line must be the order, got {lines[0]!r}") from None
    if n < 1:
        raise NotLatin(f"first line must be a positive order, got {lines[0]!r}")
    if len(lines) < n + 1:
        raise NotLatin(f"expected {n} {what} rows, found {len(lines) - 1}")
    pool = {str(i): i for i in range(n)}
    rows = []
    for line in lines[1:n + 1]:
        tokens = line.split()
        try:
            # itemgetter of one item returns it bare
            rows.append(itemgetter(*tokens)(pool) if len(tokens) > 1 else (pool[tokens[0]],))
        except KeyError:
            try:
                rows.append(tuple(map(int, tokens)))
            except ValueError:
                raise NotLatin(f"row {len(rows)} has a non-integer entry: {line!r}") from None
    return rows, lines[n + 1:]


def group_from_text(text: str, label: str = "") -> Group:
    rows, rest = _read_rows(text, "table")
    names = None
    if rest and rest[0].startswith("names:"):
        names = rest.pop(0)[len("names:"):].split()
    if rest:
        raise NotLatin(f"unexpected trailing line {rest[0]!r}")
    return group_from_table(rows, names, label=label)


def load_group(path: str | Path) -> Group:
    p = Path(path)
    return group_from_text(p.read_text(), label=f"table:{p}")


def save_group(group: Group, path: str | Path) -> None:
    Path(path).write_text(group_to_text(group))
