"""Complete mappings and harmonious orderings.

A complete mapping of a group G is a permutation ``sigma`` of its elements
for which ``g -> g*sigma(g)`` is again a bijection; its graph is exactly a
transversal of the multiplication table. A harmonious ordering of an
odd-order (sub)group lists the elements so that consecutive products
``h_i * h_{i+1}`` (cyclically) are pairwise distinct.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .errors import (
    InvalidInput,
    NotPermutation,
    OddOrderRequired,
    SearchExhausted,
    StructureViolation,
)
from .guards import ensure_within
from .groups import Group, _cached_orders, commutator_subgroup, is_subgroup
from .latin import _search

Collision = namedtuple("Collision", "kind i j value")


def is_complete_mapping(group: Group, sigma: Sequence[int]) -> bool:
    n = group.n
    p = tuple(int(x) for x in sigma)
    if sorted(p) != list(range(n)):
        raise NotPermutation(f"sigma is not a permutation of 0..{n - 1}")
    seen = 0
    for g in range(n):
        bit = 1 << group.table[g][p[g]]
        if seen & bit:
            return False
        seen |= bit
    return True


def _abelianized_product_is_identity(group: Group) -> bool:
    # A complete mapping forces the product of all elements, taken in the
    # abelianization, to vanish: the diagonal products re-enumerate the group,
    # so s = 2s there. Checking this up front refutes impossible instances
    # without touching the exponential search.
    commutators = commutator_subgroup(group)
    if len(commutators) == group.n:
        return True
    rep: dict[int, int] = {}
    for g in group.elements():
        if g in rep:
            continue
        coset = sorted(group.table[g][h] for h in commutators)
        for member in coset:
            rep[member] = coset[0]
    acc = rep[group.identity]
    for g in group.elements():
        acc = rep[group.table[acc][g]]
    return acc == rep[group.identity]


def find_complete_mapping(group: Group, *,
                          guard: int | None = None) -> tuple[int, ...] | None:
    """Lexicographically first complete mapping, or None when none exists.

    The graph of a complete mapping is a transversal of the multiplication
    table, so this is the first transversal of the latin search kernel read
    row by row: sigma(g) is the column chosen in row g, the smallest mapping.
    Absence is certified either by the abelianization test above or by
    exhausting the search. A group table's right translations make its
    columns regular, so the search pins row 0 to column 0 without checking.
    """
    ensure_within("complete_mapping", group.n, guard)
    if not _abelianized_product_is_identity(group):
        return None
    return _search(group.table, pin=True)


def _resolve_members(group: Group, subgroup: Iterable[int] | None) -> list[int]:
    if subgroup is None:
        return list(group.elements())
    members = sorted({int(x) for x in subgroup})
    if not is_subgroup(group, members):
        raise InvalidInput("the given element set is not a subgroup")
    return members


def harmonious_ordering(group: Group,
                        subgroup: Iterable[int] | None = None,
                        *, closed_form: bool = True) -> tuple[int, ...]:
    """A harmonious ordering of an odd-order subgroup (whole group by default).

    Cyclic subgroups get the closed form ``h_i = g^i`` for the smallest-index
    generator g: consecutive products are then ``g^(2i+1)``, distinct because
    2 is invertible modulo an odd order. Everything else (or everything, with
    ``closed_form=False``) falls back to a lexicographic backtracking search
    pinned at ``h_0 = identity`` (cyclic shifts of a harmonious ordering stay
    harmonious, so pinning loses nothing and keeps the output deterministic).
    """
    members = _resolve_members(group, subgroup)
    m = len(members)
    if m % 2 == 0:
        raise OddOrderRequired(f"subgroup order {m} is even")

    gen = None
    if closed_form:
        orders = _cached_orders(group)
        gen = next((g for g in members if orders[g] == m), None)
    if gen is not None:
        ordering = []
        x = group.identity
        for _ in range(m):
            ordering.append(x)
            x = group.table[x][gen]
        ordering = tuple(ordering)
        ok, collision = verify_harmonious(group, ordering, members)
        if not ok:
            raise StructureViolation(f"closed-form ordering failed: {collision}")
        return ordering

    table = group.table
    member_set = set(members)
    seq = [group.identity]
    used = {group.identity}
    prods: set[int] = set()

    def dfs() -> bool:
        if len(seq) == m:
            wrap = table[seq[-1]][seq[0]]
            return wrap not in prods
        last = seq[-1]
        for cand in members:
            if cand in used:
                continue
            p = table[last][cand]
            if p in prods:
                continue
            seq.append(cand)
            used.add(cand)
            prods.add(p)
            if dfs():
                return True
            seq.pop()
            used.remove(cand)
            prods.remove(p)
        return False

    if group.identity not in member_set:
        raise InvalidInput("subgroup does not contain the identity")
    if not dfs():
        raise SearchExhausted(
            f"no harmonious ordering found for an odd-order subgroup of size {m}; "
            "this contradicts a guarantee and indicates a bug"
        )
    return tuple(seq)


def verify_harmonious(group: Group, ordering: Sequence[int],
                      subgroup: Iterable[int] | None = None
                      ) -> tuple[bool, Collision | None]:
    """Check that the successor products are pairwise distinct.

    Returns ``(True, None)`` or ``(False, first_collision)`` where the
    collision names the two positions whose products coincide.
    """
    order = tuple(int(x) for x in ordering)
    if subgroup is None:
        members = set(order) if len(order) != group.n else set(group.elements())
    else:
        members = {int(x) for x in subgroup}
    if sorted(order) != sorted(members) or len(set(order)) != len(order):
        raise NotPermutation("ordering is not a permutation of the subgroup")
    m = len(order)
    table = group.table
    seen: dict[int, int] = {}
    for i in range(m):
        p = table[order[i]][order[(i + 1) % m]]
        if p in seen:
            return False, Collision("successor", seen[p], i, p)
        seen[p] = i
    return True, None
