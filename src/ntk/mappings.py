"""Complete mappings and harmonious orderings.

A complete mapping of a group G is a permutation ``sigma`` of its elements
for which ``g -> g*sigma(g)`` is again a bijection; its graph is exactly a
transversal of the multiplication table. A harmonious ordering of an
odd-order (sub)group lists the elements so that consecutive products
``h_i * h_{i+1}`` (cyclically) are pairwise distinct; it is built, not
searched for, by lifting over a cyclic quotient.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import (
    InvalidInput,
    InvalidOrdering,
    NotPermutation,
    OddOrderRequired,
    SearchExhausted,
    StructureViolation,
)
from .guards import ensure_within
from .groups import (Group, _cached_orders, _indices, commutator_subgroup, is_subgroup,
                     subgroup_closure)
from .latin import _check_perm, _square_search, cayley_square, is_partial_transversal

Collision = namedtuple("Collision", "kind i j value")


def is_complete_mapping(group: Group, sigma: Sequence[int]) -> bool:
    p = _check_perm(sigma, group.n, "sigma")
    return is_partial_transversal(cayley_square(group), enumerate(p))[0]


def find_complete_mapping(group: Group, *,
                          guard: int | None = None) -> tuple[int, ...] | None:
    """Lexicographically first complete mapping, or None when none exists.

    The graph of a complete mapping is a transversal of the multiplication
    table, so this is the first transversal of the latin search kernel read
    row by row: sigma(g) is the column chosen in row g, the smallest mapping.
    The search reads its cuts from the group: it pins row 0 to column 0,
    and decides absence at the root when 2 divides n but 4 does not, or
    when Hall and Paige's product test fails (the product of all elements
    lies outside the derived subgroup G', which is exactly when the Sylow
    2-subgroup is cyclic and nontrivial); the test is read only at orders
    4m.
    """
    ensure_within("complete_mapping", group.n, guard)
    return _square_search(cayley_square(group))


def _resolve_members(group: Group, subgroup: Iterable[int] | None) -> list[int]:
    if subgroup is None:
        return list(group.elements())
    members = sorted(set(_indices(subgroup, group.n, InvalidInput, "subgroup element")))
    if not is_subgroup(group, members):
        raise InvalidInput("the given element set is not a subgroup")
    return members


def harmonious_ordering(group: Group,
                        subgroup: Iterable[int] | None = None) -> tuple[int, ...]:
    """A harmonious ordering of an odd-order subgroup (whole group by default)
    from the identity: ``g^i`` for the smallest-index generator g if cyclic."""
    members = _resolve_members(group, subgroup)
    if len(members) % 2 == 0:
        raise OddOrderRequired(f"subgroup order {len(members)} is even")
    return _checked_ordering(group, members)


def _checked_ordering(group: Group, members: list[int],
                      ordering: Sequence[int] | None = None) -> tuple[int, ...]:
    """A harmonious ordering of the subgroup ``members`` that has passed the
    successor check: ``ordering`` if given, else the one lifted by
    :func:`_lift`. A given ordering that fails raises
    :class:`InvalidOrdering`; a lifted one that fails,
    :class:`StructureViolation`. ``members`` is not re-tested to be a
    subgroup.
    """
    given = ordering is not None
    ordering = (_indices(ordering, group.n, InvalidOrdering, "ordering entry") if given
                else _lift(group, members))
    try:
        ok, collision = _check_successors(group, ordering, members)
    except NotPermutation as exc:
        raise InvalidOrdering(str(exc)) from exc
    if not ok:
        failure = InvalidOrdering if given else StructureViolation
        raise failure(f"ordering is not harmonious: {collision}")
    return ordering


def _lift(group: Group, members: list[int]) -> tuple[int, ...]:
    """Hall and Paige's lifting lemma for the successor map sigma: take N
    normal in H with H/N cyclic of order q, generated by xN. N = {e} if H is
    cyclic (x its smallest-index generator), else a maximal subgroup over
    the derived subgroup, normal of prime index. With psi_0 the successor
    map of N's own ordering, psi_j = id for j >= 1 and y_j = x^(j+1) for
    j < q - 1, ``sigma(h x^j) = x^-j psi_j(h) x^j y_j`` is a complete
    mapping: ``g sigma(g) = h psi_j(h) x^j y_j``. y_(q-1) is tried over
    x^q N = N in index order until sigma is one m-cycle; y = e does it when
    N is abelian, and with N = {e} sigma(x^j) is x^(j+1).
    """
    mul, inv, e, m = group.mul, group.inverses, group.identity, len(members)
    x = next((g for g in members if _cached_orders(group)[g] == m), None)
    normal, psi = [e], {e: e}
    if x is None:
        grown = commutator_subgroup(group, members)
        spanning: set[int] = set()  # g with <N, g> = H, by whole cosets gN
        for g in members:
            if g not in grown and g not in spanning:
                closure = subgroup_closure(group, grown | {g})
                if len(closure) < m:
                    grown = closure
                else:
                    spanning.update(mul(g, h) for h in grown)
        x = next(g for g in members if g not in grown)
        normal = sorted(grown)
        sub = _lift(group, normal)
        psi = dict(zip(sub, sub[1:] + sub[:1]))
    q = m // len(normal)
    powers = list(accumulate(range(q), lambda xj, _: mul(xj, x), initial=e))
    for y in normal:
        sigma = {}
        for j, xj in enumerate(powers[:q]):
            yj = powers[j + 1] if j < q - 1 else y
            for h in normal:
                image = psi[h] if j == 0 else mul(mul(inv[xj], h), xj)
                sigma[mul(h, xj)] = mul(image, yj)
        ordering = [e]
        while len(ordering) < m and sigma[ordering[-1]] != e:
            ordering.append(sigma[ordering[-1]])
        if len(ordering) == m:
            return tuple(ordering)
    raise SearchExhausted(f"no choice of the last y makes sigma one {m}-cycle")


def verify_harmonious(group: Group, ordering: Sequence[int],
                      subgroup: Iterable[int] | None = None
                      ) -> tuple[bool, Collision | None]:
    """``(True, None)`` if the successor products are pairwise distinct, else
    ``(False, first_collision)``. ``subgroup``, the whole group by default,
    must be a subgroup (:class:`InvalidInput` otherwise)."""
    order = _indices(ordering, group.n, NotPermutation, "ordering entry")
    return _check_successors(group, order, _resolve_members(group, subgroup))


def _check_successors(group: Group, order: tuple[int, ...], members: list[int]
                      ) -> tuple[bool, Collision | None]:
    if sorted(order) != members:
        raise NotPermutation("ordering is not a permutation of the subgroup")
    mul = group.mul
    seen: dict[int, int] = {}
    for i, (a, b) in enumerate(zip(order, order[1:] + order[:1])):
        p = mul(a, b)
        if p in seen:
            return False, Collision("successor", seen[p], i, p)
        seen[p] = i
    return True, None
