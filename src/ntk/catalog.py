"""The built-in group catalog used by the batch command and the test suite.

Entries are deterministic and sorted by (order, label). Coverage up to a
given order: all cyclic groups, dihedral and dicyclic families, small
symmetric groups, a spread of abelian products, and twisted products that
exercise every shape the construction can meet (trivial twist, fixed-point
free twist, large generator order, odd nonabelian groups).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial

from .groups import Group, cyclic, dicyclic, dihedral, direct_product, semidirect, symmetric


CatalogEntry = namedtuple("CatalogEntry", "label group")


def _power_action(k_order: int, perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Action of a cyclic group: element i acts as the i-th power of ``perm``."""
    n = len(perm)
    acts = [tuple(range(n))]
    for _ in range(k_order - 1):
        prev = acts[-1]
        acts.append(tuple(perm[prev[x]] for x in range(n)))
    return acts


def _inversion(group: Group) -> tuple[int, ...]:
    return tuple(group.inverses)


def _mod_scaling(n: int, factor: int) -> tuple[int, ...]:
    return tuple((factor * i) % n for i in range(n))


def _s3_times_cyclic(q: int) -> Group:
    """S3 x Z_q presented on generators b, c, d with b*d*b = d^2 and c central.

    Built as Z2 twisted over (Z_q x Z3): b inverts d and fixes c, so the
    element words come out as b^i c^j d^k.
    """
    h = direct_product(cyclic(q, "c"), cyclic(3, "d"))
    invert_d = tuple(3 * (i // 3) + (-i % 3) for i in range(3 * q))
    action = _power_action(2, invert_d)
    return semidirect(cyclic(2, "b"), h, action, label=f"S3xZ{q}")


def _alternating4() -> Group:
    h = direct_product(cyclic(2, "u"), cyclic(2, "v"))
    # rotate the three involutions: u -> v -> uv -> u
    rot = (0, 3, 1, 2)
    return semidirect(cyclic(3, "t"), h, _power_action(3, rot), label="A4")


def _heisenberg3() -> Group:
    h = direct_product(cyclic(3, "y"), cyclic(3, "z"))
    # x acts by y -> yz, z -> z; every non-identity element has order 3
    shear = tuple(3 * (i // 3) + (i // 3 + i) % 3 for i in range(9))
    return semidirect(cyclic(3, "x"), h, _power_action(3, shear), label="He3")


def _gen_dihedral_3x3() -> Group:
    h = direct_product(cyclic(3, "c"), cyclic(3, "d"))
    return semidirect(cyclic(2, "s"), h, _power_action(2, _inversion(h)),
                      label="Dih(Z3xZ3)")


def _cyclic_twist(k_order: int, h_order: int, factor: int, label: str) -> Group:
    h = cyclic(h_order, "c")
    return semidirect(cyclic(k_order, "b"), h,
                      _power_action(k_order, _mod_scaling(h_order, factor)),
                      label=label)


# label -> (order, builder) of each catalog group that no spec of the grammar
# names; parse_group_spec reads each of these labels as a whole spec
NAMED_GROUPS = {
    "A4": (12, _alternating4),
    "Dih(Z3xZ3)": (18, _gen_dihedral_3x3),
    "F20": (20, partial(_cyclic_twist, 4, 5, 2, "F20")),
    "Z7:Z3": (21, partial(_cyclic_twist, 3, 7, 2, "Z7:Z3")),
    "Z8:Z3": (24, partial(_cyclic_twist, 8, 3, 2, "Z8:Z3")),
    "He3": (27, _heisenberg3),
    "Z4:Z7": (28, partial(_cyclic_twist, 4, 7, 6, "Z4:Z7")),
    "Z4:Z9": (36, partial(_cyclic_twist, 4, 9, 8, "Z4:Z9")),
    "Z16:Z3": (48, partial(_cyclic_twist, 16, 3, 2, "Z16:Z3")),
    "Z8:Z17": (136, partial(_cyclic_twist, 8, 17, 2, "Z8:Z17")),
}


@lru_cache(maxsize=8)
def builtin_catalog(max_order: int = 200) -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []

    def add(label: str, order: int, build) -> None:
        if order <= max_order:
            entries.append(CatalogEntry(label, build()))

    for n in range(1, max_order + 1):
        add(f"Z{n}", n, lambda n=n: cyclic(n))

    add("Z2xZ2", 4, lambda: direct_product(cyclic(2, "u"), cyclic(2, "v"), label="Z2xZ2"))
    add("Z2xZ4", 8, lambda: direct_product(cyclic(2, "u"), cyclic(4, "v"), label="Z2xZ4"))
    add("Z2xZ2xZ2", 8, lambda: direct_product(
        cyclic(2, "u"), direct_product(cyclic(2, "v"), cyclic(2, "w")), label="Z2xZ2xZ2"))
    add("Z3xZ3", 9, lambda: direct_product(cyclic(3, "c"), cyclic(3, "d"), label="Z3xZ3"))
    add("Z2xZ2xZ3", 12, lambda: direct_product(
        cyclic(2, "u"), direct_product(cyclic(2, "v"), cyclic(3, "c")), label="Z2xZ2xZ3"))
    add("Z3xZ5", 15, lambda: direct_product(cyclic(3, "c"), cyclic(5, "e"), label="Z3xZ5"))
    add("Z2xZ8", 16, lambda: direct_product(cyclic(2, "u"), cyclic(8, "v"), label="Z2xZ8"))
    add("Z4xZ4", 16, lambda: direct_product(cyclic(4, "u"), cyclic(4, "v"), label="Z4xZ4"))

    for n in range(3, max_order // 2 + 1):
        add(f"D{n}", 2 * n, lambda n=n: dihedral(n))
    for n in range(2, max_order // 4 + 1):
        add(f"Dic{n}", 4 * n, lambda n=n: dicyclic(n))

    add("S3", 6, lambda: symmetric(3))
    add("S4", 24, lambda: symmetric(4))

    q = 3
    while 6 * q <= max_order:
        add(f"S3xZ{q}", 6 * q, lambda q=q: _s3_times_cyclic(q))
        q += 2

    for label, (order, build) in NAMED_GROUPS.items():
        add(label, order, build)

    entries.sort(key=lambda e: (e.group.n, e.label))
    return tuple(entries)
