"""The built-in group catalog used by the batch command and the test suite.

Labels sorted by (order, label), each built by ``parse_group_spec``, so
``ntk construct <label>`` runs the group the catalog checks. Up to a given
order: all cyclic groups, dihedral and dicyclic families, small symmetric
groups, a spread of abelian products, and twisted products that exercise
every shape the construction can meet (trivial twist, fixed-point free
twist, large generator order, odd nonabelian groups). Only ``S3xZ<q>`` has
its own builder, the presentation Z2 ⋉ (Z_q × Z3): the grammar reads
``S3xZ3`` as the direct product S3 × Z3, with other names and layout.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import prod

from .groups import Group, _twist, cyclic, direct_product
from .groupspec import NAMED_GROUPS, parse_group_spec


CatalogEntry = namedtuple("CatalogEntry", "label group")

_PRODUCTS = ("Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ2xZ3", "Z3xZ5", "Z2xZ8", "Z4xZ4")


def _s3_times_cyclic(q: int) -> Group:
    """S3 x Z_q presented on generators b, c, d with b*d*b = d^2 and c central.

    Built as Z2 twisted over (Z_q x Z3): b inverts d and fixes c, so the
    element words come out as b^i c^j d^k.
    """
    invert_d = tuple(3 * (i // 3) + (-i % 3) for i in range(3 * q))
    return _twist(f"S3xZ{q}", 2, "b", direct_product(cyclic(q, "c"), cyclic(3, "d")), invert_d)


@lru_cache(maxsize=8)
def builtin_catalog(max_order: int = 200) -> tuple[CatalogEntry, ...]:
    labels = [(f"Z{n}", n) for n in range(1, max_order + 1)]
    labels += [(f"D{n}", 2 * n) for n in range(3, max_order // 2 + 1)]
    labels += [(f"Dic{n}", 4 * n) for n in range(2, max_order // 4 + 1)]
    labels += [("S3", 6), ("S4", 24)]
    labels += [(label, prod(int(z[1:]) for z in label.split("x"))) for label in _PRODUCTS]
    labels += [(label, order) for label, (order, _) in NAMED_GROUPS.items()]
    entries = [CatalogEntry(label, parse_group_spec(label)[0])
               for label, order in labels if order <= max_order]
    entries += [CatalogEntry(f"S3xZ{q}", _s3_times_cyclic(q))
                for q in range(3, max_order // 6 + 1, 2)]
    entries.sort(key=lambda e: (e.group.n, e.label))
    return tuple(entries)
