"""Reference group arithmetic, written from the presentations alone.

Every check in this benchmark recomputes products with the formulas below
instead of reading them from ``ntk``. Element indices follow the layouts
the ``ntk`` constructors document (``Z``: c^i; ``D``: s^j r^i at
``j*q + i``; ``Dic``: a^i x^j at ``j*2q + i``; ``S``: permutations in
lexicographic order; products and twisted products: the pair (a, b) at
``a*|B| + b``), so a symbol can be compared cell by cell.

Each group also carries its Sylow 2-subgroup data, worked out from the
presentation: ``k`` (the 2-part of the order), whether the Sylow
2-subgroup is cyclic, and for the cyclic nontrivial case ``m``, the order
of the subgroup of the odd part fixed by the involution.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Sequence

TRIVIAL = "trivial"
CYCLIC = "cyclic-nontrivial"
NON_CYCLIC = "non-cyclic"


def two_part(n: int) -> int:
    k = 1
    while n % (2 * k) == 0:
        k *= 2
    return k


@dataclass(frozen=True)
class RefGroup:
    """A group as a product formula plus its Sylow 2-subgroup data.

    ``cyclic`` says whether the Sylow 2-subgroup is cyclic (vacuously true
    when it is trivial). ``m`` is the fixed order of the ladder
    construction; for odd-order groups it is the whole order, which is
    what a factor of odd order contributes to a product.
    """

    label: str
    n: int
    mul: Callable[[int, int], int]
    k: int
    cyclic: bool
    m: int | None

    @property
    def sylow_class(self) -> str:
        if self.k == 1:
            return TRIVIAL
        return CYCLIC if self.cyclic else NON_CYCLIC

    @property
    def has_transversal(self) -> bool:
        """Hall–Paige: a transversal exists iff the Sylow 2-subgroup is
        trivial or non-cyclic."""
        return self.sylow_class != CYCLIC


def cyclic(n: int) -> RefGroup:
    k = two_part(n)
    return RefGroup(f"Z{n}", n, lambda a, b: (a + b) % n, k, True, n // k)


def dihedral(q: int) -> RefGroup:
    """Order 2q: s^j1 r^i1 * s^j2 r^i2 = s^(j1+j2) r^(±i1 + i2), minus when j2 = 1."""
    def mul(a: int, b: int) -> int:
        j1, i1 = divmod(a, q)
        j2, i2 = divmod(b, q)
        i = (i2 - i1 if j2 else i1 + i2) % q
        return ((j1 + j2) % 2) * q + i
    # s inverts every rotation, so only the identity of the odd part is fixed.
    odd = q % 2 == 1
    return RefGroup(f"D{q}", 2 * q, mul, 2 * two_part(q), odd, 1 if odd else None)


def dicyclic(q: int) -> RefGroup:
    """Order 4q: a^i1 x^j1 * a^i2 x^j2 = a^(i1 ± i2) x^(j1+j2), x^2 = a^q."""
    two_q = 2 * q

    def mul(a: int, b: int) -> int:
        j1, i1 = divmod(a, two_q)
        j2, i2 = divmod(b, two_q)
        i = i1 - i2 if j1 else i1 + i2
        if j1 and j2:
            i += q
        return ((j1 + j2) % 2) * two_q + i % two_q
    # The involution x^2 = a^q is central, so it fixes the whole odd part.
    odd = q % 2 == 1
    return RefGroup(f"Dic{q}", 4 * q, mul, 4 * two_part(q), odd, q if odd else None)


def symmetric(d: int) -> RefGroup:
    """(p*q)(i) = p(q(i)) on permutations listed lexicographically."""
    perms = list(itertools.permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(a: int, b: int) -> int:
        p, q = perms[a], perms[b]
        return index[tuple(p[x] for x in q)]
    n = len(perms)
    k = two_part(n)
    # S2 is Z2; in S3 the transposition inverts the 3-cycles (m = 1); from S4
    # on the Sylow 2-subgroup contains a Klein four-group.
    cyc = d <= 3
    return RefGroup(f"S{d}", n, mul, k, cyc, {1: 1, 2: 1, 3: 1}.get(d))


def _combine(label: str, a: RefGroup, b: RefGroup,
             mul: Callable[[int, int], int]) -> RefGroup:
    """Sylow data of A x B, or of a twisted product with a factor of odd order.

    The Sylow 2-subgroup is the product of the factors' ones, so it is
    cyclic only when at most one factor contributes to it.
    """
    k = a.k * b.k
    cyc = (a.k == 1 and b.cyclic) or (b.k == 1 and a.cyclic)
    m = a.m * b.m if cyc and a.m is not None and b.m is not None else None
    return RefGroup(label, a.n * b.n, mul, k, cyc, m)


def direct(a: RefGroup, b: RefGroup, label: str = "") -> RefGroup:
    nb = b.n

    def mul(x: int, y: int) -> int:
        a1, b1 = divmod(x, nb)
        a2, b2 = divmod(y, nb)
        return a.mul(a1, a2) * nb + b.mul(b1, b2)
    return _combine(label or f"{a.label} x {b.label}", a, b, mul)


def twisted(k_order: int, h: RefGroup, perm: Sequence[int], label: str) -> RefGroup:
    """Z_k acting on H, the generator acting as ``perm``:
    (k1, h1) * (k2, h2) = (k1 + k2, perm^(-k2)(h1) * h2).

    One factor must have odd order, which holds for every twisted group
    the catalog builds; the Sylow data then follow the product rule.
    """
    nh = h.n
    acts = [tuple(range(nh))]
    for _ in range(k_order - 1):
        acts.append(tuple(perm[x] for x in acts[-1]))
    kgroup = cyclic(k_order)
    if kgroup.k != 1 and h.k != 1:
        raise ValueError(f"{label}: both factors have even order")

    def mul(x: int, y: int) -> int:
        k1, h1 = divmod(x, nh)
        k2, h2 = divmod(y, nh)
        return ((k1 + k2) % k_order) * nh + h.mul(acts[-k2 % k_order][h1], h2)
    group = _combine(label, kgroup, h, mul)
    # The twist moves the odd part, so the fixed order m is not the product's;
    # no check needs it for twisted groups.
    return RefGroup(label, group.n, mul, group.k, group.cyclic, None)


# ---------------------------------------------------------------------------
# CLI specs: Z<n>, D<n>, Dic<n>, S<n> and products "A x B"

_ATOM = re.compile(r"^(dic|z|d|s)(\d+)$", re.IGNORECASE)
_ATOMS = {"z": cyclic, "d": dihedral, "dic": dicyclic, "s": symmetric}


def from_spec(spec: str) -> RefGroup:
    group = None
    for chunk in re.split(r"[xX]", spec):
        match = _ATOM.match(chunk.strip())
        if not match:
            raise ValueError(f"not a product of Z/D/Dic/S atoms: {spec!r}")
        atom = _ATOMS[match.group(1).lower()](int(match.group(2)))
        group = atom if group is None else direct(group, atom)
    assert group is not None
    return group


# ---------------------------------------------------------------------------
# the built-in catalog, enumerated from its families

def _h_product(*orders: int) -> RefGroup:
    group = cyclic(orders[0])
    for q in orders[1:]:
        group = direct(group, cyclic(q))
    return group


def _power_perm(n: int, factor: int) -> tuple[int, ...]:
    return tuple(factor * i % n for i in range(n))


def _catalog_extras() -> dict[str, Callable[[], RefGroup]]:
    z3z3_inverse = tuple((-(i // 3) % 3) * 3 + (-i % 3) for i in range(9))
    shear = tuple(3 * (i // 3) + (i // 3 + i) % 3 for i in range(9))
    extras = {
        "A4": lambda: twisted(3, _h_product(2, 2), (0, 3, 1, 2), "A4"),
        "He3": lambda: twisted(3, _h_product(3, 3), shear, "He3"),
        "Dih(Z3xZ3)": lambda: twisted(2, _h_product(3, 3), z3z3_inverse, "Dih(Z3xZ3)"),
    }
    for k_order, h_order, factor, label in ((4, 5, 2, "F20"), (3, 7, 2, "Z7:Z3"),
                                            (8, 3, 2, "Z8:Z3"), (4, 7, 6, "Z4:Z7"),
                                            (4, 9, 8, "Z4:Z9"), (16, 3, 2, "Z16:Z3"),
                                            (8, 17, 2, "Z8:Z17")):
        extras[label] = (lambda k_order=k_order, h_order=h_order, factor=factor, label=label:
                         twisted(k_order, cyclic(h_order), _power_perm(h_order, factor), label))
    return extras


_CATALOG_EXTRAS = _catalog_extras()
_CATALOG_PRODUCTS = ("Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ2xZ3",
                     "Z3xZ5", "Z2xZ8", "Z4xZ4")


def _s3_times_cyclic(q: int) -> RefGroup:
    """Z2 = <b> acting on Z_q x Z3 = <c> x <d>: b fixes c and inverts d."""
    invert_d = tuple(3 * (i // 3) + (-i % 3) for i in range(3 * q))
    group = twisted(2, _h_product(q, 3), invert_d, f"S3xZ{q}")
    return RefGroup(group.label, group.n, group.mul, group.k, group.cyclic, q)


def catalog_group(label: str) -> RefGroup:
    """The reference group behind a catalog label."""
    if label in _CATALOG_EXTRAS:
        return _CATALOG_EXTRAS[label]()
    if label in _CATALOG_PRODUCTS:
        group = _h_product(*(int(p[1:]) for p in label.split("x")))
        return RefGroup(label, group.n, group.mul, group.k, group.cyclic, group.m)
    match = re.fullmatch(r"S3xZ(\d+)", label)
    if match:
        return _s3_times_cyclic(int(match.group(1)))
    return from_spec(label)


def catalog_labels(max_order: int) -> list[tuple[str, int]]:
    """(label, order) of every catalog group up to ``max_order``."""
    out = [(f"Z{n}", n) for n in range(1, max_order + 1)]
    out += [(f"D{q}", 2 * q) for q in range(3, max_order // 2 + 1)]
    out += [(f"Dic{q}", 4 * q) for q in range(2, max_order // 4 + 1)]
    out += [("S3", 6), ("S4", 24)]
    out += [(f"S3xZ{q}", 6 * q) for q in range(3, max_order // 6 + 1, 2)]
    for label in _CATALOG_PRODUCTS:
        order = 1
        for part in label.split("x"):
            order *= int(part[1:])
        out.append((label, order))
    for label, build in _CATALOG_EXTRAS.items():
        out.append((label, build().n))
    return sorted(x for x in out if x[1] <= max_order)
