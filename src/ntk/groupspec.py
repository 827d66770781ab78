"""The group-spec grammar: the one place where a label becomes a group,
for the CLI and for the catalog, which lists labels.

    Z<n>        cyclic of order n
    D<n>        dihedral of order 2n
    Dic<n>      dicyclic of order 4n
    S<n>        symmetric on n points
    A x B       direct product (whitespace around the x optional)
    A4, He3, Z7:Z3, ...               a named twisted group of the catalog,
                                      as a whole spec (:data:`NAMED_GROUPS`)
    table:<path>                      load a multiplication table file
    sd:<Kspec>,<Hspec>,<actionpath>   twisted product; the action file has
                                      |K| lines, each a permutation of
                                      0..|H|-1 (images, space-separated)

Atoms are case-insensitive. Parse failures raise :class:`ParseError` with
the character position of the offending token; so does a table or action
file that cannot be read. Every route, the table file included, is
refused as a parse failure past ``MAX_SPEC_ORDER`` elements, before any
table is built or read.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from functools import partial
from math import factorial
from pathlib import Path

from .errors import InvalidAction, ParseError
from .groups import (Group, _twist, cyclic, dicyclic, dihedral, direct_product, load_group,
                     semidirect, symmetric)

# Orders past this point are outside the intended desk scale.
MAX_SPEC_ORDER = 2048

_ATOM = re.compile(r"^(dic|z|d|s)(\d+)$", re.IGNORECASE)


def _cyclic_twist(k_order: int, h_order: int, factor: int, label: str) -> Group:
    scaling = tuple((factor * i) % h_order for i in range(h_order))
    return _twist(label, k_order, "b", cyclic(h_order, "c"), scaling)


# label -> (order, builder) of each named twisted group, read as a whole spec
NAMED_GROUPS = {
    # t rotates the three involutions: u -> v -> uv -> u
    "A4": (12, lambda: _twist("A4", 3, "t", direct_product(cyclic(2, "u"), cyclic(2, "v")),
                              (0, 3, 1, 2))),
    # s inverts every element
    "Dih(Z3xZ3)": (18, lambda: _twist("Dih(Z3xZ3)", 2, "s", direct_product(
        cyclic(3, "c"), cyclic(3, "d")), (0, 2, 1, 6, 8, 7, 3, 5, 4))),
    "F20": (20, partial(_cyclic_twist, 4, 5, 2, "F20")),
    "Z7:Z3": (21, partial(_cyclic_twist, 3, 7, 2, "Z7:Z3")),
    "Z8:Z3": (24, partial(_cyclic_twist, 8, 3, 2, "Z8:Z3")),
    # x acts by y -> yz, z -> z; every non-identity element has order 3
    "He3": (27, lambda: _twist("He3", 3, "x", direct_product(
        cyclic(3, "y"), cyclic(3, "z")), (0, 1, 2, 4, 5, 3, 8, 6, 7))),
    "Z4:Z7": (28, partial(_cyclic_twist, 4, 7, 6, "Z4:Z7")),
    "Z4:Z9": (36, partial(_cyclic_twist, 4, 9, 8, "Z4:Z9")),
    "Z16:Z3": (48, partial(_cyclic_twist, 16, 3, 2, "Z16:Z3")),
    "Z8:Z17": (136, partial(_cyclic_twist, 8, 17, 2, "Z8:Z17")),
}
_NAMED = {label.lower(): label for label in NAMED_GROUPS}

# atom kind -> (label prefix, constructor, order of the group it builds)
_BUILDERS = {
    "z": ("Z", cyclic, lambda n: n),
    "d": ("D", dihedral, lambda n: 2 * n),
    "dic": ("Dic", dicyclic, lambda n: 4 * n),
    "s": ("S", symmetric, factorial),
}


def _parse_atom(token: str, position: int) -> tuple[Group, str]:
    match = _ATOM.match(token.strip())
    if not match:
        raise ParseError(f"unrecognized group atom {token.strip()!r}", position)
    kind = match.group(1).lower()
    n = int(match.group(2))
    if n < 1:
        raise ParseError(f"group parameter must be positive in {token.strip()!r}", position)
    prefix, builder, order_of = _BUILDERS[kind]
    order = order_of(n)
    if order > MAX_SPEC_ORDER:
        raise ParseError(
            f"{token.strip()!r} has order {order}, beyond the supported {MAX_SPEC_ORDER}",
            position,
        )
    return builder(n), f"{prefix}{n}"


def _parse_product(text: str, offset: int) -> tuple[Group, str]:
    parts = []
    position = offset
    for chunk in re.split(r"[xX]", text):
        parts.append((chunk, position))
        position += len(chunk) + 1
    groups = [_parse_atom(chunk, pos + len(chunk) - len(chunk.lstrip()))
              for chunk, pos in parts]
    group, label = groups[0]
    for other, other_label in groups[1:]:
        order = group.n * other.n
        if order > MAX_SPEC_ORDER:
            raise ParseError(f"product order {order} beyond {MAX_SPEC_ORDER}", offset)
        label = f"{label} x {other_label}"
        group = direct_product(group, other, label=label)
    return group, label


def load_action(path: str | Path) -> list[list[int]]:
    action = []
    for line in (ln for ln in Path(path).read_text().splitlines() if ln.strip()):
        try:
            action.append([int(x) for x in line.split()])
        except ValueError:
            raise InvalidAction(
                f"action line {len(action)} has a non-integer entry: {line!r}") from None
    return action


@contextmanager
def _readable(path: str, position: int):
    """Report a file that cannot be read as a parse error at ``position``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path!r} ({type(exc).__name__})", position) from None


def _table_order(path: str) -> int:
    """The order on the first non-blank line of a table file, read before
    any row; 0 when that line is not a number (loading then reports it)."""
    with open(path) as handle:
        for line in handle:
            if line.strip():
                try:
                    return int(line)
                except ValueError:
                    return 0
    return 0


def parse_group_spec(text: str) -> tuple[Group, str]:
    """Parse a spec string into a validated group and its canonical label."""
    s = text.strip()
    if not s:
        raise ParseError("empty group spec", 0)
    lowered = s.lower()
    if lowered.startswith("table:"):
        path = s[len("table:"):].strip()
        if not path:
            raise ParseError("table: needs a file path", len("table:"))
        with _readable(path, len("table:")):
            order = _table_order(path)
            if order > MAX_SPEC_ORDER:
                raise ParseError(f"table order {order} beyond {MAX_SPEC_ORDER}", len("table:"))
            group = load_group(path)
        return group, s
    if lowered.startswith("sd:"):
        body = s[len("sd:"):]
        pieces = body.split(",", 2)
        if len(pieces) != 3:
            raise ParseError("sd: needs <Kspec>,<Hspec>,<actionpath>", len("sd:"))
        k_group, k_label = _parse_product(pieces[0], len("sd:"))
        h_group, h_label = _parse_product(pieces[1], len("sd:") + len(pieces[0]) + 1)
        if k_group.n * h_group.n > MAX_SPEC_ORDER:
            raise ParseError(f"twisted product order {k_group.n * h_group.n} beyond "
                             f"{MAX_SPEC_ORDER}", len("sd:"))
        with _readable(pieces[2].strip(), len(s) - len(pieces[2])):
            action = load_action(pieces[2].strip())
        label = f"{k_label}:{h_label}"
        return semidirect(k_group, h_group, action, label=label), label
    if lowered in _NAMED:
        label = _NAMED[lowered]
        return NAMED_GROUPS[label][1](), label
    return _parse_product(s, 0)
