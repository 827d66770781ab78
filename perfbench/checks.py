"""Independent checks of ntk's outputs.

Each function takes an output as the CLI or library printed or returned it
and a :class:`refgroups.RefGroup` built from the same presentation, and
returns a list of problems; an empty list means the output is correct.
Nothing here reads a stored copy of an earlier output: symbols come from
the reference product formulas, transversal counts from the literature,
and existence from the Hall–Paige theorem.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Sequence

from refgroups import CYCLIC, NON_CYCLIC, RefGroup, catalog_group, catalog_labels, two_part

# Transversals in the Cayley table of Z_n, n odd: OEIS A006717.
CYCLIC_ODD_COUNTS = {1: 1, 3: 3, 5: 15, 7: 133, 9: 2025, 11: 37851, 13: 1030367}
# Other groups, from McKay, McLeod & Wanless, "The number of transversals in
# a Latin square" (2006): Z2 x Z2, every non-cyclic group of order 8, Z3 x Z3.
GROUP_COUNTS = {"Z2 x Z2": 8, "D2": 8, "Z2 x Z4": 384, "Z2 x Z2 x Z2": 384,
                "D4": 384, "Dic2": 384, "Z3 x Z3": 2241}


def published_count(spec: str, ref: RefGroup) -> int | None:
    """The published transversal count, or None when none is on record."""
    if not ref.has_transversal:
        return 0  # Hall–Paige: a cyclic nontrivial Sylow 2-subgroup forbids one
    match = re.fullmatch(r"Z(\d+)", spec)
    if match and int(match.group(1)) % 2 == 1:
        return CYCLIC_ODD_COUNTS.get(int(match.group(1)))
    return GROUP_COUNTS.get(spec)


def partial_transversal_problems(ref: RefGroup, triples: Iterable[Sequence[int]],
                                 size: int) -> list[str]:
    """``size`` cells with distinct rows, columns and symbols, each symbol
    recomputed from the reference product."""
    cells = [tuple(t) for t in triples]
    problems = []
    if len(cells) != size:
        problems.append(f"{ref.label}: {len(cells)} cells, expected {size}")
    for cell in cells:
        r, c = cell[0], cell[1]
        if not (0 <= r < ref.n and 0 <= c < ref.n):
            problems.append(f"{ref.label}: cell {cell} outside the table")
            return problems
        if len(cell) > 2 and cell[2] != ref.mul(r, c):
            problems.append(f"{ref.label}: cell {cell} has symbol {cell[2]}, "
                            f"the product is {ref.mul(r, c)}")
    for axis, values in (("row", [c[0] for c in cells]),
                         ("column", [c[1] for c in cells]),
                         ("symbol", [ref.mul(c[0], c[1]) for c in cells])):
        if len(set(values)) != len(values):
            problems.append(f"{ref.label}: a {axis} is repeated")
    return problems


def check_construct(ref: RefGroup, out: str, rc: int) -> list[str]:
    """``ntk construct <spec> --format json`` on a ladder-branch group."""
    if rc != 0:
        return [f"{ref.label}: construct exited {rc}"]
    payload = json.loads(out)
    problems = []
    k = two_part(ref.n)
    expected = {"n": ref.n, "k": k, "l": ref.n // k, "m": ref.m,
                "branch": "construction", "verified": True}
    for key, value in expected.items():
        if payload.get(key) != value:
            problems.append(f"{ref.label}: {key} = {payload.get(key)!r}, expected {value!r}")
    if len(payload.get("ordering") or ()) != ref.m:
        problems.append(f"{ref.label}: ordering does not list the m = {ref.m} fixed elements")
    problems += partial_transversal_problems(ref, payload["cells"], ref.n - 1)
    return problems


def check_oracle(which: str, spec: str, ref: RefGroup, out: str, rc: int,
                 names: Sequence[str] | None = None) -> list[str]:
    """``ntk oracle <which> <spec> --format json``.

    ``names`` lists the element names of the group by index; it is needed
    only to read a complete mapping, which the CLI prints by name.
    """
    if rc != 0:
        return [f"{spec}: oracle {which} exited {rc}"]
    payload = json.loads(out)
    present = ref.has_transversal
    if which == "transversal":
        if payload["present"] != present:
            return [f"{spec}: transversal present={payload['present']}, "
                    f"Hall–Paige says {present}"]
        return partial_transversal_problems(ref, payload["cells"] or [], ref.n if present else 0)
    if which == "count":
        count = payload["count"]
        published = published_count(spec, ref)
        if published is not None and count != published:
            return [f"{spec}: {count} transversals, published {published}"]
        if count % ref.n or (count > 0) != present:
            return [f"{spec}: {count} transversals contradicts Hall–Paige or the "
                    f"right-translation symmetry (a multiple of {ref.n})"]
        return []
    if which == "maxpartial":
        size = ref.n if present else ref.n - 1
        if payload["size"] != size:
            return [f"{spec}: maximum partial transversal {payload['size']}, expected {size}"]
        return partial_transversal_problems(ref, payload["cells"], size)
    if which == "completemapping":
        if payload["present"] != present:
            return [f"{spec}: complete mapping present={payload['present']}, "
                    f"Hall–Paige says {present}"]
        if not present:
            return []
        if names is None:
            return [f"{spec}: no element names to read the complete mapping"]
        index = {name: i for i, name in enumerate(names)}
        sigma = [index.get(name, -1) for name in payload["sigma"]]
        if sorted(sigma) != list(range(ref.n)):
            return [f"{spec}: sigma is not a permutation"]
        return partial_transversal_problems(ref, [(g, s) for g, s in enumerate(sigma)], ref.n)
    return [f"{spec}: unknown oracle {which!r}"]


def check_independent_set(ref: RefGroup, vertices: int, size: int,
                          cells: Sequence[Sequence[int]]) -> list[str]:
    """``max_independent_set`` on the 2n-vertex witness graph of a ladder group.

    The witness subgraph holds a near transversal and no more, so the maximum
    is n - 1; cells are independent exactly when rows, columns and symbols
    are distinct.
    """
    problems = []
    if vertices != 2 * ref.n:
        problems.append(f"{ref.label}: witness graph has {vertices} vertices, expected {2 * ref.n}")
    if size != ref.n - 1:
        problems.append(f"{ref.label}: independent set of {size}, expected {ref.n - 1}")
    return problems + partial_transversal_problems(ref, cells, ref.n - 1)


_CATALOG_LINE = re.compile(
    r"^(\S+)\s+order=(\d+)\s+(?:branch=(\S+)\s+(pass|FAIL)|(skipped \(guard\)))")


def check_catalog(out: str, rc: int, max_order: int) -> tuple[int, int, list[str], list[str]]:
    """``ntk catalog --max-order N --format json``.

    Returns (attempted, failed, problems, passed labels). One line is one
    operation. Guard-skipped lines are failed operations, allowed only for
    groups whose Sylow 2-subgroup is non-cyclic and whose order is above 16:
    the exhaustive complete-mapping search behind them stops at order 16.
    """
    payload = json.loads(out)
    lines = payload["lines"]
    problems = []
    if rc != 0:
        problems.append(f"catalog exited {rc}")
    expected = dict(catalog_labels(max_order))
    seen = {}
    for line in lines:
        match = _CATALOG_LINE.match(line)
        if not match:
            problems.append(f"unreadable catalog line {line!r}")
            continue
        label, order, branch, status, _ = match.groups()
        seen[label] = (int(order), branch, status or "skipped")
    if set(seen) != set(expected):
        problems.append(f"catalog lists {sorted(set(seen) ^ set(expected))} unexpectedly")
    failed = 0
    passed = []
    for label, (order, branch, status) in seen.items():
        if label not in expected:
            continue
        ref = catalog_group(label)
        if order != expected[label] or ref.n != order:
            problems.append(f"{label}: order {order}, expected {expected[label]}")
        if status == "skipped":
            failed += 1
            if ref.sylow_class != NON_CYCLIC or order <= 16:
                problems.append(f"{label}: skipped, but its Sylow 2-subgroup is "
                                f"{ref.sylow_class} at order {order}")
        elif status == "pass":
            want = "construction" if ref.sylow_class == CYCLIC else "complete-mapping"
            if branch != want:
                problems.append(f"{label}: branch {branch}, expected {want}")
            passed.append(label)
        else:
            problems.append(f"{label}: FAIL")
    summary = payload["summary"]
    if (summary["groups"], summary["skipped"]) != (len(lines), failed):
        problems.append(f"catalog summary {summary} disagrees with its lines")
    return len(lines), failed, problems, passed


def check_catalog_cells(cells_by_label: dict[str, list], passed: Iterable[str]) -> list[str]:
    """Near transversals of every catalog group that passed, re-checked cell by cell."""
    problems = []
    passed = set(passed)
    if set(cells_by_label) != passed:
        problems.append("construct results do not cover exactly the passed catalog groups")
    for label in sorted(passed & set(cells_by_label)):
        ref = catalog_group(label)
        problems += partial_transversal_problems(ref, cells_by_label[label], ref.n - 1)
    return problems
