"""Command-line surface.

Exit codes: 0 verified/ok, 1 usage or parse problem or stdout closed
early, 2 verification failure, 3 search guard exceeded. Everything is
deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

from . import construction, graphs, latin, mappings, render
from .catalog import builtin_catalog
from .errors import (
    InvalidInput,
    InvalidOrdering,
    NotApplicable,
    NtkError,
    OrderTooLarge,
    StructureViolation,
    TooLarge,
)
from .groups import CYCLIC_NONTRIVIAL, Group, sylow2
from .groupspec import MAX_SPEC_ORDER, parse_group_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_GUARD = 3

_GUARD_ERRORS = (OrderTooLarge, TooLarge)


def _parse_ordering(group: Group, names: list[str]) -> list[int]:
    try:
        return [group.index_of(name) for name in names]
    except KeyError as exc:
        raise InvalidOrdering(str(exc)) from exc


def _int_rows(items: list) -> bool:
    """Whether ``items`` are lists or tuples of ints, all of one length."""
    return (set(map(type, items)) <= {list, tuple} and len(set(map(len, items))) == 1
            and set(map(type, chain.from_iterable(items))) == {int})


def _json(obj, pad: str = "") -> str:
    """``obj`` as JSON, byte for byte as the ``json`` module writes it with an
    indent of 2 (dict keys must be str).

    Asked for an indent, ``json.dumps`` runs its pure-Python encoder on
    Python 3.10 and 3.11. Here a run of ints is one join and a list of
    equal-length int rows (the cell triples) one ``%`` template; strings and
    other scalars are written by ``json``'s own C encoders.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = (",\n" + inner).join(f"{_string(key)}: {_json(value, inner)}"
                                    for key, value in obj.items())
        return "{\n" + inner + body + "\n" + pad + "}"
    if not isinstance(obj, (list, tuple)):
        return _string(obj) if type(obj) is str else json.dumps(obj)
    if not obj:
        return "[]"
    sep = ",\n" + inner
    if set(map(type, obj)) == {int}:
        body = sep.join(map(int.__repr__, obj))
    elif _int_rows(obj):
        row = _json([0] * len(obj[0]), inner).replace("0", "%d")
        body = sep.join([row] * len(obj)) % tuple(chain.from_iterable(obj))
    else:
        body = sep.join([_json(item, inner) for item in obj])
    return "[\n" + inner + body + "\n" + pad + "]"


# Linux's PIPE_BUF. A pipe takes a write of at most this many bytes whole or
# refuses it; a longer one may be cut short when the reader goes, and an
# unbuffered stdout (PYTHONUNBUFFERED) drops the rest without raising.
_PIPE_BUF = 4096


def _write(text: str) -> None:
    """Write ``text`` to stdout in pieces of at most ``_PIPE_BUF`` bytes (a
    character encodes to at most 4), so that a closed pipe always raises."""
    step = _PIPE_BUF // 4
    for start in range(0, len(text), step):
        sys.stdout.write(text[start:start + step])


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        _write(_json(payload) + "\n")
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_analyze(spec: str, fmt: str) -> int:
    group, label = parse_group_spec(spec)
    report = sylow2(group)
    payload: dict = {
        "group": label,
        "n": group.n,
        "k": report.k,
        "class": report.classification,
    }
    if report.classification == CYCLIC_NONTRIVIAL:
        dec = construction.decompose(group, report=report)
        ordering = construction._fixed_ordering(dec)
        payload.update({
            "generator": group.names[dec.sylow_gen],
            "l": dec.odd_order,
            "m": dec.fixed_order,
            "moved": len(dec.moved_part),
            "ordering": [group.names[h] for h in ordering],
        })
    else:
        payload["note"] = (
            "ladder construction not applicable; a full transversal exists "
            "(complete-mapping criterion)"
        )
    _emit(payload, fmt)
    return EXIT_OK


def cmd_construct(spec: str, fmt: str, names: list[str] | None, guard: int | None) -> int:
    group, label = parse_group_spec(spec)
    ordering = _parse_ordering(group, names) if names else None
    result = construction.near_transversal(group, ordering=ordering, guard=guard)
    payload = construction.result_json(result, label)
    if fmt == "json":
        _emit(payload, fmt)
    else:
        print(f"group: {label}  branch: {result.branch}  cells: {len(result.cells)}")
        for r, c, s in payload["cells"]:
            print(f"{r} {c} {s}  # {group.names[r]} . {group.names[c]} = {group.names[s]}")
    return EXIT_OK


def _verdict(section: dict) -> str:
    return "pass" if section["passed"] else "FAIL"


def cmd_verify(spec: str, fmt: str, names: list[str] | None) -> int:
    group, label = parse_group_spec(spec)
    report = sylow2(group)
    if report.classification != CYCLIC_NONTRIVIAL:
        raise NotApplicable(
            f"{label}: Sylow 2-subgroup is {report.classification}; verification "
            "applies only to the cyclic nontrivial case of the dichotomy"
        )
    ordering = _parse_ordering(group, names) if names else None
    dec = construction.decompose(group, report=report)
    wreport = graphs.check_witness(construction.build_witness(dec, ordering))
    if fmt == "json":
        _emit({"group": label, **wreport}, fmt)
    else:
        mobius, prisms = wreport["mobius"], wreport["prisms"]
        print(f"group: {label}")
        print(f"claim1: {_verdict(wreport['claim1'])}")
        print(f"mobius: {_verdict(mobius)} "
              f"(rim {mobius['rimLength']}, chords at {mobius['chordOffsets']})")
        print(f"prisms: {_verdict(prisms)} "
              f"({prisms['prismCount']} prisms, matching offset {prisms['matchingOffset']})")
        print(f"independent set size: {wreport['independentSetSize']}")
        print(f"overall: {_verdict(wreport)}")
    return EXIT_OK if wreport["passed"] else EXIT_VERIFY


def cmd_oracle(spec: str, which: str, fmt: str, guard: int | None) -> int:
    group, label = parse_group_spec(spec)
    square = latin.cayley_square(group)
    payload: dict = {"group": label, "oracle": which}
    if which == "transversal":
        found = latin.brute_force_transversal(square, guard=guard)
        payload["present"] = found is not None
        payload["cells"] = latin.cells_to_json(square, found) if found else None
    elif which == "count":
        payload["count"] = latin.count_transversals(square, guard=guard)
    elif which == "maxpartial":
        size, cells = latin.max_partial_transversal(square, guard=guard)
        payload["size"] = size
        payload["cells"] = latin.cells_to_json(square, cells)
    else:  # completemapping
        sigma = mappings.find_complete_mapping(group, guard=guard)
        payload["present"] = sigma is not None
        payload["sigma"] = [group.names[v] for v in sigma] if sigma else None
    _emit(payload, fmt)
    return EXIT_OK


def cmd_render(spec: str, fmt: str, names: list[str] | None, guard: int | None) -> int:
    group, label = parse_group_spec(spec)
    ordering = _parse_ordering(group, names) if names else None
    result = construction.near_transversal(group, ordering=ordering, guard=guard)
    model = render.render_model(result)
    _write(render.latex_table(model) if fmt == "latex" else render.ascii_table(model))
    return EXIT_OK


def cmd_catalog(max_order: int, flt: str, guard: int | None, fmt: str) -> int:
    if max_order > MAX_SPEC_ORDER:
        raise InvalidInput(f"--max-order {max_order} beyond the supported {MAX_SPEC_ORDER}")
    entries = builtin_catalog(max_order)
    lines = []
    failures = 0
    skipped = 0
    passed = 0
    for entry in entries:
        group = entry.group
        if flt == "odd" and group.n % 2 == 0:
            continue
        if flt == "even" and group.n % 2 == 1:
            continue
        if flt == "construction" and sylow2(group).classification != CYCLIC_NONTRIVIAL:
            continue
        try:
            result = construction.near_transversal(group, guard=guard)
            ok = result.witness is None or graphs.check_witness(result.witness)["passed"]
            status = "pass" if ok else "FAIL"
            if ok:
                passed += 1
            else:
                failures += 1
            lines.append(
                f"{entry.label:<12} order={group.n:<4} branch={result.branch:<17} {status}"
            )
        except _GUARD_ERRORS:
            skipped += 1
            lines.append(f"{entry.label:<12} order={group.n:<4} skipped (guard)")
        except NtkError as exc:
            failures += 1
            lines.append(f"{entry.label:<12} order={group.n:<4} FAIL ({exc})")
    summary = {"groups": passed + failures + skipped, "passed": passed,
               "failed": failures, "skipped": skipped}
    if fmt == "json":
        _emit({"summary": summary, "lines": lines}, fmt)
    else:
        print("\n".join(lines))
        print(f"passed={passed} failed={failures} skipped={skipped}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntk",
        description="Near transversals of group-based latin squares: "
                    "construct, verify, render, and cross-check with oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *, spec=True, which=None, ordering=False, guard=True,
                formats=("text", "json")):
        p = sub.add_parser(name, help=help)
        if which:
            p.add_argument("which", choices=which)
        if spec:
            p.add_argument("spec", help="group spec, e.g. 'Z6', 'S3 x Z3', 'Dic3', 'table:path'")
        p.add_argument("--format", default=formats[0], choices=formats)
        if ordering:
            p.add_argument("--ordering", default=None,
                           help="comma-separated element names overriding the harmonious ordering")
        if guard:
            p.add_argument("--guard-override", default=None, type=int, dest="guard",
                           help="raise/lower the search guards for this invocation")
        return p

    command("analyze", "order, Sylow-2 class, decomposition parameters", guard=False)
    command("construct", "emit a verified near transversal", ordering=True)
    command("verify", "run the structural witness checks", ordering=True, guard=False)
    command("oracle", "exhaustive baselines for cross-checking",
            which=["transversal", "count", "maxpartial", "completemapping"])
    command("render", "print the table with witness cells marked", ordering=True,
            formats=("ascii", "latex"))
    cat = command("catalog", "run construct+verify across the built-in catalog", spec=False)
    cat.add_argument("--max-order", type=int, default=20)
    cat.add_argument("--filter", default="all",
                     choices=["all", "odd", "even", "construction"])
    return parser


_parser = functools.cache(build_parser)   # built on the first call of main, not at import


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    ordering = args.ordering.split(",") if getattr(args, "ordering", None) else None
    guard = getattr(args, "guard", None)
    fmt = args.format

    try:
        if args.command == "catalog":
            code = cmd_catalog(args.max_order, args.filter, guard, fmt)
        elif args.command == "analyze":
            code = cmd_analyze(args.spec, fmt)
        elif args.command == "construct":
            code = cmd_construct(args.spec, fmt, ordering, guard)
        elif args.command == "verify":
            code = cmd_verify(args.spec, fmt, ordering)
        elif args.command == "oracle":
            code = cmd_oracle(args.spec, args.which, fmt, guard)
        else:
            code = cmd_render(args.spec, fmt, ordering, guard)
        sys.stdout.flush()
        return code
    except _GUARD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except StructureViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except NtkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader of stdout has gone (``ntk ... | head``). What stdout
        # still buffers would fail again in the interpreter's final flush,
        # so its descriptor, if it has one, is pointed at os.devnull.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):   # e.g. an io.StringIO
            return EXIT_USAGE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
