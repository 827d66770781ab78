"""Command-line surface.

``COMMANDS`` is the one table of the six commands, their positionals and
the options each reads. ``parse_args`` reads an argv by it with one of two
readers. An ordinary argv (the command first, each option an exact flag
with its value next or after ``=``, no other argument starting with ``-``,
the positionals all there, every value valid) is read by the short
``_fields``. Everything else goes to argparse, built from the same table
by ``_argparser``: help (``-h``/``--help``), shortened options, ``--``,
negative numbers and every usage error, which writes argparse's ``usage:``
line and ``ntk <command>: error: ...`` to stderr. argparse is imported
only then: each ``ntk`` call is a fresh process, and importing argparse
and gettext costs more than the rest of parsing an ordinary argv.

``main`` calls the command's handler in ``HANDLERS`` with the parsed fields
as keywords, so a handler's parameters are its positionals' names and its
options' destinations in the table.

Exit codes: 0 verified/ok or help, 1 usage or parse problem or stdout
closed early, 2 verification failure, 3 a search guard or bound exceeded.
Everything is deterministic.
"""

from __future__ import annotations

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
    NtkError,
    OrderTooLarge,
    StructureViolation,
)
from .groups import CYCLIC_NONTRIVIAL, Group, sylow2
from .groupspec import MAX_SPEC_ORDER, parse_group_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_GUARD = 3


def _parse_ordering(group: Group, ordering: str | None) -> list[int] | None:
    if ordering is None:
        return None
    try:
        return [group.index_of(name) for name in ordering.split(",")]
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


def cmd_analyze(spec: str, format: str) -> int:
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
        ordering = construction.build_witness(dec).ordering
        payload.update({
            "generator": group.names[dec.sylow_gen],
            "l": dec.odd_order,
            "m": dec.fixed_order,
            "moved": dec.odd_order - dec.fixed_order,
            "ordering": [group.names[h] for h in ordering],
        })
    else:
        payload["note"] = (
            "ladder construction not applicable; a full transversal exists "
            "(complete-mapping criterion)"
        )
    _emit(payload, format)
    return EXIT_OK


def cmd_construct(spec: str, format: str, ordering: str | None) -> int:
    group, label = parse_group_spec(spec)
    result = construction.near_transversal(group, ordering=_parse_ordering(group, ordering))
    payload = construction.result_json(result, label)
    if format == "json":
        _emit(payload, format)
    else:
        print(f"group: {label}  branch: {result.branch}  cells: {len(result.cells)}")
        for r, c, s in payload["cells"]:
            print(f"{r} {c} {s}  # {group.names[r]} . {group.names[c]} = {group.names[s]}")
    return EXIT_OK


def _verdict(section: dict) -> str:
    return "pass" if section["passed"] else "FAIL"


def cmd_verify(spec: str, format: str, ordering: str | None) -> int:
    group, label = parse_group_spec(spec)
    dec = construction.decompose(group)
    wreport = graphs.check_witness(
        construction.build_witness(dec, _parse_ordering(group, ordering)))
    if format == "json":
        _emit({"group": label, **wreport}, format)
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


def cmd_oracle(which: str, spec: str, format: str, guard: int | None) -> int:
    if guard is not None and guard < 1:
        raise InvalidInput(f"--guard-override {guard} is below 1")
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
    _emit(payload, format)
    return EXIT_OK


def cmd_render(spec: str, format: str, ordering: str | None) -> int:
    group, _ = parse_group_spec(spec)
    result = construction.near_transversal(group, ordering=_parse_ordering(group, ordering))
    model = render.render_model(result)
    _write(render.latex_table(model) if format == "latex" else render.ascii_table(model))
    return EXIT_OK


def cmd_catalog(format: str, max_order: int, filter: str) -> int:
    if max_order > MAX_SPEC_ORDER:
        raise InvalidInput(f"--max-order {max_order} beyond the supported {MAX_SPEC_ORDER}")
    if max_order < 1:
        raise InvalidInput(f"--max-order {max_order} is below 1")
    lines = []
    counts = dict.fromkeys(("passed", "failed", "skipped"), 0)
    for entry in builtin_catalog(max_order):
        group = entry.group
        if filter == "odd" and group.n % 2 == 0:
            continue
        if filter == "even" and group.n % 2 == 1:
            continue
        if filter == "construction" and sylow2(group).classification != CYCLIC_NONTRIVIAL:
            continue
        head = f"{entry.label:<12} order={group.n:<4}"
        try:
            result = construction.near_transversal(group)
            ok = result.witness is None or graphs.check_witness(result.witness)["passed"]
            counts["passed" if ok else "failed"] += 1
            lines.append(f"{head} branch={result.branch:<17} {'pass' if ok else 'FAIL'}")
        except OrderTooLarge:
            counts["skipped"] += 1
            lines.append(f"{head} skipped (guard)")
        except NtkError as exc:
            counts["failed"] += 1
            lines.append(f"{head} FAIL ({exc})")
    if format == "json":
        _emit({"summary": {"groups": sum(counts.values()), **counts}, "lines": lines}, format)
    else:
        print("\n".join(lines))
        print(" ".join(f"{key}={value}" for key, value in counts.items()))
    return EXIT_OK if counts["failed"] == 0 else EXIT_VERIFY


_FORMAT = ("format", str, ("text", "json"), "text", "output format")
_ORDERING = ("ordering", str, None, None,
             "comma-separated element names overriding the harmonious ordering")
_GUARD = ("guard", int, None, None, "raise/lower the search guards for this invocation")
_SPEC = ("spec", None, "group spec, e.g. 'Z6', 'S3 x Z3', 'Dic3', 'table:path'")

# command -> (help, positionals as (name, choices, help), options as
# {flag: (dest, converter, choices, default, help)})
COMMANDS = {
    "analyze": ("order, Sylow-2 class, decomposition parameters", (_SPEC,),
                {"--format": _FORMAT}),
    "construct": ("emit a verified near transversal", (_SPEC,),
                  {"--format": _FORMAT, "--ordering": _ORDERING}),
    "verify": ("run the structural witness checks", (_SPEC,),
               {"--format": _FORMAT, "--ordering": _ORDERING}),
    "oracle": ("exhaustive baselines for cross-checking",
               (("which", ("transversal", "count", "maxpartial", "completemapping"),
                 "the exhaustive search to run"), _SPEC),
               {"--format": _FORMAT, "--guard-override": _GUARD}),
    "render": ("print the table with witness cells marked", (_SPEC,),
               {"--format": ("format", str, ("ascii", "latex"), "ascii", "output format"),
                "--ordering": _ORDERING}),
    "catalog": ("run construct+verify across the built-in catalog", (),
                {"--format": _FORMAT,
                 "--max-order": ("max_order", int, None, 20, "largest group order to run"),
                 "--filter": ("filter", str, ("all", "odd", "even", "construction"), "all",
                              "which groups to run")}),
}
HANDLERS = {"analyze": cmd_analyze, "construct": cmd_construct, "verify": cmd_verify,
            "oracle": cmd_oracle, "render": cmd_render, "catalog": cmd_catalog}


def _fields(command: str, args: list[str]) -> dict | None:
    """The fields of ``command`` read from the arguments after it, or None
    unless every option is an exact flag of its table with its value next
    (not starting with ``-``) or after ``=``, no other argument starts with
    ``-``, the positionals are exactly as many as the table's, ints convert
    and choices hold. Every argv it reads, argparse reads the same way."""
    _, positionals, options = COMMANDS[command]
    fields = {"command": command, **{dest: default for dest, _, _, default, _ in options.values()}}
    values = []
    rest = iter(args)
    for arg in rest:
        if not arg.startswith("-"):
            values.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        if flag not in options:
            return None
        if not eq:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
        dest, convert, choices, _, _ = options[flag]
        try:
            fields[dest] = convert(value)
        except ValueError:
            return None
        if choices and fields[dest] not in choices:
            return None
    if len(values) != len(positionals):
        return None
    for (name, choices, _), value in zip(positionals, values):
        if choices and value not in choices:
            return None
        fields[name] = value
    return fields


def _argparser():
    """argparse's parser for :data:`COMMANDS`, and its subparsers by command.
    A usage error exits 1; help and usage lines are never wrapped."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def exit(self, status=0, message=None):
            super().exit(status and EXIT_USAGE, message)

    def wide(prog):
        return argparse.HelpFormatter(prog, width=10 ** 6)

    parser = Parser(prog="ntk", formatter_class=wide,
                    description="Near transversals of group-based latin squares: "
                                "construct, verify, render, and cross-check with oracles.")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, options) in COMMANDS.items():
        sub = commands.add_parser(command, help=text, description=text, formatter_class=wide)
        for name, choices, help in positionals:
            sub.add_argument(name, choices=choices, help=help)
        for flag, (dest, convert, choices, default, help) in options.items():
            sub.add_argument(flag, dest=dest, type=convert, choices=choices, default=default,
                             help=help)
    return parser, commands.choices


def parse_args(argv: list[str]) -> dict:
    """The command and the values of its arguments, read from ``argv`` by the
    rules of :data:`COMMANDS`: by :func:`_fields` when it can, else by
    argparse. Help exits 0 and a usage error exits 1, both through
    :class:`SystemExit`, after writing to stdout or stderr."""
    fields = _fields(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if fields is None:
        parser, subparsers = _argparser()
        fields = vars(parser.parse_args(argv))
        command = fields["command"]
        for flag, (dest, *_) in COMMANDS[command][2].items():
            if isinstance(fields[dest], list):  # argparse 3.10/3.11 reads --opt=-- as []
                subparsers[command].error(f"argument {flag}: expected one argument")
    return fields


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code

    try:
        code = HANDLERS[args.pop("command")](**args)
        sys.stdout.flush()
        return code
    except OrderTooLarge as exc:
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
