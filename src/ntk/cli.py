"""Command-line surface.

``COMMANDS`` is the one table of the six commands, their positionals and
the options each reads. ``parse_args`` reads an argv by it with argparse's
rules: ``--opt value`` or ``--opt=value``, a long option shortened to a
unique prefix, options before, between or after the positionals, the last
of a repeated option counting, and ``--`` ending the options. Help
(``-h``/``--help``) is built from the same table; a usage error writes a
``usage:`` line and ``ntk <command>: error: ...`` to stderr. argparse itself
is not imported: each ``ntk`` call is a fresh process, which would pay for
importing it and building a parser per command.

``main`` calls the command's handler in ``HANDLERS`` with the parsed fields
as keywords, so a handler's parameters are its positionals' names and its
options' destinations in the table.

Exit codes: 0 verified/ok or help, 1 usage or parse problem or stdout
closed early, 2 verification failure, 3 search guard exceeded. Everything
is deterministic.
"""

from __future__ import annotations

import json
import os
import re
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
            "moved": len(dec.moved_part),
            "ordering": [group.names[h] for h in ordering],
        })
    else:
        payload["note"] = (
            "ladder construction not applicable; a full transversal exists "
            "(complete-mapping criterion)"
        )
    _emit(payload, format)
    return EXIT_OK


def cmd_construct(spec: str, format: str, ordering: str | None, guard: int | None) -> int:
    group, label = parse_group_spec(spec)
    result = construction.near_transversal(
        group, ordering=_parse_ordering(group, ordering), guard=guard)
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


def cmd_render(spec: str, format: str, ordering: str | None, guard: int | None) -> int:
    group, _ = parse_group_spec(spec)
    result = construction.near_transversal(
        group, ordering=_parse_ordering(group, ordering), guard=guard)
    model = render.render_model(result)
    _write(render.latex_table(model) if format == "latex" else render.ascii_table(model))
    return EXIT_OK


def cmd_catalog(format: str, guard: int | None, max_order: int, filter: str) -> int:
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
            result = construction.near_transversal(group, guard=guard)
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
                  {"--format": _FORMAT, "--ordering": _ORDERING, "--guard-override": _GUARD}),
    "verify": ("run the structural witness checks", (_SPEC,),
               {"--format": _FORMAT, "--ordering": _ORDERING}),
    "oracle": ("exhaustive baselines for cross-checking",
               (("which", ("transversal", "count", "maxpartial", "completemapping"),
                 "the exhaustive search to run"), _SPEC),
               {"--format": _FORMAT, "--guard-override": _GUARD}),
    "render": ("print the table with witness cells marked", (_SPEC,),
               {"--format": ("format", str, ("ascii", "latex"), "ascii", "output format"),
                "--ordering": _ORDERING, "--guard-override": _GUARD}),
    "catalog": ("run construct+verify across the built-in catalog", (),
                {"--format": _FORMAT, "--guard-override": _GUARD,
                 "--max-order": ("max_order", int, None, 20, "largest group order to run"),
                 "--filter": ("filter", str, ("all", "odd", "even", "construction"), "all",
                              "which groups to run")}),
}
HANDLERS = {"analyze": cmd_analyze, "construct": cmd_construct, "verify": cmd_verify,
            "oracle": cmd_oracle, "render": cmd_render, "catalog": cmd_catalog}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")   # read as a positional, as argparse does


def _metavar(name: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else name


def _usage(command: str | None) -> str:
    if command is None:
        return f"ntk [-h] {_metavar('command', COMMANDS)} ..."
    _, positionals, options = COMMANDS[command]
    return " ".join([f"ntk {command} [-h]"]
                    + [f"[{flag} {_metavar(dest.upper(), choices)}]"
                       for flag, (dest, _, choices, _, _) in options.items()]
                    + [_metavar(name, choices) for name, choices, _ in positionals])


def _help(command: str | None) -> str:
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        description = ("Near transversals of group-based latin squares: "
                       "construct, verify, render, and cross-check with oracles.")
        sections = {"commands": [(name, entry[0]) for name, entry in COMMANDS.items()]}
    else:
        description, positionals, flags = COMMANDS[command]
        sections = {"positional arguments": [(_metavar(name, choices), text)
                                             for name, choices, text in positionals]}
        options += [(f"{flag} {_metavar(dest.upper(), choices)}", text)
                    for flag, (dest, _, choices, _, text) in flags.items()]
    sections["options"] = options
    width = max(len(left) for rows in sections.values() for left, _ in rows) + 2
    lines = [f"usage: {_usage(command)}", "", description]
    for title, rows in sections.items():
        if rows:
            lines += ["", f"{title}:"] + [f"  {left:<{width}}{text}" for left, text in rows]
    return "\n".join(lines) + "\n"


def _refuse(command: str | None, message: str):
    prog = f"ntk {command}" if command else "ntk"
    sys.stderr.write(f"usage: {_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _show_help(command: str | None, flag: str, explicit: str | None):
    """-h/--help: print help and exit 0. A value attached to it is refused,
    except more h's after a single dash (``-hh``)."""
    if explicit is None or (flag == "-h" and explicit and not explicit.strip("h")):
        sys.stdout.write(_help(command))
        raise SystemExit(EXIT_OK)
    _refuse(command, f"argument -h/--help: ignored explicit argument {explicit!r}")


def _classify(command: str | None, arg: str, flags) -> tuple | None:
    """How argparse read ``arg`` ahead of any ``--``: None for a positional,
    else (the flag it names or None for an unknown option, its attached value
    or None). A long option may be shortened to any unique prefix."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in flags:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return name, value
    if arg[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            _refuse(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg[:2] == "-h":
        return "-h", arg[2:]
    return None if _NEGATIVE.match(arg) or " " in arg else (None, None)


def _parse_command(command: str, args: list[str]) -> dict:
    """The fields of ``command`` read from the arguments after it. Each
    positional takes one argument; a ``--`` next to it is dropped."""
    _, positionals, options = COMMANDS[command]
    flags = dict.fromkeys(_HELP) | options
    found = {}
    kinds = ""
    for i, arg in enumerate(args):
        if arg == "--":       # everything after it is positional
            kinds += "-" + "A" * (len(args) - i - 1)
            break
        hit = _classify(command, arg, flags)
        if hit is not None:
            found[i] = hit
        kinds += "A" if hit is None else "O"
    parsed = {"command": command, **{dest: default for dest, _, _, default, _ in options.values()}}
    waiting = list(positionals)
    extras = []

    def take_positionals(start: int) -> int:
        for count in range(len(waiting), 0, -1):
            match = re.match("(-*A-*)" * count, kinds[start:])
            if match:
                for (name, choices, _), taken in zip(waiting, match.groups()):
                    value = args[start + taken.index("A")]
                    if choices and value not in choices:
                        _refuse(command, f"argument {name}: invalid choice: {value!r}")
                    parsed[name] = value
                    start += len(taken)
                del waiting[:count]
                break
        return start

    def take_option(i: int) -> int:
        flag, explicit = found[i]
        if flag is None:
            extras.append(args[i])
            return i + 1
        if flag in _HELP:
            _show_help(command, flag, explicit)
        dest, convert, choices, _, _ = options[flag]
        end = i + 1
        if explicit is None:
            if kinds[end:end + 1] != "A":
                _refuse(command, f"argument {flag}: expected one argument")
            explicit, end = args[end], end + 1
        try:
            value = convert(explicit)
        except ValueError:
            _refuse(command, f"argument {flag}: invalid int value: {explicit!r}")
        if choices and value not in choices:
            _refuse(command, f"argument {flag}: invalid choice: {value!r}")
        parsed[dest] = value
        return end

    start = 0
    for i in found:
        if start < i:
            start = take_positionals(start)
            extras += args[start:i]
        start = take_option(i)
    start = take_positionals(start)
    extras += args[start:]
    if waiting:
        _refuse(command, "the following arguments are required: "
                + ", ".join(name for name, _, _ in waiting))
    if extras:
        _refuse(command, f"unrecognized arguments: {' '.join(extras)}")
    return parsed


def parse_args(argv: list[str]) -> dict:
    """The command and the values of its arguments, read from ``argv`` by the
    rules of :data:`COMMANDS`. Help exits 0 and a usage error exits 1, both
    through :class:`SystemExit`, after writing to stdout or stderr."""
    unknown = []
    for i, arg in enumerate(argv):
        hit = None if arg == "--" else _classify(None, arg, _HELP)
        if hit is None:
            if arg not in COMMANDS:
                _refuse(None, f"argument command: invalid choice: {arg!r}")
            parsed = _parse_command(arg, argv[i + 1:])
            if unknown:
                _refuse(arg, f"unrecognized arguments: {' '.join(unknown)}")
            return parsed
        flag, explicit = hit
        if flag is None:
            unknown.append(arg)
        else:
            _show_help(None, flag, explicit)
    _refuse(None, "the following arguments are required: command")


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
