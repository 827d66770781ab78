"""One benchmark worker: a fresh interpreter that imports ntk and runs requests.

Usage: ``python3 worker.py [--trace]``, with ``src`` on ``PYTHONPATH``.
The worker times ``import ntk.cli`` first and reports it on one JSON line.
Then it reads one JSON request per line on stdin and answers each with one
JSON line on stdout, until stdin closes:

``{"op": "cli", "argv": [...], "names_of": spec}``
    times ``ntk.cli.main(argv)`` with its stdout captured; ``names_of``
    asks for the element names of a spec, read after the timed call.
``{"op": "mis", "spec": spec}``
    builds the witness graph of a ladder group, then times
    ``max_independent_set`` on it.
``{"op": "catalog_cells", "max_order": n}``
    untimed: the near-transversal cells of every catalog group that
    ``near_transversal`` answers for.

Each timed answer carries the wall seconds and the process CPU seconds of
the call, ``ru_maxrss`` read right after it, and with ``--trace`` the spans
the call recorded. The first line gives both clocks of the import the same way.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import resource
import sys
from time import perf_counter, process_time


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    proto = sys.stdout
    start, cpu_start = perf_counter(), process_time()
    import ntk.cli
    setup = {"seconds": perf_counter() - start, "cpu_s": process_time() - cpu_start}
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    proto.write(json.dumps(setup) + "\n")
    proto.flush()

    for op_id, line in enumerate(sys.stdin):
        request = json.loads(line)
        kind = request["op"]
        if kind == "catalog_cells":
            reply = {"cells": catalog_cells(request["max_order"])}
        elif kind == "cli":
            reply = run_cli(request["argv"], tracer, op_id)
            if request.get("names_of"):
                group, _ = ntk.groupspec.parse_group_spec(request["names_of"])
                reply["names"] = list(group.names)
        elif kind == "mis":
            reply = run_mis(request["spec"], tracer, op_id)
        else:
            raise ValueError(f"unknown request {kind!r}")
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


def _timed(tracer, op_id: int, fn, *args, name: str | None = None) -> dict:
    if tracer is not None:
        fn = functools.partial(tracer.run_op, op_id, fn, name=name)
    gc.collect()
    start, cpu_start = perf_counter(), process_time()
    result = fn(*args)
    seconds, cpu_s = perf_counter() - start, process_time() - cpu_start
    reply = {"seconds": seconds, "cpu_s": cpu_s,
             "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             "result": result}
    if tracer is not None:
        reply["spans"] = tracer.take()
    return reply


def run_cli(argv: list[str], tracer, op_id: int) -> dict:
    import ntk.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        reply = _timed(tracer, op_id, ntk.cli.main, argv, name="cli.main")
    reply["rc"] = reply.pop("result")
    reply["out"] = out.getvalue()
    reply["err"] = err.getvalue()
    return reply


def run_mis(spec: str, tracer, op_id: int) -> dict:
    from ntk import construction, graphs, groupspec, latin
    group, _ = groupspec.parse_group_spec(spec)
    witness = construction.near_transversal(group).witness
    graph = graphs.induced_subgraph(latin.cayley_square(group), witness.all_cells)
    reply = _timed(tracer, op_id, graphs.max_independent_set, graph)
    size, cells = reply.pop("result")
    reply.update(size=size, cells=[list(c) for c in cells], vertices=len(graph.vertices))
    return reply


def catalog_cells(max_order: int) -> dict[str, list]:
    from ntk import construction, errors
    from ntk.catalog import builtin_catalog
    out = {}
    for entry in builtin_catalog(max_order):
        try:
            result = construction.near_transversal(entry.group)
        except (errors.OrderTooLarge, errors.TooLarge):
            continue
        out[entry.label] = construction.result_json(result, entry.label)["cells"]
    return out


if __name__ == "__main__":
    sys.exit(main())
