"""Benchmark of ntk's public entry points, with independent output checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-200 --seed 1 --seconds 40 --trace 0

Workloads (see README.md for their make-up and reference figures):

catalog-200      ``ntk catalog --max-order 200 --format json``, one fresh
                 worker per call; each catalog line is one operation.
oracle-small     the four ``ntk oracle`` searches on small groups, and
                 ``max_independent_set`` on witness graphs, in one worker.
construct-large  ``ntk construct <spec> --format json``, one fresh worker per
                 call, on ladder-branch groups of order about 500-2048.

A run measures whole rounds of the workload's operations for about
``--seconds`` seconds, one worker at a time, and checks every output with
the arithmetic in ``checks.py``. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which are
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. End-to-end times are process CPU times, which leave out the
time the host gives to other tenants; the result file under
``perfbench/out`` also holds them in wall time, and spans are written
there too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import refgroups
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_PROBES = 4      # fresh workers that only import ntk.cli, before each round
HARD_LIMIT_S = 170    # a run that is not done by then is abandoned
CATALOG_MAX_ORDER = 200


# ---------------------------------------------------------------------------
# workloads: each round is a list of requests, the same in every round

def construct_round(rng: random.Random) -> list[dict]:
    """One spec per witness shape, each with an odd parameter in a fixed band."""
    def odd(lo: int, hi: int) -> int:
        return rng.randrange(lo, hi + 1, 2)
    # Orders near 500 stay at most 512, those near 1000 above it, so that
    # every seed validates associativity on the same specs. Z2042 is left
    # out of the first band: it runs about 30 % slower than its neighbours.
    specs = [
        f"Z{2 * odd(1013, 1019)}",   # k = 2, order 2026..2038, ladder only (m = l)
        f"Z{4 * odd(249, 255)}",     # k = 4, order 996..1020
        f"Z{8 * odd(59, 63)}",       # k = 8, order 472..504
        f"Z{16 * odd(61, 63)}",      # k = 16, order 976..1008
        f"D{odd(495, 511)}",         # prisms only (m = 1), order 990..1022
        f"Dic{odd(121, 127)}",       # k = 4, central involution, order 484..508
        f"S3 x Z{odd(163, 171)}",    # mixed: m = q and prisms, order 978..1026
        f"Z2 x Z{odd(245, 255)}",    # direct product, ladder only, order 490..510
    ]
    return [{"op": "cli", "argv": ["construct", s, "--format", "json"], "spec": s}
            for s in specs]


def catalog_round(rng: random.Random) -> list[dict]:
    return [{"op": "cli", "argv": ["catalog", "--max-order", str(CATALOG_MAX_ORDER),
                                   "--format", "json"]}]


# Groups by spec family, within each oracle's guard. The transversal search
# stops at order 12: proving absence at Z12 already takes seconds, and Dic3,
# the other order-12 group without one, would double the round.
TRANSVERSAL_SPECS = ([f"Z{n}" for n in range(1, 13)] + [f"D{q}" for q in range(2, 7)]
                     + ["Dic1", "Dic2", "S3", "Z2 x Z2", "Z2 x Z4", "Z2 x Z2 x Z2",
                        "Z3 x Z3", "Z2 x Z6"])
COUNT_SPECS = ([f"Z{n}" for n in range(1, 11)] + [f"D{q}" for q in range(2, 6)]
               + ["Dic1", "Dic2", "S3", "Z2 x Z2", "Z2 x Z4", "Z2 x Z2 x Z2", "Z3 x Z3"])
MAXPARTIAL_SPECS = ([f"Z{n}" for n in range(1, 10)] + [f"D{q}" for q in range(2, 5)]
                    + ["Dic1", "Dic2", "S3", "Z2 x Z2", "Z2 x Z4", "Z2 x Z2 x Z2", "Z3 x Z3"])
COMPLETEMAPPING_SPECS = ([f"Z{n}" for n in range(1, 17)] + [f"D{q}" for q in range(2, 9)]
                         + [f"Dic{q}" for q in range(1, 5)]
                         + ["S3", "Z2 x Z2", "Z2 x Z4", "Z2 x Z2 x Z2", "Z3 x Z3", "Z2 x Z6",
                            "Z2 x Z8", "Z4 x Z4", "Z2 x Z2 x Z4", "Z3 x Z5"])
# Every ladder-branch group of these families, up to isomorphism, whose
# witness graph has at most 60 vertices, the independent-set guard
# (Z2 x Zq is Z2q, and S3 is D3).
LADDER_SPECS = ([f"Z{n}" for n in range(2, 31, 2)] + [f"D{q}" for q in range(1, 16, 2)]
                + [f"Dic{q}" for q in range(1, 8, 2)] + ["S3 x Z3", "S3 x Z5"])


def oracle_round(rng: random.Random) -> list[dict]:
    ops = []
    for which, specs in (("transversal", TRANSVERSAL_SPECS), ("count", COUNT_SPECS),
                         ("maxpartial", MAXPARTIAL_SPECS),
                         ("completemapping", COMPLETEMAPPING_SPECS)):
        for spec in specs:
            ops.append({"op": "cli", "argv": ["oracle", which, spec, "--format", "json"],
                        "spec": spec, "which": which,
                        **({"names_of": spec} if which == "completemapping" else {})})
    ops += [{"op": "mis", "spec": spec} for spec in LADDER_SPECS]
    return ops


WORKLOADS = {
    # name: (function making a round, fresh worker per operation, order shuffled per round)
    "construct-large": (construct_round, True, False),
    "catalog-200": (catalog_round, True, False),
    "oracle-small": (oracle_round, False, True),
}


# ---------------------------------------------------------------------------
# workers

def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("NTK_GUARD_N", None)
    return env


class Worker:
    """A fresh interpreter running worker.py; see that file for the protocol."""

    def __init__(self, trace: bool):
        args = [sys.executable, str(WORKER)] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(args, cwd=ROOT, env=_worker_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.setup = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self, kill: bool = False) -> None:
        """End the worker: by closing its input, or at once with ``kill``."""
        if kill:
            self.proc.kill()
        elif self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        self.close(kill=exc_type is not None)


# ---------------------------------------------------------------------------
# checking one reply

reference_group = functools.lru_cache(maxsize=None)(refgroups.from_spec)


def check_reply(req: dict, reply: dict) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, problems, passed catalog labels) of one operation."""
    if req["op"] == "mis":
        ref = reference_group(req["spec"])
        return 1, 0, checks.check_independent_set(ref, reply["vertices"], reply["size"],
                                                  reply["cells"]), []
    argv = req["argv"]
    if argv[0] == "catalog":
        return checks.check_catalog(reply["out"], reply["rc"], CATALOG_MAX_ORDER)
    ref = reference_group(req["spec"])
    if argv[0] == "construct":
        problems = checks.check_construct(ref, reply["out"], reply["rc"])
    else:
        problems = checks.check_oracle(req["which"], req["spec"], ref, reply["out"],
                                       reply["rc"], reply.get("names"))
    return 1, (1 if reply["rc"] != 0 else 0), problems, []


# ---------------------------------------------------------------------------
# one run

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    build_round, fresh, shuffle = WORKLOADS[workload]
    rng = random.Random(seed)
    round_ops = build_round(rng)

    with Worker(trace=False):   # byte-compiles ntk on a fresh checkout
        pass
    setups: list[dict] = []     # set-up times of every untraced fresh worker, both clocks

    problems: list[str] = []
    ops: list[dict] = []        # per operation: round, both clocks, attempted, rss_kb, spans
    rounds: list[dict] = []     # per round: traced, total of both clocks, attempted
    attempted = failed = 0
    min_rounds = 2 if trace else 1
    long_lived: dict[bool, Worker] = {}
    finished = False
    try:
        if not fresh:
            long_lived[False] = Worker(False)
            if trace:
                long_lived[True] = Worker(True)
        start = time.perf_counter()
        while True:
            index = len(rounds)
            # The traced run alternates untraced and traced rounds, so that
            # the tracing overhead is measured in the same run.
            traced = trace and index % 2 == 1
            for _ in range(0 if trace else SETUP_PROBES):
                with Worker(trace=False) as probe:
                    setups.append(probe.setup)
            order = list(round_ops)
            if shuffle:
                rng.shuffle(order)
            info = {"traced": traced, "seconds": 0.0, "cpu_s": 0.0, "attempted": 0}
            for req in order:
                if fresh:
                    with Worker(traced) as w:
                        if not traced:
                            setups.append(w.setup)
                        reply = w.request(req)
                        if req["argv"][0] == "catalog" and index == 0:
                            # Re-check the cells of every passing group once per run.
                            reply["catalog_cells"] = w.request(
                                {"op": "catalog_cells", "max_order": CATALOG_MAX_ORDER})["cells"]
                else:
                    reply = long_lived[traced].request(req)
                n_att, n_fail, found, passed = check_reply(req, reply)
                if "catalog_cells" in reply:
                    found += checks.check_catalog_cells(reply["catalog_cells"], passed)
                problems += found
                attempted += n_att
                failed += n_fail
                info["attempted"] += n_att
                info["seconds"] += reply["seconds"]
                info["cpu_s"] += reply["cpu_s"]
                ops.append({"round": index, "traced": traced, "seconds": reply["seconds"],
                            "cpu_s": reply["cpu_s"], "attempted": n_att,
                            "rss_kb": reply["rss_kb"], "spans": reply.get("spans")})
            rounds.append(info)
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > seconds:
                break
        finished = True
    finally:
        for w in long_lived.values():
            w.close(kill=not finished)

    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    if trace:
        result["metrics"] = layer_metrics(ops, rounds)
        write_spans(workload, seed, ops)
    else:
        result["metrics"] = end_to_end_metrics(ops, rounds, setups, "cpu_s")
        result["wall_metrics"] = end_to_end_metrics(ops, rounds, setups, "seconds")
    if problems:
        result["problems"] = problems[:20]
    result["setups"] = setups
    result["ops"] = [{key: op[key] for key in ("seconds", "cpu_s", "attempted")} for op in ops]
    return result


def end_to_end_metrics(ops: list[dict], rounds: list[dict], setups: list[dict],
                       clock: str) -> dict:
    """The end-to-end metrics, with times read from ``clock``: ``cpu_s``,
    the process CPU time the gates use, or ``seconds``, wall time."""
    values = {
        "setup_s": (statistics.median(s[clock] for s in setups), "s"),
        # An operation's time is its call's time shared among the operations
        # the call made: one catalog call prints 383 lines.
        "op_p50_s": (statistics.median(op[clock] / op["attempted"] for op in ops), "s"),
        "total_s": (statistics.median(r[clock] for r in rounds), "s"),
        "peak_rss_mb": (max(op["rss_kb"] for op in ops) / 1024, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


TABLE_CONSTRUCTORS = ("groups.cyclic", "groups.dihedral", "groups.dicyclic",
                      "groups.symmetric", "groups.direct_product", "groups.semidirect")
SELF_METRICS = (
    "groups.group_from_table", "groups.sylow2", "groups.element_orders",
    "groups.subgroup_closure", "groups.is_subgroup", "groups.conjugation",
    "construction.decompose", "construction.build_witness",
    "construction.extract_near_transversal", "mappings.harmonious_ordering",
    "graphs.check_witness", "graphs.induced_subgraph", "catalog.builtin_catalog",
    "mappings.find_complete_mapping", "latin.brute_force_transversal",
    "latin.count_transversals", "latin.max_partial_transversal",
    "graphs.max_independent_set",
)
PER_OP_METRICS = ("groups.group_from_table", "groups.sylow2", "groups.element_orders",
                  "graphs.check_witness", "graphs.induced_subgraph", "guards.ensure_within")
LAYERS = ("groupspec", "groups", "catalog", "construction", "mappings", "graphs", "latin")


def layer_metrics(ops: list[dict], rounds: list[dict]) -> dict:
    """Per-layer figures of the traced rounds: self seconds per round, calls
    per operation, the share of operation time the spans account for, and
    the tracing overhead against the untraced rounds of the same run."""
    traced_rounds = [r for r in rounds if r["traced"]]
    n_rounds = len(traced_rounds)
    n_ops = sum(r["attempted"] for r in traced_rounds)
    seconds: Counter = Counter()
    calls: Counter = Counter()
    op_time = 0.0
    for op in (op for op in ops if op["traced"]):
        op_time += op["seconds"]
        s, c = tracer.self_times(op["spans"])
        seconds.update(s)
        calls.update(c)

    values: dict[str, tuple[float, str]] = {}
    values["groups.tables.self_s"] = (sum(seconds.get(n, 0.0) for n in TABLE_CONSTRUCTORS)
                                      / n_rounds, "s")
    for name in SELF_METRICS:
        values[f"{name}.self_s"] = (seconds.get(name, 0.0) / n_rounds, "s")
    for name in PER_OP_METRICS:
        values[f"{name}.per_op"] = (calls.get(name, 0) / n_ops, "calls/op")
    values["cli.self_s"] = (seconds.get("cli.main", 0.0) / n_rounds, "s")
    for layer in LAYERS:
        total = sum(v for name, v in seconds.items() if name.startswith(layer + "."))
        values[f"{layer}.self_s"] = (total / n_rounds, "s")
    values["trace.coverage"] = (1 - seconds.get("cli.main", 0.0) / op_time, "fraction")
    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    values["trace.overhead_s"] = (statistics.median(r["seconds"] for r in traced_rounds)
                                  - statistics.median(untraced), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def write_spans(workload: str, seed: int, ops: list[dict]) -> None:
    """All spans of the run, one JSON line each, with run-wide ids."""
    OUT.mkdir(exist_ok=True)
    offset = 0
    with open(OUT / f"{workload}-seed{seed}.spans.jsonl", "w") as fh:
        for op in ops:
            for i, (name, start, end, parent, op_id) in enumerate(op["spans"] or ()):
                fh.write(json.dumps({"id": offset + i, "name": name, "start_ns": start,
                                     "end_ns": end, "op": op_id, "round": op["round"],
                                     "parent": None if parent is None else offset + parent})
                         + "\n")
            offset += len(op["spans"] or ())


def _abandon(signum, frame):
    raise TimeoutError(f"run not finished within {HARD_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ntk" / "cli.py").is_file():
        print(f"error: no ntk sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _abandon)
    signal.alarm(HARD_LIMIT_S)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    signal.alarm(0)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n")
    for problem in result.get("problems", ()):
        print(f"check failed: {problem}", file=sys.stderr)
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
