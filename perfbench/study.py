"""Steadiness study: run the benchmark on several seeds and summarise each metric.

    python3 perfbench/study.py --seeds 1-10 [--workload NAME ...] [--label NAME]

Runs ``run.py`` once per seed and workload, one run at a time, with
``run_seconds`` from BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median. This
spread is what the bounds in BENCHMARK.json are set against. The times the
gates use are process CPU times; the same figures in wall time, which each
run writes to its result file, are summarised beside them. The summary is
also written to ``perfbench/out/study-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--label", default="study")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary = {}
    for workload in workloads:
        runs, walls = [], []
        for seed in parse_seeds(args.seeds):
            cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(config["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            saved = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
            walls.append(saved["wall_metrics"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        stats = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name in bounds:
            stats["metrics"][name] = summarise([r["metrics"][name]["value"] for r in runs])
            stats["metrics"][name]["wall"] = summarise([w[name]["value"] for w in walls])
        summary[workload] = stats

    (OUT / f"study-{args.label}.json").write_text(json.dumps(summary, indent=2) + "\n")
    for workload, stats in summary.items():
        print(f"\n{workload}: correct={stats['correct']} failed share={stats['failed_share']}")
        for name, s in stats["metrics"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:6.3f} (bound {bounds[name]}){flag}"
                  f"  [wall: median {s['wall']['median']:.4f}, spread {s['wall']['spread']:.3f}]")
    return 0


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


if __name__ == "__main__":
    sys.exit(main())
