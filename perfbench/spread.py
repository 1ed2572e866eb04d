"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workloads e1_replay,fleet_shard --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/trajectory/<name>.json

Each (workload, seed) is one ``run.py --trace 0`` process, run one at
a time.  For every end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``; unscaled set-up and CPU time
per unit, the wall-clock rate and median latency, which are recorded
but not gated, get the same figures.
Each workload also runs at its default and held-out seeds, whose
digests pin the program's behaviour.  ``--out`` writes the summary,
with per-run values, digests and machine notes, as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent

#: Recorded, ungated figures (see ``END_TO_END`` in run.py).
UNGATED = ("raw_setup_s", "cpu_per_unit_us", "throughput_per_s", "latency_p50_us")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    record = json.loads(
        (ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "ungated": {name: record["summary"][name] for name in UNGATED},
        "digest": record["digest"],
        "machine": record["machine"],
    }


def spread(values: list) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    center = median(values)
    return {
        "median": center,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / center if center else float("inf"),
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import WORKLOADS

    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    summary = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        table = {
            name: spread([run["metrics"][name] for run in runs]) for name in bounds
        }
        table.update(
            {name: spread([run["ungated"][name] for run in runs]) for name in UNGATED}
        )
        failed = sum(run["failed"] for run in runs)
        summary["workloads"][workload] = {"metrics": table, "failed": failed, "runs": runs}
        cls = WORKLOADS[workload]
        pinned = [
            run_once(workload, seed, args.seconds)
            for seed in (cls.default_seed, cls.held_out_seed)
        ]
        summary["workloads"][workload]["pinned"] = pinned
        failed += sum(run["failed"] for run in pinned)
        for run in pinned:
            print(f"  {workload:13} seed {run['seed']}: correct {run['correct']} "
                  f"sha256:{run['digest']}")
        ok = ok and failed == 0
        for name, row in table.items():
            bound = bounds.get(name)
            wide = bound is not None and row["spread"] >= bound / 3
            print(
                f"  {workload:13} {name:20} median {row['median']:.6g}  "
                f"IQR/median {row['spread']:.4f}  bound {bound or 'none (ungated)'}"
                + ("  WIDE" if wide else "")
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
