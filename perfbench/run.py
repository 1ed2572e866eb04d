"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload e1_replay --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs untraced passes for half the time, then
one pass (set-up plus pass) with every layer boundary wrapped, and
reports the per-layer split (see ``layers.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Above it, every metric is
printed by its per-workload name (``replay_captures_per_s``...) with its unit and
sample count, followed by the machine notes.  The full record (digest,
per-pass figures, machine notes) is written to
``.perfbench-out/<workload>-seed<seed>-trace<trace>.json``; a traced
run also writes its spans next to it.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from array import array
from pathlib import Path
from statistics import median, quantiles

from reference import REFERENCE_S, hot_reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

clock = time.perf_counter

#: End-to-end metrics: name -> unit.  ``norm_cpu_per_unit_us`` is the
#: process CPU time one unit of work costs (a capture, a site, a frame),
#: what a small IDS box pays per capture, at the speed of a quiet host
#: (see ``reference.py``).  Raw CPU time, wall-clock rates and latencies
#: are printed and recorded too, but not gated: on ``fleet_shard`` wall
#: time follows the disk's unlink latency, which moved shard throughput
#: between 2.2 and 3.9 sites/s over ten 30 s runs on the same code (see
#: README.md).
END_TO_END = {
    "setup_s": "s",
    "norm_cpu_per_unit_us": "us",
    "peak_rss_mb": "MB",
}


def disk_latency_ms(directory: Path, samples: int = 5) -> dict:
    """Median fsync, rename and unlink latency of small files, in ms."""
    times = {"fsync": [], "rename": [], "unlink": []}
    for index in range(samples):
        path = directory / f"probe-{index}"
        with open(path, "wb") as handle:
            handle.write(b"\0" * 4096)
            handle.flush()
            before = clock()
            os.fsync(handle.fileno())
            times["fsync"].append(clock() - before)
        renamed = directory / f"probe-{index}.renamed"
        before = clock()
        os.replace(path, renamed)
        times["rename"].append(clock() - before)
        before = clock()
        os.unlink(renamed)
        times["unlink"].append(clock() - before)
    return {op: round(median(values) * 1e3, 4) for op, values in times.items()}


def machine_notes(directory: Path) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "disk_latency_ms": disk_latency_ms(directory),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: A set-up cheaper than the budget is repeated, up to the cap, and the
#: pass keeps the last one: a single sub-millisecond set-up after a pass
#: varied twofold from run to run.
SETUP_BUDGET_S = 0.005
SETUP_REPEATS = 15


def one_pass(workload, max_setups: int = SETUP_REPEATS):
    """Set up and run one pass.

    Returns (setup s, reference s, pass s, CPU s, latencies, state), the
    set-up time being the median of the set-ups made.  The reference job
    (``reference.py``) runs first, outside both timings, so that set-up
    also starts on a busy CPU: after a ``fleet_shard`` pass, which idles
    between disk waits, the CPU stays slow for some milliseconds.
    """
    gc.collect()
    reference_s = hot_reference()
    times = []
    state = None
    while not times or (len(times) < max_setups and sum(times) < SETUP_BUDGET_S):
        state = None  # the previous set-up's state dies before the next is timed
        before = clock()
        state = workload.setup()
        times.append(clock() - before)
    setup_s = median(times)
    cpu = time.process_time()
    started = clock()
    latencies = workload.run(state)
    return setup_s, reference_s, clock() - started, time.process_time() - cpu, latencies, state


def timed_pass(workload) -> dict:
    """One pass, reduced to the figures a run keeps.

    The pass's program state dies on return, before the next set-up.
    """
    setup_s, reference_s, run_s, cpu_s, latencies, state = one_pass(workload)
    result = workload.finish(state)
    pass_reference_s = reference_s
    if result.references:
        # Timed inside the pass, where the program's CPU runs.
        cpu_s -= sum(result.references)
        pass_reference_s = median(result.references)
    return {
        # Set-up runs right after the reference job, on a busy CPU, and
        # is scaled like CPU time: the same 8,000-node build read 0.37 s
        # in one set of runs and 0.47 s in the next.
        "setup_s": setup_s * REFERENCE_S / reference_s,
        "raw_setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "reference_s": pass_reference_s,
        "norm_cpu_s": cpu_s * REFERENCE_S / pass_reference_s,
        # Packed, so that the samples kept weigh little in peak RSS.
        "latencies": array("d", latencies),
        "units": result.units,
        "digest": result.digest,
        "failed": result.failed,
        "problems": result.problems,
    }


#: Passes whose per-operation latencies a run keeps.  A fixed number,
#: so that a faster program does not keep more samples and show a
#: higher peak RSS for the benchmark's own bookkeeping.
LATENCY_PASSES = 3


def measure(workload, seconds: float, min_passes: int) -> list:
    """Untraced passes until ``seconds`` have gone by; one dict per pass.

    One pass runs first untimed, so lazy imports, first-use caches and
    the disk's steady state are in place before timing starts.  Only the
    first :data:`LATENCY_PASSES` passes keep their latencies.
    """
    timed_pass(workload)
    passes = []
    started = clock()
    while len(passes) < min_passes or clock() - started < seconds:
        record = timed_pass(workload)
        if len(passes) >= LATENCY_PASSES:
            record["latencies"] = array("d")
        passes.append(record)
    return passes


def tail(samples: list) -> tuple:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for percentile in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - percentile) / 100.0 >= 10:
            cuts = quantiles(samples, n=1000, method="inclusive")
            return percentile, cuts[round(percentile * 10) - 1]
    return None, None


def summarize(passes: list) -> dict:
    latencies = [value for p in passes for value in p["latencies"]]
    percentile, tail_s = tail(latencies)
    return {
        "passes": len(passes),
        "units": sum(p["units"] for p in passes),
        "setup_s": median(p["setup_s"] for p in passes),
        "raw_setup_s": median(p["raw_setup_s"] for p in passes),
        "throughput_per_s": median(p["units"] / p["run_s"] for p in passes),
        "cpu_per_unit_us": median(p["cpu_s"] / p["units"] for p in passes) * 1e6,
        "norm_cpu_per_unit_us": median(p["norm_cpu_s"] / p["units"] for p in passes) * 1e6,
        "reference_s": median(p["reference_s"] for p in passes),
        "latency_samples": len(latencies),
        "latency_p50_us": median(latencies) * 1e6,
        "tail_percentile": percentile,
        "latency_tail_us": tail_s * 1e6 if tail_s is not None else None,
    }


def verdict(passes: list) -> tuple:
    """(failed count, problems, digest) over every pass of the run."""
    problems = [problem for p in passes for problem in p["problems"]]
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree on the output digest: {sorted(digests)}")
        failed += 1
    return failed, problems, passes[0]["digest"]


def run_untraced(workload, seconds: float) -> dict:
    passes = measure(workload, seconds, min_passes=3)
    peak = peak_rss_mb()  # before the summary's own sorting adds to it
    summary = summarize(passes)
    failed, problems, digest = verdict(passes)
    metrics = {
        "setup_s": summary["setup_s"],
        "norm_cpu_per_unit_us": summary["norm_cpu_per_unit_us"],
        "peak_rss_mb": peak,
    }
    return {
        "metrics": {name: (metrics[name], END_TO_END[name]) for name in END_TO_END},
        "summary": summary,
        "attempted": summary["units"],
        "failed": failed,
        "problems": problems,
        "digest": digest,
    }


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    import layers
    from tracer import Tracer

    untraced = measure(workload, seconds / 2.0, min_passes=2)
    extras = workload.layer_extras()
    tracer = Tracer()
    counts = layers.LayerCounts()
    layers.install(tracer, counts)
    try:
        # One set-up, so that every traced span falls in the timed wall.
        setup_s, _reference_s, run_s, _cpu_s, _latencies, state = one_pass(
            workload, max_setups=1
        )
    finally:
        tracer.remove()
    result = workload.finish(state)
    untraced_s = median(p["raw_setup_s"] + p["run_s"] for p in untraced)
    table = layers.table(tracer, counts, result, setup_s + run_s, untraced_s, extras)
    tracer.save(spans_path)
    traced = {
        "units": result.units,
        "digest": result.digest,
        "failed": result.failed,
        "problems": result.problems,
    }
    failed, problems, digest = verdict(untraced + [traced])
    units = {name: unit for name, unit in layers.METRICS}
    return {
        "metrics": {name: (value, units[name]) for name, value in table.items()},
        "summary": {
            "untraced_passes": len(untraced),
            "traced_wall_s": setup_s + run_s,
            "untraced_wall_s": untraced_s,
            "spans": tracer.span_count,
            "spans_dropped": tracer.spans_dropped,
            "spans_file": str(spans_path.relative_to(ROOT)),
        },
        "attempted": sum(p["units"] for p in untraced) + result.units,
        "failed": failed,
        "problems": problems,
        "digest": digest,
    }


def print_named(workload, report: dict, notes: dict) -> None:
    """Every figure of the run under its per-workload name, with its unit."""
    summary = report["summary"]
    attempted, failed = report["attempted"], report["failed"]
    if "latency_p50_us" in summary:
        samples = summary["latency_samples"]
        rows = [
            (workload.rate_name, summary["throughput_per_s"], f"{workload.unit}/s",
             f"median of {summary['passes']} passes"),
            (f"{workload.op}_cpu_us", summary["cpu_per_unit_us"], "us",
             f"process CPU per {workload.op}, median of {summary['passes']} passes"),
            (f"{workload.op}_norm_cpu_us", summary["norm_cpu_per_unit_us"], "us",
             f"the same at the reference job's {REFERENCE_S * 1e3:g} ms; the job took "
             f"{summary['reference_s'] * 1e3:.4g} ms"),
            (f"{workload.op}_latency_p50_us", summary["latency_p50_us"], "us",
             f"{samples} samples"),
        ]
        if summary["tail_percentile"] is not None:
            label = f"{summary['tail_percentile']:g}".replace(".", "_")
            rows.append((f"{workload.op}_latency_p{label}_us", summary["latency_tail_us"],
                         "us", f"{samples} samples"))
        rows.append(("setup_s", summary["setup_s"], "s",
                     f"median over {summary['passes']} passes of up to {SETUP_REPEATS} set-ups "
                     f"each, scaled like CPU time; {summary['raw_setup_s']:.6g} s unscaled"))
        rows.append(("peak_rss_mb", report["metrics"]["peak_rss_mb"][0], "MB", "ru_maxrss"))
    else:
        rows = [(name, value, unit, "") for name, (value, unit) in report["metrics"].items()]
    rows.append(("failed_share", failed / attempted if attempted else 0.0, "ratio",
                 f"{failed} of {attempted}"))
    for name, value, unit, note in rows:
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"digest sha256:{report['digest']}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    disk = notes["disk_latency_ms"]
    print(
        f"machine: python {notes['python']}, numpy {notes['numpy']}, nproc {notes['nproc']}, "
        f"fsync {disk['fsync']} ms, rename {disk['rename']} ms, unlink {disk['unlink']} ms"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    workload_class = WORKLOADS.get(args.workload)
    if workload_class is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else workload_class.default_seed
    scratch = OUT / f"work-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        notes = machine_notes(scratch)
        workload = workload_class(seed, scratch)
        # The inputs live for the whole run.  Frozen, they are left out
        # of every garbage collection, so the program is not charged for
        # traversing them and the collection before each set-up does not
        # sweep them through the caches.
        gc.freeze()
        try:
            if args.trace:
                spans = OUT / f"{args.workload}-seed{seed}.spans.npz"
                report = run_traced(workload, args.seconds, spans)
            else:
                report = run_untraced(workload, args.seconds)
        finally:
            workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = report["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "problems": report["problems"],
        "digest": report["digest"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report["metrics"].items()},
        "summary": report["summary"],
        "machine": notes,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(f"# {args.workload} seed {seed} trace {args.trace}")
    print_named(workload, report, notes)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
