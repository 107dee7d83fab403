#!/usr/bin/env python3
"""Benchmark launcher: python3 bench/run.py --workload W --seed N
[--seconds S] [--trace 0|1].

Run from the repository root.  It compiles the sources, measures set-up in
fresh interpreters (SETUP_SAMPLES of them untraced, the last one goes on to
run the workload), checks every output against its oracle, prints a report
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Exits non-zero, printing no result, when the
sources or BENCHMARK.json are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
# median time of worker.reference_kernel on the machine the benchmark was
# tuned on (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6): time metrics are in
# seconds at that speed
REFERENCE_S = 0.40e-3
SPEED_MARGIN_S = 0.25
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    """Single-threaded program with only this checkout's sources importable."""
    env = {k: v for k, v in os.environ.items() if k != "CMDUAL_THREADS"}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONUNBUFFERED="1")
    return env


def run_child(cmd, env, timeout):
    """Run a command in its own process group; on timeout kill the group."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {cmd[1:3]}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n"
                         f"{err[-2000:]}")
    return out


def worker(args, env, deadline, setup_only):
    result = OUT / f"worker-{args.workload}-{args.seed}-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--result", str(result), "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    run_child(cmd, env, deadline - time.monotonic())
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def ops_of(result):
    runs = result["passes"] + ([result["traced"]] if "traced" in result
                               else [])
    return [op for run in runs for op in run["ops"]]


def outcomes(result):
    """{operation: failure or None}: an operation that runs several times
    counts once, and fails if any of its runs failed, so attempted and
    failed depend on the seed alone, not on how many passes fitted."""
    out = {}
    for op in ops_of(result):
        out[op["name"]] = out.get(op["name"]) or op["failure"]
    return out


def at_reference_speed(passes, speed):
    """[[seconds at reference speed per operation] per pass].

    ``speed`` holds the worker's (time, reference kernel seconds) samples.
    An operation's time is scaled by the mean of REFERENCE_S over the
    kernel's time across the samples taken during it and up to
    SPEED_MARGIN_S either side: the machine's mean speed while it ran,
    relative to the reference speed."""
    times = [t for t, _ in speed]
    out = []
    for p in passes:
        out.append([])
        for op in p["ops"]:
            lo = bisect.bisect_left(times, op["start"] - SPEED_MARGIN_S)
            hi = bisect.bisect_right(times, op["end"] + SPEED_MARGIN_S)
            near = speed[lo:hi] or speed
            factor = statistics.fmean(REFERENCE_S / k for _, k in near)
            out[-1].append(op["seconds"] * factor)
    return out


def end_to_end(workload, result, setup):
    """{metric: (value, sample count)} from an untraced run.

    The machine's speed swings by up to 1.6x in phases of a second to over
    a minute (README, Steadiness).  So the time metrics are in seconds at
    reference speed (``at_reference_speed``), each the median over the
    complete passes.  ``wall_s`` is a pass's time with its probes left
    out; a per-unit metric is the time of its parts' operations in a pass
    over the units they do."""
    scaled = at_reference_speed(result["passes"], result["speed"])
    passes = [(p["ops"], times) for p, times in zip(result["passes"], scaled)
              if p["complete"]]
    metrics = {"setup_s": (statistics.median(setup), len(setup)),
               "wall_s": (statistics.median(
                   sum(t for op, t in zip(ops, times) if not op["probe"])
                   for ops, times in passes), len(passes)),
               "peak_rss_mb": (result["peak_rss_mb"], 1)}
    for name, parts in workload.parts.items():
        units = sum(op["units"] for op in passes[0][0] if op["part"] in parts)
        metrics[name] = (statistics.median(
            sum(t for op, t in zip(ops, times) if op["part"] in parts) / units
            for ops, times in passes), len(passes))
    return metrics


def machine_speed(result):
    """(median reference time, median pass time without probes): the
    machine's speed during the run, and what the passes took as measured."""
    refs = [k for _, k in result["speed"]]
    raw = [sum(op["seconds"] for op in p["ops"] if not op["probe"])
           for p in result["passes"] if p["complete"]]
    return statistics.median(refs), statistics.median(raw)


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "cmdual" / "__init__.py").is_file():
            raise BenchError(f"no cmdual sources under {ROOT / 'src'}")
    except (OSError, ValueError, BenchError) as exc:
        print(f"bench: cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    sys.path.insert(0, str(BENCH))
    import inventory
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    OUT.mkdir(exist_ok=True)
    try:
        run_child([sys.executable, "-m", "compileall", "-q", "src/cmdual",
                   "bench"], env, 120)
        # set-up is an end-to-end metric; the traced run needs one sample
        setup = [worker(args, env, deadline, True)["setup_s"]
                 for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        result = worker(args, env, deadline, False)
        setup.append(result["setup_s"])
        layers = (inventory.import_breakdown(env, ROOT) if args.trace
                  else {})
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    failures = {name: f for name, f in outcomes(result).items() if f}
    probes = {op["name"] for op in ops_of(result) if op["probe"]}
    attempted = len(outcomes(result))
    mismatched = result.get("mismatched", [])
    correct = not mismatched and failures.keys() <= probes
    lines = inventory.source_lines(ROOT / "src")
    facts = inventory.machine()

    why = next((w["why"] for w in spec["workloads"]
                if w["name"] == args.workload), "not in BENCHMARK.json")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}: {why}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("source (newlines per src/cmdual/*.py, as wc -l counts) "
          + " ".join(f"{k[4:-6]}={v}" for k, v in lines.items()))
    if args.trace:
        layers.update(result["layers"])
        layers.update(lines)
        wanted = spec["per_layer"]
        values = {m["name"]: layers[m["name"]] for m in wanted}
        print(f"trace file {result['trace_file']}; traced pass "
              f"{result['traced']['wall_s']:.3f} s, overhead "
              f"{layers['trace.overhead_s']:.3f} s")
        if mismatched:
            print("traced outputs differ from untraced ones: "
                  + ", ".join(mismatched))
        if result["missing"]:
            print("not in the program, so not traced: "
                  + ", ".join(result["missing"]))
    else:
        measured = end_to_end(workload, result, setup)
        wanted = spec["end_to_end"]
        values = {m["name"]: measured[m["name"]][0] for m in wanted}
        for m in wanted:
            value, count = measured[m["name"]]
            print(f"{m['name']} {value:.6g} {m['unit']} (n={count})")
        ref, raw = machine_speed(result)
        print(f"reference kernel {ref * 1e3:.4g} ms (REFERENCE_S "
              f"{REFERENCE_S * 1e3:g} ms); wall_s as measured "
              f"{raw:.6g} s")
        for alias, unit, source, invert in workload.aliases:
            value, count = measured[source]
            print(f"{alias} {1.0 / value if invert else value:.6g} {unit} "
                  f"(n={count})")
    print(f"failed_ratio {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted} operations)")
    for name, failure in sorted(failures.items()):
        print(f"  {'probe' if name in probes else 'FAILED'} {name}: {failure}")

    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"machine": facts, "source": lines, "setup": setup,
                    "result": result, "metrics": values}, indent=1))
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
