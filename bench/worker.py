"""One benchmark process: start-up, inputs, then the workload's passes.

Started by run.py in a fresh interpreter.  It imports ``cmdual.cli`` (which
pulls in every module), builds the workload's inputs from the seed and
reports its set-up time, measured from the launcher's spawn time.  Unless
``--setup-only`` is given it then runs the workload and writes a JSON
result file for the launcher.

Untraced (``--trace 0``): one full pass of the operation list, probes
included, then passes of the timed operations (probes left out) back to
back until the next operation would end past ``--seconds``; the last of
these passes may stop part-way.  Meanwhile a timer runs a short
reference kernel 20 times a second to sample the machine's speed; its
time is taken off the operations'.
Traced (``--trace 1``): one untraced pass, then the same operations with
the tracer's wrappers installed; both passes must give identical outputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_WARMUP = 20
SAMPLE_INTERVAL_S = 0.05


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="launcher's time.monotonic() when it spawned us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    return ap.parse_args(argv)


def canonical(value):
    """Output in a comparable form: floats by repr, numpy scalars as floats."""
    return json.loads(json.dumps(value, sort_keys=True, default=float))


def reference_kernel():
    """Fixed work of the program's own kind, interpreter loops and small
    numpy arrays, whose time follows the machine's speed of the moment."""
    import numpy as np

    total = 0
    for i in range(3000):
        total += i * i % 7
    a = np.arange(64.0)
    for _ in range(30):
        a = np.sqrt(a + 1.0)
    return total + float(a[0])


class SpeedSampler:
    """Times the reference kernel every ``interval`` seconds, from a
    SIGALRM timer, so that the machine's speed is sampled during long
    operations as well as between short ones.

    The handler runs in the main thread between bytecodes.  ``spent`` adds
    up the time spent in it, which run_pass takes off the operations'
    times; ``samples`` holds (perf_counter time, kernel seconds)."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a late tick while the kernel runs: skip it
            return
        self._busy = True
        entered = time.perf_counter()
        reference_kernel()
        done = time.perf_counter()
        self.samples.append((entered, done - entered))
        self.spent += time.perf_counter() - entered
        self._busy = False

    def __enter__(self):
        for _ in range(REFERENCE_WARMUP):
            reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class _NoSampler:
    spent = 0.0


def run_pass(ops, tracer=None, pass_index=0, deadline=None, estimate=None,
             sampler=_NoSampler):
    """Run every operation once; returns the pass's wall time and one
    record per operation.  With a ``deadline`` (a perf_counter time) the
    pass stops before an operation whose last time, from ``estimate``,
    would end past it; ``complete`` says whether every operation ran.
    An operation's ``seconds`` leave out the ``sampler``'s time in it;
    ``start`` and ``end`` place it among the sampler's samples."""
    start = time.perf_counter()
    records = []
    parent = tracer.begin_op(f"pass[{pass_index}]") if tracer else None
    for op in ops:
        if (deadline is not None
                and time.perf_counter() + estimate[op.name] > deadline):
            break
        span = tracer.begin_op(op.name, parent) if tracer else None
        spent = sampler.spent
        t0 = time.perf_counter()
        try:
            out, failure = canonical(op.run()), None
        except Exception as exc:  # an escaping exception fails the operation
            out, failure = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        seconds = t1 - t0 - (sampler.spent - spent)
        if tracer:
            tracer.end_op(span)
        if failure is None:
            try:
                failure = op.check(out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                failure = f"unreadable output: {type(exc).__name__}: {exc}"
        records.append({"name": op.name, "part": op.part, "units": op.units,
                        "probe": op.probe, "seconds": seconds,
                        "start": t0, "end": t1, "output": out,
                        "failure": failure})
    if tracer:
        tracer.end_op(parent)
    return {"wall_s": time.perf_counter() - start, "ops": records,
            "complete": len(records) == len(ops)}


def main(argv=None):
    args = parse_args(argv)
    import cmdual.cli  # noqa: F401  (start-up: every module loads here)
    import cmdual

    src = (ROOT / "src").resolve()
    if Path(cmdual.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cmdual imported from {cmdual.__file__}, not {src}")

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = workloads.workdir_for(ROOT, args.workload, args.seed)
    try:
        inputs = workload.build_inputs(args.seed)
        ops = workload.make_ops(inputs, workdir)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(run_workload(args, workload, inputs, ops, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))


def run_workload(args, workload, inputs, ops, workdir):
    start = time.perf_counter()
    if args.trace:
        # warnings are counted per category in the traced pass only
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            passes = [run_pass(ops)]
            traced = run_traced(args, workload, inputs, workdir, caught,
                                passes[0])
    else:
        with SpeedSampler(SAMPLE_INTERVAL_S) as sampler:
            passes = [run_pass(ops, sampler=sampler)]
            # probes test a known defect once; timing needs no repeats
            timed = [op for op in ops if not op.probe]
            estimate = {r["name"]: r["seconds"] for r in passes[0]["ops"]}
            deadline = start + args.seconds
            while timed and passes[-1]["complete"]:
                run = run_pass(timed, pass_index=len(passes),
                               deadline=deadline, estimate=estimate,
                               sampler=sampler)
                estimate.update((r["name"], r["seconds"]) for r in run["ops"])
                if run["ops"]:
                    # outputs are checked; keeping them would grow the heap
                    # with the number of passes
                    passes.append(strip(run))
                if not run["complete"]:
                    break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"passes": [strip(p) for p in passes],
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if not args.trace:
        result["speed"] = sampler.samples
    if args.trace:
        result.update(traced)
    return result


def strip(run):
    return dict(run, ops=[{k: v for k, v in r.items() if k != "output"}
                          for r in run["ops"]])


def run_traced(args, workload, inputs, workdir, caught, reference):
    """Traced pass after the untraced ``reference`` pass, and the
    comparison of their outputs."""
    import tracer as tracing

    traced_ops = workload.make_ops(inputs, workdir)
    tracer = tracing.Tracer()
    caught.clear()
    tracer.install()
    try:
        traced = run_pass(traced_ops, tracer)
    finally:
        tracer.uninstall()
    warning_counts = Counter(w.category.__name__ for w in caught)

    mismatched = [t["name"] for r, t in zip(reference["ops"], traced["ops"])
                  if r["output"] != t["output"]]
    layers = tracing.layer_metrics(tracer, warning_counts)
    layers["trace.overhead_s"] = traced["wall_s"] - reference["wall_s"]
    layers["solver.quad_nodes"] = sum(quad_nodes(r) for r in traced["ops"])
    spans_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps({
        "spans": tracer.spans, "missing": tracer.missing,
        "aggregates": {k: {"calls": s.calls, "incl_s": s.incl_s,
                           "self_s": s.self_s,
                           "exceptions": dict(s.exceptions)}
                       for k, s in tracer.stats.items()},
    }))
    return {"traced": strip(traced), "mismatched": mismatched,
            "missing": tracer.missing,
            "layers": layers, "trace_file": str(spans_path.relative_to(ROOT))}


def quad_nodes(record):
    """Outcome count of the optimizer_terminal StateTables an operation read:
    the in-process optimizer operations, and the rows the CLI's
    derivatives subcommand prints (one per outcome)."""
    out = record["output"]
    if not out or record["failure"]:
        return 0
    if record["name"].startswith("optimizer."):
        return len(out["deflator"])
    if record["name"] == "derivatives.log":
        return len(json.loads(out["stdout"])["rows"])
    return 0


if __name__ == "__main__":
    main()
