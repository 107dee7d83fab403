#!/usr/bin/env python3
"""Wall time of each ``cmdual`` subcommand as a fresh subprocess.

Every command runs as ``python -m cmdual.cli ...`` (and ``import`` as
``python -c "import cmdual.cli"``), so a time covers interpreter start,
imports and the work itself.  ``import.floor`` times the import of numpy
and the stdlib modules cmdual uses: the start-up no command can go below.
Inputs are fixed and written to a temporary directory.  Given several
source trees (``--src LABEL=PATH``, repeatable), each round times every
command once per tree, rotating which tree goes first, and the output
records whether all trees printed the same stdout, stderr and exit code.
Each round and tree also runs ``import cmdual.cli`` once under ``-X
importtime``; the output gives the median cumulative seconds of the main
modules it loads.  Before the rounds, each row runs once more per tree,
untimed, under ``-X importtime``, and the output lists the scipy
subpackages that row loads (none for a scipy-free row).  Each tree is
byte-compiled first, so no row pays for compiling a module whose cached
bytecode is stale (with PYTHONDONTWRITEBYTECODE set it would, every run).

    python scripts/time_cli.py --runs 12 --json timings.json
    python scripts/time_cli.py --src parent=../old/src --src change=src
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

INPUTS = {
    "F": {"kind": "discrete", "x": [1.0, 2.0, 3.0], "p": [0.2, 0.5, 0.3]},
    "G": {"kind": "discrete", "x": [0.5, 1.5, 2.5], "p": [0.2, 0.5, 0.3]},
    # Gspread pulled halfway to its mean 1.76: violated at order 1 and
    # dominant from order 2 on, so at order 8 the intervals where
    # F_1 - G_1 changes sign are still searched
    "Fpull": {"kind": "discrete", "x": [1.13, 1.63, 2.13, 2.43],
              "p": [0.2, 0.4, 0.3, 0.1]},
    "Gspread": {"kind": "discrete", "x": [0.5, 1.5, 2.5, 3.1],
                "p": [0.2, 0.4, 0.3, 0.1]},
    # a true order-2 violation of 1e-12 at 0.005001, below the old absolute
    # tie floor of 1e-10: the discrete tie must be relative to be seen
    "Ftie": {"kind": "discrete", "x": [0.005, 0.1], "p": [1e-6, 0.999999]},
    "Gtie": {"kind": "discrete", "x": [0.005001, 0.01], "p": [0.5, 0.5]},
    # E F is 0.12 below E G, but the Laplace transforms cross only below
    # z = 1e-4, the grid's lower end
    "Frange": {"kind": "discrete", "x": [0.0, 1.749338935139],
               "p": [0.6568808150019195, 0.34311918499808053]},
    "Grange": {"kind": "discrete", "x": [0.0, 4909.782594590136],
               "p": [0.9998527513563573, 0.00014724864364278138]},
    # s_F < s_G and E F > E G: dominance from order 2 on (Levy 1973)
    "LNF": {"kind": "lognormal", "m": 0.0, "s2": 0.1},
    "LNG": {"kind": "lognormal", "m": -0.2, "s2": 0.4},
    # s_F = 0.408 > s_G = 0.403: violated near 1.68e-4, where F_2 and G_2
    # are of order 1e-87, far below the grid's tolerance
    "LNhidF": {"kind": "lognormal", "m": 0.0, "s2": 0.408**2},
    "LNhidG": {"kind": "lognormal", "m": -0.098, "s2": 0.403**2},
    # s_F = 0.403 < s_G = 0.408: violated at order 1 only past the CDF
    # crossing y* ~ 2694, where both CDFs round to 1
    "LNtailF": {"kind": "lognormal", "m": 0.0, "s2": 0.403**2},
    "LNtailG": {"kind": "lognormal", "m": -0.098, "s2": 0.408**2},
    "log": {"kind": "log"},
    "power": {"kind": "power", "p": -1.0},
    "mixture": {"kind": "finite_order", "n": 4,
                "mixture": {"z": [1.0, 2.0], "c": [1.0, 0.5]}},
    # footnote k = 1: the measure-backed utility, whose every dual
    # derivative is a Laplace moment on the outcome nodes
    "footnote": {"kind": "measure", "anchor": [1.0, 0.0], "measure": {
        "atoms": [],
        "pieces": [{"c": 1.0, "a": 0.0, "b": 0.0, "lo": 0.0, "hi": "inf"},
                   {"c": -1.0, "a": 0.0, "b": 1.0, "lo": 0.0, "hi": "inf"}]}},
    # footnote k = 2: three pieces, -1 + z + exp(-z)
    "footnote2": {"kind": "measure", "anchor": [1.0, 0.0], "measure": {
        "atoms": [],
        "pieces": [{"c": -1.0, "a": 0.0, "b": 0.0, "lo": 0.0, "hi": "inf"},
                   {"c": 1.0, "a": 1.0, "b": 0.0, "lo": 0.0, "hi": "inf"},
                   {"c": 1.0, "a": 0.0, "b": 1.0, "lo": 0.0, "hi": "inf"}]}},
    "kappa": {"kappa": 0.25},
    "kappa1": {"kappa": 1},
    "kappa4": {"kappa": 4},
    # the footnote's v''' at y = 1 exceeds the double range here
    "kappa36": {"kappa": 36},
    "deflator": {"deflator": {"kind": "discrete", "x": [0.8, 1.0, 1.3],
                              "p": [0.3, 0.4, 0.3]}},
    "market": {"probs": [0.3, 0.3, 0.2, 0.2], "payoffs": [0.5, 0.8, 1.5, 2.0]},
    # 16 deflator vertices, so 256 candidate-vertex pairs per verdict order
    "market6": {"probs": [0.2, 0.15, 0.25, 0.1, 0.2, 0.1],
                "payoffs": [0.5, 0.8, 0.9, 1.5, 2.0, 1.2]},
    # 10 states, the most the audit takes: 36 vertices, 1,296 pairs
    "market10": {"probs": [0.05, 0.08, 0.12, 0.1, 0.15, 0.07, 0.13, 0.09,
                           0.11, 0.1],
                 "payoffs": [0.5, 1.4, 0.8, 2.1, 0.35, 1.2, 0.9, 1.75, 0.6,
                             2.5]},
    # a state of weight 1e-11, whose deflator values reach 5e10
    "market_tiny": {"probs": [1e-11, 0.499999999995, 0.499999999995],
                    "payoffs": [0.5, 0.9, 1.5]},
}

# name -> argv; an argv entry naming an INPUTS key is replaced by its file
COMMANDS = {
    "dominance.order2": ["dominance", "F", "G", "--order", "2"],
    # F dominates G at order 1, so no interval slope changes sign
    "dominance.order8": ["dominance", "F", "G", "--order", "8"],
    "dominance.inf": ["dominance", "F", "G", "--order", "inf"],
    "dominance.order8.spread": ["dominance", "Fpull", "Gspread", "--order",
                                "8"],
    "dominance.inf.spread": ["dominance", "Fpull", "Gspread", "--order",
                             "inf"],
    "dominance.tie": ["dominance", "Ftie", "Gtie", "--order", "2"],
    "dominance.inf.range": ["dominance", "Frange", "Grange", "--order", "inf"],
    "dominance.lognormal": ["dominance", "LNF", "LNG", "--order", "2"],
    "dominance.lognormal.inf": ["dominance", "LNF", "LNG", "--order", "inf"],
    "dominance.lognormal.hidden": ["dominance", "LNhidF", "LNhidG",
                                   "--order", "2"],
    "dominance.lognormal.tail": ["dominance", "LNtailF", "LNtailG",
                                 "--order", "1"],
    "audit": ["audit", "F", "G"],
    "audit.lognormal": ["audit", "LNF", "LNG"],
    # G's smaller mean shows on the sampled functions, so this prints a
    # counterexample (F against G passes: its violation is too deep)
    "audit.lognormal.violated": ["audit", "LNhidG", "LNhidF", "--order", "2"],
    "solve.lognormal": ["solve", "--utility", "power", "--model", "kappa"],
    "solve.discrete": ["solve", "--utility", "mixture", "--model", "deflator"],
    "solve.footnote": ["solve", "--utility", "footnote", "--model", "kappa1"],
    # every dual order to 8 from the stacked fills at each grid point
    "solve.footnote.order8": ["solve", "--utility", "footnote", "--model",
                              "kappa1", "--order", "8"],
    "solve.footnote2": ["solve", "--utility", "footnote2", "--model",
                        "kappa1"],
    # failure paths: order 2 solves, order 4 needs v''' (exit 3)
    "solve.footnote.kappa36.order2": ["solve", "--utility", "footnote",
                                      "--model", "kappa36", "--order", "2"],
    "solve.footnote.kappa36.order4": ["solve", "--utility", "footnote",
                                      "--model", "kappa36", "--order", "4"],
    # u''' = 2/x**3 lies past the double range (exit 3)
    "solve.log.extreme": ["solve", "--utility", "log", "--model", "kappa",
                          "--grid", "1e-150:1e-149:2", "--order", "4",
                          "--out", "csv"],
    "derivatives.footnote": ["derivatives", "--utility", "footnote",
                             "--model", "kappa1", "--order", "4"],
    "derivatives": ["derivatives", "--utility", "log", "--model", "kappa"],
    # every optimizer order the CLI takes, each one series composition
    "derivatives.order8": ["derivatives", "--utility", "log", "--model",
                           "kappa", "--order", "8"],
    "invert": ["invert", "--utility", "log", "--model", "kappa", "--z", "1"],
    "invert.footnote": ["invert", "--utility", "footnote", "--model", "kappa1",
                        "--z", "1"],
    # v^(17) diverges at y = 8 (exit 3)
    "invert.log.kappa4.order16": ["invert", "--utility", "log", "--model",
                                  "kappa4", "--order", "16", "--z", "2"],
    "sd-equiv": ["sd-equiv", "--market", "market"],
    "sd-equiv.6": ["sd-equiv", "--market", "market6"],
    "sd-equiv.10": ["sd-equiv", "--market", "market10"],
    "sd-equiv.tiny": ["sd-equiv", "--market", "market_tiny"],
    "cex1.small": ["cex1", "--truncations", "1000,10000"],
    "cex1.default": ["cex1"],
    "cex2": ["cex2"],
    "solve.lognormal.csv": ["solve", "--utility", "power", "--model", "kappa",
                            "--out", "csv"],
    "derivatives.csv": ["derivatives", "--utility", "log", "--model", "kappa",
                        "--out", "csv"],
    "cex1.small.csv": ["cex1", "--truncations", "1000,10000", "--out", "csv"],
    "cex2.csv": ["cex2", "--out", "csv"],
    # input errors: exit 2 with nothing on stdout
    "error.order": ["solve", "--utility", "log", "--model", "deflator",
                    "--order", "9"],
    "error.eps": ["cex2", "--eps", "1e-2,nan"],
}

# name -> Python source run with -c
SCRIPTS = {
    "import.floor": "import numpy, argparse, json, dataclasses, functools, "
                    "itertools, typing",
    "import": "import cmdual.cli",
}

IMPORTTIME_MODULES = ("cmdual.cli", "cmdual.dominance", "cmdual.solver",
                      "cmdual.counterexamples", "scipy.special",
                      "scipy.integrate", "scipy.optimize", "scipy.stats")


def _env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CMDUAL_THREADS"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _run(argv, src: Path, cwd: Path):
    start = time.perf_counter()
    proc = subprocess.run(argv, env=_env(src), cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return time.perf_counter() - start, proc


def _summary(samples):
    q1, med, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                   if len(samples) > 1 else samples * 3)
    return {"median_s": med, "q1_s": q1, "q3_s": q3,
            "samples_s": [round(s, 4) for s in samples]}


def importtime(src: Path, cwd: Path) -> dict:
    """Seconds of IMPORTTIME_MODULES under ``import cmdual.cli``; a module
    that is not loaded is left out.

    A cmdual module gets its cumulative time.  scipy loads subpackages
    lazily, and importtime then lists no line for the subpackage itself,
    so a scipy.* entry is the self time of the subpackage's own modules.
    """
    _, proc = _run([sys.executable, "-X", "importtime", "-c",
                    "import cmdual.cli"], src, cwd)
    own, cumulative = {}, {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[0].isdigit():
            own[parts[2]] = int(parts[0]) * 1e-6
            cumulative[parts[2]] = int(parts[1]) * 1e-6
    out = {}
    for name in IMPORTTIME_MODULES:
        if name.startswith("cmdual."):
            if name in cumulative:
                out[name] = cumulative[name]
            continue
        mine = [t for m, t in own.items() if m == name or m.startswith(name + ".")]
        if mine:
            out[name] = sum(mine)
    return out


def scipy_packages(argv, src: Path, cwd: Path) -> list:
    """The public scipy subpackages (``scipy.special``, ...) that one
    untimed run of ``argv`` under ``-X importtime`` imports: ``["scipy"]``
    if it imports scipy's own modules alone, [] if no scipy module."""
    _, proc = _run([argv[0], "-X", "importtime", *argv[1:]], src, cwd)
    found = set()
    for line in proc.stderr.splitlines():
        name = line.rsplit("|", 1)[-1].strip().split(".")
        if line.startswith("import time:") and name[0] == "scipy":
            found.add(name[1] if len(name) > 1 else "")
    public = sorted(f"scipy.{p}" for p in found
                    if p and not p.startswith("_") and p != "version")
    return public or (["scipy"] if found else [])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", default=[],
                    help="LABEL=PATH of a source tree (default: this repo's src)")
    ap.add_argument("--runs", type=int, default=12)
    ap.add_argument("--json", default=None, help="write the results here")
    args = ap.parse_args()

    default = f"src={Path(__file__).resolve().parent.parent / 'src'}"
    trees = {label: Path(path).resolve() for label, path in
             (s.split("=", 1) for s in args.src or [default])}
    names = [*SCRIPTS, *COMMANDS]
    times = {label: {name: [] for name in names} for label in trees}
    outputs = {name: set() for name in names}
    imports = {label: {} for label in trees}
    for src in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                       check=True)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        files = {}
        for key, payload in INPUTS.items():
            files[key] = str(cwd / f"{key}.json")
            Path(files[key]).write_text(json.dumps(payload))
        labels = list(trees)
        argvs = {name: ([sys.executable, "-c", SCRIPTS[name]]
                        if name in SCRIPTS else
                        [sys.executable, "-m", "cmdual.cli",
                         *(files.get(a, a) for a in COMMANDS[name])])
                 for name in names}
        scipy = {label: {name: scipy_packages(argvs[name], src, cwd)
                         for name in names} for label, src in trees.items()}
        for run in range(args.runs):
            for name, argv in argvs.items():
                for k in range(len(labels)):
                    label = labels[(run + k) % len(labels)]
                    seconds, proc = _run(argv, trees[label], cwd)
                    times[label][name].append(seconds)
                    outputs[name].add((proc.returncode, proc.stdout,
                                       proc.stderr))
            for label, src in trees.items():
                for module, seconds in importtime(src, cwd).items():
                    imports[label].setdefault(module, []).append(seconds)
            print(f"round {run + 1}/{args.runs} done", file=sys.stderr)

    result = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "runs": args.runs,
        "sources": list(trees),
        "commands": {name: (["-c", SCRIPTS[name]] if name in SCRIPTS
                            else COMMANDS[name]) for name in names},
        "same_output": {name: len(seen) == 1 for name, seen in outputs.items()},
        "exit_codes": {name: sorted({code for code, *_ in seen})
                       for name, seen in outputs.items()},
        "timings": {label: {name: _summary(s) for name, s in per.items()}
                    for label, per in times.items()},
        "scipy_packages": scipy,
        "importtime_median_s": {
            label: {m: statistics.median(s) for m, s in per.items()}
            for label, per in imports.items()},
    }
    for label, per in result["timings"].items():
        for name, s in per.items():
            loaded = ", ".join(scipy[label][name]) or "no scipy"
            print(f"{label:>8} {name:<30} median {s['median_s']:.3f} s "
                  f"(quartiles {s['q1_s']:.3f}-{s['q3_s']:.3f}) {loaded}")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
