"""Static facts printed with every result: source size and the machine.

Also the start-up breakdown of the traced run, parsed from
``python -X importtime``.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

# modules reported as cli.import.<m>_s, see import_breakdown
IMPORT_BREAKDOWN = ("cmdual.dominance", "cmdual.counterexamples",
                    "cmdual.solver", "scipy.stats", "scipy.integrate",
                    "scipy.optimize")

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def source_lines(src: Path) -> dict:
    """Physical lines (newline characters, as ``wc -l`` counts them) of each
    module under src/cmdual, as src.<module>.lines and src.total.lines."""
    out = {}
    for path in sorted((src / "cmdual").glob("*.py")):
        out[f"src.{path.stem}.lines"] = path.read_bytes().count(b"\n")
    out["src.total.lines"] = sum(out.values())
    return out


def machine() -> dict:
    import importlib.metadata as md

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions}


def parse_importtime(text: str) -> tuple[dict, dict]:
    """(self, cumulative) seconds per module from ``-X importtime`` output.

    A module is listed once, where it was first imported; its cumulative
    time covers everything it pulled in that was not loaded yet.
    """
    own, cumulative = {}, {}
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            own[match.group(3)] = int(match.group(1)) * 1e-6
            cumulative[match.group(3)] = int(match.group(2)) * 1e-6
    return own, cumulative


def import_breakdown(env: dict, cwd: Path) -> dict:
    """cli.import_s and cli.import.<m>_s from a fresh interpreter.

    For a cmdual module <m>_s is its cumulative time.  scipy loads its
    subpackages lazily and importtime then lists no line for the package
    itself, so for scipy.* it is the self time of the package's own modules
    (the package and its submodules), without what they pull in from
    elsewhere.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import cmdual.cli"], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    own, cumulative = parse_importtime(proc.stderr)
    out = {"cli.import_s": cumulative["cmdual.cli"]}
    for name in IMPORT_BREAKDOWN:
        out[f"cli.import.{name}_s"] = (
            cumulative.get(name, 0.0) if name.startswith("cmdual.") else
            sum(t for m, t in own.items()
                if m == name or m.startswith(name + ".")))
    return out
