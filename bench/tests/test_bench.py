"""Self-tests of the benchmark: seeded inputs, tracing, oracles, launcher.

Run from the repository root:  python -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import inventory
import oracles
import run
import tracer as tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


# -- inputs -------------------------------------------------------------------


def inputs_digest(name, seed):
    return json.dumps(workloads.WORKLOADS[name].build_inputs(seed),
                      sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert inputs_digest(name, 7) == inputs_digest(name, 7)


@pytest.mark.parametrize("name", ["cli_quick", "lognormal_market",
                                  "discrete_markets"])
def test_other_seed_other_inputs(name):
    assert inputs_digest(name, 7) != inputs_digest(name, 8)


def test_cex_repro_runs_the_cli_defaults_for_every_seed():
    assert (inputs_digest("cex_repro", 7)
            == inputs_digest("cex_repro", 8))


# -- tracing ------------------------------------------------------------------


def _small_ops(tmp_path):
    """A few operations of each in-process kind, cheap enough for a test."""
    inputs = workloads.discrete_inputs(3)
    discrete = workloads.discrete_ops(inputs, tmp_path)
    pick = [op for op in discrete
            if op.name in ("sd_equiv[0]", "sd_equiv[1]", "shifted_pair[0]",
                           "probe_c.scale.random[0]")]
    lognormal = workloads.lognormal_ops(workloads.lognormal_inputs(3), tmp_path)
    pick += [op for op in lognormal
             if op.name.partition("#")[0].endswith(".k0.25")
             and op.name.partition("#")[2] in ("", "0")]
    pick += [op for op in lognormal if op.name.startswith("probe_b")]
    return pick


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    plain = worker.run_pass(_small_ops(tmp))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = worker.run_pass(_small_ops(tmp), tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def test_traced_and_untraced_outputs_identical(traced_run):
    plain, traced, _ = traced_run
    assert [r["name"] for r in plain["ops"]] == [r["name"] for r in traced["ops"]]
    for a, b in zip(plain["ops"], traced["ops"]):
        assert a["output"] == b["output"], a["name"]
        assert a["failure"] == b["failure"], a["name"]


def test_self_time_within_inclusive_time(traced_run):
    _, _, tracer = traced_run
    for key, stat in tracer.stats.items():
        assert stat.calls >= 0
        assert -1e-9 <= stat.self_s <= stat.incl_s + 1e-9, key
    # the small run touched every layer it should have
    for key in ("solver.sd_equivalence_audit", "dominance.dominates_n",
                "solver.ValueFunctionPair.init", "measures.laplace_moment",
                "duality.invert_decreasing", "partitions.multiplicity_partitions"):
        assert tracer.stats[key].calls > 0, key


def test_tracer_uninstall_restores_the_program(traced_run):
    import cmdual.duality
    import cmdual.measures
    import cmdual.solver

    assert not hasattr(cmdual.measures.laplace_moment, "__wrapped__")
    assert cmdual.duality.laplace_moment is cmdual.measures.laplace_moment
    assert not hasattr(cmdual.solver.ValueFunctionPair.__init__, "__wrapped__")


def test_missing_targets_are_listed_not_fatal(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "solver.gone",
                        ("cmdual.solver", "ValueFunctionPair.gone"))
    monkeypatch.setitem(tracing.TARGETS, "measures.gone",
                        ("cmdual.measures", "gone"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["solver.gone", "measures.gone"]
    assert tracer.stats["solver.gone"].calls == 0


def test_probe_b_failure_is_counted_as_an_exception(traced_run):
    _, traced, tracer = traced_run
    probe = next(r for r in traced["ops"] if r["name"].startswith("probe_b"))
    if probe["failure"]:
        assert sum(tracer.errors.values()) >= 1


def test_cli_replay_matches_subprocess(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    inputs = workloads.cli_quick_inputs(5)
    sub = workloads.cli_quick_ops(inputs, tmp_path, replay=False)
    replay = workloads.cli_quick_ops(inputs, tmp_path)
    names = {"dominance.order2", "sd-equiv"}
    a = worker.run_pass([op for op in sub if op.name in names])
    b = worker.run_pass([op for op in replay if op.name in names])
    for x, y in zip(a["ops"], b["ops"]):
        assert x["output"] == y["output"]
        assert x["failure"] is None and y["failure"] is None


def test_escaping_exception_fails_the_operation():
    def boom():
        raise ZeroDivisionError("x")

    ops = [workloads.Op("boom", "other", boom, lambda out: None),
           workloads.Op("wrong", "other", lambda: 1.0,
                        lambda out: None if out == 2.0 else "want 2")]
    run = worker.run_pass(ops)
    assert [r["failure"] is not None for r in run["ops"]] == [True, True]


def test_pass_stops_before_an_operation_past_the_deadline():
    ops = [workloads.Op(f"op{i}", "other", lambda: 0.0, lambda out: None)
           for i in range(3)]
    estimate = {"op0": 0.0, "op1": 0.0, "op2": 3600.0}
    cut = worker.run_pass(ops, deadline=time.perf_counter() + 60.0,
                          estimate=estimate)
    assert [r["name"] for r in cut["ops"]] == ["op0", "op1"]
    assert not cut["complete"]
    assert worker.run_pass(ops)["complete"]


# -- end-to-end arithmetic ----------------------------------------------------


def _record(name, part, seconds, failure=None, units=1, probe=False):
    return {"name": name, "part": part, "seconds": seconds, "units": units,
            "probe": probe, "failure": failure}


def _passes(slowdowns):
    """One pass per slowdown k of the machine: two markets (1 s and 3 s at
    reference speed), a verdict of 2 units (1 s), and a 5-s probe in the
    first pass only.  Returns the passes and the speed samples, one every
    0.05 s, of a kernel that slows down with them."""
    passes, speed, now = [], [], 0.0
    for i, k in enumerate(slowdowns):
        ops = [_record("m0", "market", 1.0), _record("m1", "market", 3.0),
               _record("v0", "verdict", 1.0, units=2)]
        if i == 0:
            ops.append(_record("p0", "probe", 5.0, "broken", probe=True))
        for op in ops:
            op["seconds"] *= k
            op["start"], op["end"] = now, now + op["seconds"]
            while now < op["end"]:
                speed.append((now, run.REFERENCE_S * k))
                now += 0.05
        passes.append({"ops": ops, "complete": True})
    return passes, speed


def test_time_metrics_are_seconds_at_reference_speed():
    spec = workloads.WORKLOADS["discrete_markets"]
    passes, speed = _passes([1.5, 1.5, 2.0, 1.0, 1.5])
    result = {"passes": passes, "speed": speed, "peak_rss_mb": 100.0}
    metrics = run.end_to_end(spec, result, [1.0, 2.0, 3.0])
    assert metrics["setup_s"] == (2.0, 3)
    assert metrics["wall_s"] == (pytest.approx(5.0), 5)    # probe left out
    assert metrics["primary_s"][0] == pytest.approx(2.0)   # 4 s / 2 markets
    assert metrics["secondary_s"][0] == pytest.approx(0.5)  # 1 s / 2 units
    # an operation slower while the machine is not counts as slower, and
    # the median over passes sets the one pass aside
    passes[2]["ops"][1]["seconds"] *= 10.0
    assert run.end_to_end(spec, result, [1.0])["wall_s"][0] == pytest.approx(5.0)
    scaled = run.at_reference_speed(passes, speed)
    assert scaled[2][1] == pytest.approx(30.0, rel=0.02)


def test_sampler_time_is_taken_off_the_operations():
    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        return 0

    ops = [workloads.Op("busy", "other", busy, lambda out: None)]
    with worker.SpeedSampler(0.01) as sampler:
        record = worker.run_pass(ops, sampler=sampler)["ops"][0]
    assert len(sampler.samples) >= 5
    taken = sum(k for _, k in sampler.samples)
    assert record["seconds"] == pytest.approx(0.3 - taken, abs=0.02)
    assert record["end"] - record["start"] >= 0.3


def test_failures_count_each_operation_once():
    for count in (1, 4):
        result = {"passes": _passes([1.0] * count)[0]}
        result["passes"][-1]["ops"][0]["failure"] = "wrong"
        outcomes = run.outcomes(result)
        assert len(outcomes) == 4
        assert sorted(k for k, v in outcomes.items() if v) == ["m0", "p0"]


# -- oracles reject wrong answers ---------------------------------------------


def _power_row(form, x, order=4):
    y = form.u(1, x)
    return ([x, form.u(0, x)] + [form.u(k, x) for k in range(1, order + 1)]
            + [y, form.v(0, y)] + [form.v(k, y) for k in range(1, order + 1)])


def _wrong(row, i, factor=1.0 + 1e-3):
    row = list(row)
    row[i] *= factor
    return row


def test_solve_row_oracles():
    form = oracles.PowerClosedForm(-1.3, 0.5)
    row = _power_row(form, 1.2)
    assert oracles.check_solve_row(row, 4, form) is None
    assert oracles.check_solve_row(row, 4) is None
    for i in range(1, len(row)):
        assert oracles.check_solve_row(_wrong(row, i), 4, form), i
    assert oracles.check_rows([row, _wrong(row, 2)], 4, form)
    # column identities alone catch a wrong derivative
    assert oracles.check_solve_row(_wrong(row, 4), 4)
    assert oracles.check_solve_row(row[:-1], 4)
    assert oracles.check_solve_row(_wrong(row, 3, math.nan), 4)


def test_mixture_closed_form_oracle():
    form = oracles.MixtureClosedForm([1.0, 2.0], [1.5, 0.5], [0.5, 1.5],
                                     [0.4, 0.6])
    # build a row from the closed form: pick y, then x = -v'(y)
    y = 0.7
    v = [form.v(k, y) for k in range(5)]
    x = -v[1]
    u2 = -1.0 / v[2]
    u3 = -v[3] / v[2] ** 3
    u4 = v[4] / v[2] ** 4 - 3.0 * v[3] ** 2 / v[2] ** 5
    row = [x, v[0] + x * y, y, u2, u3, u4, y, *v]
    assert oracles.check_solve_row(row, 4, form) is None
    assert oracles.check_solve_row(_wrong(row, 8), 4, form)
    assert oracles.check_solve_row(_wrong(row, 6), 4, form)


def test_terminal_table_oracle():
    kappa, x = 0.25, 1.3
    t, w = np.polynomial.hermite.hermgauss(64)
    deflator = np.exp(-kappa / 2 + math.sqrt(kappa) * math.sqrt(2.0) * t)
    weights = w / math.sqrt(math.pi)
    for form in (oracles.PowerClosedForm(-0.7, kappa),
                 oracles.LogClosedForm(kappa)):
        values = [form.terminal(x, d) for d in deflator]
        derivs = [[v / x for v in values], [0.0] * len(values)]
        assert oracles.check_terminal_table(x, deflator, weights, values,
                                            derivs, form) is None
        assert oracles.check_terminal_table(x, deflator, weights, values,
                                            derivs) is None
        bad = list(values)
        bad[len(bad) // 2] *= 1.01  # a node with weight
        assert oracles.check_terminal_table(x, deflator, weights, bad, derivs,
                                            form)
        assert oracles.check_terminal_table(x, deflator, weights, bad, derivs)
        assert oracles.check_terminal_table(
            x, deflator, weights, values, [derivs[0], [1e-3] * len(values)])


def test_widder_oracle():
    form = oracles.PowerClosedForm(-1.0, 1.0)
    mass = form.widder(1.5, 8)
    assert oracles.check_widder(mass, 1.5, 8, form) is None
    assert oracles.check_widder(mass * 1.001, 1.5, 8, form)
    assert oracles.check_widder(2.0, 2.0, 8, oracles.LogClosedForm(1.0)) is None
    assert oracles.check_widder(0.5, 1.0, 8) is None
    assert oracles.check_widder(1.5, 1.0, 8)
    assert oracles.check_widder(math.nan, 1.0, 8)


def test_rra_identity_oracle():
    x = 0.8
    y = (-1.0 + math.sqrt(1.0 + 4.0 / x)) / 2.0  # 1/(y (y+1)) = x
    second = 1.0 / (-(2 * y + 1) / (y * (y + 1)) ** 2)
    assert oracles.check_rra_identity(x, y, second) is None
    assert oracles.check_rra_identity(x, y, second * 1.001)


def test_verdict_oracles():
    assert oracles.check_verdict("dominates", "dominates") is None
    assert oracles.check_verdict("violated", "dominates")
    assert oracles.check_nesting({"2": "dominates", "3": "dominates",
                                  "inf": "dominates"}) is None
    assert oracles.check_nesting({"2": "violated", "3": "dominates"}) is None
    assert oracles.check_nesting({"2": "dominates", "3": "violated"})
    assert oracles.check_nesting({2: "dominates", "inf": "violated"})
    assert oracles.check_scale_invariance({"8": "dominates"},
                                          {"8": "dominates"}) is None
    assert oracles.check_scale_invariance({"8": "dominates"}, {"8": "violated"})
    assert oracles.check_equivalence({"maximal_exists": True,
                                      "all_agree": False})
    assert oracles.check_equivalence({"maximal_exists": False,
                                      "all_agree": False}) is None


def test_counterexample_and_probe_oracles():
    good2 = {"gap": 0.1, "margin": 0.01}
    assert oracles.check_cex2(good2) is None
    assert oracles.check_cex2(dict(good2, gap=-0.1))
    assert oracles.check_cex2(dict(good2, margin=0.0))
    good1 = {"diverges": True, "finite_orders_at_1": {"1": 1.0, "2": 2.0}}
    assert oracles.check_cex1(good1) is None
    assert oracles.check_cex1(dict(good1, diverges=False))
    assert oracles.check_laplace_probe([[1.0, 0.5]]) is None
    assert oracles.check_laplace_probe([[1.0, math.nan]])
    assert oracles.check_laplace_probe([[1.0, 1.5]])


def test_cli_oracles(tmp_path):
    verdict = json.dumps({"verdict": "dominates", "order": 2, "witness": None})
    assert oracles.check_cli("dominance", 0, verdict) is None
    assert oracles.check_cli("dominance", 1, verdict)
    assert oracles.check_cli("solve", 0, "not json")
    ops = workloads.cli_quick_ops(workloads.cli_quick_inputs(1), tmp_path)
    first, repeat = ops[0], ops[-1]
    assert repeat.name == first.name + ".repeat"
    out = {"code": 0, "stdout": verdict}
    assert first.check(out) is None
    assert repeat.check(dict(out, stdout=verdict + " ")) is not None
    assert repeat.check(out) is None


# -- inventory and launcher ---------------------------------------------------


def test_importtime_parse():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       302 |        302 |   scipy.stats._x\n"
            "import time:      2403 |    1481842 | cmdual.cli\n")
    own, cumulative = inventory.parse_importtime(text)
    assert cumulative["cmdual.cli"] == pytest.approx(1.481842)
    assert own["scipy.stats._x"] == pytest.approx(302e-6)


def test_source_lines_count_newlines(tmp_path):
    pkg = tmp_path / "cmdual"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")
    assert inventory.source_lines(tmp_path) == {
        "src.a.lines": 2, "src.b.lines": 0, "src.total.lines": 2}


def test_launcher_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "cli_quick", "--seed", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_metrics_the_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for w in workloads.WORKLOADS.values():
        emitted = {"setup_s", "wall_s", "peak_rss_mb", *w.parts}
        assert emitted == {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    names = set(tracing.layer_metrics(tracing.Tracer(), Counter()))
    names |= set(inventory.source_lines(ROOT / "src"))
    names |= {"cli.import_s", "trace.overhead_s", "solver.quad_nodes"}
    names |= {f"cli.import.{m}_s" for m in inventory.IMPORT_BREAKDOWN}
    assert layer_names <= names
