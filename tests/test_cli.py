"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cmdual
from cmdual.cli import _build_parser, main
from cmdual.duality import footnote_utility


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "delta1": write(tmp_path, "delta1.json",
                        {"kind": "discrete", "x": [1.0], "p": [1.0]}),
        "delta2": write(tmp_path, "delta2.json",
                        {"kind": "discrete", "x": [2.0], "p": [1.0]}),
        "unif": write(tmp_path, "unif.json",
                      {"kind": "discrete", "x": [0.0, 2.0], "p": [0.5, 0.5]}),
        "log": write(tmp_path, "log.json", {"kind": "log"}),
        "tmp": tmp_path,
    }


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_dominance_pass(files, capsys):
    code, out = run_cli(["dominance", "--order", "inf",
                         files["delta2"], files["delta1"]], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "dominates"


def test_dominance_violation_exit_code(files, capsys):
    code, out = run_cli(["dominance", "--order", "1",
                         files["delta1"], files["unif"]], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "violated"
    assert 1.0 <= payload["witness"] < 2.0


def test_audit_subcommand(files, capsys):
    code, out = run_cli(["audit", files["delta1"], files["unif"],
                         "--order", "2", "--family-size", "40"], capsys)
    assert code == 0
    assert json.loads(out)["tested"] == 40


def test_solve_csv_log_utility(files, capsys):
    code, out = run_cli([
        "solve", "--utility", files["log"], "--model", files["delta1"],
        "--order", "4", "--grid", "0.5:2:4", "--out", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 4
    iu1 = header.index("u_1")
    for row in rows:
        assert row[iu1] == pytest.approx(1.0 / row[0], rel=1e-9)


def test_solve_finite_order_mixture_on_discrete_deflator(files, tmp_path,
                                                        capsys):
    # V(y) = sum_j c_j exp(-z_j y), so v^(k)(y) = sum_i p_i sum_j
    # c_j (-z_j x_i)**k exp(-z_j y x_i) in closed form
    zs, cs = np.array([0.5, 1.5, 4.0]), np.array([1.0, 0.3, 0.2])
    xs, ps = np.array([0.4, 0.9, 1.7]), np.array([0.3, 0.5, 0.2])
    utility = write(tmp_path, "mix.json", {
        "kind": "finite_order", "n": 5,
        "mixture": {"z": zs.tolist(), "c": cs.tolist()}})
    model = write(tmp_path, "disc.json", {"kind": "discrete",
                                          "x": xs.tolist(), "p": ps.tolist()})
    code, out = run_cli(["solve", "--utility", utility, "--model", model,
                         "--order", "3", "--grid", "0.1:0.6:3"], capsys)
    assert code == 0
    payload = json.loads(out)
    cols = payload["columns"]

    def v(k, y):
        rates = np.multiply.outer(xs, zs)
        return float(ps @ ((-rates) ** k * np.exp(-y * rates) @ cs))

    assert len(payload["rows"]) == 3
    for row in payload["rows"]:
        x, y = row[cols.index("x")], row[cols.index("y")]
        assert row[cols.index("u_1")] == y
        assert -v(1, y) == pytest.approx(x, rel=1e-10)
        assert row[cols.index("v")] == pytest.approx(v(0, y), rel=1e-12)
        for k in (1, 2, 3):
            assert row[cols.index(f"v_{k}")] == pytest.approx(v(k, y),
                                                              rel=1e-12)
        assert row[cols.index("u")] == pytest.approx(v(0, y) + x * y,
                                                     rel=1e-12)
        assert row[cols.index("u_2")] == pytest.approx(-1.0 / v(2, y),
                                                       rel=1e-10)


def test_solve_is_deterministic(files, capsys):
    args = ["solve", "--utility", files["log"], "--model", files["delta1"],
            "--order", "3", "--grid", "0.5:2:5", "--out", "csv"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_derivatives_subcommand(files, capsys):
    code, out = run_cli([
        "derivatives", "--utility", files["log"], "--model", files["delta1"],
        "--order", "2", "--x", "1.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    cols = payload["columns"]
    assert row[cols.index("x_hat")] == pytest.approx(1.5, rel=1e-9)
    assert row[cols.index("d1")] == pytest.approx(1.0, rel=1e-9)


def test_invert_lebesgue(files, capsys):
    code, out = run_cli([
        "invert", "--utility", files["log"], "--model", files["delta1"],
        "--order", "8", "--z", "0.7"], capsys)
    assert code == 0
    assert json.loads(out)["mass"] == pytest.approx(0.7, rel=1e-9)


def test_cex1_small(files, capsys):
    code, out = run_cli(["cex1", "--order", "2",
                         "--truncations", "100,1000,10000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["diverges"] is True
    assert "1" in payload["finite_orders_at_1"]


def test_cex2_small(files, capsys):
    code, out = run_cli(["cex2", "--N", "50", "--eps", "1e-2,1e-3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] > 0
    assert payload["margin"] > 0


def test_sd_equiv(files, tmp_path, capsys):
    market = write(tmp_path, "mkt.json",
                   {"probs": [0.5, 0.5], "payoffs": [2.0, 0.5], "s0": 1.0})
    code, out = run_cli(["sd-equiv", "--market", market], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    assert payload["maximal_vertex"] is not None


EDGE_MARKET = {"probs": [0.4, 0.3, 0.3], "payoffs": [2.0, 0.5, 0.5]}
EDGE_CANDIDATE = "0.8333333333333334,1.1111111111111112,1.1111111111111112"
EDGE_REPORT = """{
 "all_agree": true,
 "candidates": [
  {
   "conditional": true,
   "laplace_order": true,
   "second_order": true,
   "vertex": [
    0.8333333333333334,
    1.1111111111111112,
    1.1111111111111112
   ]
  }
 ],
 "maximal_exists": true,
 "maximal_vertex": [
  0.8333333333333334,
  1.1111111111111112,
  1.1111111111111112
 ]
}
"""


@pytest.mark.parametrize("candidate, code, out, err", [
    (EDGE_CANDIDATE, 0, EDGE_REPORT, ""),
    ("-1,1,1", 2, "", "input error: support must lie in [0, inf)\n"),
], ids=["edge-interior", "negative"])
def test_sd_equiv_candidate_bytes(tmp_path, capsys, candidate, code, out, err):
    market = write(tmp_path, "mkt.json", EDGE_MARKET)
    assert main(["sd-equiv", "--market", market,
                 f"--candidate={candidate}"]) == code
    assert capsys.readouterr() == (out, err)


def test_huge_candidate_is_one_input_error_line(tmp_path):
    # 1e300 / 1e-12, the law's key, overflows to inf: the law refuses it
    # without numpy's overflow warning on stderr
    market = write(tmp_path, "mkt.json", MARKET)
    env = dict(os.environ, PYTHONPATH=str(Path(cmdual.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cmdual.cli", "sd-equiv",
                           "--market", market, "--candidate=1e300,1,1,1"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "input error: support must lie in [0, inf)\n")


def test_input_error_exit_code(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dominance", str(bad), files["delta1"]]) == 2


def test_bad_schema_exit_code(files, tmp_path, capsys):
    weird = write(tmp_path, "weird.json", {"kind": "mystery"})
    assert main(["dominance", weird, files["delta1"]]) == 2


def test_order_cap(files, capsys):
    assert main(["solve", "--utility", files["log"], "--model",
                 files["delta1"], "--order", "9"]) == 2


def test_output_file(files, tmp_path, capsys):
    target = tmp_path / "verdict.json"
    code = main(["dominance", "--order", "2", files["delta2"],
                 files["delta1"], "--output", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["verdict"] == "dominates"


HEAVY_MODULES = ("scipy.stats", "scipy.integrate", "scipy.optimize",
                 "cmdual.counterexamples")


def loaded_after(argv=None, package="scipy"):
    """Which of HEAVY_MODULES, and which modules of ``package``, a fresh
    interpreter holds after importing cmdual.cli and, given ``argv``,
    running that command."""
    code = ("import contextlib, io, json, sys\n"
            "from cmdual.cli import main\n"
            "argv = json.loads(sys.argv[1])\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) in (0, 1)\n"
            f"print(json.dumps([m for m in sys.modules if m in {HEAVY_MODULES!r}"
            f" or (m + '.').startswith({package + '.'!r})]))")
    env = dict(os.environ, PYTHONPATH=str(Path(cmdual.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                         capture_output=True, text=True, check=True, env=env).stdout
    return set(json.loads(out))


def test_cli_import_leaves_out_scipy_stats():
    # nor any other scipy module or the counterexamples: they load on first use
    assert loaded_after() == set()


NAN = float("nan")
MARKET = {"probs": [0.3, 0.3, 0.2, 0.2], "payoffs": [0.5, 0.8, 1.5, 2.0]}
LEBESGUE_PIECE = {"c": 1.0, "a": 0.0, "b": 0.0}
# inputs holding a NaN, each of which used to decide a verdict or fail as a
# numerical failure (exit 3) instead of an input error (exit 2)
NON_FINITE = {
    "nan_x": {"kind": "discrete", "x": [NAN, 1.0], "p": [0.5, 0.5]},
    "nan_p": {"kind": "discrete", "x": [1.0, 2.0], "p": [NAN, 0.5]},
    "nan_sample": {"kind": "empirical", "sample": [NAN, 1.0, 2.0]},
    "nan_lognormal": {"kind": "lognormal", "m": NAN, "s2": 0.25},
    "nan_anchor": {**footnote_utility(1).to_dict(), "anchor": [1.0, NAN]},
    "nan_atom": {"kind": "measure", "measure": {
        "atoms": [{"z": NAN, "w": 1.0}], "pieces": [LEBESGUE_PIECE]}},
    "nan_piece": {"kind": "measure", "measure": {
        "pieces": [LEBESGUE_PIECE, {"c": 1.0, "a": NAN, "b": 1.0}]}},
    "nan_power": {"kind": "power", "p": NAN},
    "nan_mixture": {"kind": "finite_order", "n": 3,
                    "mixture": {"z": [1.0, NAN], "c": [1.0, 0.5]}},
    "nan_kappa": {"kappa": NAN},
    "nan_probs": {**MARKET, "probs": [NAN, 0.3, 0.2, 0.2]},
    "nan_payoffs": {**MARKET, "payoffs": [NAN, 0.8, 1.5, 2.0]},
    "nan_s0": {**MARKET, "s0": NAN},
}
MIXTURE = {"kind": "finite_order", "n": 4,
           "mixture": {"z": [1.0, 2.0], "c": [1.0, 0.5]}}
# a finite_order spec's n must be an integral number >= 1, not 2.5,
# infinity or a string
BAD_ORDER = {"order_half": {**MIXTURE, "n": 2.5},
             "order_inf": {**MIXTURE, "n": math.inf},
             "order_text": {**MIXTURE, "n": "4"}}


@pytest.fixture
def discrete_inputs(tmp_path):
    F = write(tmp_path, "F.json", {"kind": "discrete", "x": [1.0, 2.0, 3.0],
                                   "p": [0.2, 0.5, 0.3]})
    G = write(tmp_path, "G.json", {"kind": "discrete", "x": [0.5, 1.5, 2.5],
                                   "p": [0.2, 0.5, 0.3]})
    deflator = write(tmp_path, "deflator.json", {"deflator": {
        "kind": "discrete", "x": [0.8, 1.0, 1.3], "p": [0.3, 0.4, 0.3]}})
    mixture = write(tmp_path, "mixture.json", MIXTURE)
    market = write(tmp_path, "market.json", MARKET)
    return {"F": F, "G": G, "deflator": deflator, "mixture": mixture,
            "log": write(tmp_path, "log.json", {"kind": "log"}),
            "power": write(tmp_path, "power.json", {"kind": "power", "p": -1.0}),
            "market": market,
            **{name: write(tmp_path, f"{name}.json", payload)
               for name, payload in {**NON_FINITE, **BAD_ORDER}.items()}}


@pytest.mark.parametrize("argv", [
    ["dominance", "F", "G", "--order", "2"],
    ["dominance", "F", "G", "--order", "inf"],
    ["audit", "F", "G"],
    ["solve", "--utility", "log", "--model", "deflator"],
    ["solve", "--utility", "mixture", "--model", "deflator"],
    ["invert", "--utility", "log", "--model", "deflator", "--z", "1"],
], ids=["dominance-2", "dominance-inf", "audit", "solve-log", "solve-mixture",
        "invert"])
def test_discrete_commands_load_no_quadrature(discrete_inputs, argv):
    argv = [discrete_inputs.get(a, a) for a in argv]
    assert loaded_after(argv) == set()


DISCRETE_COMMANDS = {
    "dominance-2": ["dominance", "F", "G", "--order", "2"],
    "dominance-inf": ["dominance", "F", "G", "--order", "inf"],
    "audit": ["audit", "F", "G"],
    "sd-equiv": ["sd-equiv", "--market", "market"],
    **{f"{command}-{utility}": [command, "--utility", utility,
                                "--model", "deflator", *extra]
       for command, extra in (("solve", []), ("derivatives", []),
                              ("invert", ["--z", "1", "--order", "3"]))
       for utility in ("log", "power", "mixture")},
}


@pytest.mark.parametrize("argv", DISCRETE_COMMANDS.values(),
                         ids=DISCRETE_COMMANDS.keys())
def test_discrete_commands_load_no_scipy(discrete_inputs, argv):
    # finite markets and discrete laws are exact: scipy.special and the
    # rest of scipy stay unloaded
    argv = [discrete_inputs.get(a, a) for a in argv]
    assert loaded_after(argv) == set()


def test_discrete_order_8_loads_no_numpy_polynomial(discrete_inputs):
    # the exact order-n search solves its own companion matrices: neither
    # the import nor a verdict that searches interval interiors loads
    # numpy.polynomial
    argv = ["dominance", discrete_inputs["F"], discrete_inputs["G"],
            "--order", "8"]
    assert loaded_after(argv, package="numpy.polynomial") == set()


def test_first_scipy_use_after_a_discrete_command(discrete_inputs, tmp_path):
    # a measure utility on a lognormal model binds scipy.special on first
    # use, after a discrete command ran without it; it must print the same
    # bytes as in a fresh process
    utility = write(tmp_path, "foot.json", footnote_utility(1).to_dict())
    model = write(tmp_path, "kappa.json", {"kappa": 0.25})
    solve = ["solve", "--utility", utility, "--model", model, "--grid", "0.5:2:2"]
    dominance = ["dominance", discrete_inputs["F"], discrete_inputs["G"]]
    code = ("import contextlib, io, json, sys\n"
            "from cmdual.cli import main\n"
            "first, second = json.loads(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(first)\n"
            "assert 'scipy.special' not in sys.modules\n"
            "sys.exit(main(second))")
    env = dict(os.environ, PYTHONPATH=str(Path(cmdual.__file__).parents[1]))
    after = subprocess.run([sys.executable, "-c", code,
                            json.dumps([dominance, solve])],
                           capture_output=True, text=True, env=env)
    fresh = subprocess.run([sys.executable, "-m", "cmdual.cli", *solve],
                           capture_output=True, text=True, env=env)
    assert after.returncode == fresh.returncode == 0, after.stderr
    assert after.stdout == fresh.stdout != ""


MODEL = ["--utility", "log", "--model", "deflator"]


@pytest.mark.parametrize("argv", [
    ["solve", *MODEL, "--order", "inf"],
    ["derivatives", *MODEL, "--order", "inf"],
    ["invert", *MODEL, "--order", "inf", "--z", "1"],
    ["cex1", "--order", "inf"],
    ["invert", *MODEL, "--z", "inf"],
    ["invert", *MODEL, "--z", "nan"],
    ["derivatives", *MODEL, "--x", "nan"],
    ["derivatives", *MODEL, "--x", "inf"],
    ["solve", *MODEL, "--grid", "0.5:inf:4"],
    ["cex1", "--truncations", "1000,inf"],
    ["cex1", "--truncations", "0,1000,10000"],
    ["cex1", "--truncations", "10000"],
    ["cex2", "--eps", "1e-2,nan"],
    ["cex2", "--eps", ""],
    ["cex1", "--truncations", ""],
    ["sd-equiv", "--market", "market", "--candidate", "inf,1,1,1"],
    ["audit", "F", "G", "--family-size", "0"],
    ["dominance", "nan_x", "G", "--order", "2"],
    ["dominance", "F", "nan_p", "--order", "2"],
    ["dominance", "nan_sample", "G", "--order", "2"],
    ["dominance", "F", "nan_lognormal", "--order", "inf"],
    ["solve", "--utility", "nan_anchor", "--model", "deflator"],
    ["solve", "--utility", "nan_atom", "--model", "deflator"],
    ["solve", "--utility", "nan_piece", "--model", "deflator"],
    ["solve", "--utility", "nan_power", "--model", "deflator"],
    ["solve", "--utility", "nan_mixture", "--model", "deflator"],
    ["solve", "--utility", "log", "--model", "nan_kappa"],
    ["sd-equiv", "--market", "nan_probs"],
    ["sd-equiv", "--market", "nan_payoffs"],
    ["sd-equiv", "--market", "nan_s0"],
    ["solve", "--utility", "order_half", "--model", "deflator"],
    ["solve", "--utility", "order_inf", "--model", "deflator"],
    ["solve", "--utility", "order_text", "--model", "deflator"],
], ids=["solve-order-inf", "derivatives-order-inf", "invert-order-inf",
        "cex1-order-inf", "invert-z-inf", "invert-z-nan", "derivatives-x-nan",
        "derivatives-x-inf", "solve-grid-inf", "cex1-truncation-inf",
        "cex1-truncation-zero", "cex1-single-truncation",
        "cex2-eps-nan", "cex2-eps-empty", "cex1-truncations-empty",
        "sd-equiv-candidate-inf", "audit-family-size-0",
        "dominance-nan-support", "dominance-nan-probability",
        "dominance-nan-sample", "dominance-nan-lognormal", "solve-nan-anchor",
        "solve-nan-atom", "solve-nan-piece", "solve-nan-power",
        "solve-nan-mixture", "solve-nan-kappa",
        "sd-equiv-nan-probability", "sd-equiv-nan-payoff", "sd-equiv-nan-s0",
        "solve-spec-n-half", "solve-spec-n-inf", "solve-spec-n-text"])
def test_invalid_options_are_input_errors(discrete_inputs, argv, capsys):
    argv = [discrete_inputs.get(a, a) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["derivatives", "--utility", "mixture", "--model", "deflator",
     "--order", "4"],
    ["invert", "--utility", "mixture", "--model", "deflator", "--z", "1",
     "--order", "8"],
    ["cex2", "--utility", "log"],
], ids=["derivatives-past-spec-order", "invert-past-spec-order",
        "cex2-constant-rra"])
def test_request_faults_are_input_errors(discrete_inputs, argv, capsys):
    # an order beyond the finite_order spec's n (OrderExceeded) and a
    # constant-RRA utility for cex2 (ConstantRRA) are faults of the request
    assert main([discrete_inputs.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error:")


def run_argv(discrete_inputs, argv, capsys):
    code = main([discrete_inputs.get(a, a) for a in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["dominance", "F", "G", "--order", "2"],
    ["audit", "F", "G"],
    ["invert", *MODEL, "--z", "1"],
    ["sd-equiv", "--market", "market"],
], ids=["dominance", "audit", "invert", "sd-equiv"])
def test_csv_is_json_without_a_table(discrete_inputs, argv, capsys):
    json_out = run_argv(discrete_inputs, argv, capsys)
    assert run_argv(discrete_inputs, [*argv, "--out", "csv"], capsys) == json_out
    assert json.loads(json_out[1])


@pytest.mark.parametrize("argv, header, rows", [
    (["cex1", "--truncations", "100,1000"], "truncation,partial_sum", 2),
    (["cex2", "--N", "40", "--eps", "1e-2,1e-3"], "eps,d_plus,d_minus", 2),
    (["derivatives", *MODEL, "--order", "3"],
     "deflator,weight,x_hat,d1,d2,d3", 3),
], ids=["cex1", "cex2", "derivatives"])
def test_csv_headers(discrete_inputs, argv, header, rows, capsys):
    code, out = run_argv(discrete_inputs, [*argv, "--out", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header and len(lines) == rows + 1
    assert all(len(line.split(",")) == header.count(",") + 1 for line in lines)


@pytest.mark.parametrize("argv, defaults", [
    (["dominance", "F", "G"], ["--order", "inf"]),
    (["audit", "F", "G"], ["--order", "2", "--family-size", "100",
                           "--seed", "0"]),
    (["solve", *MODEL], ["--order", "4", "--grid", "0.5:2:4"]),
    (["derivatives", *MODEL], ["--order", "2", "--x", "1.0"]),
    (["invert", *MODEL, "--z", "1"], ["--order", "8"]),
    (["cex1", "--truncations", "100,1000"], ["--order", "2"]),
    (["cex2", "--N", "40"], ["--eps", "1e-2,1e-3,1e-4"]),
    (["sd-equiv", "--market", "market"], ["--out", "json"]),
], ids=["dominance", "audit", "solve", "derivatives", "invert", "cex1",
        "cex2", "sd-equiv"])
def test_spelled_out_defaults_change_nothing(discrete_inputs, argv, defaults,
                                             capsys):
    implicit = run_argv(discrete_inputs, argv, capsys)
    assert run_argv(discrete_inputs, [*argv, *defaults], capsys) == implicit
    assert implicit[1]


def test_bad_cex1_truncations_are_refused_before_any_work(monkeypatch, capsys):
    # the full 1e6-atom instance must not be built for a list that fails
    import cmdual.counterexamples

    built = []
    instance = cmdual.counterexamples.Cex1Instance

    def counted(*args, **kwargs):
        built.append(kwargs)
        return instance(*args, **kwargs)

    monkeypatch.setattr(cmdual.counterexamples, "Cex1Instance", counted)
    assert main(["cex1", "--truncations", "0,1000000"]) == 2
    assert capsys.readouterr().out == ""
    assert built == []


def test_parser_is_built_once_and_reused(discrete_inputs, capsys):
    assert _build_parser() is _build_parser()
    argv = ["dominance", discrete_inputs["F"], discrete_inputs["G"],
            "--order", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    # an argparse error on the shared parser leaves nothing behind
    with pytest.raises(SystemExit) as exc:
        main(["dominance", discrete_inputs["F"], "--order", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first != ""


def test_cex1_loads_no_quadrature():
    # the wide spikes take a fixed panel rule, not scipy quad
    assert "scipy.integrate" not in loaded_after(
        ["cex1", "--truncations", "1000,10000"])


def test_sd_equiv_loads_no_optimizer(discrete_inputs):
    assert "scipy.optimize" not in loaded_after(
        ["sd-equiv", "--market", discrete_inputs["market"]])


def test_wide_lognormal_solve_never_crashes(tmp_path, capsys):
    # at kappa 36 the far nodes overflow the footnote conjugate's high
    # derivatives; that must surface as an exit code, not a traceback
    utility = write(tmp_path, "foot.json", footnote_utility(1).to_dict())
    model = write(tmp_path, "wide.json", {"kappa": 36.0})
    code = main(["solve", "--utility", utility, "--model", model,
                 "--order", "4", "--grid", "0.5:2:2"])
    assert code in (0, 3)


def test_wide_lognormal_dominance_fails_quietly(files, tmp_path, capsys):
    # the overflowing Gauss-Hermite ladder is a QuadratureFailure (exit 3);
    # numpy must not also print overflow warnings on the way there
    wide = write(tmp_path, "wide_law.json",
                 {"kind": "lognormal", "m": 0.0, "s2": 400.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["dominance", wide, files["delta1"]]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_wide_dominating_lognormal_pair_is_decided(tmp_path, capsys):
    # log-variances 400 and 401 are too wide for the Gauss-Hermite ladder,
    # but s_F <= s_G and E F >= E G decide the pair without it
    F = write(tmp_path, "F.json", {"kind": "lognormal", "m": 0.0, "s2": 400.0})
    G = write(tmp_path, "G.json", {"kind": "lognormal", "m": -1.0, "s2": 401.0})
    code, out = run_cli(["dominance", "--order", "inf", F, G], capsys)
    assert code == 0
    assert json.loads(out) == {"verdict": "dominates", "order": "inf",
                               "witness": None}


@pytest.mark.parametrize("s2,want", [(36.0, 1), (400.0, 3)])
def test_wide_lognormal_audit_warns_nothing(files, tmp_path, capsys, s2, want):
    # the batched Laplace ladder overflows at the far nodes of a wide law;
    # an unsettled rate is exit 3, and neither case prints numpy warnings
    wide = write(tmp_path, "wide_law.json",
                 {"kind": "lognormal", "m": 0.0, "s2": s2})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv in ([wide, files["delta1"]],
                     [files["delta1"], wide, "--order", "inf"]):
            assert main(["audit", *argv]) == want
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_order_1_lognormal_witness_past_the_crossing(tmp_path, capsys):
    # s_F < s_G: F_1 > G_1 past the CDF crossing y*, where both CDFs round
    # to 1; the witness is 2 y*
    F = write(tmp_path, "F.json", {"kind": "lognormal", "m": 0.0,
                                   "s2": 0.403**2})
    G = write(tmp_path, "G.json", {"kind": "lognormal", "m": -0.098,
                                   "s2": 0.408**2})
    code, out = run_cli(["dominance", "--order", "1", F, G], capsys)
    assert code == 1
    assert json.loads(out) == {"verdict": "violated", "order": 1,
                               "witness": 5388.095061482995}
