"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cmdual
from cmdual.cli import main
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


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, cmdual.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cmdual.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"


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
