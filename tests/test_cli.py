"""End-to-end tests of the command-line front end: outputs, formats,
determinism, and error handling."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize

from nncpdf import cli, derivation, symbolic
from nncpdf.bounds import nncpdf_bound
from nncpdf.network import load_network_file, load_scheme
from nncpdf.symbolic import parse_inequality

FIXTURES = Path(__file__).parent / "fixtures"
NET2 = str(FIXTURES / "n2_noiseless_bit.network.json")
SCH2 = str(FIXTURES / "n2_noiseless_bit.scheme.json")
NET3 = str(FIXTURES / "n3_binary.network.json")
SCH3 = str(FIXTURES / "n3_binary.scheme.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nncpdf.cli", *args],
        capture_output=True, text=True,
    )


def test_eval_noiseless_bit():
    res = run_cli("eval", "--network", NET2, "--scheme", SCH2)
    assert res.returncode == 0
    assert "bound: 1" in res.stdout
    assert "feasible: True" in res.stdout


def test_eval_csv_sorted_and_deterministic():
    a = run_cli("eval", "--network", NET3, "--scheme", SCH3, "--format", "csv")
    b = run_cli("eval", "--network", NET3, "--scheme", SCH3, "--format", "csv")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0] == "record,destination,S,T,term1,term2,term3,term4,value"
    cut_rows = [l.split(",") for l in lines[1:] if l.startswith("cut")]
    keys = [(r[1], r[2], r[3]) for r in cut_rows]
    assert keys == sorted(keys)
    assert lines[-2].startswith("bound,")
    assert lines[-1].startswith("feasible,")


def test_feasibility_margins():
    res = run_cli("feasibility", "--network", NET3, "--scheme", SCH3,
                  "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "nodes,lhs,rhs,margin"
    assert lines[-1] == "feasible,,,true"


def test_compare_rows():
    res = run_cli("compare", "--network", NET3, "--scheme", SCH3,
                  "--format", "csv")
    assert res.returncode == 0
    methods = [l.split(",")[0] for l in res.stdout.strip().splitlines()[1:]]
    assert methods == ["nncpdf", "nnc", "ddf", "theorem7", "cutset"]
    rows = dict(l.split(",") for l in res.stdout.strip().splitlines()[1:])
    assert float(rows["nncpdf"]) == pytest.approx(float(rows["theorem7"]), abs=1e-9)


def test_derive_p2p_preset():
    res = run_cli("derive", "--preset", "p2p")
    assert res.returncode == 0
    assert "R < I(X1;Y2)" in res.stdout


def test_derive_cross_check():
    res = run_cli("derive", "--network", NET3, "--scheme", SCH3)
    assert res.returncode == 0
    lines = {l.split(":")[0]: l.split(":", 1)[1] for l in
             res.stdout.strip().splitlines() if ":" in l and "I(" not in l}
    assert abs(float(lines["delta"])) < 1e-9


def test_simplify_check_deltas_small():
    res = run_cli("simplify-check", "--network", NET3, "--scheme", SCH3,
                  "--format", "csv")
    assert res.returncode == 0
    rows = res.stdout.strip().splitlines()[1:]
    deltas = [float(r.rsplit(",", 1)[1]) for r in rows]
    assert deltas and max(deltas) < 1e-9


def test_optimize_writes_scheme(tmp_path):
    out = tmp_path / "best.json"
    res = run_cli("optimize", "--network", NET2, "--aux-sizes", "1,1,1",
                  "--grid-res", "5", "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["rate"] == pytest.approx(1.0, abs=1e-12)
    assert payload["scheme"]["head"] == [0.5, 0.5]


def test_missing_file_is_diagnosed():
    res = run_cli("eval", "--network", "/nonexistent.json", "--scheme", SCH3)
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_missing_required_argument():
    res = run_cli("eval", "--network", NET3)
    assert res.returncode == 1
    assert "scheme" in res.stderr


def test_complement_switch_changes_bound():
    a = run_cli("eval", "--network", NET3, "--scheme", SCH3, "--format", "csv")
    r = run_cli("eval", "--network", NET3, "--scheme", SCH3, "--format", "csv",
                "--complement", "relays")
    val_a = a.stdout.strip().splitlines()[-2].rsplit(",", 1)[1]
    val_r = r.stdout.strip().splitlines()[-2].rsplit(",", 1)[1]
    assert val_a != val_r


def test_derive_elimination_cap_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(symbolic, "MAX_INEQUALITIES", 3)
    assert cli.main(["derive", "--N", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eliminating ")
    assert "passed 3 inequalities" in err


def test_derive_n4_prints_the_projected_rows(capsys):
    assert cli.main(["derive", "--N", "4"]) == 0
    rows = capsys.readouterr().out.split("projected region:\n", 1)[1].splitlines()
    assert rows
    assert all(set(parse_inequality(row).rates) <= {"R"} for row in rows)


def test_derive_coefficient_overflow_exits_1(monkeypatch, capsys):
    # derived coefficients stay single-digit, so no network reaches the
    # int64 limit; two injected rows with 2**40 coefficients on r1 do
    big = 2 ** 40
    rows = [
        parse_inequality(f"{big}*r1 < {big + 1}*I(X1;Y3)"),
        parse_inequality(f"{big + 1}*r1 > {big}*I(X1;Y2)"),
    ]
    limit = derivation.asymptotic_system
    monkeypatch.setattr(derivation, "asymptotic_system", lambda c: limit(c) + rows)
    assert cli.main(["derive", "--N", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: eliminating 'r1': ")


def test_derive_lp_failure_exits_1(monkeypatch, capsys):
    class Failed:
        status, success, message = 4, False, "numerical difficulties"

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: Failed())
    assert cli.main(["derive", "--network", NET3, "--scheme", SCH3]) == 1
    assert capsys.readouterr().err.startswith("error: LP solver failed")


@pytest.mark.parametrize("argv", [
    ["derive", "--format", "csv"],
    ["compare", "--network", NET3, "--scheme", SCH3, "--dest", "2"],
    ["optimize", "--network", NET2, "--format", "csv"],
])
def test_flag_of_another_subcommand_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--network", NET3, "--scheme", SCH3, "--perm", "x,y"], "--perm"),
    (["optimize", "--network", NET2, "--aux-sizes", "1,x,1"], "--aux-sizes"),
    (["optimize", "--network", NET2, "--aux-sizes", "1,1"], "--aux-sizes"),
])
def test_malformed_list_flag_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_eval_dest_outside_destinations_exits_1(capsys):
    assert cli.main(["eval", "--network", NET3, "--scheme", SCH3, "--dest", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --dest 2 ")
    assert "[3]" in err


def test_optimize_stdout_and_out_carry_the_same_document(tmp_path, capsys):
    argv = ["optimize", "--network", NET2, "--aux-sizes", "1,1,1", "--grid-res", "5"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["rate"] == pytest.approx(1.0, abs=1e-12)
    assert captured.err.startswith("rate: ")
    out = tmp_path / "best.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == captured.out


def test_optimize_grid_rejects_a_starting_scheme(capsys):
    argv = ["optimize", "--network", NET2, "--scheme", SCH2, "--aux-sizes", "1,1,1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --scheme needs --method")


@pytest.mark.parametrize("sizes", [[], ["--aux-sizes", "2,2,2"]])
def test_optimize_coordinate_ascent_from_a_random_start(sizes, capsys):
    argv = ["optimize", "--network", NET2, "--method", "coordinate-ascent", *sizes]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    net = load_network_file(NET2)
    report = nncpdf_bound(net, load_scheme(payload["scheme"], net.N))
    assert report.feasible
    assert report.bound == pytest.approx(payload["rate"], abs=1e-9)
