"""Command-line surface: exit codes, output formats, determinism."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coulomb2e import cli, solve, tables


GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    return cli.main(argv)


def test_usage_errors():
    assert run(["ion", "--terms", "99"]) == cli.EXIT_USAGE
    assert run(["no-such-command"]) == cli.EXIT_USAGE
    assert run([]) == cli.EXIT_USAGE


def test_help_exits_zero():
    assert run(["--help"]) == 0


def test_validate_and_the_oracle_are_gone():
    # the quadrature oracle lives with the tests (tests/reference): the
    # runtime package has neither the module nor a `validate` command
    assert run(["validate"]) == cli.EXIT_USAGE
    assert importlib.util.find_spec("coulomb2e.oracle") is None


def test_ion_json_schema(tmp_path, capsys):
    out = tmp_path / "ion.json"
    code = run(["ion", "--z", "2", "--spin", "triplet", "--terms", "1",
                "--out", str(out)])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    res = payload["result"]
    for key in ("energy", "params", "virial_ratio", "threshold", "margin",
                "stable", "meta"):
        assert key in res
    assert payload["metadata"]["version"]
    assert res["stable"] is True
    assert res["energy"] == pytest.approx(-2.1615, abs=1e-3)
    for key in ("refused_domain", "refused_cancellation", "refused_value",
                "refused_linalg"):
        assert isinstance(res["meta"][key], int)


def test_json_round_trips_byte_identical(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["ion", "--z", "1", "--terms", "1", "--seed", "3"]
    assert run(argv + ["--out", str(f1)]) == cli.EXIT_OK
    assert run(argv + ["--out", str(f2)]) == cli.EXIT_OK
    text = f1.read_text()
    assert text == f2.read_text()
    # parse -> re-emit is byte identical
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_scan_frozen_csv(tmp_path):
    out = tmp_path / "frozen.csv"
    assert run(["scan", "frozen", "--z", "1", "--format", "csv",
                "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("minimum" in l for l in meta)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "b,energy"


def test_scan_frozen_json(capsys):
    assert run(["scan", "frozen", "--z", "1"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0].keys() == {"b", "energy"}


def test_scan_charge_perturbative(capsys):
    assert run(["scan", "charge", "--basis", "perturbative",
                "--format", "csv"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("perturbative")][0]
    assert float(row.split(",")[1]) == pytest.approx(1.2498, abs=1e-3)


def test_scan_asym3_flags_grid_edge_margins(capsys):
    # an unbound row's margin is the t = 1e-4 grid end's, and the CSV says
    # so in its own column; a bound row's is the family's
    assert run(["scan", "asym3", "--ratios", "1,1.05,1.1,2,10",
                "--format", "csv"]) == cli.EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l[:1] != "#"]
    assert lines[0] == "ratio,energy,threshold,margin,stable,at_edge"
    assert [l.split(",")[-1] for l in lines[1:]] == ["False", "False", "True",
                                                      "True", "True"]


def test_molecule_ps2(capsys):
    assert run(["molecule", "--mode", "ps2"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out.split("# wall_time")[0])
    assert payload["result"]["energy"] == pytest.approx(-0.504233, abs=1e-5)
    assert payload["result"]["stable"] is True


def test_molecule_bad_masses(capsys):
    assert run(["molecule", "--masses", "1,2,3"]) == cli.EXIT_USAGE


def test_molecule_masses_set_the_mass_unit(monkeypatch, capsys):
    # energies and thresholds scale with s = 2 / (1/m_heavy + 1/m_light);
    # the margin does not.  Unrounded output makes the factors exact.
    monkeypatch.setattr(cli, "_sig6", lambda x: x)

    def result(*argv):
        assert run(["molecule", *argv]) == cli.EXIT_OK
        return json.loads(capsys.readouterr().out.split("# wall_time")[0])["result"]

    unit, double = result("--masses", "1,1,1,1"), result("--masses", "2,2,2,2")
    assert double["energy"] == 2 * unit["energy"] == pytest.approx(-1.00847, abs=1e-5)
    assert double["threshold"]["e_ground"] == 2 * unit["threshold"]["e_ground"]
    assert double["margin"] == unit["margin"]
    light = result("--mode", "cc-break", "--ratio", "2")
    heavy = result("--mode", "cc-break", "--masses", "4,4,2,2")
    assert heavy["energy"] == pytest.approx(8 / 3 * light["energy"], rel=1e-15)
    assert heavy["threshold"]["mu"] == pytest.approx(8 / 3 * light["threshold"]["mu"],
                                                     rel=1e-15)
    assert heavy["margin"] == light["margin"]


def test_nonconvergence_exit_code(monkeypatch):
    def boom(*a, **k):
        raise solve.NonConvergenceError("forced")

    monkeypatch.setattr(solve, "optimize_ion", boom)
    assert run(["ion", "--z", "1", "--terms", "1"]) == cli.EXIT_NOCONV


def test_tables_tolerance_failure_exit(monkeypatch, capsys):
    # corrupt one closed-form reference value: the miss must surface as exit 4
    bad = [("a=b=Z c=0", -0.999, -2.75, None, None)]
    monkeypatch.setattr(tables, "TABLE2", bad)
    assert run(["tables", "--table", "2"]) == cli.EXIT_TOL


def test_tables_rows_matching_nothing(capsys):
    for table in ("1", "2"):
        assert run(["tables", "--table", table, "--rows", "Z=5"]) == cli.EXIT_USAGE
        assert "no row" in capsys.readouterr().err


# bad numbers are usage errors raised where they enter the library: no
# traceback from a division, no non-convergence report, no NaN rows, and a
# scan checks its whole input before its first search
@pytest.mark.parametrize("argv", [
    ["ion", "--mass-ratio", "0"],
    ["ion", "--mass-ratio", "nan"],
    ["ion", "--z", "0"],
    ["ion", "--z", "-1"],
    ["molecule", "--mode", "cc-break", "--ratio", "-1"],
    ["molecule", "--mode", "cc-break", "--ratio", "inf"],
    ["molecule", "--mode", "ps2", "--ratio", "3"],     # ps2 has equal masses
    ["scan", "mass3", "--ratios", "0"],
    ["scan", "mass3", "--ratios", "1,0"],
    ["scan", "asym3", "--ratios", "-1"],
    ["scan", "asym3", "--ratios", "inf"],
    ["scan", "asym3", "--ratios", "1,inf"],
    ["scan", "mass4", "--ratios", "-1"],
    ["scan", "mass4", "--ratios", "inf"],
    ["scan", "mass4", "--ratios", "1,inf"],
    ["scan", "mass4", "--mode", "identity-break", "--ratios", "0"],
    ["scan", "frozen", "--z", "nan"],
    ["scan", "contour", "--z", "nan"],
    ["scan", "contour", "--grid", "0"],
    ["ion", "--terms", "1", "--seed", "-1"],
    ["molecule", "--mode", "ps2", "--seed", "-1"],
    ["molecule", "--mode", "identity-break", "--seed", "-2"],
    ["scan", "charge", "--seed", "-1"],
    ["scan", "mass4", "--seed", "-1"],
    ["tables", "--table", "1", "--seed", "-1"],
], ids=" ".join)
def test_bad_numbers_are_usage_errors(argv, monkeypatch, capsys):
    # neither a simplex nor a scale search runs before the input is checked
    searches = []
    for name in ("minimize_nm", "scaled_lowest"):
        def spy(*a, _real=getattr(solve, name), **k):
            searches.append(a)
            return _real(*a, **k)

        monkeypatch.setattr(solve, name, spy)
    assert run(argv) == cli.EXIT_USAGE
    assert searches == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert ("--seed" in err) == ("--seed" in argv)


def test_tables_fast_rows(capsys):
    # closed-form rows only: cheap end-to-end check of the report format
    argv = ["tables", "--table", "2", "--rows", "a=b=Z"]
    assert run(argv + ["--format", "csv"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "a=b=Z c=0,H-,-0.375" in out
    assert run(argv) == cli.EXIT_OK     # CSV is the default and only format
    strip = lambda text: [ln for ln in text.splitlines()
                          if not ln.startswith("# wall_time_s=")]
    assert strip(capsys.readouterr().out) == strip(out)
    assert run(argv + ["--format", "json"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'json'" in err


def test_parser_is_built_once(capsys):
    # two main calls share one argparse tree and print what a freshly built
    # parser prints; usage errors and --version are unchanged
    argv = ["tables", "--table", "2", "--rows", "a=b=Z"]
    bad = ["ion", "--terms", "99"]
    strip = lambda text: [ln for ln in text.splitlines()
                          if not ln.startswith("# wall_time_s=")]

    def outputs():
        res = []
        for args in (argv, argv, bad, ["--version"]):
            code = run(args)
            res.append((code, *capsys.readouterr()))
        return res

    cli.build_parser.cache_clear()
    cached = outputs()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    fresh = []
    for args in (argv, argv, bad, ["--version"]):
        cli.build_parser.cache_clear()
        code = run(args)
        fresh.append((code, *capsys.readouterr()))
    for (c1, out1, err1), (c2, out2, err2) in zip(cached, fresh):
        assert (c1, strip(out1), err1) == (c2, strip(out2), err2)
    assert [c for c, _, _ in cached] == [0, 0, cli.EXIT_USAGE, 0]
    assert strip(cached[0][1]) == strip(cached[1][1]) != []
    assert "invalid choice" in cached[2][2]
    assert cached[3][1] == f"{cli.__version__}\n"


def test_sig6_rounding():
    assert cli._sig6(0.123456789) == 0.123457
    assert cli._sig6({"x": [1.23456789e-7, True]}) == {"x": [1.23457e-07, True]}
    assert cli._sig6(float("nan")) is None


def test_parse_ratios():
    assert cli._parse_ratios("1,2.5,inf") == [1.0, 2.5, float("inf")]
    with pytest.raises(ValueError):
        cli._parse_ratios("abc")


def test_molecule_masses_must_fit_mode(monkeypatch, capsys):
    # each mode models one equal-mass pattern; any other is refused rather
    # than reduced to max/min (1,2,1,2 and 2,2,1,1 used to solve alike)
    seen = []
    real = solve.molecule_result

    def spy(mode, ratio, config):
        seen.append((mode, ratio))
        return real("ps2", 1.0, config)

    monkeypatch.setattr(solve, "molecule_result", spy)
    for masses, mode in (("1,2,1,2", "cc-break"), ("2,2,1,1", "identity-break"),
                         ("1,1,2,1", "cc-break"), ("2,2,1,1", "ps2"),
                         ("1,1,1,1.5", "ps2")):
        assert run(["molecule", "--masses", masses,
                    "--mode", mode]) == cli.EXIT_USAGE
    assert seen == []
    assert "m1=m3 and m2=m4" in capsys.readouterr().err
    assert run(["molecule", "--masses", "2,2,1,1", "--mode", "cc-break"]) == 0
    assert run(["molecule", "--masses", "1,3,1,3",
                "--mode", "identity-break"]) == 0
    assert run(["molecule", "--masses", "2,2,2,2"]) == 0
    assert seen == [("cc-break", 2.0), ("identity-break", 3.0), ("ps2", 1.0)]


def test_molecule_meta_reports_the_search(capsys):
    # a four-body result says how many evaluations its simplex spent and
    # whether it converged; cc-break at ratio 2 converges within the budget
    assert run(["molecule", "--mode", "cc-break", "--ratio", "2"]) == cli.EXIT_OK
    meta = json.loads(capsys.readouterr().out.split("# wall_time")[0])["result"]["meta"]
    assert meta["mode"] == "cc-break"
    assert isinstance(meta["nfev"], int) and meta["nfev"] > 0
    assert meta["converged"] is True
    assert isinstance(meta["refused_cancellation"], int)


# closed-form commands only: simplex-driven outputs depend on the numpy and
# LAPACK builds below the printed digits
@pytest.mark.parametrize("argv, name", [
    (["molecule", "--mode", "ps2"], "molecule_ps2.json"),
    (["scan", "frozen", "--z", "1", "--format", "csv"], "scan_frozen_z1.csv"),
    (["scan", "charge", "--basis", "perturbative", "--format", "csv"],
     "scan_charge_perturbative.csv"),
    (["scan", "charge", "--basis", "chandrasekhar", "--format", "csv"],
     "scan_charge_chandrasekhar.csv"),
])
def test_golden_outputs(argv, name, capsys):
    assert run(argv) == cli.EXIT_OK
    out = "".join(line for line in capsys.readouterr().out.splitlines(True)
                  if not line.startswith("# wall_time_s="))
    assert out == (GOLDEN / name).read_text()


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None     # any scipy import now raises ImportError
import coulomb2e, coulomb2e.cli
assert coulomb2e.cli.main(["tables", "--table", "1", "--rows", "Z=2"]) == 0
assert coulomb2e.cli.main(["scan", "charge", "--basis", "chandrasekhar"]) == 0
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""


def test_runs_without_scipy():
    # scipy is a test dependency only: the package and its CLI must import
    # and solve with scipy unimportable
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
