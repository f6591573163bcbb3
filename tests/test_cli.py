import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmrf import cli
from hgmrf.cli import main
from hgmrf.experiments import FitResult, SweepResult


def run_cli(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def parse_single_row_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 2
    return dict(zip(rows[0], rows[1]))


class TestRatesCommand:
    def test_iid_closed_form(self, capsys):
        status, out, _ = run_cli(["rates", "--zeta", "0", "--snr", "1"], capsys)
        assert status == 0
        row = parse_single_row_csv(out)
        assert float(row["kli"]) == pytest.approx(0.0965735902799726, abs=1e-9)
        assert float(row["mi"]) == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
        assert row["converged"] == "true"

    def test_snr_db_flag(self, capsys):
        status, out, _ = run_cli(["rates", "--zeta", "0.1", "--snr-db", "10"], capsys)
        assert status == 0
        row = parse_single_row_csv(out)
        status2, out2, _ = run_cli(["rates", "--zeta", "0.1", "--snr", "10"], capsys)
        row2 = parse_single_row_csv(out2)
        assert row["kli"] == row2["kli"]

    def test_spacing_route_reports_zeta(self, capsys):
        status, out, _ = run_cli(
            ["rates", "--alpha", "1", "--spacing", "1", "--snr", "10"], capsys
        )
        assert status == 0
        row = parse_single_row_csv(out)
        assert float(row["zeta"]) == pytest.approx(0.24921547956740725, abs=1e-9)

    def test_nonconvergence_exit_code(self, capsys):
        status, out, _ = run_cli(
            ["rates", "--zeta", "0.24", "--snr", "1", "--quad-points", "8",
             "--quad-max", "16", "--quad-rtol", "1e-12"],
            capsys,
        )
        assert status == 2
        assert parse_single_row_csv(out)["converged"] == "false"

    @pytest.mark.parametrize("alpha,spacing", [("0.01", "1"), ("1", "0.02"), ("1", "0.0483"),
                                               ("1", "1e-6"), ("1", "1e-10"), ("1", "1e-40")])
    def test_dense_spacing_converges(self, alpha, spacing, capsys):
        status, out, _ = run_cli(
            ["rates", "--alpha", alpha, "--spacing", spacing, "--snr", "1"], capsys
        )
        assert status == 0
        row = parse_single_row_csv(out)
        assert row["converged"] == "true"
        assert 0.0 < float(row["kli"]) < float(row["mi"])
        assert float(row["zeta"]) == 0.25

    def test_sparse_spacing_gives_iid_rates(self, capsys):
        status, out, _ = run_cli(
            ["rates", "--alpha", "1", "--spacing", "1e308", "--snr", "1"], capsys
        )
        assert status == 0
        row = parse_single_row_csv(out)
        assert float(row["zeta"]) == 0.0
        assert float(row["kli"]) == pytest.approx(0.0965735902799726, abs=1e-9)
        assert float(row["mi"]) == pytest.approx(0.5 * math.log(2.0), abs=1e-9)

    def test_missing_snr_is_validation_error(self, capsys):
        status, _, err = run_cli(["rates", "--zeta", "0"], capsys)
        assert status == 1
        assert "error" in err


class TestMapCommand:
    def test_unit_values(self, capsys):
        status, out, _ = run_cli(["map", "--alpha", "1", "--spacing", "1"], capsys)
        assert status == 0
        row = parse_single_row_csv(out)
        assert float(row["rho"]) == pytest.approx(0.6019072301972346, abs=1e-7)
        assert float(row["zeta"]) == pytest.approx(0.24921547956740725, abs=1e-9)

    def test_sparse_spacing_is_uncorrelated(self, capsys):
        # K_1 underflows to 0 long before alpha*d reaches 1e308
        status, out, _ = run_cli(["map", "--alpha", "1e308", "--spacing", "1"], capsys)
        assert status == 0
        row = parse_single_row_csv(out)
        assert float(row["rho"]) == 0.0
        assert float(row["zeta"]) == 0.0

    def test_rho_rounded_to_one_maps_to_quarter(self, capsys):
        status, out, _ = run_cli(["map", "--alpha", "1e-100", "--spacing", "1e-100"], capsys)
        assert status == 0
        row = parse_single_row_csv(out)
        assert float(row["rho"]) == 1.0
        assert float(row["zeta"]) == 0.25


class TestOracleCommand:
    def test_torus_converges_toward_rates(self, capsys):
        _, rates_out, _ = run_cli(["rates", "--zeta", "0.1", "--snr", "10"], capsys)
        want = float(parse_single_row_csv(rates_out)["kli"])
        status, out, _ = run_cli(
            ["oracle", "--zeta", "0.1", "--snr", "10", "--n", "256", "--boundary", "torus"],
            capsys,
        )
        assert status == 0
        got = float(parse_single_row_csv(out)["kli"])
        assert got == pytest.approx(want, abs=1e-6)

    def test_bin_snrs_of_extreme_kappa(self, capsys):
        # kappa ~ 1e308 here; kappa times an eigenvalue factor used to overflow
        status, out, _ = run_cli(["oracle", "--zeta", "0.2", "--snr", "1e-300", "--sigma2",
                                  "1.1e-8", "--n", "8"], capsys)
        assert status == 0
        row = parse_single_row_csv(out)
        assert math.isfinite(float(row["kli"])) and 0.0 < float(row["mi"]) < math.inf

    def test_free_boundary_has_no_side_cap(self, capsys):
        status, out, _ = run_cli(
            ["oracle", "--boundary", "free", "--n", "256", "--zeta", "0.1", "--snr", "10",
             "--format", "json"],
            capsys,
        )
        assert status == 0
        results = json.loads(out)["results"]
        assert math.isfinite(results["kli"]) and math.isfinite(results["mi"])


class TestMcCommand:
    def test_seed_required(self, capsys):
        status, _, err = run_cli(
            ["mc", "--zeta", "0.1", "--snr", "10", "--n", "16", "--replicates", "10"], capsys
        )
        assert status == 1
        assert "seed" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["mc", "--zeta", "0.1", "--snr", "10", "--n", "16",
                "--replicates", "25", "--seed", "31337"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestNetworkCommand:
    def test_report_row(self, capsys):
        status, out, _ = run_cli(
            ["network", "--n", "16", "--spacing", "2", "--beta", "10"], capsys
        )
        assert status == 0
        row = parse_single_row_csv(out)
        assert int(row["node_count"]) == 256
        assert float(row["total_kli"]) == pytest.approx(256 * float(row["per_node_kli"]))


class TestOutputContract:
    def test_csv_format_details(self, tmp_path):
        out = tmp_path / "row.csv"
        assert main(["rates", "--zeta", "0", "--snr", "1", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        text = raw.decode("ascii")
        header, values = text.splitlines()
        assert header.startswith("zeta,snr")
        # floats are shortest round-trip reprs: parsing back is lossless
        row = dict(zip(header.split(","), values.split(",")))
        assert float(row["mi"]) == 0.34657359027997264

    def test_identical_invocations_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            assert main(["rates", "--zeta", "0.2", "--snr", "10", "--out", str(f)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_json_round_trip_reproduces_results(self, tmp_path):
        f1 = tmp_path / "run1.json"
        f2 = tmp_path / "run2.json"
        assert main(["rates", "--zeta", "0.15", "--snr", "3", "--format", "json",
                     "--out", str(f1)]) == 0
        assert main(["rates", "--config", str(f1), "--format", "json",
                     "--out", str(f2)]) == 0
        first = json.loads(f1.read_text())
        second = json.loads(f2.read_text())
        assert first["results"] == second["results"]
        assert first["params"] == second["params"]

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 0.2, "snr": 10.0}))
        status, out, _ = run_cli(
            ["rates", "--config", str(cfg), "--zeta", "0"], capsys
        )
        assert status == 0
        row = parse_single_row_csv(out)
        assert float(row["zeta"]) == 0.0
        assert float(row["snr"]) == 10.0
        stein_at_10 = 0.5 * math.log(11.0) + 0.5 / 11.0 - 0.5
        assert float(row["kli"]) == pytest.approx(stein_at_10, abs=1e-9)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 0.2, "snr": 10.0, "bogus": 1}))
        status, _, err = run_cli(["rates", "--config", str(cfg)], capsys)
        assert status == 1
        assert "bogus" in err


class TestExperimentCommand:
    def test_emits_table_and_fit(self, tmp_path):
        out = tmp_path / "energy"
        status = main(
            ["experiment", "energy", "--scenario", "fixed_sensing_area_sweep",
             "--values", "32,45,64,91,128,181,256", "--snr", "10",
             "--quad-points", "128", "--out", str(out)]
        )
        assert status == 0
        table = (tmp_path / "energy.csv").read_text()
        rows = list(csv.reader(io.StringIO(table)))
        assert rows[0][0] == "n"
        assert len(rows) == 8
        summary = json.loads((tmp_path / "energy.json").read_text())
        assert summary["results"]["model"] == "power_law"
        assert summary["results"]["estimates"]["exponent"] == pytest.approx(2 / 3, abs=0.05)
        assert summary["params"]["snr"] == 10.0

    def test_snr_table_cells_are_numbers(self, tmp_path):
        out = tmp_path / "snr"
        assert main(["experiment", "snr", "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "snr.csv").read_text())))
        assert len(rows) > 1
        for row in rows[1:]:
            for cell in row:
                float(cell)

    def test_snr_at_quarter_writes_strict_json(self, tmp_path):
        # every rate at zeta = 1/4 is exactly 0: the low-SNR power law has
        # no exponent, which is null, not NaN, and no log of 0 is taken
        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        out = tmp_path / "snr"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "snr", "--zeta", "0.25", "--out", str(out)]) == 0
        results = json.loads((tmp_path / "snr.json").read_text(), parse_constant=reject)["results"]
        assert results["estimates"]["low_snr_exponent_kli"] is None
        assert results["estimates"]["low_snr_exponent_mi"] is None
        assert results["r_squared"] is None
        rows = list(csv.reader(io.StringIO((tmp_path / "snr.csv").read_text())))
        assert all(float(cell) == 0.0 for row in rows[1:] for cell in row[1:])

    def test_nan_estimate_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        sweep = SweepResult("snr", ((1.0, {"kli": 0.0, "mi": 0.0}),))
        fit = FitResult("power_law", {"exponent": math.nan}, 1.0, (1.0, 2.0))
        monkeypatch.setattr(cli, "exp_snr_limits", lambda *args, **kwargs: (sweep, fit))
        status, out, err = run_cli(["experiment", "snr", "--out", str(tmp_path / "snr")], capsys)
        assert status == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "snr.csv").exists()


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(["rates", "--zeta", "0", "--snr", "1", "--bogus", "3"], capsys)[0] == 1

    def test_invalid_zeta(self, capsys):
        status, _, err = run_cli(["rates", "--zeta", "0.3", "--snr", "1"], capsys)
        assert status == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--alpha", "1", "--spacing", "inf"],
            ["network", "--n", "8", "--spacing", "inf"],
            ["rates", "--alpha", "1e-200", "--spacing", "1e-200", "--snr", "1"],
            ["rates", "--zeta", "0.1", "--snr", "inf"],
            ["rates", "--zeta", "0.1", "--snr-db", "1e10"],
            ["network", "--n", "4", "--spacing", "1e300"],
            ["network", "--n", "4", "--spacing", "2", "--e0", "nan"],
            ["rates", "--zeta", "0.1", "--snr", "1e308"],
            ["map", "--alpha", "1", "--spacing", "1e-320"],
            ["rates", "--alpha", "1", "--spacing", "1e-160", "--snr", "1"],
        ],
    )
    def test_out_of_domain_input_is_one_line_validation_error(self, argv, capsys):
        status, out, err = run_cli(argv, capsys)
        assert status == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["rates", "--zeta", "0.1", "--snr", "1e308"], "SNR/scale"),
            (["network", "--n", "4", "--spacing", "1e155"], "spacing"),
            (["network", "--n", "4", "--spacing", "1e100", "--es", "1e308"], "1e+308"),
            (["oracle", "--zeta", "0.1", "--snr", "1", "--n", "8", "--sigma2", "1e-320"],
             "sigma^2"),
            (["oracle", "--zeta", "0.25", "--snr", "1", "--n", "8"], "zeta"),
            (["mc", "--zeta", "0.1", "--snr", "1e308", "--n", "8", "--replicates", "2",
              "--seed", "1"], "SNR"),
        ],
    )
    def test_overflow_is_one_line_outside_pytest(self, argv, named):
        # numpy's RuntimeWarnings, shown under -W default, used to precede the
        # error line; the oracle at sigma^2 = 1e-320 exited 0 with KLI = MI = 0
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "hgmrf.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and named in proc.stderr

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hgmrf.cli", "rates", "--zeta", "0", "--snr", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "kli" in proc.stdout

    def test_import_does_not_load_scipy(self):
        # numpy is the only runtime dependency, also of the Monte Carlo oracle
        script = ("import sys, hgmrf.cli\n"
                  "print('scipy' in sys.modules)\n"
                  "status = hgmrf.cli.main(['mc', '--zeta', '0.1', '--snr', '10', '--n', '8',\n"
                  "                         '--replicates', '4', '--seed', '1'])\n"
                  "print(status, 'scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "False"
        assert lines[-1] == "0 False"


#: Float flags of each command form the property test drives.
PROPERTY_FORMS = {
    "rates-zeta": ("rates", ("zeta", "snr")),
    "rates-zeta-db": ("rates", ("zeta", "snr-db")),
    "rates-spacing": ("rates", ("alpha", "spacing", "snr")),
    "map": ("map", ("alpha", "spacing")),
    "network": ("network", ("spacing", "alpha", "beta", "es", "e0", "nu", "sigma2")),
    "oracle": ("oracle", ("zeta", "snr", "sigma2")),
    "mc": ("mc", ("zeta", "snr", "sigma2")),
}
#: Fixed integer flags of the forms that need them.
FIXED_FLAGS = {"oracle": ["--n=8"], "mc": ["--n=8", "--replicates=2", "--seed=1"]}

#: Every float, with the ends of the double range drawn more often.
any_float = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e-320, sys.float_info.min, 1e-160,
     1e-155, 1e300, 1e308, -1e308, sys.float_info.max])
#: Ordinary values for the flags not drawn from any_float, so that many runs
#: get past validation (--zeta is valid only at 0.1, --nu only at 2 and 3).
tame_float = st.sampled_from([0.1, 1.0, 2.0, 3.0])


def _assert_no_nonfinite_number(text, fmt):
    if fmt == "json":
        def reject(token):
            raise AssertionError(f"non-strict JSON constant {token}")

        if text:
            json.loads(text, parse_constant=reject)
        return
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{cell!r} in {text!r}"


@pytest.mark.parametrize("form", sorted(PROPERTY_FORMS))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_any_float_gives_status_and_finite_output(form, data, fmt):
    # in-process: an uncaught exception fails the test instead of a traceback
    command, flags = PROPERTY_FORMS[form]
    wild = data.draw(st.sets(st.sampled_from(flags)), label="flags drawn from any float")
    argv = [command, "--format", fmt]
    argv += [f"--{flag}={data.draw(any_float if flag in wild else tame_float, label=flag)!r}"
             for flag in flags]
    if command == "network":
        n = data.draw(st.integers(2, 64) | st.integers(-3, 10**200), label="n")
        argv.append(f"--n={n}")
    argv += FIXED_FLAGS.get(command, [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2)
    if status == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    _assert_no_nonfinite_number(out.getvalue(), fmt)
