import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmrf import cli
from hgmrf.cli import main
from hgmrf.experiments import FitResult, SweepResult
from hgmrf.specfun import DEFAULT_QUADRATURE


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
            ["rates", "--zeta", "0.24", "--snr", "1", "--quad-max", "16", "--quad-rtol", "1e-12"],
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

    @pytest.mark.parametrize("budget, side", [("64", 64), ("300", 256), ("1000", 512)])
    def test_budget_below_the_start_halves_it(self, capsys, budget, side):
        # a budget below 512 used to be refused as holding no pair of rules
        status, out, _ = run_cli(["rates", "--zeta", "0.1", "--snr", "10", "--quad-max", budget,
                                  "--quad-rtol", "1e-2"], capsys)
        assert status == 0
        row = parse_single_row_csv(out)
        assert (row["quad_max"], row["quadrature_points"]) == (budget, str(side))

    @pytest.mark.parametrize("flags, message", [
        (["--quad-max", "8"], "--quad-max must be >= 16"),
        (["--quad-max", "15"], "--quad-max must be >= 16"),
        (["--quad-rtol", "0.1"], "--quad-rtol must be in (0, 1e-2]"),
    ], ids=["quad-max-8", "quad-max-15", "quad-rtol"])
    def test_quadrature_refusal_names_the_flag(self, capsys, flags, message):
        # these named the QuadratureSpec fields, e.g. max_points_per_axis
        status, out, err = run_cli(["rates", "--zeta", "0.1", "--snr", "10"] + flags, capsys)
        assert (status, out, err) == (1, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("command, rerun, written, config", [
        (["network", "--n", "64", "--spacing", "0.3"], ["network"], ["first"], "first"),
        (["experiment", "area"], ["experiment", "area"], ["first.csv", "first.json"],
         "first.json"),
    ], ids=["network", "experiment"])
    def test_config_round_trip_keeps_the_quadrature(self, tmp_path, command, rerun, written,
                                                    config):
        # the quadrature flags used to be left out of the params echo, so the
        # rerun integrated at the default spec: per_node_kli 0.0140326443
        # where the first run gave 0.0140326403
        quad = ["--quad-max", "256", "--quad-rtol", "1e-2", "--format", "json"]
        assert main(command + quad + ["--out", str(tmp_path / "first")]) == 0
        assert main(rerun + ["--config", str(tmp_path / config), "--format", "json",
                             "--out", str(tmp_path / "again")]) == 0
        for name in written:
            again = tmp_path / name.replace("first", "again")
            assert again.read_bytes() == (tmp_path / name).read_bytes()
        params = json.loads((tmp_path / config).read_text())["params"]
        assert (params["quad_rtol"], params["quad_max"]) == (0.01, 256)
        assert "sigma2" not in params

    @pytest.mark.parametrize("command", [["network", "--n", "8", "--spacing", "1"],
                                         ["experiment", "area"]])
    def test_sigma2_refused(self, tmp_path, capsys, command):
        # the SNR is beta * E_s: a noise variance had no effect on these commands
        status, out, err = run_cli(command + ["--sigma2", "2"], capsys)
        assert (status, out) == (1, "")
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"params": {"sigma2": 1.0}}))
        status, out, err = run_cli(command + ["--config", str(cfg)], capsys)
        assert (status, out) == (1, "")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: unrecognized arguments: --sigma2=1.0"]

    @pytest.mark.parametrize("command", [["rates", "--zeta", "0.1", "--snr", "10"],
                                         ["network", "--n", "8", "--spacing", "1"],
                                         ["experiment", "area"]])
    def test_retired_quad_points_refused(self, tmp_path, capsys, command):
        # each rate path owns its start: the starting size an older output
        # file echoes is no flag, and the file is refused, not run without it
        status, out, err = run_cli(command + ["--quad-points", "256"], capsys)
        assert (status, out) == (1, "")
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"params": {"quad_points": 256, "quad_rtol": 1e-9,
                                              "quad_max": 4096}}))
        status, out, err = run_cli(command + ["--config", str(cfg)], capsys)
        assert (status, out) == (1, "")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: unrecognized arguments: --quad-points=256"]


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

    def test_parser_built_once_carries_no_state(self, tmp_path, capsys):
        # main reuses one parser: a config run, a failed parse and an
        # --snr-db run must leave nothing behind for the runs after them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 0.2, "snr": 3.0, "quad_max": 1024,
                                   "format": "json"}))
        out = str(tmp_path / "out")
        sequence = [
            ["rates", "--config", str(cfg), "--out", out],
            ["rates", "--zeta", "0.1", "--quad-max", "32", "--format", "xml",
             "--out", out],
            ["rates", "--zeta", "0.1", "--snr-db", "10", "--out", out],
            ["rates", "--config", str(cfg), "--out", out],
        ]

        def run(argv):
            (tmp_path / "out").unlink(missing_ok=True)
            status = main(argv)
            capsys.readouterr()
            return status, (tmp_path / "out").read_bytes() if status == 0 else None

        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        cli.build_parser.cache_clear()
        assert [run(argv) for argv in sequence] == fresh
        assert [status for status, _ in fresh] == [0, 1, 0, 0]
        assert fresh[0][1].startswith(b"{") and fresh[2][1].startswith(b"zeta,snr")

    def test_spacing_route_solves_the_map_once(self, capsys, monkeypatch):
        from hgmrf import physmap

        physmap._spectral_parameters.cache_clear()
        calls = []
        solve = physmap._solve
        monkeypatch.setattr(physmap, "_solve", lambda *a: calls.append(a) or solve(*a))
        status, _, _ = run_cli(["rates", "--alpha", "1", "--spacing", "0.5", "--snr", "10"],
                               capsys)
        assert status == 0
        assert len(calls) == 1

    def test_spacing_route_evaluates_k1_once(self, capsys, monkeypatch):
        # rho and 1 - rho come from one evaluation of the K_1 series
        from hgmrf import physmap, specfun

        physmap._spectral_parameters.cache_clear()
        calls = []
        sums = specfun._k1_series_sums
        monkeypatch.setattr(specfun, "_k1_series_sums", lambda x: calls.append(x) or sums(x))
        status, _, _ = run_cli(["rates", "--alpha", "1", "--spacing", "0.5", "--snr", "10"],
                               capsys)
        assert status == 0
        assert calls == [0.5]

    def test_map_evaluates_k1_once(self, capsys, monkeypatch):
        # rho and zeta come from one evaluation of the K_1 series, where
        # edge_correlation and zeta_from_spacing took one each
        from hgmrf import physmap, specfun

        physmap._spectral_parameters.cache_clear()
        calls = []
        sums = specfun._k1_series_sums
        monkeypatch.setattr(specfun, "_k1_series_sums", lambda x: calls.append(x) or sums(x))
        status, _, _ = run_cli(["map", "--alpha", "1", "--spacing", "0.5"], capsys)
        assert status == 0
        assert calls == [0.5]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 0.2, "snr": 10.0, "bogus": 1}))
        status, _, err = run_cli(["rates", "--config", str(cfg)], capsys)
        assert status == 1
        assert "bogus" in err

    @pytest.mark.parametrize("config", [
        {"params": {"zeta": "0.1", "snr": 10, "n": 8}},  # used to raise TypeError
        [1, 2],  # used to raise AttributeError
        {"params": {"zeta": 0.1, "snr": 10, "n": 8.5}},  # used to exit 0 for n = 8.5
        {"params": {"zeta": 0.1, "snr": 10, "n": 8, "format": "xml"}},  # used to write CSV
    ], ids=["quoted-number", "not-an-object", "fractional-n", "unknown-format"])
    def test_config_values_are_parsed_like_flags(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        status, out, err = run_cli(["oracle", "--config", str(cfg)], capsys)
        assert status == 1
        assert out == ""
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1


#: The seven default experiment runs: each experiment, with both energy
#: scenarios and the snr sweep at the correlation endpoint.
DEFAULT_EXPERIMENTS = (
    ["experiment", "area"],
    ["experiment", "density"],
    ["experiment", "spacing"],
    ["experiment", "snr"],
    ["experiment", "energy", "--scenario", "fixed_area_sensing_sweep"],
    ["experiment", "energy", "--scenario", "fixed_sensing_area_sweep"],
    ["experiment", "snr", "--zeta", "0.25"],
)


class TestExperimentWork:
    def test_one_kernel_call_per_doubling_round(self, tmp_path, monkeypatch):
        # each sweep integrates all its distinct rows together, in one SFCAR
        # kernel call per doubling round, and every row converges in the
        # first, at 512 nodes against its embedded 256-node rule: 6 calls
        # where one call per row and round made 84; at zeta = 1/4 every
        # rate is 0.  The spacing sweep has no zeta = 0 row: its gaps take
        # no quadrature
        from hgmrf import _kernels_py

        calls = []
        kernel = _kernels_py.sfcar_grid_sums
        monkeypatch.setattr(_kernels_py, "sfcar_grid_sums",
                            lambda c, delta, n: calls.append((len(c), n)) or kernel(c, delta, n))
        for i, argv in enumerate(DEFAULT_EXPERIMENTS):
            assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
        assert len(calls) == 6
        assert calls == [(rows, 512) for rows in (1, 9, 11, 10, 9, 1)]

    def test_spacing_evaluates_k1_once_per_spacing(self, tmp_path, monkeypatch):
        # the rho column and the rates of a spacing share one K_1 evaluation:
        # 11 for the 11 default spacings, where there were 22
        from hgmrf import physmap, specfun

        physmap._spectral_parameters.cache_clear()
        calls = []
        integral = specfun._k1_integral
        monkeypatch.setattr(specfun, "_k1_integral", lambda x: calls.append(x) or integral(x))
        assert main(["experiment", "spacing", "--out", str(tmp_path / "spacing")]) == 0
        assert len(calls) == 11

    @pytest.mark.parametrize("argv, echoed", [
        (DEFAULT_EXPERIMENTS[0], {"snr", "alpha", "spacing", "es", "e0", "nu", "values"}),
        (DEFAULT_EXPERIMENTS[1], {"snr", "alpha", "area", "es", "e0", "values"}),
        (DEFAULT_EXPERIMENTS[2], {"snr", "alpha", "values"}),
        (DEFAULT_EXPERIMENTS[3], {"zeta", "values"}),
        (DEFAULT_EXPERIMENTS[4], {"alpha", "beta", "spacing", "e0", "nu", "scenario", "values"}),
        (DEFAULT_EXPERIMENTS[5], {"alpha", "beta", "spacing", "es", "e0", "nu", "scenario",
                                  "values"}),
    ], ids=["area", "density", "spacing", "snr", "energy-sensing", "energy-area"])
    def test_echoes_only_the_flags_it_reads(self, tmp_path, argv, echoed):
        # the energy sweeps used to echo an SNR of 10 they never read (theirs
        # is beta * E_s), and the others beta, nu, E_s or E_0 likewise; a
        # rerun from the echo reproduces the run byte for byte
        assert main(argv + ["--out", str(tmp_path / "first")]) == 0
        params = json.loads((tmp_path / "first.json").read_text())["params"]
        assert set(params) == echoed | {"name", "quad_rtol", "quad_max"}
        assert main(argv[:2] + ["--config", str(tmp_path / "first.json"),
                                "--out", str(tmp_path / "again")]) == 0
        for suffix in (".csv", ".json"):
            assert ((tmp_path / ("again" + suffix)).read_bytes()
                    == (tmp_path / ("first" + suffix)).read_bytes())


class TestExperimentCommand:
    def test_emits_table_and_fit(self, tmp_path):
        out = tmp_path / "energy"
        status = main(
            ["experiment", "energy", "--scenario", "fixed_sensing_area_sweep",
             "--values", "32,45,64,91,128,181,256", "--out", str(out)]
        )
        assert status == 0
        table = (tmp_path / "energy.csv").read_text()
        rows = list(csv.reader(io.StringIO(table)))
        assert rows[0][0] == "n"
        assert len(rows) == 8
        summary = json.loads((tmp_path / "energy.json").read_text())
        assert summary["results"]["model"] == "power_law"
        assert summary["results"]["estimates"]["exponent"] == pytest.approx(2 / 3, abs=0.05)
        # the energy sweeps take their SNR from beta * E_s, never from --snr
        assert "snr" not in summary["params"]
        assert summary["params"]["beta"] == 1.0

    @pytest.mark.parametrize("argv, flag", [
        (["experiment", "area", "--beta", "2"], "--beta"),
        (["experiment", "spacing", "--es", "2"], "--es"),
        (["experiment", "density", "--nu", "3"], "--nu"),
        (["experiment", "snr", "--snr-db", "10"], "--snr-db"),
        (["experiment", "energy", "--snr", "10"], "--snr"),
    ], ids=["area", "spacing", "density", "snr", "energy"])
    def test_refuses_a_flag_it_does_not_read(self, tmp_path, capsys, argv, flag):
        # such a flag used to be ignored: `experiment energy --snr 10` gave
        # the table of its default beta * E_s
        status, out, err = run_cli(argv + ["--out", str(tmp_path / "x")], capsys)
        assert (status, out) == (1, "")
        assert err == f"error: experiment {argv[1]} does not read {flag}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("name, key", [
        ("area", "zeta"), ("spacing", "area"), ("density", "scenario"), ("snr", "alpha"),
        ("energy", "snr"),
    ])
    def test_refuses_an_unread_flag_from_config(self, tmp_path, capsys, name, key):
        value = "fixed_area_sensing_sweep" if key == "scenario" else 0.2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"params": {"name": "other", key: value}}))
        status, out, err = run_cli(["experiment", name, "--config", str(config)], capsys)
        assert (status, out) == (1, "")
        assert err == f"error: experiment {name} does not read --{key}\n"

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_sensing_sweep_refuses_es(self, tmp_path, capsys, given):
        # every row of the sensing sweep sets E_s: --es 2 was echoed and had
        # no effect; the area sweep still reads it
        argv = ["experiment", "energy", "--scenario", "fixed_area_sensing_sweep"]
        if given == "flag":
            argv += ["--es", "2"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"params": {"es": 2.0}}))
            argv += ["--config", str(config)]
        status, out, err = run_cli(argv + ["--out", str(tmp_path / "x")], capsys)
        assert (status, out) == (1, "")
        assert err == ("error: experiment energy --scenario fixed_area_sensing_sweep "
                       "does not read --es\n")
        assert list(tmp_path.glob("x.*")) == []
        assert main(["experiment", "energy", "--es", "2", "--format", "json",
                     "--out", str(tmp_path / "area")]) == 0
        assert json.loads((tmp_path / "area.json").read_text())["params"]["es"] == 2.0

    def test_sensing_sweep_refuses_snr_at_most_1(self, tmp_path, capsys):
        # mi_over_half_log_e divides by (1/2) log(beta * E_s): this was a
        # ZeroDivisionError at beta * E_s = 1, and negative below it
        status, out, err = run_cli(["experiment", "energy", "--scenario",
                                    "fixed_area_sensing_sweep", "--values", "1,10,100,1000",
                                    "--out", str(tmp_path / "x")], capsys)
        assert (status, out) == (1, "")
        assert err == "error: sensing energy 1.0 gives beta*E_s = 1.0, not above 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_snr_refuses_low_snr_at_the_high_points(self, tmp_path, capsys):
        # these increasing values used to fail as "parameter values must be
        # strictly increasing": they collided with the fixed high-SNR points
        status, out, err = run_cli(["experiment", "snr", "--values", "1e3,1e4,1e5,1e6",
                                    "--out", str(tmp_path / "x")], capsys)
        assert (status, out) == (1, "")
        assert err == ("error: low SNR 1000000.0 is not below the fixed high-SNR points "
                       "(1000.0, 10000.0, 100000.0)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("values", ["", ", ,", []], ids=["empty", "blank", "config"])
    def test_empty_values_refused(self, tmp_path, capsys, values):
        # an empty --values used to run the default grid
        if isinstance(values, list):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"params": {"values": values}}))
            argv = ["experiment", "area", "--config", str(config)]
        else:
            argv = ["experiment", "area", "--values", values]
        status, out, err = run_cli(argv + ["--out", str(tmp_path / "x")], capsys)
        assert (status, out) == (1, "")
        assert err == "error: --values lists no value\n"
        assert not (tmp_path / "x.csv").exists()

    def test_spacing_echoes_its_own_quadrature(self, tmp_path):
        # the default spec: spacing used to swap in a tighter one of its own
        out = tmp_path / "spacing"
        assert main(["experiment", "spacing", "--values", "3,4,5,6", "--out", str(out)]) == 0
        params = json.loads((tmp_path / "spacing.json").read_text())["params"]
        assert (params["quad_rtol"], params["quad_max"]) == (
            DEFAULT_QUADRATURE.relative_tolerance, DEFAULT_QUADRATURE.max_points_per_axis)

    @pytest.mark.parametrize("argv", [["snr", "--zeta", "0.2499"], ["spacing"]],
                             ids=["snr", "spacing"])
    def test_unconverged_sweep_exits_2(self, tmp_path, capsys, argv):
        # these wrote rates flagged converged=false and exited 0
        quad = ["--quad-max", "16", "--quad-rtol", "1e-12"]
        status, out, err = run_cli(["experiment"] + argv + quad + ["--out", str(tmp_path / "x")],
                                   capsys)
        assert (status, out) == (2, "")
        assert err == "error: rate quadrature did not converge for this sweep\n"
        assert list(tmp_path.iterdir()) == []

    def test_unit_snr_spacing_gaps(self, tmp_path):
        # at SNR 1 the KLI gap is O(rho^4): a torus sum of its Bregman terms
        # wrote 6.588327841604178e-33 at d = 20, 3.0e-9 off, flagged
        # converged, and did not converge at d = 30 (exit 2).  The value is
        # the 60-digit definition on torus sides 32 and 48
        out = str(tmp_path / "spacing")
        argv = ["experiment", "spacing", "--snr", "1", "--out", out, "--values"]
        assert main(argv + ["3,5,10,20"]) == 0
        with open(tmp_path / "spacing.csv", encoding="utf-8") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert float(last["spacing"]) == 20.0
        assert float(last["gap_kli"]) == pytest.approx(6.588327822023327e-33, rel=1e-14, abs=0)
        assert main(argv + ["3,10,20,30"]) == 0

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
            ["experiment", "energy", "--scenario", "fixed_sensing_area_sweep",
             "--values", "32.9,45,64,91,128,181,256,362,512"],
            ["experiment", "area", "--values", "32,45.5,64,91,128,181,256,362,512"],
            ["experiment", "density", "--values", "1,45,64,91,128,181,256,362,512"],
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
    "network": ("network", ("spacing", "alpha", "beta", "es", "e0", "nu")),
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


def _readme_sections(*titles):
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [section for section in re.split(r"^## ", text, flags=re.M)
            if section.split("\n", 1)[0].strip() in titles]


def test_readme_names_only_flags_the_parser_has():
    # a retired flag, such as --quad-points, must not linger in the docs
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {option for sub in subparsers.choices.values()
             for option in sub._option_string_actions}
    sections = _readme_sections("CLI", "Numerical notes")
    assert len(sections) == 2
    named = {flag for section in sections
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section)}
    assert "--quad-max" in named
    assert sorted(named - flags) == []
