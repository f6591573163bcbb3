"""Tests of the benchmark's own references, inputs and tracer.

    python -m pytest perfbench
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import refs
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------- refs


@pytest.mark.parametrize("snr", [1e-3, 1.0, 1e4])
def test_sfcar_reference_at_zero_correlation_is_closed_form(snr):
    # zeta = 0: s = SNR at every frequency
    kli, mi = refs.sfcar_rates_zeta(0.0, snr)
    assert mi == pytest.approx(0.5 * math.log1p(snr), rel=1e-13)
    assert kli == pytest.approx(0.5 * (math.log1p(snr) - snr / (1 + snr)), rel=1e-10)


@pytest.mark.parametrize("zeta", [0.05, 0.15, 0.2])
def test_sfcar_reference_is_the_limit_of_the_torus_sums(zeta):
    snr, sigma2 = 3.0, 0.7
    kappa = refs.scale_from_zeta(zeta) / (snr * sigma2)
    torus = refs.torus_rates(kappa, zeta, sigma2, 256)
    assert torus == pytest.approx(refs.sfcar_rates_zeta(zeta, snr), rel=1e-12)


def test_free_reference_matches_dense_eigenvalues():
    n, kappa, zeta, sigma2 = 6, 1.3, 0.2, 0.5
    q = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            a = i * n + j
            q[a, a] = kappa
            for di, dj in ((1, 0), (0, 1)):
                if i + di < n and j + dj < n:
                    b = (i + di) * n + j + dj
                    q[a, b] = q[b, a] = -kappa * zeta
    s = 1.0 / (sigma2 * np.linalg.eigvalsh(q))
    mi = float(np.mean(0.5 * np.log1p(s)))
    kli = float(np.mean(0.5 * (np.log1p(s) - s / (1 + s))))
    assert refs.free_rates(kappa, zeta, sigma2, n) == pytest.approx((kli, mi), rel=1e-12)


def test_axis_diag_reference_matches_a_two_dimensional_sum():
    t00, t_axis, t_diag, sigma2 = 1.0, -0.1, -0.05, 0.5
    w = -np.pi + 2 * np.pi * (np.arange(256) + 0.5) / 256
    w1, w2 = w[:, None], w[None, :]
    den = (t00 + 2 * t_axis * (np.cos(w1) + np.cos(w2))
           + 2 * t_diag * (np.cos(w1 + w2) + np.cos(w1 - w2)))
    s = 1.0 / (sigma2 * den)
    want = (float(np.mean(0.5 * (np.log1p(s) - s / (1 + s)))),
            float(np.mean(0.5 * np.log1p(s))))
    assert refs.axis_diag_car_rates(t00, t_axis, t_diag, sigma2) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("zeta", [0.1, 0.24, 0.2499999])
def test_zeta_from_rho_inverts_the_elliptic_map(zeta):
    import mpmath as mp

    with mp.workdps(40):
        k = 4 * mp.mpf(zeta)
        g = 2 / mp.pi * mp.ellipk(k * k)
        rho = float((g - 1) / (4 * mp.mpf(zeta) * g))
    delta, scale = refs.delta_scale_from_rho(rho)
    assert delta == pytest.approx(1 - 4 * zeta, rel=1e-8)
    assert scale == pytest.approx(refs.scale_from_zeta(zeta), rel=1e-12)


def test_asymptotic_branch_agrees_with_the_exact_inverse():
    # 1 - 4 zeta ~ 1e-19: still the exact branch, where the asymptotic
    # K(k) = (1/2) log(16/k'^2) is already exact to double precision
    rho = 1 - math.pi / math.log(8 / 1e-19)
    delta, scale = refs.delta_scale_from_rho(rho)
    assert delta > refs._ASYMPTOTIC_DELTA
    assert scale == pytest.approx(1 / (1 - rho), rel=1e-14)
    assert delta == pytest.approx(8 * math.exp(-math.pi / (1 - rho)), rel=1e-10)


# -------------------------------------------------------------- checks


def _unexpected(workload, rec, failures):
    assert failures, "the check should fail"
    return checks.unexpected(workload, rec, failures)


def test_numpy_repr_and_json_nan_are_read_as_numbers_and_known(tmp_path):
    op = checks.Op()
    path = tmp_path / "x.json"
    path.write_text('{"a": NaN, "b": Infinity}')
    assert math.isnan(checks._strict_json(op, str(path))["a"])
    path = tmp_path / "x.csv"
    path.write_text("snr,kli\nnp.float64(0.0001),1.0\nsix,2.0\n")
    rows = checks._read_csv(op, str(path))
    assert rows[0] == {"snr": 1e-4, "kli": 1.0} and math.isnan(rows[1]["snr"])
    assert [f for f, _ in op.failures] == ["json_nan", None, "csv_repr", None]


def _density_rows(ref):
    rows = []
    for n in checks.SWEEP_N:
        d = math.sqrt(checks.SWEEP_AREA) / (n - 1)
        (kli, mi), _, _ = ref.spacing(d, checks.SWEEP_SNR)
        total = n * n * kli
        row = {"n": float(n), "spacing": d, "per_node_kli": kli, "per_node_mi": mi,
               "total_kli": total, "energy": checks._energy(n, 1.0, 1.0, d, 2.0),
               "kli_per_area": total / checks.SWEEP_AREA}
        for nu in (2.5, 3.0, 3.5):
            row[f"eta_nosense_nu{nu:g}"] = total / (d ** nu * 2 * n * (n * n // 4))
        rows.append(row)
    return rows


def _density_failures(rows, ref):
    op = checks.Op()
    checks._check_density(op, rows, {}, ref)
    return op.failures


def test_density_row_beyond_the_known_fault_is_a_new_failure():
    ref = checks.References()
    rec = {"name": "density"}
    rows = _density_rows(ref)
    assert _density_failures(rows, ref) == []
    at = checks.SWEEP_N.index(checks.HANDOFF_ROW_N)

    def shifted(rows, i, by):
        out = list(rows)
        out[i] = dict(rows[i], per_node_mi=rows[i]["per_node_mi"] * (1 + by))
        return out

    # the n=64 row as the library gets it today: the known fault alone
    known = shifted(rows, at, 2e-4)
    assert _unexpected("sweeps", rec, _density_failures(known, ref)) == []
    # the same row further off, or a second bad row, is a new failure
    assert _unexpected("sweeps", rec, _density_failures(shifted(rows, at, 1e-3), ref))
    assert _unexpected("sweeps", rec, _density_failures(shifted(known, -1, 2e-4), ref))


def test_snr_exponent_off_by_a_tenth_is_a_new_failure():
    ref = checks.References()
    snrs = (1e-4, 1e-3, 1e-2, 1e3, 1e4, 1e5)
    rows = [dict(zip(("kli", "mi"), ref.zeta(checks.SNR_ZETA, s)), snr=s) for s in snrs]
    est = {"low_snr_exponent_kli": 2.0, "low_snr_exponent_mi": 1.0,
           "high_snr_slope_kli": 1.0, "high_snr_slope_mi": 1.0}
    op = checks.Op()
    checks._check_snr(op, rows, {"estimates": est}, ref)
    assert op.failures == []
    checks._check_snr(op, rows, {"estimates": dict(est, low_snr_exponent_mi=1.1)}, ref)
    assert _unexpected("sweeps", {"name": "snr"}, op.failures)


def test_rate_check_tells_known_faults_from_new_failures():
    ref = checks.References()
    kli, mi = refs.sfcar_rates_zeta(0.1, 10.0)
    rec = {"kind": "zeta", "cls": "ordinary", "zeta": 0.1, "snr": 10.0, "error": None,
           "converged": True, "side": 512, "kli": kli, "mi": mi}
    assert checks.check_rate_table([rec], ref) == [[]]
    shifted = dict(rec, mi=mi * (1 + 1e-6))
    assert _unexpected("rate_table", shifted, checks.check_rate_table([shifted], ref)[0])
    # not converging is known only for the queries that are known not to
    unconverged = dict(rec, converged=False)
    failures = checks.check_rate_table([unconverged], ref)[0]
    assert _unexpected("rate_table", unconverged, failures)
    assert not checks.unexpected("rate_table", dict(unconverged, fault="unconverged"), failures)

    alpha, spacing, snr, fault = workloads.RATE_KNOWN_FAULTS[-1]
    assert fault == "handoff_scale"
    kli, mi = refs.sfcar_rates_spacing(alpha * spacing, snr)
    query = {"kind": "spacing", "cls": "known_fault", "alpha": alpha, "spacing": spacing,
             "snr": snr, "fault": fault, "error": None, "converged": True, "side": 2048}
    for off, new in ((8e-3, False), (2e-2, True)):
        q = dict(query, kli=kli * (1 - off), mi=mi * (1 - off))
        assert bool(_unexpected("rate_table", q, checks.check_rate_table([q], ref)[0])) == new


# ----------------------------------------------------------- workloads


def test_inputs_depend_on_seed_and_pass_only():
    a = workloads.rate_table_queries(5, 0)
    assert a == workloads.rate_table_queries(5, 0)
    assert a != workloads.rate_table_queries(5, 1)
    assert a != workloads.rate_table_queries(6, 0)
    keys = {tuple(sorted((k, v) for k, v in q.items() if k != "side")) for q in a}
    assert len(keys) == len(a)
    classes = [q["cls"] for q in a]
    assert classes.count("ordinary") * 2 > len(a)
    assert classes.count("known_fault") == len(workloads.RATE_KNOWN_FAULTS)
    assert all(("fault" in q) == (q["cls"] == "known_fault") for q in a)
    assert workloads.oracle_points(5, 0) == workloads.oracle_points(5, 0)


# -------------------------------------------------------------- tracer


def test_layer_metrics_self_times_and_counts():
    # cli.main -> rates.sfcar_rates -> two kernel calls at 256 and 512
    spans = [
        ["main", "cli", 0.0, 10.0, -1, None],
        ["sfcar_rates", "rates", 1.0, 9.0, 0, {"side": 512, "converged": True}],
        ["sfcar_grid_sums", "kernels", 2.0, 3.0, 1, {"side": 256, "cells": 256 ** 2}],
        ["sfcar_grid_sums", "kernels", 4.0, 8.0, 1, {"side": 512, "cells": 512 ** 2}],
    ]
    m = tracer.layer_metrics(spans, pass_s=10.5)
    assert m["cli.self_s"] == 2.0
    assert m["rates.sfcar.self_s"] == 3.0
    assert m["kernels.sfcar.self_s"] == 5.0
    assert m["kernels.sfcar.calls"] == 2
    assert m["kernels.sfcar.max_side"] == 512
    assert m["rates.sfcar.rounds_per_call"] == 2.0
    assert m["rates.sfcar.final_cell_share"] == pytest.approx(512 ** 2 / (256 ** 2 + 512 ** 2))
    assert m["trace.unattributed_s"] == pytest.approx(0.5)


def test_import_times_charge_own_code_and_first_imported_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       5000 |     numpy",
        "import time:        10 |         10 |     hgmrf._kernels_py",
        "import time:        20 |       5030 |   hgmrf.backend",
        "import time:       300 |       3000 |     scipy.linalg",
        "import time:        40 |       3040 |   hgmrf.oracle",
        "import time:        50 |       8120 | hgmrf",
        "import time:        70 |         70 | hgmrf.cli",
    ])
    t = tracer.import_times(text)
    assert t["oracle"] == pytest.approx(3040e-6)
    assert t["kernels"] == pytest.approx(30e-6)
    assert t["cli"] == pytest.approx(70e-6)


def test_tracer_sees_calls_bound_by_from_import(tmp_path):
    # in a fresh process: install() rebinds names in every hgmrf module
    code = (
        "import json, sys, tracer, hgmrf.cli\n"
        "t = tracer.Tracer(); t.install()\n"
        "hgmrf.cli.main(['network', '--n', '8', '--spacing', '2', '--out', sys.argv[1]])\n"
        "print(json.dumps([[s[0], s[1], s[4]] for s in t.spans]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "net.csv")], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    spans = json.loads(out.stdout.splitlines()[-1])
    names = [s[0] for s in spans]
    assert names[0] == "main"
    layers = {s[1] for s in spans}
    assert {"cli", "network", "rates", "kernels", "physmap", "specfun"} <= layers
    kernel = names.index("sfcar_grid_sums")
    assert spans[spans[kernel][2]][1] == "rates"
