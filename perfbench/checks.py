"""Output checks: every operation against ``refs`` or a property the
method must have.

Each check function takes the records of one pass and returns, per
operation, the list of its failed checks as (fault, reason) pairs.  fault
names the known fault a failure is (see ``workloads``) or is None.  Every
check of an operation runs, so a known fault cannot hide another failure
of the same operation.  References are computed here, after every timed
pass has ended.
"""

import csv
import json
import math
import re

import refs
import workloads

#: Relative tolerance where the library's quadrature is spectrally
#: accurate (measured agreement <= 1e-14, 2e-10 at SNR 1e-3).
RTOL = 1e-8
#: The README's stated floor near zeta = 1/4 and on the saturated branch
#: (measured agreement <= 2.7e-5 at every converged point tried).
RTOL_ENDPOINT = 1e-4
#: Above zeta = 0.2499 the library's tolerance may floor at RTOL_ENDPOINT.
ENDPOINT_DELTA = 4e-4
#: The reference KLI is a difference of terms of the size of MI; its own
#: rounding is about this share of MI.
KLI_ABS = 1e-12
#: Exact-arithmetic identities (totals, energies) survive a CSV round trip
#: to within a few ulps.
RTOL_EXACT = 1e-14
#: Fitted exponents of the paper's laws on the default grids.
EXPONENT_TOL = 0.01
#: Monte Carlo mean within this many standard errors of the exact value.
MC_SIGMAS = 6.0

#: The handoff_scale known fault, where it shows: the density row and the
#: rate-table query just above the saturation handoff.  A miss beyond
#: RTOL_ENDPOINT up to these errors (measured: 2.0e-4 at the row, 7.9e-3
#: at the query) is the known fault; a larger one is a new failure.
HANDOFF_ROW_N = 64
HANDOFF_ROW_RTOL = 3e-4
HANDOFF_QUERY_RTOL = 1e-2

SWEEP_N = (32, 45, 64, 91, 128, 181, 256, 362, 512)
SWEEP_SPACINGS = tuple(3.0 + 0.5 * i for i in range(11))
SWEEP_AREA = 400.0
SWEEP_SNR = 10.0
SWEEP_SPACING = 2.0
SNR_ZETA = 0.1


class Op:
    """The failed checks of one operation."""

    def __init__(self):
        self.failures = []

    def need(self, cond, msg, fault=None):
        if not cond:
            self.failures.append((fault, msg))
        return bool(cond)

    def close(self, got, want, rtol, what, atol=0.0, known=None):
        """got within rtol of want.  known = (fault, rtol) counts a miss up
        to that wider tolerance as the named known fault."""
        miss = abs(got - want) if math.isfinite(got) else math.inf
        if miss <= rtol * abs(want) + atol:
            return True
        msg = f"{what}: got {got!r}, reference {want!r} (rtol {rtol:g})"
        fault = known[0] if known and miss <= known[1] * abs(want) + atol else None
        return self.need(False, msg, fault)

    def rates(self, kli, mi, ref, rtol, what, known=None):
        self.need(kli <= mi, f"{what}: kli {kli!r} > mi {mi!r}")
        self.close(mi, ref[1], rtol, f"{what} mi", known=known)
        self.close(kli, ref[0], rtol, f"{what} kli", atol=KLI_ABS * abs(ref[1]), known=known)


def _run(check, rec):
    op = Op()
    try:
        check(op, rec)
    except Exception as exc:  # malformed output: a new failure, not a crash
        op.need(False, f"check stopped: {type(exc).__name__}: {exc}")
    return op.failures


def known_faults(workload, rec):
    """The faults an operation is known to have; it may fail these checks
    and no other.  A failure of only some of them (a partial mend) still
    counts as the known fault."""
    if workload == "sweeps":
        return workloads.SWEEP_KNOWN_FAULTS.get(rec["name"], ())
    return (rec["fault"],) if "fault" in rec else ()


def unexpected(workload, rec, failures):
    """The reasons of the failures that are not known faults of rec."""
    known = known_faults(workload, rec)
    return [why for fault, why in failures if fault not in known]


class References:
    """Memo of reference rates for one run (inputs never repeat across
    operations, but the sweeps share a few points)."""

    def __init__(self):
        self._memo = {}

    def _get(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def zeta(self, zeta, snr):
        return self._get(("z", zeta, snr), lambda: refs.sfcar_rates_zeta(zeta, snr))

    def spacing(self, x, snr):
        """(rates, rtol, rho) at alpha*d = x."""
        def compute():
            rho = refs.edge_correlation(x)
            delta, scale = refs.delta_scale_from_rho(rho)
            rtol = RTOL_ENDPOINT if delta < ENDPOINT_DELTA else RTOL
            return refs.sfcar_rates_delta(delta, scale, snr), rtol, rho
        return self._get(("x", x, snr), compute)


# ---------------------------------------------------------------- sweeps


def _strict_json(op, path):
    """The JSON file; a NaN or infinity in it fails, and is read as a
    number so that the other checks still run."""
    def constant(token):
        op.need(False, f"non-strict JSON constant {token} in {path}",
                "json_nan" if token == "NaN" else None)
        return float(token)
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=constant)


_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _cell(op, text, path):
    try:
        return float(text)
    except ValueError:
        pass
    m = _NUMPY_REPR.fullmatch(text)
    if m:  # the numpy >= 2 repr of a number: fails, and is read as the number
        op.need(False, f"numpy repr {text!r} in {path}", "csv_repr")
        return float(m.group(1))
    op.need(False, f"non-numeric cell {text!r} in {path}")
    return math.nan


def _read_csv(op, path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return [{k: _cell(op, v, path) for k, v in zip(header, row)} for row in body]


def _energy(n, es, e0, d, nu):
    return n * n * es + e0 * d ** nu * 2 * n * (n * n // 4)


def _check_area(op, rows, fit, ref):
    op.need([r["n"] for r in rows] == list(SWEEP_N), "area: sweep grid changed")
    rates, rtol, _ = ref.spacing(SWEEP_SPACING, SWEEP_SNR)
    for r in rows:
        n = int(r["n"])
        tag = f"area n={n}"
        op.rates(r["per_node_kli"], r["per_node_mi"], rates, rtol, tag)
        op.close(r["area"], ((n - 1) * SWEEP_SPACING) ** 2, RTOL_EXACT, f"{tag} area")
        op.close(r["total_kli"], n * n * r["per_node_kli"], RTOL_EXACT, f"{tag} total_kli")
        op.close(r["total_mi"], n * n * r["per_node_mi"], RTOL_EXACT, f"{tag} total_mi")
        op.close(r["energy"], _energy(n, 1.0, 1.0, SWEEP_SPACING, 2.0), RTOL_EXACT,
                 f"{tag} energy")
        op.close(r["efficiency_kli"], r["total_kli"] / r["energy"], RTOL_EXACT,
                 f"{tag} efficiency")
    for key in ("exponent", "exponent_mi"):
        op.close(fit["estimates"][key], -0.5, 0.0, f"area {key}", atol=EXPONENT_TOL)


def _check_density(op, rows, fit, ref):
    op.need([r["n"] for r in rows] == list(SWEEP_N), "density: sweep grid changed")
    side = math.sqrt(SWEEP_AREA)
    prev = math.inf
    for r in rows:
        n = int(r["n"])
        d = side / (n - 1)
        tag = f"density n={n}"
        op.close(r["spacing"], d, RTOL_EXACT, f"{tag} spacing")
        rates, rtol, _ = ref.spacing(d, SWEEP_SNR)
        known = ("handoff_scale", HANDOFF_ROW_RTOL) if n == HANDOFF_ROW_N else None
        op.rates(r["per_node_kli"], r["per_node_mi"], rates, rtol, tag, known)
        op.need(r["per_node_kli"] < prev, f"{tag}: per-node KLI does not fall with density")
        prev = r["per_node_kli"]
        op.close(r["total_kli"], n * n * r["per_node_kli"], RTOL_EXACT, f"{tag} total_kli")
        op.close(r["energy"], _energy(n, 1.0, 1.0, d, 2.0), RTOL_EXACT, f"{tag} energy")
        op.close(r["kli_per_area"], r["total_kli"] / SWEEP_AREA, 1e-12, f"{tag} kli_per_area")
        for nu in (2.5, 3.0, 3.5):
            comm = d ** nu * 2 * n * (n * n // 4)
            op.close(r[f"eta_nosense_nu{nu:g}"], r["total_kli"] / comm, 1e-12,
                     f"{tag} eta nu={nu:g}")
    # The fitted density slope is biased by the fitted model (see
    # CHANGES.md); only its finiteness is required, by the strict JSON.


def _check_spacing(op, rows, fit, ref):
    op.need([r["spacing"] for r in rows] == list(SWEEP_SPACINGS), "spacing: sweep grid changed")
    base = ref.zeta(0.0, SWEEP_SNR)
    prev = (math.inf, math.inf)
    for r in rows:
        d = r["spacing"]
        tag = f"spacing d={d:g}"
        rates, rtol, rho = ref.spacing(d, SWEEP_SNR)
        op.close(r["rho"], rho, 1e-11, f"{tag} rho")
        op.rates(r["kli"], r["mi"], rates, rtol, tag)
        gaps = (r["gap_kli"], r["gap_mi"])
        op.need(all(g > 0 for g in gaps), f"{tag}: gap not positive {gaps}")
        op.need(gaps[0] < prev[0] and gaps[1] < prev[1], f"{tag}: gap does not fall with d")
        prev = gaps
        for g, b, v, name in ((gaps[0], base[0], rates[0], "gap_kli"),
                              (gaps[1], base[1], rates[1], "gap_mi")):
            op.close(g, b - v, 0.0, f"{tag} {name}", atol=1e-10 * b)
    # No check of the decay rate: its sqrt(d) prefactor biases it.


def _check_snr(op, rows, fit, ref):
    for r in rows:
        tag = f"snr={r['snr']:g}"
        op.rates(r["kli"], r["mi"], ref.zeta(SNR_ZETA, r["snr"]), RTOL, tag)
    est = fit["estimates"]
    for key, want in (("low_snr_exponent_kli", 2.0), ("low_snr_exponent_mi", 1.0),
                      ("high_snr_slope_kli", 1.0), ("high_snr_slope_mi", 1.0)):
        op.close(est[key], want, 0.0, f"snr {key}", atol=EXPONENT_TOL)


def _check_energy_fixed_area(op, rows, fit, ref):
    n = 64
    for r in rows:
        es = r["sensing_energy"]
        tag = f"energy es={es:g}"
        op.close(r["snr"], es, RTOL_EXACT, f"{tag} snr")
        op.close(r["energy"], _energy(n, es, 1.0, SWEEP_SPACING, 2.0), RTOL_EXACT, f"{tag} energy")
        rates, rtol, _ = ref.spacing(SWEEP_SPACING, es)
        op.rates(r["total_kli"] / (n * n), r["total_mi"] / (n * n), rates, rtol, tag)


def _check_energy_fixed_sensing(op, rows, fit, ref):
    op.need([r["n"] for r in rows] == list(SWEEP_N), "energy: sweep grid changed")
    rates, rtol, _ = ref.spacing(SWEEP_SPACING, 1.0)
    for r in rows:
        n = int(r["n"])
        tag = f"energy n={n}"
        op.close(r["energy"], _energy(n, 1.0, 1.0, SWEEP_SPACING, 2.0), RTOL_EXACT, f"{tag} energy")
        op.rates(r["total_kli"] / (n * n), r["total_mi"] / (n * n), rates, rtol, tag)
    for key in ("exponent", "exponent_mi"):
        op.close(fit["estimates"][key], 2.0 / 3.0, 0.0, f"energy {key}", atol=EXPONENT_TOL)


def _check_snr_endpoint(op, rows, fit, ref):
    for r in rows:
        op.need(r["kli"] == 0.0 and r["mi"] == 0.0, f"snr={r['snr']:g} at zeta=1/4: rates not 0")


SWEEP_CHECKS = {
    "area": _check_area,
    "density": _check_density,
    "spacing": _check_spacing,
    "snr": _check_snr,
    "energy_fixed_area": _check_energy_fixed_area,
    "energy_fixed_sensing": _check_energy_fixed_sensing,
    "snr_zeta_0.25": _check_snr_endpoint,
}


def check_sweeps(records, ref):
    def check(op, rec):
        if (op.need(rec["error"] is None, f"raised {rec['error']}")
                and op.need(rec["status"] == 0, f"exit status {rec['status']}")):
            fit = _strict_json(op, rec["json"])["results"]
            SWEEP_CHECKS[rec["name"]](op, _read_csv(op, rec["csv"]), fit, ref)
    return [_run(check, rec) for rec in records]


def sweep_outputs(records):
    """Bytes of every output file, to compare passes with each other."""
    out = {}
    for rec in records:
        for key in ("csv", "json"):
            try:
                with open(rec[key], "rb") as fh:
                    out[(rec["name"], key)] = fh.read()
            except OSError:
                out[(rec["name"], key)] = None
    return out


# ------------------------------------------------------------ rate table


def check_rate_table(records, ref):
    def check(op, q):
        # the rates of an unconverged result are not claimed to be accurate
        if not (op.need(q["error"] is None, f"raised {q['error']}")
                and op.need(q["converged"], f"not converged at side {q['side']}",
                            "unconverged")):
            return
        known = None
        if q["kind"] == "zeta":
            rates = ref.zeta(q["zeta"], q["snr"])
            rtol = RTOL if q["cls"] == "ordinary" else RTOL_ENDPOINT
        else:
            rates, rtol, _ = ref.spacing(q["alpha"] * q["spacing"], q["snr"])
            if q.get("fault") == "handoff_scale":
                known = ("handoff_scale", HANDOFF_QUERY_RTOL)
        op.rates(q["kli"], q["mi"], rates, rtol, f"{q['cls']} query", known)
    return [_run(check, q) for q in records]


# --------------------------------------------------------- oracle xcheck


def _check_oracle_op(op, p):
    if not op.need(p["error"] is None, f"raised {p['error']}"):
        return
    kappa, zeta, s2 = p["kappa"], p["zeta"], p["sigma2"]
    asym = refs.sfcar_rates_zeta(zeta, p["snr"])
    res = p["rates"]
    op.need(res["converged"], "sfcar_rates not converged")
    op.rates(res["kli"], res["mi"], asym, RTOL, "sfcar_rates")
    for n, res in p["torus"].items():
        n = int(n)
        op.rates(res["kli"], res["mi"], refs.torus_rates(kappa, zeta, s2, n), 1e-11,
                 f"torus n={n}")
        # analytic periodic integrand: the torus sum is already the limit
        op.rates(res["kli"], res["mi"], asym, RTOL, f"torus n={n} vs asymptotic rate")
    for n, res in p["free"].items():
        n = int(n)
        op.rates(res["kli"], res["mi"], refs.free_rates(kappa, zeta, s2, n), 1e-10,
                 f"free n={n}")
    mc = p["mc"]
    exact = refs.torus_rates(kappa, zeta, s2, 64)[0]
    op.need(mc["stderr"] > 0 and abs(mc["mean"] - exact) <= MC_SIGMAS * mc["stderr"],
            f"Monte Carlo mean {mc['mean']!r} +- {mc['stderr']!r} vs exact {exact!r}")
    for key in ("car_sfcar", "car_second"):
        res = p[key]
        op.need(res["converged"], f"{key} not converged")
        want = refs.axis_diag_car_rates(res["t00"], res["t_axis"], res["t_diag"], s2)
        op.rates(res["kli"], res["mi"], want, RTOL, key)
    # the SFCAR taps are the same field as sfcar_rates sees
    op.rates(p["car_sfcar"]["kli"], p["car_sfcar"]["mi"], asym, RTOL, "car_sfcar vs sfcar")


def check_oracle_xcheck(records, ref):
    return [_run(_check_oracle_op, p) for p in records]


CHECKS = {"sweeps": check_sweeps, "rate_table": check_rate_table,
          "oracle_xcheck": check_oracle_xcheck}
