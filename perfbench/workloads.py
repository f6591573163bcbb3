"""Seeded inputs and one pass of each workload.

Imported by the worker before any operation runs, so it imports neither
scipy nor mpmath: the set-up time it is part of is the library's own.
Every pass is one closed loop: the next operation starts only after the
previous one has returned.
"""

import math
import os
import time

import numpy as np

WORKLOADS = ("sweeps", "rate_table", "oracle_xcheck")

# ---------------------------------------------------------------- sweeps

#: Every `hgmrf experiment` at its default grid.
SWEEP_COMMANDS = (
    ("area", ("experiment", "area")),
    ("density", ("experiment", "density")),
    ("spacing", ("experiment", "spacing")),
    ("snr", ("experiment", "snr")),
    ("energy_fixed_area", ("experiment", "energy", "--scenario", "fixed_area_sensing_sweep")),
    ("energy_fixed_sensing", ("experiment", "energy", "--scenario", "fixed_sensing_area_sweep")),
    ("snr_zeta_0.25", ("experiment", "snr", "--zeta", "0.25")),
)

#: Known faults, by experiment: the checks each may fail, and no other.
#: - handoff_scale: the density row n=64 (alpha*d = 20/63, just above the
#:   saturation handoff) is off by 2e-4 relative, beyond the 1e-4 floor the
#:   README states, because zeta is rounded to a float within a few ulps
#:   of 1/4;
#: - csv_repr: both snr experiments write their default low-SNR values
#:   into the CSV as 'np.float64(0.0001)' (the numpy >= 2 repr);
#: - json_nan: at zeta = 1/4 the low-SNR fit takes the log of exact zeros
#:   and writes NaN into the JSON.
SWEEP_KNOWN_FAULTS = {
    "density": ("handoff_scale",),
    "snr": ("csv_repr",),
    "snr_zeta_0.25": ("csv_repr", "json_nan"),
}

# ------------------------------------------------------------ rate table

#: Ordinary edge dependence: zeta uniform on [0, 0.249], SNR log-uniform on
#: [1e-3, 1e4]; every such query converges on a 512^2 grid.  More than
#: half of a pass, so the median query sits well inside this class.
ORDINARY_QUERIES = 36

#: Near the endpoint, the grid side a query reaches jumps between 1024 and
#: 4096 with small moves of (1 - 4 zeta, SNR).  Each query is drawn within
#: a few percent of one of these centres, where the side does not move, so
#: the work in a pass does not depend on the seed.
#: (1 - 4 zeta, SNR, grid side reached at the parent commit)
NEAR_ENDPOINT_CENTRES = (
    (4.1e-4, 1.0, 1024),
    (4.1e-4, 10.0, 1024),
    (10 ** -3.65, 1e-3, 2048),
    (10 ** -3.9, 1e4, 2048),
    (10 ** -4.4, 1e-3, 4096),
    (10 ** -4.65, 100.0, 2048),
    (10 ** -4.9, 100.0, 2048),
    (10 ** -4.15, 1e4, 2048),
    (10 ** -5.4, 1e3, 2048),
    (10 ** -5.4, 1.5e-3, 4096),
)

#: Physical spacing on each side of the saturation handoff (alpha*d near
#: 0.295, rho = RHO_SATURATION).  Draws leave out alpha*d in (0.295, 0.34):
#: there the library is off by up to 8e-3 while reporting convergence, by
#: more than the 1e-4 floor at some arguments and not at others.  One
#: fixed known-fault query below stands for that range.
SATURATED_PRODUCTS = (0.15, 0.29)
UNSATURATED_PRODUCTS = (0.34, 0.5)
SPACING_QUERIES_PER_SIDE = 5
SPACING_SNR = (1.0, 1e4)

#: Known faults, the same in every pass: (alpha, spacing, snr, fault).
#: The first two end with converged=False after a 4096^2 grid; the third,
#: at alpha*d = 0.296, reports convergence with rates 8e-3 off
#: (handoff_scale, as in the density sweep).
RATE_KNOWN_FAULTS = (
    (1.0, 0.02, 1.0, "unconverged"),
    (1.0, 0.01, 10.0, "unconverged"),
    (1.0, 0.296, 1.0, "handoff_scale"),
)

# --------------------------------------------------------- oracle xcheck

ORACLE_OPS = 12
ORACLE_ZETA = (0.0, 0.2)
ORACLE_SNR = (1e-2, 1e3)
TORUS_SIDES = (64, 256, 1024)
FREE_SIDES = (8, 16, 24)
#: The last operation of each pass also runs the dense oracle at this side.
FREE_LARGE_SIDE = 48
MC_SIDE = 64
MC_REPLICATES = 32


def _rng(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, pass_index, stream]))


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def rate_table_queries(seed: int, pass_index: int):
    """The queries of one pass, in the order they run.

    Each query is a dict with 'kind' ('zeta' or 'spacing'), 'cls' (regime)
    and its arguments.  No two queries of a pass share arguments.
    """
    rng = _rng(seed, pass_index, 0)
    queries = []
    zetas = rng.uniform(0.0, 0.249, ORDINARY_QUERIES)
    snrs = _log_uniform(rng, 1e-3, 1e4, ORDINARY_QUERIES)
    for z, s in zip(zetas, snrs):
        queries.append({"kind": "zeta", "cls": "ordinary", "zeta": float(z), "snr": float(s)})
    for delta, snr, side in NEAR_ENDPOINT_CENTRES:
        # the 1024 class lies at zeta <= 0.2499 (1 - 4 zeta >= 4e-4)
        lo = 4.0e-4 if side == 1024 else delta * 0.97
        d = float(_log_uniform(rng, lo, delta * 1.03))
        queries.append({"kind": "zeta", "cls": "near_endpoint", "zeta": 0.25 * (1.0 - d),
                        "snr": float(_log_uniform(rng, snr * 0.95, snr * 1.05)),
                        "side": side})
    for cls, (lo, hi) in (("saturated", SATURATED_PRODUCTS),
                          ("unsaturated", UNSATURATED_PRODUCTS)):
        for _ in range(SPACING_QUERIES_PER_SIDE):
            alpha = float(_log_uniform(rng, 0.1, 10.0))
            x = float(rng.uniform(lo, hi))
            queries.append({"kind": "spacing", "cls": cls, "alpha": alpha,
                            "spacing": x / alpha,
                            "snr": float(_log_uniform(rng, *SPACING_SNR))})
    for alpha, spacing, snr, fault in RATE_KNOWN_FAULTS:
        queries.append({"kind": "spacing", "cls": "known_fault", "alpha": alpha,
                        "spacing": spacing, "snr": snr, "fault": fault})
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def oracle_points(seed: int, pass_index: int):
    """(zeta, snr, sigma2, car second-order taps, mc seed) per operation."""
    rng = _rng(seed, pass_index, 1)
    ops = []
    for i in range(ORACLE_OPS):
        ops.append({
            "zeta": float(rng.uniform(*ORACLE_ZETA)),
            "snr": float(_log_uniform(rng, *ORACLE_SNR)),
            "sigma2": float(_log_uniform(rng, 0.1, 10.0)),
            # second-order field: axis taps -a, diagonal taps -b, a + b <= 0.2
            "axis": float(rng.uniform(0.02, 0.12)),
            "diag": float(rng.uniform(0.01, 0.08)),
            "mc_seed": int(rng.integers(0, 2**63)),
            "free_sides": FREE_SIDES + ((FREE_LARGE_SIDE,) if i == ORACLE_OPS - 1 else ()),
        })
    return ops


def inputs(workload: str, seed: int, pass_index: int):
    if workload == "sweeps":
        # the paper's default grids: the seed has nothing to vary
        return list(SWEEP_COMMANDS)
    if workload == "rate_table":
        return rate_table_queries(seed, pass_index)
    return oracle_points(seed, pass_index)


# ---------------------------------------------------------------- passes
#
# Library functions are looked up on their modules at call time, so that a
# tracer installed after import sees every call.


def _timed(fn):
    t0 = time.perf_counter()
    try:
        out = fn()
        err = None
    except Exception as exc:  # an operation that raises counts as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


def run_sweeps(items, out_dir: str):
    import hgmrf.cli as cli

    records = []
    for name, argv in items:
        base = os.path.join(out_dir, name)
        status, err, dt = _timed(lambda: cli.main(list(argv) + ["--out", base]))
        records.append({"name": name, "status": status, "error": err, "op_s": dt,
                        "csv": base + ".csv", "json": base + ".json"})
    return records


def _rates_record(res):
    return {"kli": res.kli_rate, "mi": res.mi_rate,
            "side": res.quadrature_points, "converged": bool(res.converged)}


def _run_ops(items, call, record):
    records = []
    for item in items:
        res, err, dt = _timed(lambda: call(item))
        rec = dict(item, op_s=dt, error=err)
        if res is not None:
            rec.update(record(res))
        records.append(rec)
    return records


def run_rate_table(items, out_dir: str):
    import hgmrf.physmap as physmap
    import hgmrf.rates as rates

    def query(q):
        if q["kind"] == "zeta":
            return rates.sfcar_rates(q["zeta"], q["snr"])
        field = physmap.PhysicalField(alpha=q["alpha"], spacing=q["spacing"])
        return rates.sfcar_rates_at_spacing(field, q["snr"])

    return _run_ops(items, query, _rates_record)


def _cross_check(p):
    import hgmrf.car as car
    import hgmrf.oracle as oracle
    import hgmrf.rates as rates

    noise = car.NoiseModel(sigma2=p["sigma2"])
    model = car.sfcar_from_snr(p["snr"], p["zeta"], noise)
    out = {"kappa": model.kappa,
           "rates": _rates_record(rates.sfcar_rates(p["zeta"], p["snr"]))}
    out["torus"] = {n: _rates_record(oracle.finite_lattice_rates(
        model, noise, oracle.LatticeSpec(n=n))) for n in TORUS_SIDES}
    out["free"] = {n: _rates_record(oracle.finite_lattice_rates(
        model, noise, oracle.LatticeSpec(n=n, boundary="free"))) for n in p["free_sides"]}
    mean, stderr = oracle.sample_llr_per_node(
        model, noise, MC_SIDE, oracle.MonteCarloSpec(replicates=MC_REPLICATES, seed=p["mc_seed"]))
    out["mc"] = {"mean": mean, "stderr": stderr}
    taps = model.taps()
    out["car_sfcar"] = dict(_rates_record(rates.kli_rate_car(taps, noise)),
                            t00=taps.theta[(0, 0)], t_axis=taps.theta[(1, 0)], t_diag=0.0)
    a, b = p["axis"], p["diag"]
    second = car.CarCoefficients({(0, 0): 1.0, (1, 0): -a, (0, 1): -a,
                                  (1, 1): -b, (1, -1): -b})
    out["car_second"] = dict(_rates_record(rates.kli_rate_car(second, noise)),
                             t00=1.0, t_axis=-a, t_diag=-b)
    return out


def run_oracle_xcheck(items, out_dir: str):
    return _run_ops(items, _cross_check, lambda res: res)


RUNNERS = {"sweeps": run_sweeps, "rate_table": run_rate_table,
           "oracle_xcheck": run_oracle_xcheck}
