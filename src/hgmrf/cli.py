"""Command-line interface: plot-ready tables for every library capability.

Subcommands mirror the library operations (rates, map, oracle, mc,
network, experiment).  Output is CSV (header row, '.' decimal point, LF
line endings, shortest round-trip float representation) or JSON; every
effective parameter is echoed alongside the results, and a JSON output
file can be fed back through --config to reproduce the run.  Flags
override configuration-file values.  SNR is linear by default; --snr-db
converts at parse time.  Exit codes: 0 success, 1 validation error (also
an overflow, or a result that is not finite: neither format writes NaN or
infinity), 2 numerical non-convergence.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict

from .car import NoiseModel, sfcar_from_snr
from .experiments import (
    ENERGY_SCENARIOS,
    HIGH_SNR,
    exp_area_scaling,
    exp_density_scaling,
    exp_energy_scaling,
    exp_snr_limits,
    exp_spacing_convergence,
)
from .network import NetworkConfig, evaluate_network
from .oracle import LatticeSpec, MonteCarloSpec, finite_lattice_rates, sample_llr_per_node
from .physmap import PhysicalField, correlation_parameters, zeta_from_spacing
from .rates import sfcar_rates, sfcar_rates_at_spacing
from .specfun import DEFAULT_QUADRATURE, NonConvergenceError, QuadratureSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


#: The flags each experiment reads besides --values, the quadrature and the
#: output flags (--snr-db stands for --snr): it echoes these and refuses any
#: other experiment flag, given on the command line or through --config.
_EXPERIMENT_FLAGS = {
    "area": ("snr", "alpha", "spacing", "es", "e0", "nu"),
    "spacing": ("snr", "alpha"),
    "density": ("snr", "alpha", "area", "es", "e0"),
    "energy": ("alpha", "beta", "spacing", "es", "e0", "nu", "scenario"),
    "snr": ("zeta",),
}

#: The values of the experiment flags not given.
_EXPERIMENT_DEFAULTS = {"snr": 10.0, "zeta": 0.1, "scenario": "fixed_sensing_area_sweep",
                        "area": 400.0, "alpha": 1.0, "spacing": 2.0, "es": 1.0, "e0": 1.0,
                        "nu": 2.0, "beta": 1.0}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once, on first use: parsing leaves the parser unchanged
    parser = _Parser(prog="hgmrf",
                     description="Information rates and energy scaling for "
                                 "sensor networks over 2-D hidden Gauss-Markov fields")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, declared once each
    snr = argparse.ArgumentParser(add_help=False)
    snr.add_argument("--snr", type=float, default=None)
    snr.add_argument("--snr-db", type=float, default=None)
    sigma2 = argparse.ArgumentParser(add_help=False)
    sigma2.add_argument("--sigma2", type=float, default=1.0)
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--quad-points", type=int, default=None,
                      help="starting quadrature points per axis")
    quad.add_argument("--quad-rtol", type=float, default=None,
                      help="quadrature relative tolerance")
    quad.add_argument("--quad-max", type=int, default=None,
                      help="maximum quadrature points per axis")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output file (default stdout)")
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--config", default=None,
                        help="JSON configuration file; flags override its values")

    p = sub.add_parser("rates", parents=[snr, quad, output],
                       help="SFCAR per-node KLI/MI rates")
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--spacing", type=float, default=None)

    p = sub.add_parser("map", parents=[output],
                       help="spacing -> edge correlation -> edge dependence")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--spacing", type=float, default=None)

    p = sub.add_parser("oracle", parents=[snr, sigma2, output],
                       help="exact finite-lattice rates")
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--boundary", choices=("torus", "free"), default="torus")

    p = sub.add_parser("mc", parents=[snr, sigma2, output],
                       help="Monte Carlo log-likelihood-ratio simulation")
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("network", parents=[quad, output],
                       help="energy/information report for one network")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--es", type=float, default=1.0)
    p.add_argument("--e0", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=2.0)

    # no defaults here: an experiment refuses the flags it does not read,
    # so it must see which were given (see _EXPERIMENT_DEFAULTS)
    p = sub.add_parser("experiment", parents=[snr, quad, output],
                       help="scaling-law sweep + asymptote fit")
    p.add_argument("name", choices=tuple(_EXPERIMENT_FLAGS))
    p.add_argument("--zeta", type=float, help="edge dependence for the snr experiment")
    p.add_argument("--values", default=None,
                   help="comma-separated sweep values (n, spacings, or sensing energies)")
    p.add_argument("--scenario", choices=ENERGY_SCENARIOS, help="energy experiment scenario")
    for name in ("area", "alpha", "spacing", "es", "e0", "nu", "beta"):
        p.add_argument(f"--{name}", type=float)

    return parser


def _parse_with_config(parser, argv, path) -> argparse.Namespace:
    """Parse argv with the parameters of a JSON configuration file put in
    as --key=value flags right after the subcommand: argparse checks their
    types and choices, and the user's own flags, which come later, win."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    params = obj.get("params", obj) if isinstance(obj, dict) else None
    if not isinstance(params, dict):
        raise ValueError("configuration must be a JSON object")
    tokens = []
    for key, value in params.items():
        if key in ("command", "results", "name") or value is None:
            continue
        items = value if isinstance(value, list) else [value]
        text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in items)
        tokens.append(f"--{key.replace('_', '-')}={text}")
    args = parser.parse_args(argv[:1] + tokens + argv[1:])
    for key, value in params.items():
        # a number in quotes is a string in JSON, which no numeric flag takes
        if isinstance(value, str) and not isinstance(
                getattr(args, key.replace("-", "_"), value), str):
            raise ValueError(f"configuration value {key} = {value!r} must be a number")
    return args


def _resolve_snr(args) -> float:
    snr = getattr(args, "snr", None)
    snr_db = getattr(args, "snr_db", None)
    if snr is not None and snr_db is not None:
        raise ValueError("give either --snr or --snr-db, not both")
    if snr_db is not None:
        try:
            snr = 10.0 ** (float(snr_db) / 10.0)
        except OverflowError:
            snr = math.inf
    if snr is None:
        raise ValueError("an SNR is required (--snr or --snr-db)")
    snr = float(snr)
    if not 0.0 < snr < math.inf:
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    return snr


def _resolve_quadrature(args) -> QuadratureSpec:
    points, rtol, maxp, base = args.quad_points, args.quad_rtol, args.quad_max, DEFAULT_QUADRATURE
    try:
        return QuadratureSpec(
            points_per_axis=base.points_per_axis if points is None else points,
            relative_tolerance=base.relative_tolerance if rtol is None else rtol,
            # a budget derived from --quad-points holds the first pair of rules
            max_points_per_axis=maxp if maxp is not None else max(
                base.max_points_per_axis, 2 * (points or 0)),
        )
    except ValueError as exc:  # a refusal names the flags, not the fields
        message = str(exc).replace("max_points_per_axis", "--quad-max")
        message = message.replace("points_per_axis", "--quad-points")
        raise ValueError(message.replace("relative_tolerance", "--quad-rtol")) from None


def _quadrature_params(spec: QuadratureSpec) -> dict:
    # the spec that ran, as the flags that give it back through --config
    return {"quad_points": spec.points_per_axis, "quad_rtol": spec.relative_tolerance,
            "quad_max": spec.max_points_per_axis}


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


def _format_value(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        # as strict as json.dumps(..., allow_nan=False)
        if not math.isfinite(v):
            raise ValueError(f"non-finite result {v!r} cannot be written")
        return repr(float(v))
    return str(v)


def _write_csv_rows(header, rows, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_value(v) for v in row])


def _emit(args, params: dict, results: dict) -> None:
    """Single-row commands: one CSV row (params + results) or a JSON object."""
    if args.format == "json":
        payload = {"command": args.command, "params": params, "results": results}
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        header = list(params) + list(results)
        values = list(params.values()) + list(results.values())
        buf = io.StringIO()
        _write_csv_rows(header, [values], buf)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_experiment(args, params: dict, sweep, fit) -> None:
    """Experiments: sweep table as CSV, fit summary (with params) as JSON."""
    keys = list(sweep.rows[0][1])
    header = [sweep.parameter_name] + keys
    table_rows = [[x] + [outputs[k] for k in keys] for x, outputs in sweep.rows]
    buf = io.StringIO()
    _write_csv_rows(header, table_rows, buf)
    table_text = buf.getvalue()
    summary = {
        "command": args.command,
        "name": args.name,
        "params": params,
        "results": {
            "model": fit.model,
            "estimates": fit.estimates,
            "r_squared": fit.r_squared,
            "window": list(fit.window),
        },
    }
    json_text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(table_text)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(json_text)
    else:
        sys.stdout.write(table_text)
        sys.stdout.write(json_text)


def _cmd_rates(args) -> int:
    spec = _resolve_quadrature(args)
    snr = _resolve_snr(args)
    results = {}
    if args.zeta is not None:
        result = sfcar_rates(args.zeta, snr, spec)
        params = {"zeta": args.zeta, "snr": snr}
    elif args.alpha is not None and args.spacing is not None:
        field = PhysicalField(alpha=args.alpha, spacing=args.spacing)
        result = sfcar_rates_at_spacing(field, snr, spec)
        params = {"alpha": args.alpha, "spacing": args.spacing, "snr": snr}
        results["zeta"] = zeta_from_spacing(field)
    else:
        raise ValueError("give --zeta, or both --alpha and --spacing")
    params.update(_quadrature_params(spec))
    results.update(kli=result.kli_rate, mi=result.mi_rate,
                   quadrature_points=result.quadrature_points,
                   converged=result.converged)
    _emit(args, params, results)
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_map(args) -> int:
    _require(args, "alpha", "spacing")
    rho, zeta, _delta, _scale = correlation_parameters(
        PhysicalField(alpha=args.alpha, spacing=args.spacing))
    params = {"alpha": args.alpha, "spacing": args.spacing}
    results = {"rho": rho, "zeta": zeta}
    _emit(args, params, results)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    _require(args, "zeta", "n")
    snr = _resolve_snr(args)
    noise = NoiseModel(sigma2=args.sigma2)
    model = sfcar_from_snr(snr, args.zeta, noise)
    result = finite_lattice_rates(model, noise, LatticeSpec(n=args.n, boundary=args.boundary))
    params = {"zeta": args.zeta, "snr": snr, "n": args.n,
              "boundary": args.boundary, "sigma2": args.sigma2}
    results = {"kli": result.kli_rate, "mi": result.mi_rate}
    _emit(args, params, results)
    return EXIT_OK


def _cmd_mc(args) -> int:
    _require(args, "zeta", "n", "replicates", "seed")
    snr = _resolve_snr(args)
    noise = NoiseModel(sigma2=args.sigma2)
    model = sfcar_from_snr(snr, args.zeta, noise)
    mean, stderr = sample_llr_per_node(
        model, noise, args.n, MonteCarloSpec(replicates=args.replicates, seed=args.seed)
    )
    exact = finite_lattice_rates(model, noise, LatticeSpec(n=args.n))
    params = {"zeta": args.zeta, "snr": snr, "n": args.n,
              "replicates": args.replicates, "seed": args.seed, "sigma2": args.sigma2}
    results = {"llr_mean": mean, "llr_stderr": stderr, "exact_kli": exact.kli_rate}
    _emit(args, params, results)
    return EXIT_OK


def _cmd_network(args) -> int:
    _require(args, "n", "spacing")
    spec = _resolve_quadrature(args)
    config = NetworkConfig(
        n=args.n, spacing=args.spacing, sensing_energy=args.es,
        comm_energy_coeff=args.e0, loss_exponent=args.nu,
        snr_per_joule=args.beta, alpha=args.alpha,
    )
    report = evaluate_network(config, spec)
    params = {"n": args.n, "spacing": args.spacing, "es": args.es, "e0": args.e0,
              "nu": args.nu, "beta": args.beta, "alpha": args.alpha,
              **_quadrature_params(spec)}
    _emit(args, params, asdict(report))
    return EXIT_OK


def _default_n_sweep():
    return [32, 45, 64, 91, 128, 181, 256, 362, 512]


def _experiment_flags(args) -> dict:
    """The flags the experiment reads, at their given or default values,
    the SNR resolved from --snr or --snr-db.  Raises ValueError naming the
    first experiment flag given that it does not read."""
    reads = _EXPERIMENT_FLAGS[args.name]
    for name in (*_EXPERIMENT_DEFAULTS, "snr_db"):
        if getattr(args, name) is not None and name.removesuffix("_db") not in reads:
            raise ValueError(f"experiment {args.name} does not read "
                             f"--{name.replace('_', '-')}")
    flags = {name: _EXPERIMENT_DEFAULTS[name] if getattr(args, name) is None
             else getattr(args, name) for name in reads}
    if "snr" in reads and (args.snr is not None or args.snr_db is not None):
        flags["snr"] = _resolve_snr(args)
    return flags


def _cmd_experiment(args) -> int:
    spec = _resolve_quadrature(args)
    flags = _experiment_flags(args)
    values = None
    if args.values is not None:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not values:
            raise ValueError("--values lists no value")
    # grid sides: integral values as ints, any other left for the library to refuse
    ns = [int(v) if v.is_integer() else v for v in values] if values else _default_n_sweep()
    if args.name == "area":
        base = NetworkConfig(n=ns[0], spacing=flags["spacing"], sensing_energy=flags["es"],
                             comm_energy_coeff=flags["e0"], loss_exponent=flags["nu"],
                             snr_per_joule=flags["snr"] / flags["es"], alpha=flags["alpha"])
        sweep, fit = exp_area_scaling(base, ns, spec)
        values = ns
    elif args.name == "spacing":
        values = values or [v / flags["alpha"]
                            for v in (3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0)]
        sweep, fit = exp_spacing_convergence(flags["alpha"], flags["snr"], values, spec)
    elif args.name == "density":
        sweep, fit = exp_density_scaling(flags["area"], flags["alpha"], flags["snr"], ns, spec,
                                         sensing_energy=flags["es"], comm_energy_coeff=flags["e0"])
        values = ns
    elif args.name == "snr":
        sweep, fit = exp_snr_limits(flags["zeta"], spec, low_snr=values or ())
        values = [float(v) for v in sweep.parameter_values[:-len(HIGH_SNR)]]
    else:
        if flags["scenario"] == "fixed_area_sensing_sweep":
            values = values or [10.0**e for e in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)]
        else:
            values = values or [float(v) for v in _default_n_sweep()]
        # the grid of the sensing sweep; the area sweep sets n in every row
        base = NetworkConfig(n=64, spacing=flags["spacing"], sensing_energy=flags["es"],
                             comm_energy_coeff=flags["e0"], loss_exponent=flags["nu"],
                             snr_per_joule=flags["beta"], alpha=flags["alpha"])
        sweep, fit = exp_energy_scaling(base, flags["scenario"], values, spec)
    params = {"name": args.name, **flags, "values": values, **_quadrature_params(spec)}
    _emit_experiment(args, params, sweep, fit)
    return EXIT_OK


_COMMANDS = {
    "rates": _cmd_rates,
    "map": _cmd_map,
    "oracle": _cmd_oracle,
    "mc": _cmd_mc,
    "network": _cmd_network,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _parse_with_config(parser, argv, args.config)
        status = _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse error path (status already printed)
        code = exc.code
        return code if isinstance(code, int) else EXIT_VALIDATION
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:  # an overflow or a division by zero
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return status


if __name__ == "__main__":
    sys.exit(main())
