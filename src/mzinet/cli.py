"""Command-line front end.

Subcommands: sensitivity, optimize, scan, reproduce, verify, trace, flux.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import laws, optimize, scenarios, tracelab
from .errors import ConfigError
from .network import sensitivity_numeric, sensitivity_separable

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mzinet",
        description="Distributed interferometer-network sensitivity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sensitivity", help="evaluate one operating point")
    p.add_argument("--config", required=True, help="scenario JSON (network block used)")

    p = sub.add_parser("optimize", help="optimal squeezed/coherent split")
    p.add_argument("--n-total", type=float, required=True)
    p.add_argument("--loss", type=float, default=0.0, help="Lambda = 1/eta - 1")
    p.add_argument("--passes", type=float, default=1.0,
                   help="effective multipass enhancement")

    p = sub.add_parser("scan", help="run the scans of a scenario file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("reproduce", help="run a bundled figure scenario")
    p.add_argument("figure", choices=scenarios.FIGURES)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", help="cross-engine verification suite")
    p.add_argument("--full", action="store_true")

    p = sub.add_parser("trace", help="synthesize or analyze homodyne traces")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser("synth")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default="out")
    ps.add_argument("--seed", type=int, default=None)
    pa = trace_sub.add_parser("analyze")
    pa.add_argument("--trace", required=True)
    pa.add_argument("--config", required=True)

    p = sub.add_parser("flux", help="photons per second of a beam")
    p.add_argument("--power", type=float, required=True, help="watts")
    p.add_argument("--wavelength", type=float, required=True, help="meters")

    return parser


def _cmd_sensitivity(args):
    scenario = scenarios.load_scenario(args.config)
    cfg, rs = scenarios._config_from_spec(scenario.network)
    if rs is None:
        variance, n_T, r = sensitivity_numeric(cfg), cfg.n_T, cfg.r
    else:
        # d squeezers: their photons add to the budget, the strongest bounds
        variance = sensitivity_separable(cfg, rs)
        n_T, r = cfg.n_c + sum(math.sinh(x) ** 2 for x in rs), max(rs)
    nu = cfg.weights
    scale = laws.weight_sum(nu)
    sql = laws.sql_variance(n_T, K=1.0) * scale**2
    limits = laws.regime_limits(n_T, cfg.Lambda, K=cfg.enhancement)
    # the shared-resource advantage over per-node-optimized sensors is
    # realized in the Heisenberg window and collapses to 1 elsewhere
    gain_regime = "low" if limits.active == laws.REGIME_HL else "high"
    print(json.dumps({
        "variance_rad2": variance,
        "std_rad": math.sqrt(variance),
        "db_vs_sql": 10.0 * math.log10(sql / variance),
        "regime": limits.active,
        "qcrb_rad2": laws.qcrb(cfg.n_c, r, K=cfg.enhancement) * scale**2,
        "gain_vs_separable": laws.gain(nu, gain_regime),
    }, indent=2, sort_keys=True))
    return EXIT_OK


_POSITIVE = scenarios._where(scenarios._finite, lambda x: x > 0, "a number > 0")
_NONNEGATIVE = scenarios._where(scenarios._finite, lambda x: x >= 0, "a number >= 0")


def _require(args, **checks):
    """A NaN, infinite or out-of-domain value of an option is a
    configuration error that names the option, by the scenario files' rule:
    checks maps each option's attribute name to its check."""
    for name, check in checks.items():
        check("--" + name.replace("_", "-"), getattr(args, name))


def _cmd_optimize(args):
    _require(args, n_total=_POSITIVE, loss=_NONNEGATIVE, passes=_POSITIVE)
    n_s, variance = optimize.optimize_squeezing(
        args.n_total, Lambda=args.loss, K=args.passes)
    print(json.dumps({
        "n_s_opt": n_s,
        "n_c_opt": args.n_total - n_s,
        "variance_rad2": variance,
        "std_rad": variance**0.5,
    }, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_scan(args):
    written = scenarios.run_scenario(args.config, args.out, seed=args.seed)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_reproduce(args):
    written = scenarios.reproduce(args.figure, args.out, seed=args.seed)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_verify(args):
    report = scenarios.verify("full" if args.full else "quick")
    print(report.text())
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_trace(args):
    scenario = scenarios.load_scenario(args.config)
    cfg = scenario.base_config()
    trace = scenarios._trace_block(scenario.trace)
    if args.trace_command == "synth":
        seed = args.seed if args.seed is not None else scenario.seed
        traces = tracelab.synthesize(
            cfg, scenarios._signed_drive(cfg, trace), trace.params, seed=seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = tracelab.write_trace(out_dir / f"{scenario.name}.mztr", traces)
        print(path)
        return EXIT_OK
    traces = tracelab.read_trace(args.trace)
    result = tracelab.joint_noise_analysis(
        traces, cfg, rbw=trace.rbw)
    print(json.dumps({
        "db_below_sql": result.db_below_sql,
        "snr_db": result.snr_db,
        "delta_theta_hat": result.delta_theta_hat,
    }, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_flux(args):
    _require(args, power=_POSITIVE, wavelength=_POSITIVE)
    print(f"{scenarios.photon_flux(args.power, args.wavelength):.16e}")
    return EXIT_OK


_DISPATCH = {
    "sensitivity": _cmd_sensitivity,
    "optimize": _cmd_optimize,
    "scan": _cmd_scan,
    "reproduce": _cmd_reproduce,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "flux": _cmd_flux,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError,) + optimize.ROW_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
