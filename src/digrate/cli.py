"""Command-line front end.

Exit codes: 0 success, 2 malformed input (config/params parse), 3 failed
validation or inapplicable diagnostic, 4 runtime failure inside a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__, harness, rates
from .harness import ConfigError, ExperimentConfig
from .traces import RunTrace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

SEED_ENV = "DIGRATE_SEED"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # the rates module's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digrate",
        description="Deterministic simulator and rate-bound toolkit for "
                    "gradient-tracking optimization over time-varying graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="print the closed-form bound table")
    p_bounds.add_argument("--params", required=True,
                          help="JSON file with n, B, delta, mu_bar and L or "
                               "kappa_bar (optional: mu_hat, tau, alpha, B_minus)")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_audit = sub.add_parser("audit", help="small-gain cycle audit of a trace")
    p_audit.add_argument("--trace", required=True)
    p_audit.add_argument("--lambda", dest="lam", type=float, default=None)
    p_audit.set_defaults(handler=_cmd_audit)

    p_rep = sub.add_parser("reproduce", help="rerun a benchmark graph case")
    p_rep.add_argument("--case", required=True, choices=harness.CASES)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--iterations", type=int, default=None)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(handler=_cmd_reproduce)

    p_val = sub.add_parser("validate", help="dry-run checks of a config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(handler=_cmd_validate)
    return parser


def _load_config(path: str) -> ExperimentConfig:
    if not Path(path).exists():
        raise ConfigError(f"config file {path} does not exist")
    return ExperimentConfig.load(path)


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV}={raw!r} is not an integer") from exc


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    trace = harness.run_experiment(config, out_dir=args.out,
                                   seed_override=_env_seed())
    where = trace.metadata.get("written_to", "<not written>")
    terminated = trace.metadata.get("terminated")
    if terminated:
        print(f"run stopped early: {terminated}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{config.algorithm}: {len(trace) - 1} iterations, final residual "
          f"{trace.residual[-1]:.6e}, trace {where}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    try:
        raw = json.loads(Path(args.params).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read params file: {exc}") from exc
    n, B = int(raw["n"]), int(raw.get("B", 1))
    delta = float(raw.get("delta", 0.0))
    mu_bar = float(raw.get("mu_bar", 1.0))
    if "L" in raw:
        L = float(raw["L"])
    elif "kappa_bar" in raw:
        L = float(raw["kappa_bar"]) * mu_bar
    else:
        raise ConfigError("params need L or kappa_bar")
    params = rates.TheoryParams(n=n, B=B, delta=delta, mu_bar=mu_bar, L=L,
                                mu_hat=raw.get("mu_hat"), beta=raw.get("beta"),
                                eta=raw.get("eta", 1.0))
    kappa = params.kappa_bar
    print(f"inputs: n={n} B={B} delta={delta:g} mu_bar={mu_bar:g} L={L:g} "
          f"kappa_bar={kappa:g}")
    j1 = rates.diging_rate_constant(kappa, B, n)
    window = rates.diging_step_size_window(params)
    print(f"J1 = {j1:.6g}")
    print(f"alpha window: (0, {window.alpha_max:.6g}], branch point "
          f"{window.breakpoint:.6g}")
    alpha = float(raw.get("alpha", 0.9 * window.breakpoint))
    est = rates.diging_rate(alpha, params)
    flag = " (degenerate endpoint)" if est.degenerate else ""
    print(f"lambda at alpha={alpha:.6g}: {est.lam:.12g} "
          f"(branch {est.branch}){flag}")
    tau = raw.get("tau", 1.0 / n)
    scal = rates.network_scalability_rate(tau, B, n, kappa, L, mu_bar)
    print(f"scalability at tau={tau:g}: alpha={scal.alpha:.6g} "
          f"lambda={scal.lam:.12g}")
    print(f"lazy-Metropolis rate (B=1): {rates.lazy_metropolis_rate(n, kappa):.12g}")
    if raw.get("B_minus") is not None:
        b_minus = int(raw["B_minus"])
        cons = rates.push_sum_contraction(n, b_minus)
        print(f"push-sum: tau_tilde={cons.tau_tilde} Q1={cons.q1} "
              f"Vinv_bound={cons.vinv_bound}")
        print(f"push-sum: minimal contracting window B={cons.B_required or cons.B_required_log} "
              f"delta={cons.delta}")
        if cons.B_required is not None and cons.B_required < 10 ** 6:
            push_params = rates.TheoryParams(
                n=n, B=cons.B_required, delta=cons.delta.to_float(),
                mu_bar=mu_bar, L=L, mu_hat=raw.get("mu_hat"),
                q1=cons.q1, vinv_bound=cons.vinv_bound,
                beta=raw.get("beta"), eta=raw.get("eta", 1.0))
            j2 = rates.push_rate_constant(push_params)
            print(f"J2 = {j2}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        raise ConfigError(f"trace file {path} does not exist")
    trace = RunTrace.read(path)
    if trace.q_norm is None:
        raise ConfigError("trace has no audit sidecar; rerun with a "
                          "theory_audit block in the config")
    meta = trace.metadata.get("theory_audit", {})
    lam = args.lam if args.lam is not None else meta.get("lambda")
    if lam is None:
        raise ConfigError("no rate given: pass --lambda or store one in the "
                          "trace's theory_audit block")
    try:
        params = rates.TheoryParams(**{k: v for k, v in meta.items()
                                       if k not in ("lambda", "lambda_source")})
    except TypeError as exc:
        raise ConfigError(f"trace's theory_audit block does not hold the "
                          f"audit constants: {exc}") from exc
    ledger = rates.audit_small_gain(trace, params, lam)
    names = ("optimality->grad-diff", "grad-diff->tracker-viol",
             "tracker-viol->iterate-viol", "iterate-viol->optimality")
    print(f"audit at lambda={lam:.12g}, K={ledger.K}")
    for name, g, w, m, ok in zip(names, ledger.gains, ledger.offsets,
                                 ledger.margins, ledger.arrow_ok):
        print(f"  {'PASS' if ok else 'FAIL'} {name}: gain={g:.6g} "
              f"offset={w:.6g} margin={m:.6g}")
    print(f"  {'PASS' if ledger.product_ok else 'FAIL'} gain product = "
          f"{ledger.gain_product:.6g}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    result = harness.reproduce_section6(args.case, seed=args.seed,
                                        out_dir=args.out,
                                        iterations=args.iterations)
    prob = result["problem"]
    print(f"case {result['case']} (seed {args.seed}): n={prob['n']} "
          f"p={prob['p']} start-to-solution {prob['x_star_distance']:.3f}, "
          f"{prob['initial_clipped']}/{prob['n']} residuals clipped at start")
    for algo, entry in result["summary"].items():
        r2 = entry["tail_r_squared"]
        r2s = f"{r2:.4f}" if r2 is not None else "n/a"
        print(f"  {algo:17s} alpha={entry['alpha']:<6g} final residual "
              f"{entry['final_residual']:.3e}  tail R^2 {r2s}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    problems = harness.validate_config(config)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    print("config valid")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
