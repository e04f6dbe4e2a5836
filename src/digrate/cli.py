"""Command-line front end.

Exit codes: 0 success, 2 malformed input (config/params parse), 3 failed
validation or inapplicable diagnostic, 4 runtime failure inside a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from . import __version__, harness, rates
from .config import ConfigBlock, ConfigError, decode_json, read_input
from .harness import ExperimentConfig
from .traces import AUDIT_SUFFIX, RunTrace

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
    except MemoryError as exc:
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return EXIT_RUNTIME


@functools.cache   # parse_args leaves the parser as it was
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
    p_rep.add_argument("--seed", type=_nonnegative_int, default=0)
    p_rep.add_argument("--iterations", type=_nonnegative_int, default=None)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(handler=_cmd_reproduce)

    p_val = sub.add_parser("validate", help="dry-run checks of a config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(handler=_cmd_validate)
    return parser


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not a nonnegative integer")
    return value


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return _nonnegative_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"{SEED_ENV}: {exc}") from exc


def _cmd_run(args) -> int:
    config = ExperimentConfig.load(args.config)
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
    get = ConfigBlock(decode_json(read_input(args.params, "params"), "params"), "params")
    n, B = get("n", "a positive integer"), get("B", "a positive integer", 1)
    delta = float(get("delta", "a number", 0.0))
    mu_bar = float(get("mu_bar", "a number", 1.0))
    L, kappa_bar = get("L", "a number", None), get("kappa_bar", "a number", None)
    if (L is None) == (kappa_bar is None):
        raise ConfigError("params: give one of L and kappa_bar")
    L = float(L) if kappa_bar is None else float(kappa_bar) * mu_bar
    mu_hat, beta = get("mu_hat", "a number", None), get("beta", "a number", None)
    eta = get("eta", "a number", 1.0)
    params = rates.TheoryParams(n=n, B=B, delta=delta, mu_bar=mu_bar, L=L,
                                mu_hat=mu_hat, beta=beta, eta=eta)
    alpha = get("alpha", "a positive number", None)
    tau = get("tau", "a number in (0, 1]", 1.0 / n)
    b_minus = get("B_minus", "a positive integer", None)
    get.done()
    # every line is made before any is printed: a failing file prints none
    kappa = params.kappa_bar
    j1 = rates.diging_rate_constant(kappa, B, n)
    window = rates.diging_step_size_window(params)
    alpha = float(0.9 * window.breakpoint if alpha is None else alpha)
    est = rates.diging_rate(alpha, params)
    flag = " (degenerate endpoint)" if est.degenerate else ""
    scal = rates.network_scalability_rate(tau, B, n, kappa, L, mu_bar)
    lines = [f"inputs: n={n} B={B} delta={delta:g} mu_bar={mu_bar:g} L={L:g} "
             f"kappa_bar={kappa:g}",
             f"J1 = {j1:.6g}",
             f"alpha window: (0, {window.alpha_max:.6g}], branch point "
             f"{window.breakpoint:.6g}",
             f"lambda at alpha={alpha:.6g}: {est.lam:.12g} (branch {est.branch}){flag}",
             f"scalability at tau={tau:g}: alpha={scal.alpha:.6g} "
             f"lambda={scal.lam:.12g}",
             f"lazy-Metropolis rate (B=1): {rates.lazy_metropolis_rate(n, kappa):.12g}"]
    if b_minus is not None:
        cons = rates.push_sum_contraction(n, b_minus)
        lines += [f"push-sum: tau_tilde={cons.tau_tilde} Q1={cons.q1} "
                  f"Vinv_bound={cons.vinv_bound}",
                  "push-sum: minimal contracting window "
                  f"B={cons.B_required or cons.B_required_log} delta={cons.delta}"]
        if cons.B_required is not None and cons.B_required < 10 ** 6:
            push_params = dataclasses.replace(
                params, B=cons.B_required, delta=cons.delta.to_float(),
                q1=cons.q1, vinv_bound=cons.vinv_bound)
            lines.append(f"J2 = {rates.push_rate_constant(push_params)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_audit(args) -> int:
    trace = RunTrace.read(args.trace)
    if trace.q_norm is None:
        raise ConfigError("trace has no audit sidecar; rerun with a "
                          "theory_audit block in the config")
    get = ConfigBlock(trace.metadata.get("theory_audit", {}),
                      f"{Path(args.trace).name}{AUDIT_SUFFIX} theory_audit")
    stored = get("lambda", "a number", None)
    get("lambda_source", "a string", None)  # a note for the reader; unused here
    lam = args.lam if args.lam is not None else stored
    if lam is None:
        raise ConfigError("no rate given: pass --lambda or store one in the "
                          "trace's theory_audit block")
    params = rates.TheoryParams(
        n=get("n", "a positive integer"), B=get("B", "a positive integer"),
        delta=get("delta", "a number"), mu_bar=get("mu_bar", "a number"),
        L=get("L", "a number"), mu_hat=get("mu_hat", "a number", None),
        q1=get("q1", "a number", None), vinv_bound=get("vinv_bound", "a number", None),
        beta=get("beta", "a number", None), eta=get("eta", "a number", 1.0),
        delta_source=get("delta_source", "a string", "empirical"))
    get.done()
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
    config = ExperimentConfig.load(args.config)
    problems = harness.validate_config(config)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    print("config valid")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
