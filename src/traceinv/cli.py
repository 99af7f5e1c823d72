"""Batch command-line front end.

Subcommands: trace, interpolate, ortho, gp-experiment, gcv-experiment,
check-inequalities. Each ``cmd_*`` returns (exit code, {file name: data},
stdout lines); ``main`` alone writes the artifacts and a manifest.json (the full
configuration, seeds, and package version) into --out, so outputs can be
regenerated bit-exactly, then prints. Refused input prints one line, exits 2 and
writes nothing; 1 is a failed check. Heavy numerical modules are imported only
after --threads has been applied to the BLAS environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .exceptions import InvalidShape, TraceInvError  # loads no numpy

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

_GCV_MODES = {"exact": None, "rational1": 1, "rational2": 2}


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _int_at_least(low):
    def integer(text):  # argparse names it in the message for a non-integer
        if (count := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {count}")
        return count
    return integer


def _choice_list(*choices):
    def parse(text):
        items = text.split(",")
        unknown = [item for item in items if item not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {', '.join(unknown)}; choose from {','.join(choices)}")
        return items
    return parse


def _numbers(metavar, *kinds):
    """argparse type: a comma list of one number per kind, e.g. SIDE,RHO from (int, float)."""
    def parse(text):
        parts = text.split(",")
        try:
            if len(parts) == len(kinds):
                return tuple(kind(part) for kind, part in zip(kinds, parts))
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"takes {metavar}, got {text}")
    return parse


def _parse_sweep(text):
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("--sweep takes min,max,count[,log|lin]")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    spacing = parts[3] if len(parts) == 4 else "log"
    if spacing not in ("log", "lin"):
        raise argparse.ArgumentTypeError("sweep spacing must be 'log' or 'lin'")
    if count < 1 or (spacing == "log" and lo <= 0.0):
        raise argparse.ArgumentTypeError(f"needs COUNT >= 1, and MIN > 0 if log; got {text}")
    return lo, hi, count, spacing


def _add_matrix_options(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", type=Path, help="matrix file (.mtx or .csv)")
    group.add_argument("--kernel", metavar="SIDE,RHO", type=_numbers("SIDE,RHO", int, float),
                       help="exponential-decay kernel on a side^2 point grid")
    group.add_argument("--design", metavar="N,M,SEED", type=_numbers("N,M,SEED", int, int, int),
                       help="shifted Gram matrix X^T X + shift*I of a synthetic design")
    parser.add_argument("--random-points", action="store_true",
                        help="sample kernel points uniformly instead of the grid")
    parser.add_argument("--shift", type=float, default=1e-3,
                        help="diagonal shift for --design operands (default 1e-3)")


def _load_operand(args):
    from . import io
    from .experiments import make_gcv_problem
    from .matrices import build_exponential_kernel, sample_points

    if args.matrix is not None:
        return io.load_matrix(args.matrix)
    if args.kernel is not None:
        side, rho = args.kernel
        sampling = "random" if args.random_points else "grid"
        return build_exponential_kernel(sample_points(side, sampling, args.seed), rho)
    n, m, seed = args.design
    return make_gcv_problem(n=n, m=m, seed=seed, s=args.shift).shifted_gram


def _write(path, data):
    """A ``.json`` artifact is any JSON value; a ``.csv`` one is (header, rows)."""
    if path.suffix == ".json":
        text = json.dumps(data, indent=2) + "\n"
    else:
        header, rows = data
        text = "".join(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                for v in row) + "\n" for row in [header, *rows])
    path.write_text(text)


def _manifest(args, argv):
    import numpy
    import scipy

    return {
        "command": args.command,
        "argv": argv,
        "config": {k: (str(v) if isinstance(v, Path) else v)
                   for k, v in vars(args).items() if k != "func"},
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "numpy_version": numpy.__version__,
        "scipy_version": scipy.__version__,
    }


def cmd_trace(args):
    from .estimators import prepare_trace

    M = _load_operand(args)
    sweeps = [prepare_trace(M, method=method, n_v=args.nv, degree=args.degree,
                            seed=args.seed)(args.t)
              for method in args.method]
    rows = [(float(t), sweep[k]) for k, t in enumerate(args.t) for sweep in sweeps]
    return 0, {"trace_estimates.json": [est.record(t=t) for t, est in rows]}, [
        f"t={t:.17g} method={est.method} value={est.value:.17g} "
        f"std_error={est.std_error:.17g}" for t, est in rows]


def cmd_interpolate(args):
    import numpy as np

    from .estimators import prepare_trace
    from .experiments import sweep_grid
    from .interpolation import (
        compute_tau_at_nodes,
        compute_tau_context,
        default_nodes,
        fit_basis,
        fit_rational,
    )

    ts = None if args.sweep is None else sweep_grid(args.sweep)
    if args.variant == "rational" and len(args.nodes or ()) % 2:
        raise InvalidShape(f"--variant rational needs an even number of --nodes, "
                           f"got {len(args.nodes)}")
    M = _load_operand(args)
    ctx = compute_tau_context(M, method=args.method, n_v=args.nv,
                              degree=args.degree, seed=args.seed)
    if args.variant == "bound":
        nodes = np.array([])
    elif args.nodes is not None:
        nodes = np.asarray(args.nodes, dtype=float)
    else:
        count = args.p if args.variant == "basis" else 2 * args.p
        nodes = default_nodes(ctx.tau0, count)
    pts = compute_tau_at_nodes(ctx, nodes)
    if args.variant == "rational":
        interp = fit_rational(ctx, pts, len(nodes) // 2)
    else:
        interp = fit_basis(ctx, pts)  # empty nodes give the bound variant

    record = {**interp.record(), "nodes": pts.ts.tolist(), "node_values": pts.taus.tolist()}
    artifacts = {"interpolant.json": record}
    if ts is not None:  # the exact curve: the context with a Cholesky back-end
        exact_ctx = replace(ctx, backend=prepare_trace(ctx.A, ctx.B))
        approx, exact = interp(ts), exact_ctx(ts)  # a t the fit refuses costs no trace
        artifacts["sweep.csv"] = (["t", "tau_exact", "tau_interp", "rel_error"],
                                  zip(ts.tolist(), exact.tolist(), approx.tolist(),
                                      (approx / exact - 1.0).tolist()))
    failures = int(np.sum(np.abs(interp(pts.ts) / pts.taus - 1.0) > 1e-8))
    return 1 if failures else 0, artifacts, [
        f"tau0={ctx.tau0:.17g} variant={record['variant']} p={interp.p} "
        f"node_failures={failures}"]


def cmd_ortho(args):
    from .ortho import gram_schmidt

    coeffs = gram_schmidt(args.p)
    return 0, {"ortho_coefficients.json": coeffs.to_json()}, [coeffs.table_text()]


def cmd_gp(args):
    from .experiments import GP_DEFAULT_NODES, gp_experiment

    result = gp_experiment(side=args.side, rho=args.rho,
                           nodes=args.nodes or GP_DEFAULT_NODES,
                           p_values=args.p, sweep=args.sweep,
                           sampling="random" if args.random_points else "grid",
                           seed=args.seed)
    lines = [f"tau0={result.tau0:.17g}"]
    lines += [f"p={p} max_rel_error={result.max_rel_error(p):.17g}"
              for p in sorted(result.interpolated)]
    return 1 if result.node_check_failures else 0, {
        "gp_curves.csv": result.curve_rows(), "gp_summary.json": result.summary()}, lines


def cmd_gcv(args):
    from .experiments import (
        gcv_experiment,
        gcv_theta_grid,
        gcv_value,
        make_gcv_problem,
        relative_log_theta_error,
    )

    problem = make_gcv_problem(n=args.n, m=args.m, seed=args.seed, s=args.shift,
                               sigma=args.sigma)
    results = []
    for method in args.method:
        for mode in args.mode:
            res = gcv_experiment(problem, interpolation=_GCV_MODES[mode], method=method,
                                 n_v=args.nv, degree=args.degree, trace_seed=args.seed,
                                 de_seed=args.de_seed, max_generations=args.max_generations)
            results.append((mode, res))
    exact = {res.method: res for mode, res in results if mode == "exact"}
    rows = []
    for mode, res in results:
        row = res.to_json()
        if mode != "exact" and res.method in exact:
            row["error_vs_exact"] = relative_log_theta_error(
                res.theta_star, exact[res.method].theta_star)
        rows.append(row)
    artifacts = {"gcv_results.json": rows}
    if args.curve_points > 0:
        thetas = gcv_theta_grid(problem, count=args.curve_points)
        v_exact = gcv_value(problem, thetas, problem.tau_context())
        artifacts["gcv_curve.csv"] = (["theta", "v_exact"],
                                      zip(thetas.tolist(), v_exact.tolist()))
    return 0, artifacts, [
        f"mode={mode} method={res.method} log10_theta*={res.log10_theta_star:.6f} "
        f"V={res.v_min:.17g} N_tr={res.n_tr} N_tot={res.n_tot}" for mode, res in results]


def cmd_check(args):
    from .inequalities import check_inequality_suite

    report = check_inequality_suite(args.trials, args.n, args.seed).to_json()
    return 0 if report["passed"] else 1, {"inequality_report.json": report}, [
        json.dumps(report, indent=2)]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="traceinv",
        description="Evaluate and interpolate trace((A + t*B)^-1) for SPD matrices.",
    )
    parser.add_argument("--threads", type=_int_at_least(1), default=None,  # OpenBLAS: 0 = all
                        help="BLAS thread count (default: all cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="traceinv-out", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="master random seed")
    probes = argparse.ArgumentParser(add_help=False)
    probes.add_argument("--nv", type=int, default=30)
    probes.add_argument("--degree", type=int, default=30)

    p_trace = sub.add_parser("trace", parents=[common, probes],
                             help="estimate trace((M + t*I)^-1) at given t")
    _add_matrix_options(p_trace)
    p_trace.add_argument("--t", type=_float_list, required=True, metavar="LIST")
    p_trace.add_argument("--method", default="cholesky",
                         type=_choice_list("cholesky", "eigen", "hutchinson", "slq"),
                         help="comma list from cholesky,eigen,hutchinson,slq")
    p_trace.set_defaults(func=cmd_trace)

    p_interp = sub.add_parser("interpolate", parents=[common, probes],
                              help="fit an interpolant to tau(t)")
    _add_matrix_options(p_interp)
    p_interp.add_argument("--variant", choices=("bound", "basis", "rational"),
                          default="basis")
    p_interp.add_argument("--p", type=_int_at_least(0), default=3, help="interpolation order")
    p_interp.add_argument("--nodes", type=_float_list, default=None, metavar="LIST")
    p_interp.add_argument("--method", default="cholesky",
                          choices=("cholesky", "eigen", "hutchinson", "slq"))
    p_interp.add_argument("--sweep", type=_parse_sweep, default=None,
                          metavar="MIN,MAX,COUNT[,log|lin]")
    p_interp.set_defaults(func=cmd_interpolate)

    p_ortho = sub.add_parser("ortho", parents=[common],
                             help="emit orthonormal basis coefficients")
    p_ortho.add_argument("--p", type=int, default=9)
    p_ortho.set_defaults(func=cmd_ortho)

    p_gp = sub.add_parser("gp-experiment", parents=[common],
                          help="kernel-matrix interpolation study with bounds")
    p_gp.add_argument("--side", type=int, default=50)
    p_gp.add_argument("--rho", type=float, default=0.1)
    p_gp.add_argument("--nodes", type=_float_list, default=None, metavar="LIST")
    p_gp.add_argument("--p", type=lambda s: [int(x) for x in s.split(",")],
                      default=[1, 9], metavar="LIST")
    p_gp.add_argument("--sweep", type=_parse_sweep, default=(1e-4, 1e3, 100, "log"),
                      metavar="MIN,MAX,COUNT[,log|lin]")
    p_gp.add_argument("--random-points", action="store_true")
    p_gp.set_defaults(func=cmd_gp)

    p_gcv = sub.add_parser("gcv-experiment", parents=[common, probes],
                           help="ridge regularization search by GCV")
    p_gcv.add_argument("--n", type=int, default=1000)
    p_gcv.add_argument("--m", type=int, default=500)
    p_gcv.add_argument("--shift", type=float, default=1e-3)
    p_gcv.add_argument("--sigma", type=float, default=0.4)
    p_gcv.add_argument("--mode", default="exact,rational1,rational2",
                       type=_choice_list(*_GCV_MODES),
                       help="comma list from exact,rational1,rational2")
    p_gcv.add_argument("--method", default="cholesky",
                       type=_choice_list("cholesky", "hutchinson", "slq"),
                       help="comma list from cholesky,hutchinson,slq")
    p_gcv.add_argument("--de-seed", type=int, default=0)
    p_gcv.add_argument("--max-generations", type=_int_at_least(0), default=200,
                       help="optimizer budget; the search stops earlier once the "
                            "population's scores agree")
    p_gcv.add_argument("--curve-points", type=_int_at_least(0), default=0,
                       help="also emit a V(theta) curve with this many points")
    p_gcv.set_defaults(func=cmd_gcv)

    p_check = sub.add_parser("check-inequalities", parents=[common],
                             help="randomized verification of the trace inequalities")
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.add_argument("--n", type=int, default=20)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        # Must happen before numpy loads its BLAS; compute modules are
        # imported lazily inside the command functions for this reason.
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    try:
        code, artifacts, lines = args.func(args)
    except TraceInvError as exc:  # refused input: one line and argparse's usage code
        print(f"traceinv: error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in {**artifacts, "manifest.json": _manifest(args, argv)}.items():
        _write(out / name, data)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
