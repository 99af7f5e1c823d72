"""Batch command-line front end.

Subcommands: trace, interpolate, ortho, gp-experiment, gcv-experiment,
check-inequalities. Every run writes its artifacts plus a manifest.json
(the full configuration, seeds, and package version) into the output
directory, so outputs can be regenerated bit-exactly. Heavy numerical
modules are imported only after --threads has been applied to the BLAS
environment. Refused input prints one line and exits 2; 1 is a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .exceptions import TraceInvError  # loads no numpy

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


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_manifest(out_dir, args, argv):
    from . import __version__

    config = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "argv": list(argv),
        "config": config,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    import numpy
    import scipy

    manifest["numpy_version"] = numpy.__version__
    manifest["scipy_version"] = scipy.__version__
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_trace(args, argv):
    from .estimators import prepare_trace

    M = _load_operand(args)
    sweeps = [prepare_trace(M, method=method, n_v=args.nv, degree=args.degree,
                            seed=args.seed)(args.t)
              for method in args.method]
    rows = [(float(t), sweep[k]) for k, t in enumerate(args.t) for sweep in sweeps]
    out = _out_dir(args)
    _write_json(out / "trace_estimates.json", [est.record(t=t) for t, est in rows])
    _write_manifest(out, args, argv)
    for t, est in rows:
        print(f"t={t:.17g} method={est.method} value={est.value:.17g} "
              f"std_error={est.std_error:.17g}")
    return 0


def cmd_interpolate(args, argv):
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

    out = _out_dir(args)
    record = interp.record()
    record["nodes"] = [float(t) for t in pts.ts]
    record["node_values"] = [float(v) for v in pts.taus]
    _write_json(out / "interpolant.json", record)

    if args.sweep is not None:
        ts = sweep_grid(args.sweep)
        exact = np.array([est.value for est in prepare_trace(ctx.A, ctx.B)(ts)]) / ctx.trace_b_inv
        approx = interp(ts)
        _write_csv(out / "sweep.csv", ["t", "tau_exact", "tau_interp", "rel_error"],
                   zip(ts.tolist(), exact.tolist(), approx.tolist(),
                       (approx / exact - 1.0).tolist()))
    failures = int(np.sum(np.abs(interp(pts.ts) / pts.taus - 1.0) > 1e-8))
    _write_manifest(out, args, argv)
    print(f"tau0={ctx.tau0:.17g} variant={record['variant']} p={interp.p} "
          f"node_failures={failures}")
    return 1 if failures else 0


def cmd_ortho(args, argv):
    from .ortho import gram_schmidt

    coeffs = gram_schmidt(args.p)
    out = _out_dir(args)
    _write_json(out / "ortho_coefficients.json", coeffs.to_json())
    _write_manifest(out, args, argv)
    print(coeffs.table_text())
    return 0


def cmd_gp(args, argv):
    from .experiments import GP_DEFAULT_NODES, gp_experiment

    result = gp_experiment(side=args.side, rho=args.rho,
                           nodes=args.nodes or GP_DEFAULT_NODES,
                           p_values=args.p, sweep=args.sweep,
                           sampling="random" if args.random_points else "grid",
                           seed=args.seed)
    out = _out_dir(args)
    header, rows = result.curve_rows()
    _write_csv(out / "gp_curves.csv", header, rows)
    _write_json(out / "gp_summary.json", result.summary())
    _write_manifest(out, args, argv)
    print(f"tau0={result.tau0:.17g}")
    for p in sorted(result.interpolated):
        print(f"p={p} max_rel_error={result.max_rel_error(p):.17g}")
    return 1 if result.node_check_failures else 0


def cmd_gcv(args, argv):
    from .estimators import prepare_trace
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
    out = _out_dir(args)
    _write_json(out / "gcv_results.json", rows)

    if args.curve_points > 0:
        thetas = gcv_theta_grid(problem, count=args.curve_points)
        backend = prepare_trace(problem.shifted_gram)
        v_exact = gcv_value(problem, thetas,
                            lambda ts: [est.value / problem.m for est in backend(ts)])
        _write_csv(out / "gcv_curve.csv", ["theta", "v_exact"],
                   zip(thetas.tolist(), v_exact.tolist()))

    _write_manifest(out, args, argv)
    for mode, res in results:
        print(f"mode={mode} method={res.method} log10_theta*={res.log10_theta_star:.6f} "
              f"V={res.v_min:.17g} N_tr={res.n_tr} N_tot={res.n_tot}")
    return 0


def cmd_check(args, argv):
    from .inequalities import check_inequality_suite

    report = check_inequality_suite(args.trials, args.n, args.seed)
    out = _out_dir(args)
    _write_json(out / "inequality_report.json", report.to_json())
    _write_manifest(out, args, argv)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="traceinv",
        description="Evaluate and interpolate trace((A + t*B)^-1) for SPD matrices.",
    )
    parser.add_argument("--threads", type=_int_at_least(1), default=None,  # OpenBLAS: 0 = all
                        help="BLAS thread count (default: all cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = {"--out": dict(default="traceinv-out", help="output directory"),
              "--seed": dict(type=int, default=0, help="master random seed")}

    p_trace = sub.add_parser("trace", help="estimate trace((M + t*I)^-1) at given t")
    _add_matrix_options(p_trace)
    p_trace.add_argument("--t", type=_float_list, required=True, metavar="LIST")
    p_trace.add_argument("--method", default="cholesky",
                         type=_choice_list("cholesky", "eigen", "hutchinson", "slq"),
                         help="comma list from cholesky,eigen,hutchinson,slq")
    p_trace.add_argument("--nv", type=int, default=30)
    p_trace.add_argument("--degree", type=int, default=30)
    for flag, kw in common.items():
        p_trace.add_argument(flag, **kw)
    p_trace.set_defaults(func=cmd_trace)

    p_interp = sub.add_parser("interpolate", help="fit an interpolant to tau(t)")
    _add_matrix_options(p_interp)
    p_interp.add_argument("--variant", choices=("bound", "basis", "rational"),
                          default="basis")
    p_interp.add_argument("--p", type=_int_at_least(0), default=3, help="interpolation order")
    p_interp.add_argument("--nodes", type=_float_list, default=None, metavar="LIST")
    p_interp.add_argument("--method", default="cholesky",
                          choices=("cholesky", "eigen", "hutchinson", "slq"))
    p_interp.add_argument("--nv", type=int, default=30)
    p_interp.add_argument("--degree", type=int, default=30)
    p_interp.add_argument("--sweep", type=_parse_sweep, default=None,
                          metavar="MIN,MAX,COUNT[,log|lin]")
    for flag, kw in common.items():
        p_interp.add_argument(flag, **kw)
    p_interp.set_defaults(func=cmd_interpolate)

    p_ortho = sub.add_parser("ortho", help="emit orthonormal basis coefficients")
    p_ortho.add_argument("--p", type=int, default=9)
    for flag, kw in common.items():
        p_ortho.add_argument(flag, **kw)
    p_ortho.set_defaults(func=cmd_ortho)

    p_gp = sub.add_parser("gp-experiment",
                          help="kernel-matrix interpolation study with bounds")
    p_gp.add_argument("--side", type=int, default=50)
    p_gp.add_argument("--rho", type=float, default=0.1)
    p_gp.add_argument("--nodes", type=_float_list, default=None, metavar="LIST")
    p_gp.add_argument("--p", type=lambda s: [int(x) for x in s.split(",")],
                      default=[1, 9], metavar="LIST")
    p_gp.add_argument("--sweep", type=_parse_sweep, default=(1e-4, 1e3, 100, "log"),
                      metavar="MIN,MAX,COUNT[,log|lin]")
    p_gp.add_argument("--random-points", action="store_true")
    for flag, kw in common.items():
        p_gp.add_argument(flag, **kw)
    p_gp.set_defaults(func=cmd_gp)

    p_gcv = sub.add_parser("gcv-experiment",
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
    p_gcv.add_argument("--nv", type=int, default=30)
    p_gcv.add_argument("--degree", type=int, default=30)
    p_gcv.add_argument("--de-seed", type=int, default=0)
    p_gcv.add_argument("--max-generations", type=_int_at_least(0), default=200,
                       help="optimizer budget; the search stops earlier once the "
                            "population's scores agree")
    p_gcv.add_argument("--curve-points", type=_int_at_least(0), default=0,
                       help="also emit a V(theta) curve with this many points")
    for flag, kw in common.items():
        p_gcv.add_argument(flag, **kw)
    p_gcv.set_defaults(func=cmd_gcv)

    p_check = sub.add_parser("check-inequalities",
                             help="randomized verification of the trace inequalities")
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.add_argument("--n", type=int, default=20)
    for flag, kw in common.items():
        p_check.add_argument(flag, **kw)
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
        return args.func(args, argv)
    except TraceInvError as exc:  # refused input: one line and argparse's usage code
        print(f"traceinv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
