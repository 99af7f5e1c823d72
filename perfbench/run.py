"""Benchmark entry point for traceinv.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of kernel_sweep, gcv_exact, gcv_rational2, stochastic_sweep, or
``all`` to run the four in turn. Every workload runs in fresh processes with
the BLAS thread count fixed at the number of usable CPUs:

* ``--trace 0`` sets the workload up three times, each in a new interpreter
  (set-up time is the median), and in the last one repeats the timed call
  for about S seconds with tracing off. It prints the end-to-end metrics.
* ``--trace 1`` repeats the timed call with calls alternately plain and
  traced, then runs one call with BLAS at one thread and the roofline
  reference, each in its own process. It prints the per-layer metrics.

Every call's outputs are checked against the acceptance gates. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it list every metric with its unit and
sample count. A record with the machine description goes to perfbench/out/.
The program exits non-zero without a result if any process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import BLAS_THREAD_VARS, source_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kernel_sweep", "gcv_exact", "gcv_rational2", "stochastic_sweep")
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0
# The README promises results independent of the thread count; BLAS only
# reorders sums between thread counts, so outputs should agree this closely.
THREADS_REL_TOL = 1e-9
KERNEL_OPERAND_BYTES = 8 * 2500**2


class ChildFailed(RuntimeError):
    pass


def run_child(mode, args, threads, deadline):
    """Run one worker process; return its events, with set-up time if it got ready."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
           str(args.seconds)] + (["--toy"] if args.toy else [])
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} process for {args.workload} timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process for {args.workload} exited with {proc.returncode}")
    events = {}
    for line in out.splitlines():
        if line.startswith("{"):
            event = json.loads(line)
            events[event["event"]] = event
    if "ready" in events:
        events["ready"]["setup_s"] = events["ready"]["clock"] - start
    if mode != "setup" and "result" not in events:
        raise ChildFailed(f"{mode} process for {args.workload} printed no result")
    return events


def median_of(values, what):
    if not values:
        raise ChildFailed(f"no successful call to measure {what}")
    return statistics.median(values)


def end_to_end(args, nproc, deadline):
    setups = [run_child("setup", args, nproc, deadline)["ready"]["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    events = run_child("measure", args, nproc, deadline)
    setups.append(events["ready"]["setup_s"])
    res = events["result"]
    calls = len(res["solve_s"])
    metrics = {
        "solve_s": (median_of(res["solve_s"], "solve_s"), "s", calls),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "cpu_s": (median_of(res["cpu_s"], "cpu_s"), "s", calls),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }
    report = {f"{key}": (value, "count", 1) for key, value in res["counts"].items()}
    report.update({key: (value, "1", 1) for key, value in res["quality"].items()})
    report["failed_frac"] = (res["failed"] / res["attempted"], "1", res["attempted"])
    res["setup_s"] = setups
    return metrics, report, res, {}


def traced(args, nproc, deadline):
    res = run_child("trace", args, nproc, deadline)["result"]
    single = run_child("single", args, 1, deadline)["result"]
    roof = run_child("roofline", args, nproc, deadline)["result"]

    plain_s = median_of(res["solve_s"], "untraced solve_s")
    traced_s = median_of(res["traced_solve_s"], "traced solve_s")
    metrics = {name: (m["value"], m["unit"], len(res["traced_solve_s"]))
               for name, m in res["layers"].items()}
    if not res["outputs"] or len(single["outputs"]) != len(res["outputs"]):
        raise ChildFailed(f"one-thread call of {args.workload} gave no comparable outputs")
    threads_diff = max(abs(a - b) / max(abs(b), 1e-300)
                       for a, b in zip(single["outputs"], res["outputs"]))
    metrics.update({
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "1", len(res["traced_solve_s"])),
        "trace.solve_s": (traced_s, "s", len(res["traced_solve_s"])),
        "trace.untraced_solve_s": (plain_s, "s", len(res["solve_s"])),
        "trace.accounted_frac": (res["span_self_s"] / statistics.mean(res["traced_solve_s"]),
                                 "1", len(res["traced_solve_s"])),
        "threads1.solve_s": (median_of(single["solve_s"], "one-thread solve_s"), "s", 1),
        "threads1.max_rel_diff": (threads_diff, "1", 1),
        "roofline.dgemm_gflops": (roof["roofline"]["dgemm_gflops"], "GFLOP/s", 1),
        "roofline.copy_gbps": (roof["roofline"]["copy_gbps"], "GB/s", 1),
    })
    report = {"roofline.copy_array_mib": (roof["roofline"]["copy_array_bytes"] / 2**20, "MiB", 1),
              "roofline.llc_mib": (roof["llc_bytes"] / 2**20, "MiB", 1)}
    res["attempted"] += single["attempted"]
    res["failed"] += single["failed"]
    res["failures"] += single["failures"]
    # Both calls passed the accuracy gates on their own; a difference beyond
    # the tolerance is a finding about thread-count independence, not a
    # wrong answer, so it is reported rather than counted as a failed call.
    within = threads_diff <= THREADS_REL_TOL
    if not within:
        print(f"{args.workload:17s} NOTE: one-thread outputs differ by {threads_diff:.3g} "
              f"relative (tolerance {THREADS_REL_TOL:g})")
    extra = {"absent": res["absent"], "threads_rel_tol": THREADS_REL_TOL,
             "threads_within_tol": within,
             "single_thread_machine": single["machine"],
             "kernel_operand_bytes": KERNEL_OPERAND_BYTES,
             "kernel_operand_fits_llc": KERNEL_OPERAND_BYTES <= roof["llc_bytes"],
             "rates": "GFLOP/s and GB/s are computed from array sizes, not counted"}
    return metrics, report, res, extra


def run_workload(args):
    nproc = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = traced if args.trace else end_to_end
    metrics, report, res, extra = measure(args, nproc, deadline)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "blas_threads": nproc,
        "machine": {**res["machine"], **source_record(ROOT)},
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in {**metrics, **report}.items()},
        "samples": {key: res.get(key, []) for key in
                    ("solve_s", "cpu_s", "traced_solve_s", "setup_s")},
        "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
        **extra,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    for key, (value, unit, samples) in {**metrics, **report}.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload:17s} {key:38s} {shown:>12s} {unit:8s} n={samples}")
    for failure in res["failures"]:
        print(f"{args.workload:17s} FAILED: {failure}")
    return metrics, res


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny operands, for the benchmark's self-test only")
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, values = True, 0, 0, {}
    try:
        for name in names:
            metrics, res = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            prefix = f"{name}." if args.workload == "all" else ""
            values.update({prefix + k: {"value": v, "unit": u}
                           for k, (v, u, _) in metrics.items()})
            attempted += res["attempted"]
            failed += res["failed"]
            correct = correct and res["failed"] == 0
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": values}))


if __name__ == "__main__":
    main()
