"""One benchmark process: set up a workload, then measure, trace or probe it.

Started by run.py with the BLAS thread variables already set, so they take
effect before numpy loads. Writes JSON lines to stdout: a "ready" line when
set-up ends, then one "result" line. Usage:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS [--toy]

MODE is setup, measure, trace, single (one untraced call) or roofline.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent


def emit(event, **fields):
    print(json.dumps({"event": event, **fields}), flush=True)


def import_package():
    """Import traceinv from this checkout's sources, never from elsewhere."""
    import traceinv

    source = Path(traceinv.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"traceinv was imported from {source}, not from {ROOT / 'src'}")


def run_calls(workload, seconds, tracer=None):
    """Repeat the timed call while the next one is expected to end within ``seconds``.

    With a tracer, calls come in pairs, one plain and one traced, with the
    order swapped from pair to pair, so drift in the machine's speed and any
    first-call cost fall on both sides alike. Returns one record per call.
    """
    records = []
    step = 2 if tracer is not None else 1
    start = time.perf_counter()
    while True:
        traced = tracer is not None and (len(records) + len(records) // 2) % 2 == 1
        if traced:
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = workload.call()
        except Exception:  # a failing call counts as failed, never as slow
            traceback.print_exc()
            result = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            tracer.uninstall()
        records.append({"traced": traced, "wall": wall, "cpu": cpu, "result": result})
        elapsed = time.perf_counter() - start
        if len(records) % step == 0 and elapsed * (len(records) + step) / len(records) > seconds:
            return records


def summarize(workload, records):
    """Check every successful call and split timings by plain and traced."""
    import numpy as np

    done = [r for r in records if r["result"] is not None]
    quality, failures = workload.check([r["result"] for r in done]) if done else ({}, [])
    failed = len(records) - len(done)
    messages = []
    ok = []
    for record, bad in zip(done, failures):
        if bad:
            failed += 1
            messages.extend(bad)
        else:
            ok.append(record)
    plain = [r for r in ok if not r["traced"]]
    first = done[0]["result"] if done else None
    return {
        "attempted": len(records),
        "failed": failed,
        "failures": sorted(set(messages)),
        "solve_s": [r["wall"] for r in plain],
        "cpu_s": [r["cpu"] for r in plain],
        "traced_solve_s": [r["wall"] for r in ok if r["traced"]],
        "quality": quality,
        "counts": workload.counts(first) if first is not None else {},
        "outputs": np.asarray(workload.outputs(first)).tolist() if first is not None else [],
    }


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    toy = "--toy" in argv[4:]
    if mode == "roofline":
        size = 16 * 2**20 if toy else 4 * machine.last_level_cache_bytes()
        emit("result", roofline=machine.roofline(size), llc_bytes=machine.last_level_cache_bytes())
        return
    import_package()
    import workloads

    workload = workloads.make(name, toy=toy)
    workload.setup(seed)
    emit("ready", clock=time.clock_gettime(time.CLOCK_MONOTONIC))
    if mode == "setup":
        return

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
    budget = 0.0 if mode == "single" else seconds
    records = run_calls(workload, budget, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize(workload, records)
    summary["machine"] = machine.describe()
    summary["peak_rss_mb"] = peak_rss_mb
    if tracer is not None:
        calls = sum(r["traced"] for r in records)
        summary["layers"] = tracing.layer_metrics(tracer, calls)
        summary["absent"] = tracer.absent
        summary["span_self_s"] = sum(tracing.self_times(tracer.spans)) / calls
    emit("result", **summary)


if __name__ == "__main__":
    main(sys.argv[1:])
