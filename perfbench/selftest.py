"""Toy-size self-test of the benchmark itself; takes well under a minute.

    python3 perfbench/selftest.py

Checks the tracer's span bookkeeping on a synthetic module, runs every
workload at toy size with tracing off and on and validates the result line
against BENCHMARK.json, and checks that the benchmark fails without a result
in a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_tracer():
    fake = types.ModuleType("traceinv_selftest")

    def inner(delay):
        time.sleep(delay)
        return delay

    def outer():
        time.sleep(0.01)
        return fake.inner(0.02) + fake.inner(0.03)

    fake.inner, fake.outer = inner, outer
    sys.modules[fake.__name__] = fake
    targets = (("outer", "experiments", fake.__name__, "outer", None, None),
               ("inner", "ortho", fake.__name__, "inner", None, None),
               ("gone", "matrices", fake.__name__, "missing", None, None),
               ("no_module", "matrices", "traceinv_selftest_missing", "f", None, None))
    tracer = tracing.Tracer(targets).install()
    try:
        fake.outer()
    finally:
        tracer.uninstall()
    del sys.modules[fake.__name__]
    assert fake.inner is inner and fake.outer is outer, "uninstall did not restore"
    assert tracer.absent == ["gone", "no_module"], tracer.absent
    names = [span.name for span in tracer.spans]
    assert names == ["outer", "inner", "inner"], names
    assert [span.parent for span in tracer.spans] == [-1, 0, 0]
    selfs = tracing.self_times(tracer.spans)
    assert abs(sum(selfs) - tracer.spans[0].duration) < 1e-9
    assert 0.005 < selfs[0] < 0.03, selfs
    print("tracer: spans, parents, self times and absent targets ok")


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def check_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--toy"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(names)
        expected = {f"{w}.{m['name']}" for w in names for m in spec[section]}
        assert set(result["metrics"]) == expected, set(result["metrics"]) ^ expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), (name, metric)
        print(f"toy runs, trace {trace}: {len(expected)} metrics, all outputs correct")


def check_bare_directory():
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / HERE.name)
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "gcv_rational2", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=180, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the package sources"
    assert not proc.stdout.strip().endswith("}"), proc.stdout
    print("bare directory: exits", proc.returncode, "without a result")


if __name__ == "__main__":
    check_tracer()
    check_bare_directory()
    check_runs()
