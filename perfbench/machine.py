"""Machine record and roofline reference for benchmark results."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def caches():
    """{"L1d": bytes, "L2": bytes, "L3": bytes, ...} for CPU 0, from sysfs."""
    found = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1024, "M": 1024**2, "G": 1024**3}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        found[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = value
    return found


def last_level_cache_bytes():
    sizes = caches()
    return max(sizes.values()) if sizes else 0


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_record(root):
    """Git commit when the tree is a checkout, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _loaded_blas():
    """Runtime configuration and thread count of every OpenBLAS in this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps
                    if line.split()[-1].startswith("/")
                    and "openblas" in Path(line.split()[-1]).name.lower()})
    symbols = [(f"{prefix}get_config{suffix}", f"{prefix}get_num_threads{suffix}")
               for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for config_name, threads_name in symbols:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config, threads = getattr(lib, config_name), getattr(lib, threads_name)
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
                break
        found.append(entry)
    return found


def describe():
    """Everything needed to compare a result with one taken elsewhere.

    Call after numpy and scipy.linalg are imported, so both BLAS builds are
    loaded and report their thread counts.
    """
    import numpy
    import scipy

    sizes = caches()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l2_bytes": sizes.get("L2"),
        "l3_bytes": sizes.get("L3"),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas": _loaded_blas(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def roofline(array_bytes, repeats=3):
    """Best-of-``repeats`` dgemm GFLOP/s and copy GB/s.

    The copy reads one array and writes another, each ``array_bytes`` long;
    the rate counts 2 * array_bytes per copy (computed, write-allocate
    traffic not included). dgemm multiplies two 2048-square matrices, 2 n^3
    flops.
    """
    import numpy as np

    n = 2048
    a = np.random.default_rng(0).standard_normal((n, n))
    b = a.T.copy()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    gflops = 2.0 * n**3 / best / 1e9
    del a, b

    count = max(array_bytes // 8, 1)
    src = np.ones(count)
    dst = np.zeros(count)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return {"dgemm_gflops": gflops, "copy_gbps": 2.0 * count * 8 / best / 1e9,
            "copy_array_bytes": count * 8, "dgemm_order": n}
