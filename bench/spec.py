"""What the benchmark promises: the metric and workload names of
``BENCHMARK.json``, which metrics are exact, and the host fingerprint.

``BENCHMARK.json`` is the one list of names, units, directions and
bounds; this module only reads it, so a name cannot drift between the
file, ``run.py`` and ``compare.py``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Virtual-clock results: the paper's numbers.  For one seed they must
#: repeat bit for bit, across processes and across commits, so
#: ``compare.py`` gives them a relative bound of 1e-9 instead of a
#: percentage, and a run whose repeats disagree on one fails outright.
EXACT = ("virt_ns_per_op", "virt_rr_p50_us", "virt_rr_p99_us",
         "paper_err_pct")
EXACT_REL_TOL = 1e-9
#: ``BENCHMARK.json``'s bounds gate runs on *different* seeds at
#: different times and may not be tighter than this host's run-to-run
#: spread (12-18 % on the rate, so 25 %).  A result set repeats one seed
#: round-robin within minutes, so ``compare.py`` holds the rate to the
#: tenth a change is expected to stay within; a set too noisy for that
#: reads ``unresolved``, not ``ok``.
COMPARE_BOUNDS = {"wall_ops_per_s": 0.10}


def load_benchmark() -> Dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_table(benchmark: Dict) -> Dict[str, Dict]:
    """name -> its BENCHMARK.json entry, end-to-end and per-layer."""
    return {m["name"]: m
            for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] the way the driver computes them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def fingerprint() -> Dict[str, object]:
    """The host and switch states a result set was measured under."""
    from repro.ebpf import jit
    from repro.ovs import dpif_netdev, dpjit
    from repro.sim import fastpath
    from repro.sim.shard import usable_cpus

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        git_rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_rev = ""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "git_rev": git_rev or "unknown (not a git checkout)",
        "fastpath": fastpath.ENABLED,
        "batch_classify": dpif_netdev.BATCH_CLASSIFY,
        "ebpf_jit": jit.ENABLED,
        "dp_jit": dpjit.ENABLED,
    }
