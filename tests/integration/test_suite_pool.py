"""``python -m repro`` runs whole experiments in a process pool
(DESIGN §17): what it prints must not depend on the pool.

Each run is a real ``python -m repro`` subprocess.  Its CPU affinity
sets the pool size — one usable CPU runs every experiment inline, two
run a pool of two workers — so no flag or environment variable is
involved.  The timing lines (``[fig2 done in 0.3s]``) are wall clock
and are the only lines dropped from the comparison.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import EXPERIMENTS
from repro.sim.shard import usable_cpus

SRC = str(Path(repro.__file__).resolve().parent.parent)
TIMING = re.compile(r"^\[\S+ done in [0-9.]+s\]$")
#: Experiments whose output does not hang on the hash seed, and which
#: finish in a few seconds together.
SUBSET = ["fig1", "fig2", "table5", "fig12"]

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="the pool size is set through the CPU affinity mask")


def _suite(args, cpus=None, hash_seed="0"):
    """Stdout of ``python -m repro ARGS`` on the first ``cpus`` usable
    CPUs (all of them by default), timing lines removed."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    preexec = None
    if cpus is not None:
        mask = sorted(os.sched_getaffinity(0))[:cpus]
        preexec = lambda: os.sched_setaffinity(0, mask)  # noqa: E731
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=env,
                          preexec_fn=preexec, check=True)
    return "".join(line for line in proc.stdout.splitlines(keepends=True)
                   if not TIMING.match(line.strip()))


@needs_affinity
@pytest.mark.skipif(usable_cpus() < 2,
                    reason="a pool of two needs two usable CPUs")
@pytest.mark.parametrize("flags", [[], ["--profile"]],
                         ids=["plain", "profile"])
def test_a_pool_of_two_prints_the_serial_bytes(flags):
    serial = _suite(flags + SUBSET, cpus=1)
    # Not a vacuous comparison: every experiment printed, in order.
    banners = [serial.index(EXPERIMENTS[key][0]) for key in SUBSET]
    assert banners == sorted(banners)
    if flags:
        assert serial.count("conservation:") == len(SUBSET)
    assert _suite(flags + SUBSET, cpus=2) == serial


@pytest.mark.xfail(strict=True, reason=(
    "fig10 and fig11 seed their latency jitter with hash(config), "
    "which PYTHONHASHSEED changes; a zlib.crc32 seed fixes it"))
def test_latency_figures_do_not_depend_on_the_hash_seed():
    assert _suite(["fig10", "fig11"], hash_seed="0") == \
        _suite(["fig10", "fig11"], hash_seed="1")
