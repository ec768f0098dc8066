"""The robustness experiments are byte-deterministic per seed and keep
their shape.

Degradation, upgrade (kernel and AF_XDP zero-copy) and observer effect
each run per seed once in a fresh interpreter, as a user runs them
(``python -m repro.experiments.<x> --json --seed <s> ...``), and once
in this process through ``main(argv)``.  The outputs must be byte-equal
(a difference is module state leaking between runs), and the JSON must
keep the shape each ``check_*`` below asserts.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def check_degradation(doc):
    """Conserved everywhere, a fault-free baseline, a monotone decline."""
    points = doc["points"]
    delivered = [p["delivered"] for p in points]
    assert delivered[0] == points[0]["offered"], "faulty baseline"
    assert sorted(delivered, reverse=True) == delivered, delivered
    assert all(p["conserved"] for p in points)


def check_upgrade(doc):
    """Conserved through one crash; the kernel's warm megaflow cache
    disrupts strictly less than the cold AF_XDP rebind, and loses none."""
    scenarios = doc["scenarios"]
    kernel, zc = scenarios["kernel"], scenarios["afxdp_zc"]
    for r in (kernel, zc):
        assert r["conserved"], r
        assert r["restarts"] == 1, r
    assert kernel["downtime_ms"] < zc["downtime_ms"], (
        kernel["downtime_ms"], zc["downtime_ms"])
    assert kernel["lost"] < zc["lost"], (kernel["lost"], zc["lost"])
    assert kernel["lost"] == 0, kernel["lost"]


def check_observer_effect(doc):
    """Exact reconciliation everywhere; cost rises strictly with the
    sampling rate, from off to every packet."""
    points = doc["points"]
    assert all(p["reconciled"] and p["conserved"] for p in points)
    for datapath in ("kernel", "afxdp_zc"):
        curve = [p for p in points if p["datapath"] == datapath]
        cost = [p["ns_per_packet"] for p in curve]
        assert cost == sorted(cost) and len(set(cost)) == len(cost), (
            datapath, cost)
        assert curve[0]["rate"] == 0 and curve[-1]["rate"] == 1
        assert curve[-1]["sampled"] == curve[-1]["observed"]


#: module -> (extra argv, shape check).
EXPERIMENTS = {
    "degradation": ((), check_degradation),
    "upgrade": (("--scenarios", "kernel,afxdp_zc"), check_upgrade),
    "observer_effect": ((), check_observer_effect),
}


@pytest.mark.parametrize("seed", ["0", "7"])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_run_is_byte_equal_across_processes_and_keeps_its_shape(
        experiment, seed, capsys):
    extra, check = EXPERIMENTS[experiment]
    argv = ["--json", "--seed", seed, *extra]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    fresh = subprocess.run(
        [sys.executable, "-m", f"repro.experiments.{experiment}", *argv],
        env=env, capture_output=True, text=True, check=True).stdout

    importlib.import_module(f"repro.experiments.{experiment}").main(argv)
    assert capsys.readouterr().out == fresh

    check(json.loads(fresh))
