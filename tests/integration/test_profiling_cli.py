"""The profiling CLIs run end to end with a clean conservation audit.

``perf_report`` exits nonzero when the profiled run's ledger does not
conserve, so exit 0 is the audit passing.  fig9 is profiled once in a
fresh interpreter, as a user runs it, and once in this process through
``main(argv)``: the two collapsed-stack flamegraphs must be byte-equal
(a difference is nondeterminism or module state leaking between runs).
The metrics sampler's JSONL series is checked line by line.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.experiments import fig9_forwarding
from repro.tools import perf_report

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_fig9_profile_is_conserved_and_its_flamegraph_deterministic(
        tmp_path, capsys):
    fresh_flame = tmp_path / "fig9_a.folded"
    fresh = subprocess.run(
        [sys.executable, "-m", "repro.tools.perf_report", "fig9", "--tree",
         "--flame", str(fresh_flame), "--json", str(tmp_path / "a.json")],
        env=_env(), capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr

    local_flame = tmp_path / "fig9_b.folded"
    assert perf_report.main(
        ["fig9", "--tree", "--flame", str(local_flame),
         "--json", str(tmp_path / "b.json")]) == 0
    out = capsys.readouterr().out
    assert "call tree: fig9" in out

    assert fresh_flame.read_bytes()
    assert fresh_flame.read_bytes() == local_flame.read_bytes()
    assert json.loads((tmp_path / "b.json").read_text())


def test_table5_profile_is_conserved(capsys):
    assert perf_report.main(["table5", "--tree", "--flame"]) == 0
    assert "call tree: table5" in capsys.readouterr().out


def test_fig9_metrics_series_is_tagged_jsonl(tmp_path, capsys):
    path = tmp_path / "fig9_metrics.jsonl"
    fig9_forwarding.main(["--metrics", str(path), "--packets", "300"])
    assert f"to {path}" in capsys.readouterr().out
    lines = path.read_text().splitlines()
    assert lines
    for line in lines:
        assert json.loads(line)["experiment"] == "fig9"
