"""Every ``python -m repro`` subcommand runs end to end.

Each experiment is driven through the real CLI dispatcher
(:func:`repro.__main__.main`) under a tiny packet/byte budget so the
whole sweep fits in the tier-1 suite.  Experiment ``main()``s call their
``run_*`` entry point by module-global name, so shrinking the budget is
a matter of rebinding that global to a :func:`functools.partial`;
``fig9``, ``degradation`` and ``upgrade`` read a ``PACKETS`` module
global at call time instead, so those get the global patched.
"""

import functools
import importlib
import json

import pytest

from repro.__main__ import EXPERIMENTS, main

#: experiment key -> (module attribute, replacement kwargs).  ``None``
#: means the experiment is already cheap enough to run unmodified.
TINY = {
    "fig1": None,
    "fig2": ("run_fig2", {"packets": 300}),
    "table2": ("run_table2", {"packets": 300}),
    "table3": ("run_table3", {"target_rules": 4000}),
    "fig8": ("run_fig8", {"total_bytes": 60_000}),
    "fig9": ("PACKETS", 150),
    "fig10": ("run_fig10", {"n_transactions": 40}),
    "fig11": ("run_fig11", {"n_transactions": 40}),
    "table5": ("run_table5", {"packets": 400}),
    "fig12": ("run_fig12", {"packets_per_queue": 150}),
    "degradation": ("PACKETS", 200),
    "upgrade": ("PACKETS", 640),
    "observer-effect": ("PACKETS", 150),
}


def _shrink(monkeypatch, key):
    recipe = TINY[key]
    if recipe is None:
        return
    module = importlib.import_module(EXPERIMENTS[key][1])
    attr, small = recipe
    if isinstance(small, dict):
        runner = getattr(module, attr)
        monkeypatch.setattr(module, attr,
                            functools.partial(runner, **small))
    else:
        monkeypatch.setattr(module, attr, small)


@pytest.mark.parametrize("key", sorted(TINY))
def test_experiment_subcommand_runs(key, monkeypatch, capsys):
    _shrink(monkeypatch, key)
    assert main([key]) == 0
    out = capsys.readouterr().out
    assert EXPERIMENTS[key][0] in out
    assert f"[{key} done in" in out


def test_matrix_subcommand_runs(tmp_path, capsys):
    out_path = tmp_path / "matrix.json"
    argv = ["matrix", "--quick", "--budget", "120", "--sizes", "64",
            "--flows", "1,1000", "--datapaths", "kernel,dpdk",
            "--topologies", "P2P", "--out", str(out_path)]
    assert main(argv) == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == "repro.perfmatrix/1"
    assert len(doc["cells"]) == 4
    # The rendered table reaches stdout too.
    assert "Mpps" in capsys.readouterr().out


def test_trace_flag_composes_with_an_experiment(monkeypatch, capsys):
    _shrink(monkeypatch, "fig2")
    assert main(["--trace", "fig2"]) == 0
    assert "virtual-time profile: fig2" in capsys.readouterr().out


def test_unknown_subcommand_is_rejected(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err
