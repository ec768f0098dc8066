"""Each module that replay cells wire together imports first.

An import cycle passes every in-process test, because by the time a
test imports the module the suite has loaded its dependencies in
another order; it fails only the program that imports that module
first.  So each case imports one module in a fresh interpreter.  The
modules are the users of ``repro.sim.replay`` and the primitive itself,
where a new dependency between the layers would close a cycle: the
kernel datapath importing ``repro.ovs.dpif_netdev`` once did
(``dpif_netdev`` -> ``ct_userspace`` -> ``repro.kernel`` ->
``ovs_module`` -> ``dpif_netdev``).
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

MODULES = [
    "repro.sim.replay",
    "repro.ebpf.xdp",
    "repro.ovs.emc",
    "repro.ovs.dpif_netdev",
    "repro.kernel.ovs_module",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, f"import {module} failed:\n{done.stderr}"
