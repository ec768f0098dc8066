"""A lost or wedged TCP_RR transaction raises; it never falls through.

``bench/workloads.py::RrLatency.round`` counts an ``AssertionError``
from ``run_fig10`` as failed operations, so every output check of the
two latency figures has to be an explicit ``raise`` — an ``assert``
statement disappears under ``python -O`` — and a path that never
quiesces has to say so instead of leaving its pump loop quietly.  The
same holds for Fig. 8's TCP checks and the world table's pumps.
"""

import ast
import inspect

import pytest

from repro.experiments import (
    fig8_tcp_throughput,
    fig10_latency,
    fig11_container_latency,
    world,
)
from repro.experiments.fig10_latency import _RrPath
from repro.experiments.fig11_container_latency import _ContainerRrPath
from repro.experiments.world import PUMP_CAP
from repro.hosts.vm import VhostNetBackend
from repro.ovs.pmd import PmdThread


def drop(pkt, ctx):
    """An rx handler that loses the frame."""


@pytest.mark.parametrize("module", [fig10_latency, fig11_container_latency,
                                    fig8_tcp_throughput, world])
def test_no_check_is_an_assert_statement(module):
    tree = ast.parse(inspect.getsource(module))
    asserts = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Assert)]
    assert not asserts, f"python -O would strip lines {asserts}"


# -- Figure 10 ---------------------------------------------------------
@pytest.mark.parametrize("config", ["kernel", "afxdp", "dpdk"])
def test_fig10_request_lost_on_the_wire(config):
    path = _RrPath(config)
    path.nic.wire_peer.set_rx_handler(drop)
    with pytest.raises(AssertionError, match="never reached the wire"):
        path.one_transaction()


@pytest.mark.parametrize("config", ["kernel", "afxdp", "dpdk"])
def test_fig10_reply_lost_at_a_full_guest_ring(config):
    path = _RrPath(config)
    path.vm.nic.rx_queue.size = 0  # every push finds the ring full
    with pytest.raises(AssertionError, match="never reached the guest"):
        path.one_transaction()
    assert path.vm.nic.rx_queue.drops_full == 1


def forever(rounds):
    """A pump stage that reports progress on every call."""
    return lambda self, *args, **kwargs: rounds.append(1) or 1


@pytest.mark.parametrize("config", ["kernel", "afxdp", "dpdk"])
def test_fig10_path_that_never_quiesces(config, monkeypatch):
    # A stage that reports progress forever: the vhost-net worker on the
    # kernel path, the PMD on the userspace ones.  The world's pump binds
    # its stages when the world is built, so the class is patched first
    # and the path's warm-up transactions trip it.
    rounds = []
    stage = ((VhostNetBackend, "pump") if config == "kernel"
             else (PmdThread, "run_iteration"))
    monkeypatch.setattr(*stage, forever(rounds))
    datapath = "afxdp_zc" if config == "afxdp" else config
    with pytest.raises(AssertionError,
                       match=rf"^{datapath}/W2V world still moving frames "
                             rf"after {PUMP_CAP} pump rounds "
                             r"\(0 frames pending\)$"):
        _RrPath(config)
    assert len(rounds) == PUMP_CAP


# -- Figure 11 ---------------------------------------------------------
@pytest.mark.parametrize("config", ["kernel", "afxdp", "dpdk"])
def test_fig11_request_lost(config):
    path = _ContainerRrPath(config)
    path.c2.inside.set_rx_handler(drop)
    with pytest.raises(AssertionError,
                       match="request did not reach the server"):
        path.one_transaction()


@pytest.mark.parametrize("config", ["kernel", "afxdp", "dpdk"])
def test_fig11_reply_lost(config):
    path = _ContainerRrPath(config)
    path.c1.inside.set_rx_handler(drop)
    with pytest.raises(AssertionError,
                       match="reply did not reach the client"):
        path.one_transaction()


def test_fig11_pmd_that_never_quiesces(monkeypatch):
    rounds = []
    monkeypatch.setattr(PmdThread, "run_iteration", forever(rounds))
    with pytest.raises(AssertionError,
                       match=rf"^dpdk/C2C world still moving frames after "
                             rf"{PUMP_CAP} pump rounds$"):
        _ContainerRrPath("dpdk")  # the only config with a PMD
    assert len(rounds) == PUMP_CAP


def test_run_fig10_lets_the_error_out(monkeypatch):
    """``RrLatency.round`` catches it around ``run_fig10``."""
    real = _RrPath.__init__

    def lossy(self, config):
        real(self, config)
        if config == "afxdp":
            self.nic.wire_peer.set_rx_handler(drop)

    monkeypatch.setattr(_RrPath, "__init__", lossy)
    with pytest.raises(AssertionError, match="never reached the wire"):
        fig10_latency.run_fig10(n_transactions=5)
