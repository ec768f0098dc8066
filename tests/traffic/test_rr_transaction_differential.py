"""A template frame is the same packet: old and new TCP_RR side by side.

Figs. 10/11 build each path's request and reply frame once and send a
clone per transaction; ``TcpRrRunner.run`` keeps one trace attached and
hoists the jitter table.  The oracles below are the code they replaced,
verbatim: a fresh ``make_tcp_packet`` pair per transaction and the
attach/detach-per-transaction run loop.  Old and new must agree on every
observable, float for float.
"""

import dataclasses
from typing import Dict

import pytest

from repro.experiments import fig10_latency, fig11_container_latency
from repro.net.builder import make_tcp_packet
from repro.sim import trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import LatencyTrace
from repro.sim.rng import lognormal_jitter
from repro.sim.stats import Histogram
from repro.traffic.netperf import NetperfResult, TcpRrRunner

TRANSACTIONS = 300
SEED = 11


# ----------------------------------------------------------------------
# The parent's code, verbatim (``self`` is the path / the runner).
# ----------------------------------------------------------------------
def fig10_one_transaction(self) -> None:
    costs = DEFAULT_COSTS
    # 1. The guest app writes 1 byte; its TCP stack emits a segment.
    self.guest_ctx.charge(costs.tcp_segment_ns, label="guest_tcp")
    self.guest_ctx.charge(costs.socket_copy_per_byte_ns * 1,
                          label="guest_copy")
    request = make_tcp_packet(
        self.vm.nic.mac, self.nic.mac,
        "10.0.0.5", "10.0.0.9", 40000, 12865, payload=b"x")
    self.vm.nic.transmit(request, self.guest_ctx)
    self._pump_client()
    assert self._wire_out, "request never reached the wire"
    self._wire_out.clear()

    # 2. The server host: NIC rx -> stack -> netserver -> reply tx.
    self.server_ctx.charge(
        costs.nic_rx_ns + costs.skb_alloc_ns + costs.dma_first_touch_ns
        + costs.tcp_segment_ns, label="server_rx")
    self.server_ctx.charge(costs.tcp_segment_ns + costs.skb_free_ns
                           + costs.nic_tx_ns, label="server_tx")
    reply = make_tcp_packet(
        self.nic.mac, self.vm.nic.mac,
        "10.0.0.9", "10.0.0.5", 12865, 40000, payload=b"y")

    # 3. Back through the switch into the guest.
    self.nic.host_receive(reply)
    self._pump_client()
    got = self.vm.nic.rx_queue.pop_batch(4)
    assert got, "reply never reached the guest"
    self.guest_ctx.charge(costs.tcp_segment_ns, label="guest_tcp")


def fig11_one_transaction(self) -> None:
    costs = DEFAULT_COSTS
    # Client container: netperf writes a byte through its stack.
    self.client_ctx.charge(costs.tcp_segment_ns, label="client_tcp")
    request = make_tcp_packet(
        self.c1.inside.mac, self.c2.inside.mac,
        "172.17.0.2", "172.17.0.3", 40000, 12865, payload=b"x")
    self.c1.inside.transmit(request, self.client_ctx)
    self._pump()
    assert self._at_server, "request did not reach the server container"
    self._at_server.clear()
    # Server container: stack rx + netserver + stack tx.
    self.server_ctx.charge(2 * costs.tcp_segment_ns, label="server_tcp")
    reply = make_tcp_packet(
        self.c2.inside.mac, self.c1.inside.mac,
        "172.17.0.3", "172.17.0.2", 12865, 40000, payload=b"y")
    self.c2.inside.transmit(reply, self.server_ctx)
    self._pump()
    assert self._at_client, "reply did not reach the client container"
    self._at_client.clear()
    self.client_ctx.charge(costs.tcp_segment_ns, label="client_tcp")


def parent_run(self, transaction, n_transactions: int = 400) -> NetperfResult:
    if n_transactions <= 0:
        raise ValueError("need at least one transaction")
    samples = Histogram()
    component_acc: Dict[str, float] = {}
    for _ in range(n_transactions):
        trace = LatencyTrace()
        for ctx in self.contexts:
            ctx.trace = trace
        try:
            transaction()
        finally:
            for ctx in self.contexts:
                ctx.trace = None
        for label, (median, sigma) in self.jitter_terms.items():
            trace.add(lognormal_jitter(self._rng, median, sigma), label)
        samples.add(trace.total_ns / 1_000.0)  # us
        for label, ns in trace.components.items():
            component_acc[label] = component_acc.get(label, 0.0) + ns
    mean_us = samples.mean()
    return NetperfResult(
        p50_us=samples.percentile(50),
        p90_us=samples.percentile(90),
        p99_us=samples.percentile(99),
        mean_us=mean_us,
        transactions_per_s=1e6 / mean_us,
        component_means_us={
            k: v / n_transactions / 1_000.0
            for k, v in component_acc.items()
        },
    )


# ----------------------------------------------------------------------
FIGURES = {
    "fig10": (fig10_latency, fig10_latency._RrPath, fig10_one_transaction),
    "fig11": (fig11_container_latency,
              fig11_container_latency._ContainerRrPath,
              fig11_one_transaction),
}
CASES = [(figure, config) for figure in FIGURES
         for config in ("kernel", "afxdp", "dpdk")]


def observe(figure: str, config: str, parent: bool):
    module, path_class, parent_transaction = FIGURES[figure]
    with trace.recording() as rec:
        path = path_class(config)
        runner = TcpRrRunner(path.contexts(), module._JITTER[config],
                             seed=SEED)
        if parent:
            result = parent_run(
                runner, lambda: parent_transaction(path), TRANSACTIONS)
        else:
            result = runner.run(path.one_transaction, TRANSACTIONS)
    return {
        "result": [(f.name, getattr(result, f.name))
                   for f in dataclasses.fields(result)
                   if f.name != "component_means_us"],
        # A list, so that key order is compared too.
        "components": list(result.component_means_us.items()),
        "busy": [list(lane) for lane in path.host.cpu._busy],
        "local_time": [ctx.local_time_ns for ctx in path.contexts()],
        "ledger": rec.ledger(),
    }


@pytest.mark.parametrize("figure,config", CASES)
def test_template_run_equals_fresh_build_run(figure, config):
    new = observe(figure, config, parent=False)
    old = observe(figure, config, parent=True)
    assert new["components"], "the run recorded no latency components"
    assert new["ledger"].startswith("span ")  # counters ride in it too
    for what in old:
        assert new[what] == old[what], what


# ----------------------------------------------------------------------
# Templates stay templates.
# ----------------------------------------------------------------------
def fresh_frames(figure: str, path):
    if figure == "fig10":
        a, b = path.vm.nic.mac, path.nic.mac
        ips = ("10.0.0.5", "10.0.0.9")
    else:
        a, b = path.c1.inside.mac, path.c2.inside.mac
        ips = ("172.17.0.2", "172.17.0.3")
    return (make_tcp_packet(a, b, ips[0], ips[1], 40000, 12865, payload=b"x"),
            make_tcp_packet(b, a, ips[1], ips[0], 12865, 40000, payload=b"y"))


def spy_on_transmit(device, sent):
    """Record every packet object handed to ``device.transmit``."""
    transmit = device.transmit

    def spy(pkt, ctx):
        sent.append(pkt)
        return transmit(pkt, ctx)

    device.transmit = spy


@pytest.mark.parametrize("figure,config", CASES)
def test_no_transaction_sees_another_transactions_metadata(figure, config):
    _module, path_class, _parent = FIGURES[figure]
    path = path_class(config)
    request, reply = fresh_frames(figure, path)

    moved = []  # every packet object a transaction put on the path
    if figure == "fig10":
        spy_on_transmit(path.vm.nic, moved)
        # The reply enters through the NIC's DMA copy; catch it where
        # it lands, in the guest's rx ring.
        push = path.vm.nic.rx_queue.push
        path.vm.nic.rx_queue.push = lambda pkt: (moved.append(pkt),
                                                 push(pkt))[1]
    else:
        spy_on_transmit(path.c1.inside, moved)
        spy_on_transmit(path.c2.inside, moved)

    for _ in range(3):
        moved.clear()
        path.one_transaction()
        # The templates are still what a fresh build gives.
        for template, fresh in ((path._request, request),
                                (path._reply, reply)):
            assert template.data == fresh.data
            assert template.meta == fresh.meta
        # What travelled was never a template nor shared one's metadata.
        assert len(moved) == 2
        assert moved[0].data == request.data and moved[1].data == reply.data
        for pkt in moved:
            for template in (path._request, path._reply):
                assert pkt is not template
                assert pkt.meta is not template.meta
                assert pkt.meta.tunnel is not template.meta.tunnel
        # Scribble on everything this transaction moved; the next one
        # must not notice (the template asserts above run again).
        for pkt in moved:
            pkt.meta.in_port = 0xBAD
            pkt.meta.rxhash = 0xBAD
            pkt.meta.llc_warm = True
            pkt.meta.csum_partial = True
            pkt.meta.tunnel.vni = 0xBAD
