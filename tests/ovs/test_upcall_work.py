"""How much Python the NSX upcall and revalidation walk, counted not timed.

The slow-path sibling of the per-packet work guards: on the NSX
pipeline every new connection is an upcall and every flow-mod makes the
revalidator re-translate each live megaflow, so ``Ofproto.translate``,
the classifier probe, ``union_masks`` and ``MaskSpec.project`` are the
walk.  The world is the 3,000-rule smoke deployment the benchmark's
``nsx_churn`` builds, driven with 256 new connections in 32-packet
bursts around one flow-mod and one revalidation.

Two things are pinned to readings of the tree before the read side was
rewritten: what the walk *decides* (the megaflows it installs, the busy
time it charges, what the revalidator keeps) and how many ``charge``
calls it makes.  The profiled-call bound is the clock-free guard on
how much Python each translation runs.
"""

import cProfile
import hashlib
import pstats
import random
import sys

import pytest

from repro.hosts.host import Host
from repro.net.builder import make_udp_packet
from repro.net.packet import Packet
from repro.nsx.agent import NsxAgent
from repro.nsx.ruleset import T_OUT_LOCAL
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction, SetFieldAction
from repro.ovs.openflow import FlowMod, FlowModCommand, OpenFlowConnection
from repro.sim.cpu import CpuCategory, ExecContext

from tests.afxdp.test_per_packet_work import calls_of

BRIDGE = NsxAgent.INTEGRATION_BRIDGE
PACKETS = 256
BURST = 32
FRAME_LEN = 64


class ChurnWorld:
    """``nsx_churn``'s world at smoke size: one hypervisor, the 3,000-rule
    deployment, one VIF sending to another on its logical switch."""

    def __init__(self, seed: int = 1) -> None:
        host = Host("hv1", n_cpus=16)
        nic = host.add_nic("ens1")
        host.kernel.init_ns.add_address("ens1", "192.168.1.1", 16)
        vs = host.install_ovs("netdev")
        vs.add_bridge(BRIDGE)
        uplink, _ = vs.add_sim_port(BRIDGE, "up0")
        vs.dpif_netdev.ports[uplink.dp_port_no].device = nic
        agent = NsxAgent(vs)
        src = agent.topo.vifs[0]
        dst = next(v for v in agent.topo.vifs
                   if v.logical_switch == src.logical_switch
                   and v is not src)
        vif_ports = {}
        for vif in (src, dst):
            port, adapter = vs.add_sim_port(BRIDGE, f"vif{vif.vif_id}")
            vif_ports[vif.vif_id] = port
            if vif is dst:
                self.egress = adapter
        agent.deploy(uplink, vif_ports, target_rules=3_000)
        self.host, self.vs, self.dpif = host, vs, vs.dpif_netdev
        self.ctx = ExecContext(host.cpu, 1, CpuCategory.USER, name="pmd")
        self.emc = ExactMatchCache()
        self.in_port = self.dpif.port_no(f"vif{src.vif_id}")
        self.of = OpenFlowConnection(vs.bridge(BRIDGE))
        # The benchmark's toggled rule: one more set-field on the shared
        # post-conntrack decision, so revalidation re-decides it.
        self.flow_mod = FlowMod(
            FlowModCommand.ADD, table_id=T_OUT_LOCAL, priority=200,
            match=Match(reg2=dst.vif_id),
            actions=(SetFieldAction("nw_ttl", 63),
                     OutputAction(f"vif{dst.vif_id}")))
        template = make_udp_packet(src.mac, dst.mac, src.ip, dst.ip, 1, 1,
                                   frame_len=FRAME_LEN,
                                   fill_checksum=False).data
        self._head, self._tail = template[:34], template[38:]
        self._ports = random.Random(seed).sample(range(60_000 * 60_000),
                                                 PACKETS)

    def _burst(self, start: int):
        out = []
        for x in self._ports[start:start + BURST]:
            out.append(Packet(b"".join((
                self._head,
                (1024 + x % 60_000).to_bytes(2, "big"),
                (1024 + x // 60_000).to_bytes(2, "big"),
                self._tail))))
        return out

    def churn(self):
        """Half the connections, the flow-mod and one revalidation, then
        the other half.  Returns the revalidator's counters."""
        dpif, ctx = self.dpif, self.ctx
        for start in range(0, PACKETS, BURST):
            if start == PACKETS // 2:
                self.of.flow_mod(self.flow_mod)
                self.host.clock.advance_to(int(ctx.local_time_ns))
                counters = dpif.revalidate(emcs=(self.emc,))
            dpif.process_batch(self._burst(start), self.in_port, ctx,
                               self.emc)
        return counters


def megaflow_digest(dpif) -> str:
    lines = sorted(f"{tuple(e.key)} {e.mask} {e.actions!r}"
                   for e in dpif.megaflows.entries())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def busy_ns(host):
    """Every non-zero (cpu, category) busy accumulator, exactly."""
    return {(cpu, category.value): lane[category.idx].hex()
            for cpu, lane in enumerate(host.cpu._busy)
            for category in CpuCategory if lane[category.idx]}


#: Recorded on the tree before the read-side rewrite: 258 megaflows, all
#: busy time on the PMD's lane, one megaflow re-decided by the flow-mod.
MEGAFLOWS_SHA256 = (
    "c401075d1cb2ad421c959f6f1819f3061b7ccecdd4648bbb7c536f12e038c90f")
BUSY_NS = {(1, "user"): "0x1.8a8ae16800000p+19"}
REVALIDATE = {"removed_idle": 0, "removed_changed": 1, "kept": 129,
              "flow_limit": -1}
#: ``charge`` calls over the profiled churn, and the translations it ran
#: (upcalls plus the revalidator's re-translations).
CHARGES = 7_691
TRANSLATIONS = 389


def test_churn_decides_what_it_always_did():
    world = ChurnWorld()
    counters = world.churn()
    assert counters == REVALIDATE
    assert megaflow_digest(world.dpif) == MEGAFLOWS_SHA256
    assert busy_ns(world.host) == BUSY_NS
    assert len(world.egress.take_transmitted()) == PACKETS
    assert world.dpif.stats.dropped == 0


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
def test_profiled_calls_per_translate():
    """The churn under ``cProfile``, counted per translation.

    Calls per translation, every Python and C function counted (CPython
    3.10.13 / 3.11.7 / 3.12.1): 356.44 / 355.13 / 354.79 with a
    ``sorted`` per classifier lookup, a generator per projection, a
    31-step OR per probed mask, two rebuilt masks, ``FlowKey._replace``
    and an ``isinstance`` chain per action; 212.48 / 211.16 / 211.15
    with the cached probe order, the C-level projection and mask union,
    constant masks, positional key updates and type dispatch.  The bound
    sits between, nearer the second.  ``charge`` does not move: the
    virtual clock sees nothing.
    """
    world = ChurnWorld()
    translations = world.vs.ofproto.n_translations
    profile = cProfile.Profile()
    profile.enable()
    world.churn()
    profile.disable()
    stats = pstats.Stats(profile)
    translations = world.vs.ofproto.n_translations - translations
    assert translations == TRANSLATIONS
    assert calls_of(stats, "sim/cpu.py", "charge") == CHARGES
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / translations <= 240, total / translations
