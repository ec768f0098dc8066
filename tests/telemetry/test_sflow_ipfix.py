"""sFlow sampling and IPFIX export unit contracts.

Coupled selection (low-rate samples nest inside high-rate samples under
one seed), charge gating (rate test on every packet, scrape/encode only
on taken samples, nothing at all with no session), virtual-clock flow
expiry, collector-loss accounting, and byte-determinism of the export
stream and the sampled-header pcap.
"""

import pytest

from repro import telemetry
from repro.experiments.observer_effect import _run_cell
from repro.experiments.world import build_world
from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet
from repro.sim import faults, trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.faults import FaultPlan, FaultRule
from repro.telemetry import IpfixConfig, SflowConfig, Telemetry
from repro.telemetry.drops import DropReason
from repro.telemetry.ipfix import IpfixExporter
from repro.telemetry.sflow import SflowSampler
from repro.traffic.trex import FlowSpec, TrexStream


def _pkt(sport=1000):
    return make_udp_packet(MacAddress.local(1), MacAddress.local(2),
                           "10.0.0.1", "10.0.0.2", sport, 2000,
                           frame_len=64)


PKT = _pkt()


# ======================================================================
# Configuration validation.
# ======================================================================
def test_config_validation():
    with pytest.raises(ValueError):
        SflowConfig(rate=0)
    with pytest.raises(ValueError):
        SflowConfig(rate=8, points=("nope",))
    with pytest.raises(ValueError):
        IpfixConfig(active_timeout_ns=0)
    with pytest.raises(ValueError):
        IpfixConfig(idle_timeout_ns=-1)


def test_nested_install_is_rejected():
    with telemetry.monitoring(Telemetry()):
        with pytest.raises(RuntimeError):
            telemetry.install(Telemetry())
    assert telemetry.ACTIVE is None


# ======================================================================
# Coupled, deterministic sampling.
# ======================================================================
def _sampled_indexes(rate, n=300, seed=5):
    sampler = SflowSampler(SflowConfig(rate=rate, points=("dpif",),
                                       seed=seed))
    taken = set()
    for i in range(n):
        if sampler.observe("dpif", PKT.data, None, lambda: 0) is not None:
            taken.add(i)
    return taken


def test_coupled_selection_nests_across_rates():
    """Same seed: the 1/1024 samples are a subset of the 1/8 samples are
    a subset of the 1/1 samples — the observer-effect curve's monotone-
    by-construction property."""
    s1024, s8, s1 = (_sampled_indexes(r) for r in (1024, 8, 1))
    assert s1024 <= s8 <= s1
    assert s1 == set(range(300))
    assert 0 < len(s8) < 300


def test_selection_is_deterministic_per_seed():
    assert _sampled_indexes(8, seed=5) == _sampled_indexes(8, seed=5)
    assert _sampled_indexes(8, seed=5) != _sampled_indexes(8, seed=6)


def test_rate_test_charged_always_scrape_only_on_samples():
    cpu = CpuModel(1)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    costs = DEFAULT_COSTS
    with trace.recording():
        never = SflowSampler(SflowConfig(rate=10 ** 9, points=("dpif",)))
        before = cpu.busy_ns()
        assert never.observe("dpif", PKT.data, ctx, lambda: 0) is None
        assert cpu.busy_ns() - before == costs.sflow_sample_test_ns

        always = SflowSampler(SflowConfig(rate=1, points=("dpif",)))
        before = cpu.busy_ns()
        sample = always.observe("dpif", PKT.data, ctx, lambda: 7)
        assert cpu.busy_ns() - before == (costs.sflow_sample_test_ns
                                          + costs.sflow_header_scrape_ns
                                          + costs.sflow_encode_ns)
    assert sample.ts_ns == 7
    assert sample.frame_len == len(PKT.data)
    assert sample.header == PKT.data[:128]


def test_header_scrape_truncates_to_the_configured_length():
    sampler = SflowSampler(SflowConfig(rate=1, points=("dpif",),
                                       header_bytes=16))
    sample = sampler.observe("dpif", PKT.data, None, lambda: 0)
    assert sample.header == PKT.data[:16]


# ======================================================================
# IPFIX expiry on the virtual clock.
# ======================================================================
def test_idle_timeout_expires_a_quiet_flow():
    exp = IpfixExporter(IpfixConfig(active_timeout_ns=1000,
                                    idle_timeout_ns=500))
    pkt = _pkt()
    exp.update(pkt, 0, None)
    exp.update(pkt, 400, None)  # still live; idle deadline moves to 900
    assert exp.collector.flow_records == 0
    exp.update(pkt, 900, None)  # sweep: idle deadline reached
    assert exp.collector.flow_records == 1
    assert b"packets=2" in exp.collector.stream_bytes()
    exp.flush_all()  # the re-cached third packet
    assert exp.collector.flow_records == 2
    assert exp.collector.flow_packets == 3


def test_active_timeout_flushes_a_busy_flow():
    exp = IpfixExporter(IpfixConfig(active_timeout_ns=1000,
                                    idle_timeout_ns=10 ** 9))
    pkt = _pkt()
    for t in (0, 300, 600, 900):
        exp.update(pkt, t, None)
    assert exp.collector.flow_records == 0
    exp.update(pkt, 1000, None)  # active deadline despite the traffic
    assert exp.collector.flow_records == 1
    assert b"packets=4" in exp.collector.stream_bytes()


def test_flows_key_on_in_port_and_five_tuple():
    exp = IpfixExporter(IpfixConfig())
    a, b = _pkt(1000), _pkt(2000)
    a.meta.in_port = 1
    exp.update(a, 0, None)
    exp.update(b, 0, None)
    exp.update(a, 10, None)
    assert len(exp.cache) == 2
    exp.flush_all()
    assert exp.collector.flow_records == 2
    assert exp.collector.flow_packets == 3
    assert b"in_port=1" in exp.collector.stream_bytes()


def test_collector_loss_fault_lands_in_the_lost_tallies():
    exp = IpfixExporter(IpfixConfig())
    exp.update(_pkt(), 0, None)
    exp.note_drop(DropReason.NIC_RX_MISSED, 3, 192)
    plan = FaultPlan(rules=[
        FaultRule("telemetry.collector_loss", rate=1.0)])
    with faults.injecting(plan):
        exp.flush_all()
    # Exported on the exporter's side, lost on the wire: the split the
    # reconciliation invariant checks.
    assert exp.exported_flow_records == 1
    assert exp.exported_drop_records == 1
    assert exp.lost_flow_records == 1
    assert exp.lost_drop_records == 1
    assert exp.collector.flow_records == 0
    assert exp.collector.drop_records == 0
    assert exp.collector.stream_bytes() == b""


def test_zero_count_drop_events_are_ignored():
    session = Telemetry(ipfix=IpfixConfig())
    session.drop(DropReason.NIC_RX_MISSED, n=0, octets=0)
    assert session.ipfix.drop_packets == {}


def test_drop_event_without_a_session_is_a_noop():
    assert telemetry.ACTIVE is None
    telemetry.drop_event(DropReason.NIC_RX_MISSED)


# ======================================================================
# Byte-determinism and the off-mode identity.
# ======================================================================
def test_observer_cell_and_pcap_are_byte_identical_across_runs(tmp_path):
    kwargs = dict(packets=96, n_flows=8, seed=3)
    a = _run_cell("afxdp_zc", 8, pcap_prefix=str(tmp_path / "a"), **kwargs)
    b = _run_cell("afxdp_zc", 8, pcap_prefix=str(tmp_path / "b"), **kwargs)
    assert a.to_json() == b.to_json()
    assert a.sampled > 0 and a.reconciled and a.conserved
    pcap_a = (tmp_path / "a-afxdp_zc-8.pcap").read_bytes()
    pcap_b = (tmp_path / "b-afxdp_zc-8.pcap").read_bytes()
    assert pcap_a == pcap_b
    assert len(pcap_a) > 24  # global header plus at least one record


def test_inert_session_leaves_the_trace_ledger_byte_identical():
    def run(install):
        with trace.recording() as rec:
            bench = build_world("kernel", "P2P", n_queues=1)
            stream = TrexStream(FlowSpec(n_flows=8))
            if install:
                with telemetry.monitoring(Telemetry()):
                    bench.drive(stream, 120)
            else:
                bench.drive(stream, 120)
        return rec.ledger(), dict(rec.counters)

    assert run(False) == run(True)
