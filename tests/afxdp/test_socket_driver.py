import pytest

from repro.afxdp.driver import AfxdpDriver, AfxdpOptions
from repro.afxdp.rings import DescRing
from repro.afxdp.socket import BindMode, XskSocket
from repro.afxdp.umem import Umem
from repro.afxdp.umempool import UmemPool
from repro.kernel.netdev import NetDevice, Wire
from repro.kernel.nic import NicFeatures, PhysicalNic
from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet
from repro.sim import faults, trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.faults import FaultPlan, FaultRule


def mac(i):
    return MacAddress.local(i)


PKT = make_udp_packet(mac(1), mac(2), "10.0.0.1", "10.0.0.2", frame_len=64)


@pytest.fixture
def cpu():
    return CpuModel(4)


@pytest.fixture
def softirq(cpu):
    return ExecContext(cpu, 0, CpuCategory.SOFTIRQ)


@pytest.fixture
def pmd(cpu):
    return ExecContext(cpu, 1, CpuCategory.USER)


def _socket(bind_mode=BindMode.ZEROCOPY, prime=64):
    umem = Umem(n_frames=256, ring_size=256)
    pool = UmemPool(umem)
    sock = XskSocket(umem, pool, bind_mode=bind_mode, ring_size=256)
    if prime:
        addrs = pool.alloc(prime, _null_ctx())
        umem.fill_ring.produce_batch([(a, 0) for a in addrs])
    return sock


def _null_ctx():
    return ExecContext(CpuModel(1), 0, CpuCategory.USER)


class TestXskSocket:
    def test_kernel_rx_to_user_rx(self, softirq, pmd):
        sock = _socket()
        assert sock.kernel_rx(PKT, softirq)
        pkts = sock.user_rx_batch(pmd)
        assert len(pkts) == 1
        assert pkts[0].data == PKT.data

    def test_rx_without_fill_descriptors_drops(self, softirq):
        sock = _socket(prime=0)
        assert not sock.kernel_rx(PKT, softirq)
        assert sock.rx_dropped_no_fill == 1

    def test_user_rx_refills_fill_ring(self, softirq, pmd):
        sock = _socket(prime=4)
        for _ in range(4):
            assert sock.kernel_rx(PKT, softirq)
        assert len(sock.umem.fill_ring) == 0
        sock.user_rx_batch(pmd)
        assert len(sock.umem.fill_ring) == 4  # recycled

    def test_long_run_does_not_exhaust_frames(self, softirq, pmd):
        sock = _socket(prime=64)
        for _ in range(50):
            for _ in range(8):
                assert sock.kernel_rx(PKT, softirq)
            assert len(sock.user_rx_batch(pmd, batch=8)) == 8

    def test_copy_mode_charges_copy(self, cpu, softirq):
        zc = _socket(BindMode.ZEROCOPY)
        zc.kernel_rx(PKT, softirq)
        zerocopy_cost = cpu.busy_ns()
        cpu.reset()
        cp = _socket(BindMode.COPY)
        cp.kernel_rx(PKT, softirq)
        copy_cost = cpu.busy_ns()
        assert copy_cost >= zerocopy_cost + DEFAULT_COSTS.afxdp_copy_mode_ns

    def test_tx_transmits_via_bound_device(self, pmd):
        sock = _socket()
        dev = NetDevice("out0", mac(9))
        dev.set_up()
        sent = []
        dev._transmit = lambda pkt, ctx: (sent.append(pkt), True)[1]
        sock.bound_device = dev
        assert sock.user_tx_batch([PKT, PKT], pmd) == 2
        assert len(sent) == 2
        assert sock.tx_sent == 2

    def test_tx_kick_charges_syscall_as_system(self, cpu, pmd):
        sock = _socket()
        sock.user_tx_batch([PKT], pmd)
        assert cpu.busy_ns(category=CpuCategory.SYSTEM) >= DEFAULT_COSTS.syscall_base_ns

    def test_completions_recycle_frames(self, pmd):
        sock = _socket()
        free_before = sock.pool.free_count
        sock.user_tx_batch([PKT] * 8, pmd)
        assert sock.pool.free_count == free_before - 8
        assert sock.reap_completions(pmd) == 8
        assert sock.pool.free_count == free_before

    @pytest.mark.parametrize("eagain", [False, True])
    def test_full_completion_ring_leaks_counted_frames(self, cpu, pmd,
                                                       eagain):
        """Frames the completion ring has no room for are leaked *and
        counted* — on a normal kick and when the EAGAIN retry budget
        runs out — and the kick charges exactly what it did before."""
        def kick(room):
            sock = _socket()
            sock.umem.completion_ring = DescRing(8)
            sock.umem.completion_ring.produce_batch([(0, 0)] * (8 - room))
            cpu.reset()
            rule = FaultRule("afxdp.tx_kick_eagain", nth=1)
            plan = FaultPlan(rules=[rule] if eagain else [])
            with faults.injecting(plan), trace.recording() as rec:
                sock.user_tx_batch([PKT] * 5, pmd)
            return sock, rec, repr(cpu._busy)

        sock, rec, busy = kick(room=2)
        assert sock.frames_leaked == 3
        assert rec.counter("afxdp.comp_ring_full") == 1
        assert rec.counter("afxdp.frames_leaked") == 3
        assert sock.pool.free_count == 256 - 64 - 5
        roomy, roomy_rec, roomy_busy = kick(room=8)
        assert roomy.frames_leaked == 0
        assert roomy_rec.counter("afxdp.comp_ring_full") == 0
        assert busy == roomy_busy


def _wired_nic(n_queues=1, **features):
    nic = PhysicalNic("mlx0", mac(10), n_queues=n_queues,
                      features=NicFeatures(**features))
    nic.ifindex = 1
    nic.set_up()
    peer = NetDevice("peer0", mac(11))
    peer.set_up()
    peer.set_rx_handler(lambda pkt, ctx: None)
    Wire(nic, peer, gbps=25)
    return nic, peer


class TestAfxdpDriver:
    def test_setup_attaches_program_and_sockets(self):
        nic, _peer = _wired_nic(n_queues=2)
        driver = AfxdpDriver(nic)
        driver.setup()
        assert nic.xdp_program_for(0) is not None
        assert set(driver.sockets) == {0, 1}
        assert nic.xsk_sockets[0] is driver.sockets[0]

    def test_zero_copy_auto_detected(self):
        nic, _ = _wired_nic(afxdp_zerocopy=True)
        driver = AfxdpDriver(nic)
        driver.setup()
        assert driver.sockets[0].bind_mode is BindMode.ZEROCOPY

    def test_copy_fallback_without_driver_support(self):
        nic, _ = _wired_nic(afxdp_zerocopy=False)
        driver = AfxdpDriver(nic)
        driver.setup()
        assert driver.sockets[0].bind_mode is BindMode.COPY

    def test_end_to_end_wire_to_userspace(self, softirq, pmd):
        nic, _ = _wired_nic()
        driver = AfxdpDriver(nic)
        driver.setup()
        # A frame arrives from the wire, the XDP program redirects it to
        # the XSK, and the PMD thread picks it up.
        assert nic.host_receive(PKT)
        nic.service_queue(0, softirq)
        pkts = driver.rx_burst(0, pmd)
        assert len(pkts) == 1
        assert pkts[0].meta.rxhash is not None  # computed in software
        assert driver.rx_packets == 1

    def test_rx_charges_sw_rxhash(self, cpu, softirq, pmd):
        nic, _ = _wired_nic()
        driver = AfxdpDriver(nic)
        driver.setup()
        nic.host_receive(PKT)
        nic.service_queue(0, softirq)
        cpu.reset()
        driver.rx_burst(0, pmd)
        assert cpu.busy_ns() >= DEFAULT_COSTS.software_rxhash_ns

    def test_tx_checksum_software_by_default(self, cpu, pmd):
        nic, peer = _wired_nic()
        driver = AfxdpDriver(nic)
        driver.setup()
        cpu.reset()
        driver.tx_burst(0, [PKT.clone()], pmd)
        labels_cost = cpu.busy_ns()
        cpu.reset()
        driver.options.sw_checksum_on_tx = False
        driver.tx_burst(0, [PKT.clone()], pmd)
        assert labels_cost - cpu.busy_ns() == pytest.approx(
            DEFAULT_COSTS.checksum_cost(len(PKT)))

    def test_interrupt_mode_adds_latency_not_throughput_cpu(self, cpu, softirq, pmd):
        nic, _ = _wired_nic()
        driver = AfxdpDriver(nic, AfxdpOptions(interrupt_mode=True))
        driver.setup()
        nic.host_receive(PKT)
        nic.service_queue(0, softirq)
        from repro.sim.cpu import LatencyTrace

        trace = LatencyTrace()
        with pmd.tracing(trace):
            driver.rx_burst(0, pmd)
        assert trace.components.get("irq_wakeup", 0) > 0

    def test_teardown_detaches(self):
        nic, _ = _wired_nic()
        driver = AfxdpDriver(nic)
        driver.setup()
        driver.teardown()
        assert nic.xdp_program_for(0) is None
        assert nic.xsk_sockets == {}

    def test_metadata_prealloc_cheaper(self, softirq):
        def run_cost(prealloc):
            cpu = CpuModel(2)
            s = ExecContext(cpu, 0, CpuCategory.SOFTIRQ)
            p = ExecContext(cpu, 1, CpuCategory.USER)
            nic, _ = _wired_nic()
            driver = AfxdpDriver(
                nic, AfxdpOptions(preallocated_metadata=prealloc))
            driver.setup()
            for _ in range(300):
                nic.host_receive(PKT)
            while nic.pending():
                nic.service_queue(0, s, budget=32)
                driver.rx_burst(0, p)
            return cpu.busy_ns(category=CpuCategory.USER) + cpu.busy_ns(
                category=CpuCategory.SYSTEM)

        assert run_cost(prealloc=False) > run_cost(prealloc=True)
