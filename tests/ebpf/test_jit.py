"""Unit gates for the eBPF JIT: compilation coverage, charge-exactness
against the reference VM, cache invalidation, load-time rejection, and
the memo stale-verdict fix."""

import pytest

from repro.ebpf import jit, programs
from repro.ebpf.helpers import Helper
from repro.ebpf.isa import Insn, Reg
from repro.ebpf.maps import HashMap
from repro.ebpf.program import Program, ProgramBuilder
from repro.ebpf.verifier import MAX_INSNS, VerifierError, verify
from repro.ebpf.vm import EbpfVm, VmFault
from repro.ebpf.xdp import XdpAction, XdpContext
from repro.kernel.netdev import NetDevice
from repro.kernel.tc import TcIngressHook
from repro.net.addresses import MacAddress
from repro.sim import trace
from tests.reference.ebpf_vm import ReferenceVm

PKT = bytes(range(64))


def _build(build_fn, name="jit_t"):
    b = ProgramBuilder(name)
    build_fn(b)
    return verify(b.build())


class _ChargeLog:
    def __init__(self):
        self.charges = []

    def charge(self, ns, label=None):
        self.charges.append((label, ns))


def _run_both(program, pkt=PKT, **kwargs):
    """Run on the reference VM and the JIT; returns
    ((verdict, vm, charges) * 2)."""
    out = []
    for vm_class in (ReferenceVm, EbpfVm):
        log = _ChargeLog()
        vm = vm_class(program, exec_ctx=log, ktime_ns=kwargs.get("ktime", 0))
        try:
            verdict = vm.run(pkt, ingress_ifindex=kwargs.get("ifindex", 0),
                             rx_queue_index=kwargs.get("queue", 0))
        except VmFault as exc:
            verdict = ("fault", str(exc))
        out.append((verdict, vm, log.charges))
    return out[0], out[1]


ALL_PROGRAMS = [
    ("drop", lambda: programs.drop_program()),
    ("pass", lambda: programs.pass_program()),
    ("parse_drop", lambda: programs.parse_drop_program()),
    ("parse_lookup_drop", lambda: programs.parse_lookup_drop_program()[0]),
    ("parse_swap_tx", lambda: programs.parse_swap_tx_program()),
    ("l2_forward", lambda: programs.l2_forward_program()[0]),
    ("xsk_redirect", lambda: programs.xsk_redirect_program()[0]),
    ("steering", lambda: programs.steering_program()[0]),
    ("container_redirect",
     lambda: programs.container_redirect_program()[0]),
    ("l4_load_balancer", lambda: programs.l4_load_balancer_program()[0]),
]


class TestCompilationCoverage:
    @pytest.mark.parametrize("name,factory", ALL_PROGRAMS)
    def test_every_library_program_compiles(self, name, factory):
        program = factory()
        compiled = jit.compiled_for(program)
        assert compiled.stats is jit.stats_for(program.name)
        assert "def _jit_entry" in compiled.source

    @pytest.mark.parametrize("name,factory", ALL_PROGRAMS)
    def test_library_program_equivalence(self, name, factory):
        program = factory()
        for pkt in (PKT, PKT[:14], b"", bytes(128)):
            (v1, vm1, c1), (v2, vm2, c2) = _run_both(
                program, pkt=pkt, ifindex=3, queue=1)
            assert v1 == v2
            assert vm1.pkt_bytes() == vm2.pkt_bytes()
            assert c1 == c2
            assert vm1.last_charge_ns == vm2.last_charge_ns
            assert vm1.insns_executed == vm2.insns_executed
            assert vm1.last_helper_calls == vm2.last_helper_calls
            assert vm1.redirect_target == vm2.redirect_target
            assert vm1.touched_pkt_data == vm2.touched_pkt_data

    def test_stats_count_jit_runs(self):
        program = programs.drop_program()
        st = jit.stats_for(program.name)
        ctx = XdpContext(program)
        before = st.jit_runs
        ctx.run(PKT)
        assert st.jit_runs == before + 1
        # Kept only for bench/: always 0, and nothing can count into it.
        assert st.interp_runs == 0
        with pytest.raises(AttributeError):
            st.interp_runs = 1


class TestChargeExactness:
    def test_trace_counters_match(self):
        program = _build(lambda b: (
            b.mov_reg(Reg.R2, Reg.R1),
            b.ldxw(Reg.R2, Reg.R1, 0),
            b.ldxb(Reg.R0, Reg.R2, 5),
            b.call(Helper.KTIME_GET_NS),
            b.exit_(),
        ))
        ledgers = []
        counters = []
        for vm_class in (ReferenceVm, EbpfVm):
            with trace.recording() as rec:
                vm_class(program).run(PKT)
            ledgers.append(rec.ledger())
            counters.append(dict(rec.counters))
        assert counters[0] == counters[1]
        assert counters[0]["ebpf.insns_retired"] == 5
        assert counters[0]["ebpf.helper_calls"] == 1
        assert counters[0]["ebpf.runs"] == 1
        assert ledgers[0] == ledgers[1]

    def test_first_touch_charge_order_and_fault_paths(self):
        # An OOB packet load *after* a good one: the dma_first_touch
        # charge lands, the final aggregate charge does not, and the
        # fault message is the reference VM's, byte for byte.
        program = _build(lambda b: (
            b.mov_reg(Reg.R2, Reg.R1),
            b.ldxw(Reg.R2, Reg.R1, 0),
            b.ldxb(Reg.R3, Reg.R2, 0),
            b.ldxw(Reg.R4, Reg.R2, 1000),
            b.exit_(),
        ))
        (v1, vm1, c1), (v2, vm2, c2) = _run_both(program)
        assert v1 == v2
        assert isinstance(v1, tuple) and v1[0] == "fault"
        assert "out-of-bounds load pkt[1000:1004]" in v1[1]
        assert c1 == c2 == [("dma_first_touch",
                             __import__("repro.sim.costs",
                                        fromlist=["DEFAULT_COSTS"])
                             .DEFAULT_COSTS.dma_first_touch_ns)]
        # Faulted runs never retire instructions on either side.
        assert vm1.insns_executed == vm2.insns_executed == 0

    def test_map_flush_and_versions_match(self):
        program, fib = programs.parse_lookup_drop_program()
        key = programs.l2_key(PKT[0:6])
        fib.update(key, (1).to_bytes(4, "little"))
        v_before = fib.version
        (v1, _, _), (v2, _, _) = _run_both(program)
        assert v1 == v2
        # Read-only lookups must not bump the version on either side.
        assert fib.version == v_before

    def test_prandom_stream_matches(self):
        program = _build(lambda b: (
            b.call(Helper.GET_PRANDOM_U32),
            b.mov_reg(Reg.R6, Reg.R0),
            b.call(Helper.GET_PRANDOM_U32),
            b.xor_reg(Reg.R0, Reg.R6),
            b.exit_(),
        ), name="prandom_t")
        (v1, _, _), (v2, _, _) = _run_both(program)
        assert v1 == v2


class TestCacheInvalidation:
    def test_compiled_once_and_cached(self):
        program = _build(lambda b: b.mov_imm(Reg.R0, 1).exit_())
        c1 = jit.compiled_for(program)
        c2 = jit.compiled_for(program)
        assert c1 is c2

    def test_rebinding_insns_recompiles(self):
        program = _build(lambda b: b.mov_imm(Reg.R0, 1).exit_())
        c1 = jit.compiled_for(program)
        assert EbpfVm(program).run(PKT) == 1
        program.insns = (Insn("mov_imm", dst=0, imm=7), Insn("exit"))
        assert EbpfVm(program).run(PKT) == 7
        assert jit.compiled_for(program) is not c1

    def test_rebinding_a_map_recompiles(self):
        table = HashMap(key_size=1, value_size=1, max_entries=4)
        b = ProgramBuilder("map_rebind_t")
        map_id = b.declare_map(table)
        b.ld_map(Reg.R6, map_id)
        b.mov_imm(Reg.R0, 0)
        b.exit_()
        program = verify(b.build())
        c1 = jit.compiled_for(program)
        program.maps[map_id] = HashMap(key_size=1, value_size=1,
                                       max_entries=4)
        c2 = jit.compiled_for(program)
        assert c1 is not c2

    def test_program_token_changes_with_insns(self):
        program = _build(lambda b: b.mov_imm(Reg.R0, 1).exit_())
        t1 = jit.program_token(program)
        assert jit.program_token(program) == t1
        program.insns = tuple(list(program.insns))  # new tuple object
        assert jit.program_token(program) != t1


def _forged(insns):
    """A program marked verified without ever passing the verifier."""
    return Program("forged", tuple(insns), verified=True)


#: Every program the translator cannot compile, one per reason: each is a
#: verifier reject at load, and at attach even with a forged flag.
FORMER_DECLINE_REASONS = {
    "empty program": [],
    "program too large": [Insn("mov_imm", dst=0)] * MAX_INSNS
                         + [Insn("exit")],
    "jump past the end": [Insn("ja", off=5), Insn("exit")],
    "unknown helper id 999": [Insn("call", imm=999), Insn("exit")],
    "undeclared map id 3": [Insn("ld_map", dst=1, imm=3), Insn("exit")],
    "unknown opcode 'bogus_op'": [Insn("bogus_op"), Insn("exit")],
}


class TestLoadTimeRejection:
    @pytest.mark.parametrize("reason", sorted(FORMER_DECLINE_REASONS))
    def test_former_decline_reason_is_a_verifier_reject(self, reason):
        program = Program("rejected", tuple(FORMER_DECLINE_REASONS[reason]))
        with pytest.raises(VerifierError, match=reason):
            verify(program)
        assert not program.verified
        # A forged ``verified`` flag does not get it past the JIT either.
        with pytest.raises(VerifierError, match=reason):
            jit.compiled_for(_forged(FORMER_DECLINE_REASONS[reason]))

    def test_forged_program_is_refused_at_attach(self):
        program = _forged([Insn("bogus_op"), Insn("exit")])
        with pytest.raises(VerifierError, match="unknown opcode 'bogus_op'"):
            XdpContext(program)
        device = NetDevice("eth0", MacAddress.local(1))
        with pytest.raises(VerifierError, match="unknown opcode 'bogus_op'"):
            TcIngressHook(device, program, namespace=None)
        # Refused before it attached: the device's handler is untouched.
        assert device.rx_handler is None

    def test_translator_defect_is_refused_loudly(self, monkeypatch):
        def broken(program):
            raise KeyError("codegen bug")

        monkeypatch.setattr(jit, "_translate", broken)
        program = _build(lambda b: b.mov_imm(Reg.R0, 1).exit_(),
                         name="defect_t")
        with pytest.raises(VerifierError, match="JIT translation failed"):
            XdpContext(program)

    def test_unverified_program_never_compiles(self):
        b = ProgramBuilder("unverified_t")
        b.mov_imm(Reg.R0, 1)
        b.exit_()
        with pytest.raises(VerifierError, match="never verified"):
            jit.compiled_for(b.build())


class TestMemoStaleVerdict:
    def test_reattached_program_is_not_replayed(self):
        """PR 2's verdict memo keyed only on frame+maps+costs; swapping
        the attached program mid-run must not replay the old verdict."""
        ctx = XdpContext(programs.drop_program())
        assert ctx.run(PKT).action == XdpAction.DROP
        ctx.program = programs.pass_program()
        assert ctx.run(PKT).action == XdpAction.PASS

    def test_insn_rebind_is_not_replayed(self):
        program = programs.drop_program()
        ctx = XdpContext(program)
        assert ctx.run(PKT).action == XdpAction.DROP
        program.insns = (Insn("mov_imm", dst=0, imm=2), Insn("exit"))
        assert ctx.run(PKT).action == XdpAction.PASS
