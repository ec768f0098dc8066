"""The reference eBPF VM: a step-by-step interpreter kept as the oracle.

The simulator runs eBPF only as compiled code (``repro.ebpf.jit``).
:class:`ReferenceVm` is the semantics that code must reproduce, written
for reading rather than speed: its :meth:`ReferenceVm.run` fetches one
``Insn`` at a time and dispatches on the mnemonic string, with no decode
cache and no inlined fast paths.  It shares only the machine model of
:class:`~repro.ebpf.vm.EbpfVm` (registers, memory regions, loads and
stores, map-value views, helpers) and the module-level ``alu`` and
``branch_taken``, so a translator mistake shows up as a difference.

:meth:`ReferenceVm.run` uses nothing but ``EbpfVm`` attributes, so a test
can substitute it for ``EbpfVm.run`` (with ``monkeypatch`` or
:func:`substituted`) and drive whole attach sites and experiments
through it.  :attr:`ReferenceVm.runs` counts its runs, so such a test
can prove the substitution took effect.
"""

from unittest import mock

from repro.ebpf.helpers import HELPERS
from repro.ebpf.isa import MEM_WIDTHS, to_u64
from repro.ebpf.verifier import STACK_SIZE
from repro.ebpf.vm import (
    CTX_LEN,
    CTX_REGION,
    STACK_REGION,
    EbpfVm,
    Pointer,
    VmFault,
    alu,
    branch_taken,
)
from repro.sim import costs as _costs
from repro.sim import trace as _trace

_PREDICATES = ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt",
               "jsge")
_ALU_BASES = ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "lsh",
              "rsh", "arsh", "mov")


class ReferenceVm(EbpfVm):
    """An :class:`EbpfVm` whose :meth:`run` interprets the program."""

    #: Runs made by :meth:`run`, on this class or patched onto EbpfVm.
    runs = 0

    def run(self, pkt_data, ingress_ifindex=0, rx_queue_index=0):
        """Execute the program over a packet; returns r0 (the verdict)."""
        ReferenceVm.runs += 1
        costs = _costs.DEFAULT_COSTS
        self._pkt = bytearray(pkt_data)
        self._regions[CTX_REGION] = bytearray(CTX_LEN)
        self._ctx_meta = (ingress_ifindex, rx_queue_index)
        self._regs = regs = [0] * 11
        regs[1] = Pointer(CTX_REGION, 0)
        regs[10] = Pointer(STACK_REGION, STACK_SIZE)
        self.redirect_target = None

        insns = self.program.insns
        pc = executed = helper_calls = 0
        helper_cost = 0.0
        while pc < len(insns):
            insn = insns[pc]
            executed += 1
            if insn.op == "exit":
                break
            if insn.op == "call":
                regs[0] = HELPERS[insn.imm](self)
                self.helper_calls += 1
                helper_calls += 1
                helper_cost += costs.ebpf_helper_ns
                if insn.imm == 1:  # map lookup
                    helper_cost += costs.ebpf_map_lookup_ns
                elif insn.imm in (2, 3):  # map update / delete
                    helper_cost += costs.ebpf_map_update_ns
                pc += 1
            else:
                pc = step(self, insn, pc)

        self.insns_executed += executed
        self.last_executed = executed
        self.last_helper_calls = helper_calls
        self.last_charge_ns = executed * costs.ebpf_insn_ns + helper_cost
        if self.exec_ctx is not None:
            self.exec_ctx.charge(self.last_charge_ns, label="ebpf")
        rec = _trace.ACTIVE
        if rec is not None:
            rec.count("ebpf.insns_retired", executed)
            if helper_calls:
                rec.count("ebpf.helper_calls", helper_calls)
            rec.count("ebpf.runs")
        self._flush_map_values()
        verdict = regs[0]
        if not isinstance(verdict, int):  # a pointer or a map handle
            raise VmFault("program returned a pointer")
        return to_u64(verdict) & 0xFFFFFFFF


def step(vm, insn, pc):
    """Execute one non-call, non-exit instruction; returns the next pc."""
    op = insn.op
    regs = vm._regs

    if op == "ld_map":
        regs[insn.dst] = vm.program.maps[insn.imm]
        return pc + 1
    if op == "ja":
        return pc + 1 + insn.off

    base, _, mode = op.rpartition("_")
    if mode in ("imm", "reg") and base in _PREDICATES:
        rhs = insn.imm if mode == "imm" else regs[insn.src]
        if branch_taken(base, regs[insn.dst], rhs):
            return pc + 1 + insn.off
        return pc + 1
    if mode in ("imm", "reg") and base in _ALU_BASES:
        rhs = insn.imm if mode == "imm" else regs[insn.src]
        regs[insn.dst] = alu(base, regs[insn.dst], rhs)
        return pc + 1
    if op == "neg":
        regs[insn.dst] = to_u64(-vm.scalar_from_reg(insn.dst))
        return pc + 1
    if op in ("be", "le"):
        # Loads already produce host-order scalars from network-order
        # packet bytes, so a byteswap narrows to the requested width (the
        # observable effect programs rely on after bpf_ntohs patterns).
        regs[insn.dst] = vm.scalar_from_reg(insn.dst) & ((1 << insn.imm) - 1)
        return pc + 1

    if op.startswith("ldx"):
        width = MEM_WIDTHS[op[3:]]
        regs[insn.dst] = vm._load(regs[insn.src], insn.off, width)
        return pc + 1
    if op.startswith("stx"):
        width = MEM_WIDTHS[op[3:]]
        value = vm.scalar_from_reg(insn.src) & ((1 << (8 * width)) - 1)
        vm._store(regs[insn.dst], insn.off, width, value)
        return pc + 1
    if op.startswith("st"):
        width = MEM_WIDTHS[op[2:]]
        value = to_u64(insn.imm) & ((1 << (8 * width)) - 1)
        vm._store(regs[insn.dst], insn.off, width, value)
        return pc + 1

    raise VmFault(f"unimplemented opcode {op!r}")


def substituted():
    """A context in which every ``EbpfVm`` runs as the reference VM."""
    return mock.patch.object(EbpfVm, "run", ReferenceVm.run)
