"""The in-kernel verifier.

This enforces the sandbox restrictions the paper's §2.2.2 describes as the
reason an eBPF OVS datapath "lacks some OVS datapath features":

* program size is capped (``MAX_INSNS``),
* **no loops**: every branch must jump strictly forward,
* only whitelisted opcodes, valid registers, and declared helper/map ids,
* r10 (the frame pointer) is read-only,
* every path must reach ``exit`` (guaranteed by forward-only branches plus
  a final-instruction check),
* stack accesses must stay within the 512-byte frame.

Runtime memory bounds against packet data are enforced by the VM's
memory model (:class:`repro.ebpf.vm.EbpfVm`, which the compiled code
calls into), mirroring how the real verifier's data_end-bounds proofs
manifest as safe behaviour.

:func:`check` is the rule set without side effects.  The JIT
(:mod:`repro.ebpf.jit`) re-runs it before translating, because
``Program.verified`` is a plain flag: a program it refuses fails to load
or attach with the reason, and never runs on a second engine.
"""

from __future__ import annotations

from repro.ebpf.helpers import HELPER_IDS
from repro.ebpf.isa import ALL_OPS, LDX_OPS, ST_OPS, STX_OPS, Insn, Reg
from repro.ebpf.program import Program
from repro.sim import trace

#: Instruction-count cap.  4096 was the classic limit (the one in force for
#: unprivileged programs and the era the eBPF datapath prototype fought).
MAX_INSNS = 4096

STACK_SIZE = 512


class VerifierError(Exception):
    """The program was rejected; it can never attach."""


def _check_reg(value: int, what: str, insn_idx: int) -> None:
    if not 0 <= value <= 10:
        raise VerifierError(f"insn {insn_idx}: bad {what} register r{value}")


def verify(program: Program) -> Program:
    """Verify ``program`` in place; returns it with ``verified=True``."""
    check(program)
    program.verified = True
    trace.count("ebpf.programs_verified")
    trace.count("ebpf.insns_verified", len(program.insns))
    return program


def check(program: Program) -> None:
    """Raise :class:`VerifierError` unless ``program`` obeys every rule."""
    insns = program.insns
    if not insns:
        raise VerifierError("empty program")
    if len(insns) > MAX_INSNS:
        raise VerifierError(
            f"program too large: {len(insns)} > {MAX_INSNS} instructions"
        )
    for idx, insn in enumerate(insns):
        _verify_insn(program, insn, idx, len(insns))
    if insns[-1].op not in ("exit", "ja"):
        raise VerifierError("control can fall off the end of the program")


def _verify_insn(program: Program, insn: Insn, idx: int, n: int) -> None:
    if insn.op not in ALL_OPS:
        raise VerifierError(f"insn {idx}: unknown opcode {insn.op!r}")
    _check_reg(insn.dst, "dst", idx)
    _check_reg(insn.src, "src", idx)

    writes_dst = (
        insn.op.endswith("_imm")
        and not insn.op.startswith(("jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jsge"))
        or insn.op.endswith("_reg")
        and not insn.op.startswith(("jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jsge"))
        or insn.op in LDX_OPS
        or insn.op in ("neg", "be", "le", "ld_map")
    )
    if writes_dst and insn.dst == Reg.R10:
        raise VerifierError(f"insn {idx}: r10 is read-only")

    is_branch = insn.op == "ja" or (
        insn.op.rsplit("_", 1)[0]
        in ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jsge")
        and insn.op.endswith(("_imm", "_reg"))
    )
    if is_branch:
        # A branch offset is relative to the *next* instruction, so 0 jumps
        # to the following insn (legal no-op) and anything negative is a
        # back-edge: the loop the sandbox forbids.
        if insn.off < 0:
            raise VerifierError(
                f"insn {idx}: back-edge (offset {insn.off}) — "
                "loops are not allowed"
            )
        target = idx + 1 + insn.off
        if target >= n:
            raise VerifierError(f"insn {idx}: jump past the end ({target})")

    if insn.op == "call" and insn.imm not in HELPER_IDS:
        raise VerifierError(f"insn {idx}: unknown helper id {insn.imm}")

    if insn.op == "ld_map" and insn.imm not in program.maps:
        raise VerifierError(f"insn {idx}: undeclared map id {insn.imm}")

    if insn.op in LDX_OPS or insn.op in STX_OPS or insn.op in ST_OPS:
        # Static stack-bounds check: accesses relative to r10 must stay in
        # the frame.  (Packet-pointer bounds are dynamic; the VM checks.)
        base = insn.dst if (insn.op in STX_OPS or insn.op in ST_OPS) else insn.src
        if base == Reg.R10:
            if insn.off >= 0 or insn.off < -STACK_SIZE:
                raise VerifierError(
                    f"insn {idx}: stack access at r10{insn.off:+d} outside "
                    f"the {STACK_SIZE}-byte frame"
                )
