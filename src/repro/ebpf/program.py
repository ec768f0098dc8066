"""eBPF programs and the assembler used to write them.

:class:`ProgramBuilder` plays the role of clang/LLVM in Figure 4's workflow:
developers write restricted logic, the builder emits eBPF instructions, and
:func:`repro.ebpf.verifier.verify` plays the in-kernel verifier before a
program may attach anywhere.

Labels may only be *forward* references.  That is deliberate: the verifier
rejects back-edges (loops), so the assembler simply cannot express them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.ebpf.isa import ALU_OPS, JMP_OPS, Insn, Reg
from repro.ebpf.maps import BpfMap


@dataclass
class Program:
    """A loaded eBPF program: instructions plus its map references."""

    name: str
    insns: Sequence[Insn]
    maps: Dict[int, BpfMap] = field(default_factory=dict)
    verified: bool = False
    #: ``(insns, token)`` once :func:`repro.ebpf.jit.program_token` has
    #: stamped the program (a class default, not a field).
    _jit_token = None

    def __len__(self) -> int:
        return len(self.insns)


class _PendingLabel:
    __slots__ = ("name", "insn_index")

    def __init__(self, name: str, insn_index: int) -> None:
        self.name = name
        self.insn_index = insn_index


class ProgramBuilder:
    """Assemble an eBPF program with forward-only labels.

    Example::

        b = ProgramBuilder("drop_all")
        b.mov_imm(Reg.R0, XdpAction.DROP)
        b.exit_()
        prog = b.build()
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._insns: List[Insn] = []
        self._labels: Dict[str, int] = {}
        self._pending: List[_PendingLabel] = []
        self._maps: Dict[int, BpfMap] = {}
        self._next_map_id = 1

    # -- map plumbing ---------------------------------------------------
    def declare_map(self, bpf_map: BpfMap) -> int:
        """Register a map with the program; returns its handle id."""
        map_id = self._next_map_id
        self._next_map_id += 1
        self._maps[map_id] = bpf_map
        return map_id

    def ld_map(self, dst: Reg, map_id: int) -> "ProgramBuilder":
        """Load a map handle (the ld_imm64 map-fd pseudo instruction)."""
        if map_id not in self._maps:
            raise ValueError(f"map id {map_id} was not declared")
        return self._emit(Insn("ld_map", dst=int(dst), imm=map_id))

    # -- ALU ------------------------------------------------------------
    def _alu(self, op: str, dst: Reg, src: "Reg | None", imm: int) -> "ProgramBuilder":
        if op not in ALU_OPS:
            raise ValueError(f"not an ALU op: {op}")
        if src is None:
            return self._emit(Insn(f"{op}_imm", dst=int(dst), imm=imm))
        return self._emit(Insn(f"{op}_reg", dst=int(dst), src=int(src)))

    def mov_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        return self._alu("mov", dst, None, imm)

    def mov_reg(self, dst: Reg, src: Reg) -> "ProgramBuilder":
        return self._alu("mov", dst, src, 0)

    def add_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        return self._alu("add", dst, None, imm)

    def add_reg(self, dst: Reg, src: Reg) -> "ProgramBuilder":
        return self._alu("add", dst, src, 0)

    def sub_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        return self._alu("sub", dst, None, imm)

    def sub_reg(self, dst: Reg, src: Reg) -> "ProgramBuilder":
        return self._alu("sub", dst, src, 0)

    def mul_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        return self._alu("mul", dst, None, imm)

    def and_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        return self._alu("and", dst, None, imm)

    def or_reg(self, dst: Reg, src: Reg) -> "ProgramBuilder":
        return self._alu("or", dst, src, 0)

    def xor_reg(self, dst: Reg, src: Reg) -> "ProgramBuilder":
        return self._alu("xor", dst, src, 0)

    def lsh_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        return self._alu("lsh", dst, None, imm)

    def rsh_imm(self, dst: Reg, imm: int) -> "ProgramBuilder":
        return self._alu("rsh", dst, None, imm)

    def be(self, dst: Reg, width_bits: int) -> "ProgramBuilder":
        """Convert dst from big-endian (network) order, like bpf_ntohs."""
        if width_bits not in (16, 32, 64):
            raise ValueError("be width must be 16/32/64")
        return self._emit(Insn("be", dst=int(dst), imm=width_bits))

    # -- memory -----------------------------------------------------------
    def _mem(self, op: str, dst: Reg, src: Reg, off: int) -> "ProgramBuilder":
        return self._emit(Insn(op, dst=int(dst), src=int(src), off=off))

    def ldxb(self, dst: Reg, src: Reg, off: int = 0) -> "ProgramBuilder":
        return self._mem("ldxb", dst, src, off)

    def ldxh(self, dst: Reg, src: Reg, off: int = 0) -> "ProgramBuilder":
        return self._mem("ldxh", dst, src, off)

    def ldxw(self, dst: Reg, src: Reg, off: int = 0) -> "ProgramBuilder":
        return self._mem("ldxw", dst, src, off)

    def ldxdw(self, dst: Reg, src: Reg, off: int = 0) -> "ProgramBuilder":
        return self._mem("ldxdw", dst, src, off)

    def stxb(self, dst: Reg, src: Reg, off: int = 0) -> "ProgramBuilder":
        return self._mem("stxb", dst, src, off)

    def stxh(self, dst: Reg, src: Reg, off: int = 0) -> "ProgramBuilder":
        return self._mem("stxh", dst, src, off)

    def stxw(self, dst: Reg, src: Reg, off: int = 0) -> "ProgramBuilder":
        return self._mem("stxw", dst, src, off)

    def stxdw(self, dst: Reg, src: Reg, off: int = 0) -> "ProgramBuilder":
        return self._mem("stxdw", dst, src, off)

    def stw(self, dst: Reg, off: int, imm: int) -> "ProgramBuilder":
        return self._emit(Insn("stw", dst=int(dst), off=off, imm=imm))

    def stdw(self, dst: Reg, off: int, imm: int) -> "ProgramBuilder":
        return self._emit(Insn("stdw", dst=int(dst), off=off, imm=imm))

    # -- control flow -----------------------------------------------------
    def label(self, name: str) -> "ProgramBuilder":
        """Place a label at the current position, resolving forward refs."""
        if name in self._labels:
            raise ValueError(f"duplicate label: {name}")
        here = len(self._insns)
        self._labels[name] = here
        for pending in [p for p in self._pending if p.name == name]:
            insn = self._insns[pending.insn_index]
            off = here - pending.insn_index - 1
            if off < 0:
                raise ValueError("internal error: backward label")
            self._insns[pending.insn_index] = insn._replace(off=off)
            self._pending.remove(pending)
        return self

    def _branch_target(self, label: str) -> int:
        if label in self._labels:
            raise ValueError(
                f"label {label!r} is behind us — loops are not allowed in eBPF"
            )
        self._pending.append(_PendingLabel(label, len(self._insns)))
        return 0  # patched when the label is placed

    def ja(self, label: str) -> "ProgramBuilder":
        off = self._branch_target(label)
        return self._emit(Insn("ja", off=off))

    def _jmp(
        self, op: str, dst: Reg, src: Optional[Reg], imm: int, label: str
    ) -> "ProgramBuilder":
        if op not in JMP_OPS:
            raise ValueError(f"not a jump op: {op}")
        off = self._branch_target(label)
        if src is None:
            return self._emit(Insn(f"{op}_imm", dst=int(dst), off=off, imm=imm))
        return self._emit(Insn(f"{op}_reg", dst=int(dst), src=int(src), off=off))

    def jeq_imm(self, dst: Reg, imm: int, label: str) -> "ProgramBuilder":
        return self._jmp("jeq", dst, None, imm, label)

    def jne_imm(self, dst: Reg, imm: int, label: str) -> "ProgramBuilder":
        return self._jmp("jne", dst, None, imm, label)

    def jgt_imm(self, dst: Reg, imm: int, label: str) -> "ProgramBuilder":
        return self._jmp("jgt", dst, None, imm, label)

    def jlt_imm(self, dst: Reg, imm: int, label: str) -> "ProgramBuilder":
        return self._jmp("jlt", dst, None, imm, label)

    def jeq_reg(self, dst: Reg, src: Reg, label: str) -> "ProgramBuilder":
        return self._jmp("jeq", dst, src, 0, label)

    def jne_reg(self, dst: Reg, src: Reg, label: str) -> "ProgramBuilder":
        return self._jmp("jne", dst, src, 0, label)

    def jgt_reg(self, dst: Reg, src: Reg, label: str) -> "ProgramBuilder":
        return self._jmp("jgt", dst, src, 0, label)

    def jge_reg(self, dst: Reg, src: Reg, label: str) -> "ProgramBuilder":
        return self._jmp("jge", dst, src, 0, label)

    def call(self, helper_id: int) -> "ProgramBuilder":
        return self._emit(Insn("call", imm=helper_id))

    def exit_(self) -> "ProgramBuilder":
        return self._emit(Insn("exit"))

    # -- assembly ---------------------------------------------------------
    def _emit(self, insn: Insn) -> "ProgramBuilder":
        self._insns.append(insn)
        return self

    def build(self) -> Program:
        if self._pending:
            missing = sorted({p.name for p in self._pending})
            raise ValueError(f"unresolved labels: {missing}")
        if not self._insns or self._insns[-1].op != "exit":
            raise ValueError("program must end with exit")
        return Program(self.name, tuple(self._insns), dict(self._maps))
