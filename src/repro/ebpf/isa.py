"""The eBPF instruction set subset this VM implements.

Instructions follow the real eBPF layout: ``(op, dst, src, off, imm)`` where
``dst``/``src`` are register numbers, ``off`` a signed 16-bit branch/memory
offset, ``imm`` a signed 32-bit immediate.  Mnemonics are strings for
readability; the verifier knows the full legal set, and the JIT
(:mod:`repro.ebpf.jit`) translates each one to Python source once per
program.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Reg(enum.IntEnum):
    """eBPF registers and their calling convention roles."""

    R0 = 0  # return value / scratch
    R1 = 1  # first argument (the context pointer on entry)
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5  # last argument register
    R6 = 6  # callee-saved
    R7 = 7
    R8 = 8
    R9 = 9
    R10 = 10  # frame pointer (read-only)


class Insn(NamedTuple):
    op: str
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0


#: ALU operations, 64-bit, register or immediate source.
ALU_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "div",
        "mod",
        "and",
        "or",
        "xor",
        "lsh",
        "rsh",
        "arsh",
        "mov",
        "neg",
    }
)

#: Conditional jump predicates (plus unconditional "ja").
JMP_OPS = frozenset(
    {"jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jsge"}
)

#: Memory access widths in bytes, by suffix.
MEM_WIDTHS = {"b": 1, "h": 2, "w": 4, "dw": 8}

#: Load (ldx<w>) and store (stx<w>, st<w>) op names.
LDX_OPS = frozenset({f"ldx{s}" for s in MEM_WIDTHS})
STX_OPS = frozenset({f"stx{s}" for s in MEM_WIDTHS})
ST_OPS = frozenset({f"st{s}" for s in MEM_WIDTHS})

#: Everything the verifier will accept.
ALL_OPS = (
    {f"{op}_imm" for op in ALU_OPS - {"neg"}}
    | {f"{op}_reg" for op in ALU_OPS - {"neg"}}
    | {"neg"}
    | {f"{op}_imm" for op in JMP_OPS}
    | {f"{op}_reg" for op in JMP_OPS}
    | {"ja", "call", "exit"}
    | LDX_OPS
    | STX_OPS
    | ST_OPS
    | {"ld_map"}  # pseudo ld_imm64 loading a map handle into a register
    | {"be", "le"}  # byteswap (endianness helpers used by parsers)
)

U64 = (1 << 64) - 1


def to_u64(value: int) -> int:
    return value & U64


def to_s64(value: int) -> int:
    value &= U64
    return value - (1 << 64) if value >= (1 << 63) else value
