"""JIT-compile verified eBPF programs to native Python closures.

The real kernel escapes its eBPF interpreter with a per-architecture JIT;
this module is the simulator's equivalent.  A verified
:class:`~repro.ebpf.program.Program` is translated *once* into Python
source for a single function that executes the whole instruction stream —
ALU, branches, loads/stores through the same region/bounds model, helper
calls through :data:`~repro.ebpf.helpers.HELPERS`, map interaction through
:class:`~repro.ebpf.maps.BpfMap` — compiled with :func:`compile` and cached
on the program (invalidated whenever the program's instruction tuple or
map bindings change).

The contract is **charge-exactness**: a compiled run must be
observationally identical to an interpreted one.  Same verdict, same
packet bytes, same map contents and version bumps, same
``insns_retired``/``helper_calls``/``runs`` trace counters, and the same
virtual-time charges in the same order — ``dma_first_touch_ns`` at the
first packet-data load, then one aggregate
``executed * ebpf_insn_ns + helper_cost`` charge computed with the same
float operations the interpreter performs.  Only wall-clock time differs.
To keep that guarantee cheap, generated fast paths only inline the cases
whose semantics are locally obvious (int/int ALU, packet/stack memory,
the xdp_md context); everything else falls back to the *same* module
functions the interpreter itself runs (:func:`repro.ebpf.vm.alu`,
:func:`repro.ebpf.vm.branch_taken`, ``EbpfVm._load``/``_store``).

Control flow needs no goto: the verifier rejects back-edges, so a
program is a DAG over straight-line segments.  The generated function is
a ``while True`` loop of ``if label <= <segment start>:`` guards; a taken
jump sets ``label`` and ``continue``s, which skips every earlier segment
— a relooper for the forward-only case.

Programs the translator cannot prove it can compile are *declined* and
run on the interpreter forever (per-program, recorded in
:func:`stats`).  Gating: module switch :data:`ENABLED` (tests turn it
off with :func:`disabled` to run the interpreter as the oracle) AND the
global :mod:`repro.sim.fastpath` switch, checked by the attachment
layers (``ebpf/xdp.py``, ``kernel/tc.py``) per packet.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.ebpf.helpers import HELPERS
from repro.ebpf.isa import MEM_WIDTHS, U64, to_s64, to_u64
from repro.ebpf.program import Program
from repro.ebpf.vm import (
    CTX_LEN,
    CTX_REGION,
    EbpfVm,
    PKT_REGION,
    Pointer,
    STACK_REGION,
    VmFault,
    alu,
    branch_taken,
)
from repro.ebpf.verifier import MAX_INSNS, STACK_SIZE
from repro.sim import trace as _trace
from repro.sim.costs import DEFAULT_COSTS

ENABLED: bool = True


@contextmanager
def disabled():
    """Run a block with the JIT off (forces the interpreter path)."""
    global ENABLED
    saved = ENABLED
    ENABLED = False
    try:
        yield
    finally:
        ENABLED = saved


class JitDecline(Exception):
    """The translator refuses this program; the interpreter runs it."""


# ----------------------------------------------------------------------
# Per-program bookkeeping.
# ----------------------------------------------------------------------
class ProgramJitStats:
    """Hit/fallback counters for one program name (appctl fastpath/show)."""

    __slots__ = ("name", "compiled", "declined", "jit_runs", "interp_runs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.compiled = False
        self.declined: Optional[str] = None
        self.jit_runs = 0
        self.interp_runs = 0


_STATS: Dict[str, ProgramJitStats] = {}

#: Monotonic id handed to (program, insns-tuple) pairs; memo keys use it.
_NEXT_TOKEN = 1


def stats_for(name: str) -> ProgramJitStats:
    st = _STATS.get(name)
    if st is None:
        st = _STATS[name] = ProgramJitStats(name)
    return st


def stats() -> Dict[str, ProgramJitStats]:
    """Live per-program stats, keyed by program name."""
    return dict(_STATS)


def reset_stats() -> None:
    _STATS.clear()


def program_token(program: Program) -> int:
    """A small int identifying this program *and* its instruction tuple.

    Replacing the program object, or rebinding ``program.insns``, yields
    a fresh token; the XDP verdict memo keys on it so a swapped program
    can never replay a stale verdict.
    """
    global _NEXT_TOKEN
    tok = getattr(program, "_jit_token", None)
    if tok is None or tok[0] is not program.insns:
        tok = (program.insns, _NEXT_TOKEN)
        _NEXT_TOKEN += 1
        program._jit_token = tok
    return tok[1]


class CompiledProgram:
    """A program's generated function plus everything needed to trust it."""

    __slots__ = ("program", "fn", "source", "stats", "maps_snapshot")

    def __init__(self, program: Program, fn, source: str,
                 st: ProgramJitStats, maps_snapshot: Dict) -> None:
        self.program = program
        self.fn = fn
        self.source = source
        self.stats = st
        self.maps_snapshot = maps_snapshot


class JitVm(EbpfVm):
    """An :class:`EbpfVm` whose :meth:`run` executes compiled code.

    Inherits the whole register/memory surface (helpers call straight
    into it), so helper semantics are shared with the interpreter by
    construction rather than re-implemented.
    """

    def __init__(self, compiled: CompiledProgram, exec_ctx=None,
                 ktime_ns: int = 0) -> None:
        super().__init__(compiled.program, exec_ctx=exec_ctx,
                         ktime_ns=ktime_ns)
        self._compiled = compiled

    def run(self, pkt_data: bytes, ingress_ifindex: int = 0,
            rx_queue_index: int = 0) -> int:
        compiled = self._compiled
        compiled.stats.jit_runs += 1
        return compiled.fn(self, pkt_data, ingress_ifindex, rx_queue_index)


# ----------------------------------------------------------------------
# Translation.
# ----------------------------------------------------------------------
_PRED_PYOP = {
    "jeq": "==", "jne": "!=", "jgt": ">", "jge": ">=", "jlt": "<", "jle": "<=",
}

_SUPPORTED_MISC = frozenset({"exit", "call", "ja", "ld_map", "neg", "be", "le"})
_ALU_BASES = frozenset(
    {"add", "sub", "mul", "div", "mod", "and", "or", "xor",
     "lsh", "rsh", "arsh", "mov"}
)
_JMP_PREDS = frozenset(_PRED_PYOP) | {"jset", "jsgt", "jsge"}

_P48 = 1 << 48  # synthetic pointer base used in NULL-check comparisons


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def __call__(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _split(op: str) -> Tuple[str, str]:
    base, _, mode = op.rpartition("_")
    return base, mode


def _translate(program: Program) -> Tuple[str, Dict[str, object]]:
    """Emit the source and globals of ``_jit_entry`` for ``program``."""
    insns = program.insns
    n = len(insns)
    if n == 0:
        raise JitDecline("empty program")
    if n > MAX_INSNS:
        raise JitDecline(f"program too large: {n} insns")

    # First pass: validate every opcode and collect jump-target segment
    # starts.  Anything unknown declines the whole program — the
    # interpreter defines the semantics of whatever we cannot prove.
    starts = set()
    for pc, insn in enumerate(insns):
        op = insn.op
        base, mode = _split(op)
        is_jump = op == "ja" or (mode in ("imm", "reg") and base in _JMP_PREDS)
        if is_jump:
            target = pc + 1 + insn.off
            if not 0 <= target < n:
                raise JitDecline(f"pc {pc}: branch target {target} out of range")
            starts.add(target)
            continue
        if op in _SUPPORTED_MISC:
            if op == "call" and insn.imm not in HELPERS:
                raise JitDecline(f"pc {pc}: unknown helper id {insn.imm}")
            if op == "ld_map" and insn.imm not in program.maps:
                raise JitDecline(f"pc {pc}: undeclared map id {insn.imm}")
            continue
        if mode in ("imm", "reg") and base in _ALU_BASES:
            continue
        if op.startswith("ldx") and op[3:] in MEM_WIDTHS:
            continue
        if op.startswith("stx") and op[3:] in MEM_WIDTHS:
            continue
        if op.startswith("st") and op[2:] in MEM_WIDTHS:
            continue
        raise JitDecline(f"pc {pc}: unsupported opcode {op!r}")

    glb: Dict[str, object] = {
        "U64": U64,
        "Pointer": Pointer,
        "VmFault": VmFault,
        "_COSTS": DEFAULT_COSTS,
        "_HELPERS": HELPERS,
        "_trace": _trace,
        "_branch": branch_taken,
        "_alu_op": alu,
        "_vm_load": EbpfVm._load,
        "_vm_store": EbpfVm._store,
        "_to_s64": to_s64,
        "_to_u64": to_u64,
        "_PTR_CTX": Pointer(CTX_REGION, 0),
        "_PTR_STACK": Pointer(STACK_REGION, STACK_SIZE),
        "_PTR_PKT0": Pointer(PKT_REGION, 0),
    }

    w = _Emitter()
    w("def _jit_entry(vm, pkt_data, ingress_ifindex, rx_queue_index):")
    w.indent = 1
    # Prologue — mirrors EbpfVm.run()'s reset exactly.  The stack region
    # deliberately persists across runs of one VM, as it does there.
    w("costs = _COSTS")
    w("pkt = bytearray(pkt_data)")
    w("vm._pkt = pkt")
    w("regions = vm._regions")
    w(f"regions['{CTX_REGION}'] = bytearray({CTX_LEN})")
    w(f"stack = regions['{STACK_REGION}']")
    w("vm._ctx_meta = (ingress_ifindex, rx_queue_index)")
    w("vm.redirect_target = None")
    w("regs = vm._regs")
    w("r1 = regs[1] = _PTR_CTX")
    w("r10 = regs[10] = _PTR_STACK")
    w("r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = 0")
    w("n_ret = 0")
    w("ncall = 0")
    w("hcost = 0.0")
    w("label = 0")
    w("while True:")

    pending = 0
    alive = True
    for pc, insn in enumerate(insns):
        if pc == 0 or pc in starts:
            if pc != 0 and alive and pending:
                w.indent = 3
                w(f"n_ret += {pending}")
            pending = 0
            w.indent = 2
            w(f"if label <= {pc}:")
            w.indent = 3
            alive = True
        if not alive:
            continue  # statically unreachable (after exit/ja, no label)
        pending += 1
        op = insn.op
        d, s, off, imm = insn.dst, insn.src, insn.off, insn.imm

        if op == "exit":
            w(f"n_ret += {pending}")
            pending = 0
            w("break")
            alive = False
        elif op == "ja":
            w(f"n_ret += {pending}")
            pending = 0
            w(f"label = {pc + 1 + off}")
            w("continue")
            alive = False
        elif op == "call":
            _gen_call(w, imm)
        elif op == "ld_map":
            name = f"_map_{imm}"
            glb[name] = program.maps[imm]
            w(f"r{d} = {name}")
        elif op == "neg":
            w(f"_a = r{d}")
            w("if _a.__class__ is int:")
            w(f"    r{d} = (-_a) & U64")
            w("else:")
            w(f"    r{d} = (-vm.scalar_from_reg({d})) & U64")
        elif op in ("be", "le"):
            mask = (1 << imm) - 1
            w(f"_a = r{d}")
            w("if _a.__class__ is int:")
            w(f"    r{d} = _a & {mask}")
            w("else:")
            w(f"    r{d} = vm.scalar_from_reg({d}) & {mask}")
        else:
            base, mode = _split(op)
            if mode in ("imm", "reg") and base in _JMP_PREDS:
                pending = _gen_branch(w, insn, pc, pending)
            elif mode in ("imm", "reg") and base in _ALU_BASES:
                _gen_alu(w, insn)
            elif op.startswith("ldx"):
                _gen_load(w, d, s, off, MEM_WIDTHS[op[3:]])
            elif op.startswith("stx"):
                _gen_store_reg(w, d, s, off, MEM_WIDTHS[op[3:]])
            else:  # st<w> immediate store
                width = MEM_WIDTHS[op[2:]]
                value = to_u64(imm) & ((1 << (8 * width)) - 1)
                _gen_store_imm(w, d, off, width, value)

    if alive:  # pragma: no cover - verified programs end in exit/ja
        if pending:
            w(f"n_ret += {pending}")
        w("break")
    w.indent = 2
    w("break")

    # Epilogue — the same commit sequence, in the same order, as the
    # interpreter's run() tail.  Reached only on clean exit: a VmFault or
    # helper exception propagates before any of this, exactly as there.
    w.indent = 1
    w("vm.insns_executed += n_ret")
    w("vm.last_executed = n_ret")
    w("vm.last_helper_calls = ncall")
    w("_charge = n_ret * costs.ebpf_insn_ns + hcost")
    w("vm.last_charge_ns = _charge")
    w("_ec = vm.exec_ctx")
    w("if _ec is not None:")
    w("    _ec.charge(_charge, label='ebpf')")
    w("rec = _trace.ACTIVE")
    w("if rec is not None:")
    w("    rec.count('ebpf.insns_retired', n_ret)")
    w("    if ncall:")
    w("        rec.count('ebpf.helper_calls', ncall)")
    w("    rec.count('ebpf.runs')")
    w("if vm._map_values:")
    w("    vm._flush_map_values()")
    w("if r0.__class__ is int:")
    w("    return r0 & 0xFFFFFFFF")
    w("if isinstance(r0, Pointer):")
    w("    raise VmFault('program returned a pointer')")
    w("return _to_u64(int(r0)) & 0xFFFFFFFF")
    return w.source(), glb


def _gen_call(w: _Emitter, imm: int) -> None:
    # Sync the argument registers helpers may read (r1-r5), call through
    # the live HELPERS table, and accumulate the helper cost with the
    # same per-call float additions the interpreter makes.
    w("regs[1] = r1; regs[2] = r2; regs[3] = r3; regs[4] = r4; regs[5] = r5")
    w(f"r0 = _HELPERS[{imm}](vm)")
    w("vm.helper_calls += 1")
    w("ncall += 1")
    w("hcost += costs.ebpf_helper_ns")
    if imm == 1:  # map lookup
        w("hcost += costs.ebpf_map_lookup_ns")
    elif imm in (2, 3):  # map update / delete
        w("hcost += costs.ebpf_map_update_ns")


def _gen_branch(w: _Emitter, insn, pc: int, pending: int) -> int:
    """Emit a conditional jump; returns the new pending-insn count (0)."""
    base, mode = _split(insn.op)
    target = pc + 1 + insn.off
    d, s, imm = insn.dst, insn.src, insn.imm
    # Retire everything up to and including this branch before deciding:
    # both outcomes executed the same prefix.
    w(f"n_ret += {pending}")
    w(f"_a = r{d}")

    def taken(indent: str, cond: str) -> None:
        w(f"{indent}if {cond}:")
        w(f"{indent}    label = {target}")
        w(f"{indent}    continue")

    if mode == "imm":
        iu = to_u64(imm)
        w("if _a.__class__ is int:")
        if base in _PRED_PYOP:
            taken("    ", f"(_a & U64) {_PRED_PYOP[base]} {iu}")
        elif base == "jset":
            taken("    ", f"(_a & U64) & {iu}")
        else:  # jsgt / jsge
            pyop = ">" if base == "jsgt" else ">="
            taken("    ", f"_to_s64(_a) {pyop} {to_s64(iu)}")
        w("elif _a.__class__ is Pointer:")
        if base in _PRED_PYOP:
            taken("    ", f"(_a[1] + {_P48}) {_PRED_PYOP[base]} {iu}")
        elif base == "jset":
            taken("    ", f"(_a[1] + {_P48}) & {iu}")
        else:
            w(f"    if _branch('{base}', _a, {imm}):")
            w(f"        label = {target}")
            w("        continue")
        w(f"elif _branch('{base}', _a, {imm}):")
        w(f"    label = {target}")
        w("    continue")
    else:
        w(f"_b = r{s}")
        w("if _a.__class__ is int and _b.__class__ is int:")
        if base in _PRED_PYOP:
            taken("    ", f"(_a & U64) {_PRED_PYOP[base]} (_b & U64)")
        elif base == "jset":
            taken("    ", "(_a & U64) & (_b & U64)")
        else:
            pyop = ">" if base == "jsgt" else ">="
            taken("    ", f"_to_s64(_a) {pyop} _to_s64(_b)")
        if base in _PRED_PYOP or base == "jset":
            w("elif _a.__class__ is Pointer and _b.__class__ is Pointer:")
            w("    if _a[0] != _b[0]:")
            w("        raise VmFault('comparing pointers into different"
              " regions')")
            if base in _PRED_PYOP:
                taken("    ", f"_a[1] {_PRED_PYOP[base]} _b[1]")
            else:
                taken("    ", "_a[1] & _b[1]")
        w(f"elif _branch('{base}', _a, _b):")
        w(f"    label = {target}")
        w("    continue")
    return 0


def _gen_alu(w: _Emitter, insn) -> None:
    base, mode = _split(insn.op)
    d, s, imm = insn.dst, insn.src, insn.imm
    if base == "mov":
        w(f"r{d} = {imm}" if mode == "imm" else f"r{d} = r{s}")
        return
    if base in ("div", "mod"):
        rhs = imm if mode == "imm" else f"r{s}"
        w(f"r{d} = _alu_op('{base}', r{d}, {rhs})")
        return
    w(f"_a = r{d}")
    if mode == "imm":
        iu = to_u64(imm)
        # Python ints are two's-complement towers: +,-,*,<<,&,|,^ respect
        # congruence mod 2**64, so masking once at the end (or masking
        # operands only where sign matters) reproduces to_u64 exactly.
        int_expr = {
            "add": f"(_a + {imm}) & U64",
            "sub": f"(_a - {imm}) & U64",
            "mul": f"(_a * {imm}) & U64",
            "and": f"_a & {iu}",
            "or": f"(_a & U64) | {iu}",
            "xor": f"(_a & U64) ^ {iu}",
            "lsh": f"(_a << {iu & 63}) & U64",
            "rsh": f"(_a & U64) >> {iu & 63}",
            "arsh": f"(_to_s64(_a) >> {iu & 63}) & U64",
        }[base]
        w("if _a.__class__ is int:")
        w(f"    r{d} = {int_expr}")
        if base in ("add", "sub"):
            # Pointer +/- constant is the bread and butter of packet and
            # stack addressing; to_s64(to_u64(imm)) == imm for s32 imms.
            sign = "+" if base == "add" else "-"
            w("elif _a.__class__ is Pointer:")
            w(f"    r{d} = Pointer(_a[0], _a[1] {sign} {imm})")
        w("else:")
        w(f"    r{d} = _alu_op('{base}', _a, {imm})")
    else:
        w(f"_b = r{s}")
        int_expr = {
            "add": "(_a + _b) & U64",
            "sub": "(_a - _b) & U64",
            "mul": "(_a * _b) & U64",
            "and": "(_a & _b) & U64",
            "or": "(_a | _b) & U64",
            "xor": "(_a ^ _b) & U64",
            "lsh": "(_a << (_b & 63)) & U64",
            "rsh": "(_a & U64) >> (_b & 63)",
            "arsh": "(_to_s64(_a) >> (_b & 63)) & U64",
        }[base]
        w("if _a.__class__ is int and _b.__class__ is int:")
        w(f"    r{d} = {int_expr}")
        w("else:")
        w(f"    r{d} = _alu_op('{base}', _a, _b)")


def _gen_load(w: _Emitter, d: int, s: int, off: int, width: int) -> None:
    w(f"_p = r{s}")
    w("if _p.__class__ is not Pointer:")
    w("    raise VmFault('load through a non-pointer')")
    w("_rg = _p[0]")
    w(f"_st = _p[1] + {off}" if off else "_st = _p[1]")
    w(f"if _rg == '{PKT_REGION}':")
    w("    if not vm.touched_pkt_data:")
    w("        vm.touched_pkt_data = True")
    w("        _ec = vm.exec_ctx")
    w("        if _ec is not None:")
    w("            _ec.charge(costs.dma_first_touch_ns,"
      " label='dma_first_touch')")
    w(f"    _e = _st + {width}")
    w("    if _st < 0 or _e > len(pkt):")
    w("        raise VmFault(f'out-of-bounds load pkt[{_st}:{_e}] "
      "(size {len(pkt)})')")
    if width == 1:
        w(f"    r{d} = pkt[_st]")
    elif width == 2:
        w(f"    r{d} = (pkt[_st] << 8) | pkt[_st + 1]")
    else:
        w(f"    r{d} = int.from_bytes(pkt[_st:_e], 'big')")
    w(f"elif _rg == '{STACK_REGION}':")
    w(f"    _e = _st + {width}")
    w(f"    if _st < 0 or _e > {STACK_SIZE}:")
    w("        raise VmFault(f'out-of-bounds load stack[{_st}:{_e}] "
      f"(size {STACK_SIZE})')")
    if width == 1:
        w(f"    r{d} = stack[_st]")
    elif width == 2:
        w(f"    r{d} = stack[_st] | (stack[_st + 1] << 8)")
    else:
        w(f"    r{d} = int.from_bytes(stack[_st:_e], 'little')")
    w(f"elif _rg == '{CTX_REGION}':")
    w("    if _st == 0 or _st == 8:")
    w(f"        r{d} = _PTR_PKT0")
    w("    elif _st == 4:")
    w(f"        r{d} = Pointer('{PKT_REGION}', len(pkt))")
    w("    elif _st == 12:")
    w(f"        r{d} = ingress_ifindex")
    w("    elif _st == 16:")
    w(f"        r{d} = rx_queue_index")
    w("    else:")
    w("        raise VmFault(f'bad ctx offset {_st}')")
    w("else:")
    w(f"    r{d} = _vm_load(vm, _p, {off}, {width})")


def _store_body(w: _Emitter, d: int, off: int, width: int,
                stack_rhs: str, pkt_rhs: str, slow_value: str) -> None:
    w(f"_p = r{d}")
    w("if _p.__class__ is not Pointer:")
    w("    raise VmFault('store through a non-pointer')")
    w("_rg = _p[0]")
    w(f"_st = _p[1] + {off}" if off else "_st = _p[1]")
    w(f"if _rg == '{STACK_REGION}':")
    w(f"    _e = _st + {width}")
    w(f"    if _st < 0 or _e > {STACK_SIZE}:")
    w("        raise VmFault(f'out-of-bounds write stack[{_st}:{_e}]')")
    if width == 1:
        w(f"    stack[_st] = {stack_rhs}")
    else:
        w(f"    stack[_st:_e] = {stack_rhs}")
    w(f"elif _rg == '{PKT_REGION}':")
    w(f"    _e = _st + {width}")
    w("    if _st < 0 or _e > len(pkt):")
    w("        raise VmFault(f'out-of-bounds write pkt[{_st}:{_e}]')")
    if width == 1:
        w(f"    pkt[_st] = {pkt_rhs}")
    else:
        w(f"    pkt[_st:_e] = {pkt_rhs}")
    w("else:")
    w(f"    _vm_store(vm, _p, {off}, {width}, {slow_value})")


def _gen_store_reg(w: _Emitter, d: int, s: int, off: int, width: int) -> None:
    mask = (1 << (8 * width)) - 1
    # Interpreter order: the source scalar is extracted (and may fault on
    # a pointer) *before* the destination pointer is inspected.
    w(f"_v = r{s}")
    w("if _v.__class__ is int:")
    w(f"    _v = _v & {mask}")
    w("else:")
    w(f"    _v = vm.scalar_from_reg({s}) & {mask}")
    if width == 1:
        _store_body(w, d, off, width, "_v", "_v", "_v")
    else:
        _store_body(
            w, d, off, width,
            f"_v.to_bytes({width}, 'little')",
            f"_v.to_bytes({width}, 'big')",
            "_v",
        )


def _gen_store_imm(w: _Emitter, d: int, off: int, width: int,
                   value: int) -> None:
    if width == 1:
        _store_body(w, d, off, width, str(value), str(value), str(value))
    else:
        _store_body(
            w, d, off, width,
            repr(value.to_bytes(width, "little")),
            repr(value.to_bytes(width, "big")),
            str(value),
        )


# ----------------------------------------------------------------------
# Compile cache.
# ----------------------------------------------------------------------
def compile_program(program: Program) -> Optional[CompiledProgram]:
    """Translate + compile ``program``; ``None`` if declined."""
    st = stats_for(program.name)
    try:
        source, glb = _translate(program)
        code = compile(source, f"<ebpf-jit:{program.name}>", "exec")
        exec(code, glb)
    except JitDecline as exc:
        st.compiled = False
        st.declined = str(exc)
        return None
    except Exception as exc:  # pragma: no cover - codegen bug safety net
        # A translator defect must never take the datapath down: decline
        # and let the interpreter define the semantics.  The test suite
        # asserts every library program compiles, so this cannot hide.
        st.compiled = False
        st.declined = f"internal error: {exc!r}"
        return None
    compiled = CompiledProgram(
        program, glb["_jit_entry"], source, st, dict(program.maps)
    )
    st.compiled = True
    st.declined = None
    return compiled


def compiled_for(program: Program) -> Optional[CompiledProgram]:
    """The cached compiled form of ``program`` (or ``None`` if declined).

    Cache validity is checked per call: the instruction tuple must be
    the very object that was compiled and every map id must still bind
    the same map object (the generated code captured them), otherwise
    the program is recompiled — the "invalidated on program change" rule.
    """
    cached = getattr(program, "_jit_cache", None)
    if cached is not None and cached[0] is program.insns:
        compiled = cached[1]
        if compiled is None or compiled.maps_snapshot == program.maps:
            return compiled
    compiled = compile_program(program) if program.verified else None
    program._jit_cache = (program.insns, compiled)
    return compiled
